"""The shim: the interface between game client and smart contract (§4.2).

The shim "encapsulates [client] events and relevant asset information
within a query object along with a nonce", maps them to smart-contract
APIs, submits them as transactions, polls the blockchain every client
tick for commit status, and relays the verdict back as a per-event
acknowledgement — preserving the original C/S communication model.

Both shim-side optimisations of §6 are first-class configuration:

* **multithreading** (:attr:`ShimConfig.multithreaded`) — one dispatch
  lane per asset type, so consensus for different assets proceeds in
  parallel ("each thread must handle only one type of asset");
* **event batching** (:attr:`ShimConfig.batching`) — "similar but
  consecutive events with continuous acknowledgement numbers" merge
  into one query object (five SHOOTs become one decrement-by-five).
  Order is preserved exactly as §4.2.5 requires: an interleaved event
  consumes a sequence number, which breaks consecutiveness and closes
  the open batch.

An event that can neither dispatch immediately nor join the open batch
is *delayed* — the metric of Figs. 3d/3e and Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..blockchain.client import BlockchainClient
from ..blockchain.config import FabricConfig
from ..blockchain.identity import Identity
from ..blockchain.ordering import OrderingService
from ..blockchain.peer import Peer
from ..blockchain.transaction import TxResult, TxValidationCode
from ..game.assets import asset_key
from ..game.events import EventType, GameEvent, affected_assets
from .doom_contract import item_key

__all__ = [
    "ShimConfig", "ShimStats", "Batch", "Shim", "ShardRouter",
    "MERGEABLE_EVENTS",
]

#: Event types whose consecutive occurrences merge into one query object.
MERGEABLE_EVENTS = frozenset({EventType.SHOOT, EventType.LOCATION})


@dataclass
class ShimConfig:
    """Shim-side knobs (§6 optimisations)."""

    multithreaded: bool = True
    batching: bool = True
    split_kvs: bool = True
    poll_interval_ms: float = 1000.0 / 35.0
    max_batch: int = 64


@dataclass
class ShimStats:
    """Counters the evaluation reports."""

    events_received: int = 0
    txs_dispatched: int = 0
    batches_dispatched: int = 0
    batched_events: int = 0
    max_batch_size: int = 0
    delayed_events: int = 0
    accepted_events: int = 0
    rejected_events: int = 0
    rejections_by_code: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    first_event_at: Optional[float] = None
    last_ack_at: Optional[float] = None

    @property
    def avg_latency_ms(self) -> float:
        return sum(self.latencies_ms) / len(self.latencies_ms) if self.latencies_ms else 0.0

    @property
    def avg_batch_size(self) -> float:
        if self.batches_dispatched == 0:
            return 0.0
        return self.batched_events / self.batches_dispatched

    @property
    def events_acked(self) -> int:
        return self.accepted_events + self.rejected_events

    def throughput_tx_per_s(self) -> float:
        if self.first_event_at is None or self.last_ack_at is None:
            return 0.0
        span_s = (self.last_ack_at - self.first_event_at) / 1000.0
        return self.txs_dispatched / span_s if span_s > 0 else 0.0

    def throughput_events_per_s(self) -> float:
        if self.first_event_at is None or self.last_ack_at is None:
            return 0.0
        span_s = (self.last_ack_at - self.first_event_at) / 1000.0
        return self.events_acked / span_s if span_s > 0 else 0.0


@dataclass
class Batch:
    """An open or queued batch of consecutive same-type events."""

    etype: str
    events: List[GameEvent]

    @property
    def last_seq(self) -> int:
        return self.events[-1].seq

    def can_merge(self, event: GameEvent, max_batch: int) -> bool:
        return (
            event.etype == self.etype
            and self.etype in MERGEABLE_EVENTS
            and event.seq == self.last_seq + 1
            and len(self.events) < max_batch
        )

    def merge(self, event: GameEvent) -> None:
        self.events.append(event)

    def payload(self) -> Dict[str, Any]:
        """The merged query-object payload for this batch."""
        last = self.events[-1]
        payload = dict(last.payload)
        payload["t"] = last.t_ms
        if self.etype == EventType.SHOOT:
            payload["count"] = sum(e.payload.get("count", 1) for e in self.events)
        return payload


class _Lane:
    """One dispatch thread: at most one transaction in flight."""

    __slots__ = ("inflight", "queue")

    def __init__(self) -> None:
        self.inflight: Optional[Batch] = None
        self.queue: List[Batch] = []


AckCallback = Callable[[GameEvent, bool, str, float], None]


class Shim(BlockchainClient):
    """The per-player shim.

    ``on_ack(event, accepted, code, latency_ms)`` is invoked for every
    game event once consensus has been reached on its batch — the
    feedback the game client uses for server reconciliation.
    """

    def __init__(
        self,
        name: str,
        region: str,
        identity: Identity,
        orderer: OrderingService,
        anchor_peer: Peer,
        fabric_config: Optional[FabricConfig] = None,
        shim_config: Optional[ShimConfig] = None,
        contract_name: str = "doom",
        on_ack: Optional[AckCallback] = None,
    ):
        shim_config = shim_config if shim_config is not None else ShimConfig()
        super().__init__(
            name=name,
            region=region,
            identity=identity,
            orderer=orderer,
            anchor_peer=anchor_peer,
            config=fabric_config,
            poll_interval_ms=shim_config.poll_interval_ms,
        )
        self.shim_config = shim_config
        self.contract_name = contract_name
        self.on_ack = on_ack
        self.stats = ShimStats()
        self._lanes: Dict[Any, _Lane] = {}
        self._arrival_ms: Dict[int, float] = {}  # seq -> arrival time
        self.closed = False

    @property
    def player(self) -> str:
        """The player identity this shim submits for."""
        return self.identity.name

    # ------------------------------------------------------------------
    # event intake

    def on_game_event(self, event: GameEvent) -> None:
        """Receive one client event (keystroke/game event, §4 workflow)."""
        if self.closed:
            raise RuntimeError("shim torn down: game session has ended")
        now = self.network.scheduler.now
        self.stats.events_received += 1
        if self.stats.first_event_at is None:
            self.stats.first_event_at = now
        self._arrival_ms[event.seq] = now

        lane = self._lane_for(event)
        if lane.inflight is None and not lane.queue:
            batch = Batch(etype=event.etype, events=[event])
            self._dispatch(lane, batch)
            return
        # An event is *delayed* when it "could not be batched in the
        # current time window" (§7.2.4): it neither dispatches
        # immediately, nor joins a batch, nor starts the next batch in
        # line — it has to open an additional batch behind an existing
        # backlog (e.g. after an interleaved event broke sequence
        # continuity, the paper's two-SHOOT-batches example).
        if self.shim_config.batching:
            open_batch = lane.queue[-1] if lane.queue else None
            if open_batch is not None and open_batch.can_merge(
                event, self.shim_config.max_batch
            ):
                open_batch.merge(event)
                return
        if lane.queue:
            self.stats.delayed_events += 1
        lane.queue.append(Batch(etype=event.etype, events=[event]))

    def _lane_for(self, event: GameEvent) -> _Lane:
        if self.shim_config.multithreaded:
            assets = affected_assets(event.etype)
            key: Any = assets[0] if assets else event.etype
        else:
            key = "single"
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = _Lane()
        return lane

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, lane: _Lane, batch: Batch) -> None:
        lane.inflight = batch
        payload = batch.payload()
        touched = self._touched_keys(batch.etype, payload)
        self.stats.txs_dispatched += 1
        if len(batch.events) > 1 or batch.etype in MERGEABLE_EVENTS:
            self.stats.batches_dispatched += 1
            self.stats.batched_events += len(batch.events)
            self.stats.max_batch_size = max(self.stats.max_batch_size, len(batch.events))
        self.invoke(
            self.contract_name,
            batch.etype,
            (payload,),
            touched_keys=touched,
            on_complete=lambda result, _lat: self._on_batch_complete(lane, batch, result),
        )

    #: Assets an event *reads* besides the ones it writes: a shoot needs
    #: the current weapon (ammo cost), and an item-bound pickup checks
    #: the player's position.  Declaring reads keeps them out of blocks
    #: that write the same key, which would MVCC-invalidate them.
    _READ_DEPENDENCIES = {
        EventType.SHOOT: (3,),  # AssetId.WEAPON
    }
    #: Position is read only when the pickup names a map item (the
    #: locality check); unbound pickups skip it.
    _BOUND_PICKUP_READS = (6,)  # AssetId.POSITION

    def _touched_keys(self, etype: str, payload: Dict) -> Tuple[str, ...]:
        """Declare the KVS keys a query will operate on (drives the
        orderer's mutually-exclusive block cutting, §6 opt. ii)."""
        player = payload.get("target", self.player)
        item_bound = payload.get("item_id") is not None
        if self.shim_config.split_kvs:
            aids = list(affected_assets(etype))
            reads = list(self._READ_DEPENDENCIES.get(etype, ()))
            if item_bound and etype.startswith("pickup_"):
                reads.extend(self._BOUND_PICKUP_READS)
            for aid in reads:
                if aid not in aids:
                    aids.append(aid)
            keys = [asset_key(player, aid) for aid in aids]
        else:
            keys = [f"player/{player}"]
        if item_bound:
            keys.append(item_key(payload["item_id"]))
        return tuple(keys)

    # ------------------------------------------------------------------
    # feedback loop (§4.2.5(1))

    def _on_batch_complete(self, lane: _Lane, batch: Batch, result: TxResult) -> None:
        now = self.network.scheduler.now
        accepted = result.code == TxValidationCode.VALID
        batch_latencies: List[float] = []
        for event in batch.events:
            arrival = self._arrival_ms.pop(event.seq, now)
            latency = now - arrival
            self.stats.latencies_ms.append(latency)
            batch_latencies.append(latency)
            self.stats.last_ack_at = now
            if accepted:
                self.stats.accepted_events += 1
            else:
                self.stats.rejected_events += 1
                self.stats.rejections_by_code[result.code] = (
                    self.stats.rejections_by_code.get(result.code, 0) + 1
                )
            if self.on_ack is not None:
                self.on_ack(event, accepted, result.code, latency)
        if self.telemetry is not None:
            self.telemetry.shim_ack(
                self.name, result.tx_id, accepted, result.code,
                batch_latencies, len(batch.events),
            )
        lane.inflight = None
        if lane.queue and not self.closed:
            self._dispatch(lane, lane.queue.pop(0))

    # ------------------------------------------------------------------
    # lifecycle helpers

    def add_player(self, on_complete=None) -> str:
        """Invoke the contract's addPlayer API for this shim's player."""
        return self.invoke(
            self.contract_name, "addPlayer", ({},),
            touched_keys=("game/roster",), on_complete=on_complete,
        )

    def start_game(self, on_complete=None) -> str:
        """Invoke startGame (done once by the initiator shim, §4.2.3)."""
        return self.invoke(
            self.contract_name, "startGame", ({},),
            touched_keys=("game/started",), on_complete=on_complete,
        )

    def teardown(self) -> None:
        """End of session: the blockchain is ephemeral (§4.2.6)."""
        self.closed = True
        for lane in self._lanes.values():
            lane.queue.clear()
        if self._poll_timer is not None:
            self._poll_timer.cancel()
            self._poll_timer = None

    def pending_events(self) -> int:
        return sum(
            (len(lane.inflight.events) if lane.inflight else 0)
            + sum(len(b.events) for b in lane.queue)
            for lane in self._lanes.values()
        )


# ----------------------------------------------------------------------
# shard routing


class ShardRouter:
    """Routes session submissions to the shard owning their keys.

    Sits between game-side code (shims, session pools) and the sharded
    deployment (:class:`~repro.blockchain.shardworker.BridgedShardEngine`):
    callers keep invoking by *session*, and the router resolves the
    session to its shard (crc32 of the session's key prefix — stable
    across runs) and submits a routed bridge command.  Game code never
    names a shard, so re-sharding is a deployment change, not a game
    change.
    """

    def __init__(
        self,
        engine,
        contract_name: str = "shardasset",
        client_prefix: str = "router",
        poll_interval_ms: Optional[float] = None,
    ):
        self.engine = engine
        self.contract_name = contract_name
        self.client_prefix = client_prefix
        self.poll_interval_ms = (
            poll_interval_ms if poll_interval_ms is not None else 1000.0 / 35.0
        )
        self.submitted_by_shard: List[int] = [0] * engine.n_shards

    def shard_of_session(self, session_id: str) -> int:
        return self.engine.shard_index_for_session(session_id)

    def submit(
        self,
        session_id: str,
        function: str,
        args: Tuple,
        touched_keys: Tuple[str, ...] = (),
        on_complete=None,
        effect_time: Optional[float] = None,
    ) -> int:
        """Route one contract invocation to the session's shard and
        return the shard index.  ``effect_time`` is the absolute
        injection time of a pre-planned stream; without it the call is
        reactive and pays one bridge transit."""
        shard_index = self.shard_of_session(session_id)
        self.engine.submit_invoke(
            shard_index, function, tuple(args),
            touched_keys=tuple(touched_keys), on_complete=on_complete,
            client_prefix=self.client_prefix,
            poll_interval_ms=self.poll_interval_ms,
            contract=self.contract_name,
            effect_time=effect_time,
        )
        self.submitted_by_shard[shard_index] += 1
        return shard_index

    def submit_session_event(
        self,
        session_id: str,
        player_id: str,
        delta: int = 1,
        on_complete=None,
        effect_time: Optional[float] = None,
    ) -> int:
        """Route one game-state update (``sess/<sid>/p/<pid>``)."""
        from ..blockchain.swaps import session_key

        return self.submit(
            session_id, "session_event", (session_id, player_id, delta),
            touched_keys=(session_key(session_id, player_id),),
            on_complete=on_complete,
            effect_time=effect_time,
        )
