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
is *delayed* — the metric of Figs. 3d/3e and Table 4.  These rules live
in :class:`Dispatcher`, which the offline model
(:func:`~repro.core.batching.count_delays`) drives too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..blockchain.client import BlockchainClient
from ..blockchain.config import FabricConfig
from ..blockchain.contracts import ContractError, check_payload
from ..blockchain.identity import Identity
from ..blockchain.ordering import OrderingService
from ..blockchain.peer import Peer
from ..blockchain.transaction import TxResult, TxValidationCode
from ..game.events import EventType, GameEvent, affected_assets
from .codegen import SpecContract
from .doom_contract import item_key

__all__ = [
    "ShimConfig", "ShimStats", "Batch", "Dispatcher", "Shim", "ShardRouter",
    "MERGEABLE_EVENTS",
]

#: Event types whose consecutive occurrences merge into one query object.
MERGEABLE_EVENTS = frozenset({EventType.SHOOT, EventType.LOCATION})


@dataclass
class ShimConfig:
    """Shim-side knobs (§6 optimisations)."""

    multithreaded: bool = True
    batching: bool = True
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

    @property
    def throughput_tx_per_s(self) -> float:
        return self._per_s(self.txs_dispatched)

    @property
    def throughput_events_per_s(self) -> float:
        return self._per_s(self.events_acked)

    def _per_s(self, count: int) -> float:
        """``count`` over the span from the first event to the last ack."""
        if self.first_event_at is None or self.last_ack_at is None:
            return 0.0
        span_s = (self.last_ack_at - self.first_event_at) / 1000.0
        return count / span_s if span_s > 0 else 0.0


@dataclass
class Batch:
    """An open or queued batch of consecutive same-type events."""

    etype: str
    events: List[GameEvent]

    def can_merge(self, event: GameEvent, max_batch: int) -> bool:
        return (
            event.etype == self.etype
            and self.etype in MERGEABLE_EVENTS
            and event.seq == self.events[-1].seq + 1
            and len(self.events) < max_batch
        )

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
        self.queue: Deque[Batch] = deque()


class Dispatcher:
    """The shim's dispatch policy, without a clock.

    It picks each event's lane, merges the event into the lane's open
    batch where §4.2.5 allows, counts delays, and hands out batches to
    start: one in flight per lane, the rest queued in arrival order.
    The live :class:`Shim` drives it with ``invoke`` as the validator;
    :func:`~repro.core.batching.count_delays` drives it with a fixed
    validation window.  Dispatch counters go to ``stats``.
    """

    def __init__(self, config: ShimConfig, stats: ShimStats):
        self.config = config
        self.stats = stats
        self.lanes: Dict[Any, _Lane] = {}
        self._lane_of: Dict[str, _Lane] = {}  # etype -> its lane

    def lane(self, etype: str) -> _Lane:
        """One lane per asset type (an event's first asset), or one lane."""
        lane = self._lane_of.get(etype)
        if lane is None:
            assets = affected_assets(etype)
            key = "single" if not self.config.multithreaded else assets[0] if assets else etype
            lane = self._lane_of[etype] = self.lanes.setdefault(key, _Lane())
        return lane

    def offer(self, event: GameEvent) -> Optional[Batch]:
        """Take one event; returns the batch to start now, if any."""
        self.stats.events_received += 1
        lane = self.lane(event.etype)
        if lane.inflight is None and not lane.queue:
            return self._start(lane, Batch(etype=event.etype, events=[event]))
        # An event is *delayed* when it "could not be batched in the
        # current time window" (§7.2.4): it neither dispatches
        # immediately, nor joins a batch, nor starts the next batch in
        # line — it has to open an additional batch behind an existing
        # backlog (e.g. after an interleaved event broke sequence
        # continuity, the paper's two-SHOOT-batches example).
        if (
            self.config.batching
            and lane.queue
            and lane.queue[-1].can_merge(event, self.config.max_batch)
        ):
            lane.queue[-1].events.append(event)
            return None
        if lane.queue:
            self.stats.delayed_events += 1
        lane.queue.append(Batch(etype=event.etype, events=[event]))
        return None

    def finish(self, batch: Batch) -> Optional[Batch]:
        """``batch`` has its verdict; returns its lane's next batch to
        start, if any."""
        lane = self.lane(batch.etype)
        lane.inflight = None
        return self._start(lane, lane.queue.popleft()) if lane.queue else None

    def _start(self, lane: _Lane, batch: Batch) -> Batch:
        lane.inflight = batch
        stats = self.stats
        stats.txs_dispatched += 1
        size = len(batch.events)
        if size > 1 or batch.etype in MERGEABLE_EVENTS:
            stats.batches_dispatched += 1
            stats.batched_events += size
            stats.max_batch_size = max(stats.max_batch_size, size)
        return batch


AckCallback = Callable[[GameEvent, bool, str, float], None]


class Shim(BlockchainClient):
    """The per-player shim.

    ``contract`` is the contract the game deployed: the shim takes its
    payload shapes and its KVS key function from it.
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
        contract: SpecContract,
        fabric_config: Optional[FabricConfig] = None,
        shim_config: Optional[ShimConfig] = None,
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
        self.contract = contract
        self.contract_name = contract.name
        self.on_ack = on_ack
        self.stats = ShimStats()
        self._dispatcher = Dispatcher(shim_config, self.stats)
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
        if self.stats.first_event_at is None:
            self.stats.first_event_at = now
        try:
            check_payload(self.contract.PAYLOADS.get(event.etype, {}), event.payload)
        except ContractError:
            # Every peer would reject it: refuse it before it is batched.
            self.stats.events_received += 1
            self._ack(event, False, TxValidationCode.CONTRACT_REJECTED, 0.0)
            return
        self._arrival_ms[event.seq] = now
        batch = self._dispatcher.offer(event)
        if batch is not None:
            self._dispatch(batch)

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, batch: Batch) -> None:
        payload = batch.payload()
        self.invoke(
            self.contract_name,
            batch.etype,
            (payload,),
            touched_keys=self._touched_keys(batch.etype, payload),
            on_complete=lambda result, _lat: self._on_batch_complete(batch, result),
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
        aids = affected_assets(etype) + self._READ_DEPENDENCIES.get(etype, ())
        if item_bound and etype.startswith("pickup_"):
            aids += self._BOUND_PICKUP_READS
        keys: List[str] = []
        for aid in aids:
            key = self.contract.kvs_key(player, aid)
            if key not in keys:
                keys.append(key)
        if item_bound:
            keys.append(item_key(payload["item_id"]))
        return tuple(keys)

    # ------------------------------------------------------------------
    # feedback loop (§4.2.5(1))

    def _on_batch_complete(self, batch: Batch, result: TxResult) -> None:
        now = self.network.scheduler.now
        accepted = result.code == TxValidationCode.VALID
        batch_latencies: List[float] = []
        for event in batch.events:
            latency = now - self._arrival_ms.pop(event.seq, now)
            batch_latencies.append(latency)
            self._ack(event, accepted, result.code, latency)
        if self.telemetry is not None:
            self.telemetry.shim_ack(
                self.name, result.tx_id, accepted, result.code,
                batch_latencies, len(batch.events),
            )
        following = self._dispatcher.finish(batch)
        if following is not None:
            self._dispatch(following)

    def _ack(self, event: GameEvent, accepted: bool, code: str, latency: float) -> None:
        stats = self.stats
        stats.latencies_ms.append(latency)
        stats.last_ack_at = self.network.scheduler.now
        if accepted:
            stats.accepted_events += 1
        else:
            stats.rejected_events += 1
            stats.rejections_by_code[code] = stats.rejections_by_code.get(code, 0) + 1
        if self.on_ack is not None:
            self.on_ack(event, accepted, code, latency)

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
        for lane in self._dispatcher.lanes.values():
            lane.queue.clear()
        if self._poll_timer is not None:
            self._poll_timer.cancel()
            self._poll_timer = None

    def pending_events(self) -> int:
        return sum(
            (len(lane.inflight.events) if lane.inflight else 0)
            + sum(len(b.events) for b in lane.queue)
            for lane in self._dispatcher.lanes.values()
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
