"""The sharded deployment: shard worlds, worker processes, engine.

The room's peers are partitioned into ``n_shards`` independent chains
(the paper's §8(5) direction), each on its own clock so that shards can
run in separate processes — on one interpreter the GIL serializes all
validation, hashing and crypto:

* :class:`ShardWorld` — one shard's complete pipeline (orderer, peers,
  executor, ledger, clients) on its *own* :class:`Network` and clock,
  built from a plain serializable spec so it can be constructed inside
  a freshly spawned worker process;
* :func:`_worker_main` — the worker process loop: resets the crypto
  memo caches (cold start regardless of fork/spawn), builds its shard
  worlds, then serves codec-framed epoch requests over a pipe;
* :class:`LocalShardGroupPort` / :class:`ProcessShardGroupPort` — the
  two placements behind one :class:`~repro.simnet.bridge.ShardGroupPort`
  protocol.  The local port round-trips every frame through the same
  :mod:`~repro.blockchain.codec` as the process port, so the two
  placements execute byte-identical command streams — bit-identical
  results are by construction, not by luck;
* :class:`BridgedShardEngine` — the deployment-shaped facade: routing,
  command submission with completion callbacks, the epoch loop,
  summary collection and horizon reads of committed state.
  :class:`BridgeSwapPort` adapts it for the
  :class:`~repro.blockchain.swaps.SwapCoordinator`, whose 2PC steps
  then traverse the time bridge like any other control-plane traffic.

Determinism argument (DESIGN.md §13): each shard world is a pure
function of its spec and its injected command stream; the bridge ships
identical command batches and merges upward events in a placement-
independent total order; therefore sim metrics, ledgers and state
hashes are identical for ``procs=1`` and ``procs=N``.
"""

from __future__ import annotations

import importlib
import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..simnet.bridge import (
    DEFAULT_LOOKAHEAD_MS,
    BridgeError,
    Command,
    ShardGroupPort,
    TimeBridge,
    UpEvent,
)
from ..simnet.latency import INTERCONTINENTAL, INTERNET_US, LAN_1GBPS, LatencyProfile
from .client import BlockchainClient
from .codec import CodecError, decode, encode
from .config import FabricConfig
from .crypto import reset_crypto_caches
from .network import BlockchainNetwork
from .policy import MAJORITY
from .sharding import session_shard_key, shard_index_for_key
from .transaction import TxResult

__all__ = [
    "ShardWorld",
    "LocalShardGroupPort",
    "ProcessShardGroupPort",
    "BridgedShardEngine",
    "BridgeSwapPort",
    "shard_specs",
]

#: Named latency profiles a spec may reference (object graphs do not
#: cross the process boundary — names do).
_PROFILES: Dict[str, LatencyProfile] = {
    profile.name: profile
    for profile in (INTERNET_US, LAN_1GBPS, INTERCONTINENTAL)
}

ASSET_PREFIX = "asset/"
LOCK_PREFIX = "swaplock/"


def _resolve_contract(path: str) -> Callable[[], Any]:
    """Import a contract factory from a ``module:attr`` dotted path."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ValueError(f"contract path {path!r} must be 'module:attr'")
    return getattr(importlib.import_module(module_name), attr)


def shard_specs(
    n_peers: int,
    n_shards: int,
    config: FabricConfig,
    seed: int = 0,
    policy: str = MAJORITY,
    profile: LatencyProfile = INTERNET_US,
    contract: str = "repro.blockchain.swaps:ShardAssetContract",
) -> List[Dict[str, Any]]:
    """Serializable per-shard construction specs: ``base + 1`` peers
    for the first ``n_peers % n_shards`` shards, seed ``seed + index``,
    one CA (``seed``), host-name prefix ``s<index>-``."""
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if n_peers < n_shards:
        raise ValueError("need at least one peer per shard")
    if profile.name not in _PROFILES:
        raise ValueError(f"unknown profile {profile.name!r}")
    config_dict = dict(config.__dict__)
    config_dict["priority_functions"] = list(config.priority_functions)
    base, extra = divmod(n_peers, n_shards)
    specs: List[Dict[str, Any]] = []
    for index in range(n_shards):
        specs.append(
            {
                "index": index,
                "n_peers": base + (1 if index < extra else 0),
                "seed": seed + index,
                "ca_seed": seed,
                "policy": policy,
                "profile": profile.name,
                "config": config_dict,
                "contract": contract,
                "name_prefix": f"s{index}-",
            }
        )
    return specs


class ShardWorld:
    """One shard's full pipeline on a private clock.

    Executes downward ``invoke`` commands at their effect times and
    buffers upward completion events, each stamped with
    ``(local time, shard index, emission seq)`` so the bridge can merge
    streams from many worlds into one global order.
    """

    def __init__(self, spec: Dict[str, Any]):
        self.index = int(spec["index"])
        config_dict = dict(spec["config"])
        config_dict["priority_functions"] = tuple(config_dict["priority_functions"])
        self.config = FabricConfig(**config_dict)
        from .identity import CertificateAuthority

        self.chain = BlockchainNetwork(
            n_peers=int(spec["n_peers"]),
            profile=_PROFILES[spec["profile"]],
            config=self.config,
            policy=spec["policy"],
            seed=int(spec["seed"]),
            ca=CertificateAuthority(seed=int(spec["ca_seed"])),
            name_prefix=spec["name_prefix"],
        )
        self.chain.install_contract(_resolve_contract(spec["contract"]))
        self.scheduler = self.chain.scheduler
        self._clients: Dict[str, BlockchainClient] = {}
        self._events: List[UpEvent] = []
        self._event_seq = 0
        self.last_commit_ms = 0.0
        self.blocks_committed = 0
        for peer in self.chain.peers:
            peer.ledger.on_append = self._on_append

    # -- upward events -------------------------------------------------

    def _on_append(self, _block, _executions, _codes) -> None:
        self.last_commit_ms = max(self.last_commit_ms, self.scheduler.now)
        self.blocks_committed += 1

    def _emit(self, kind: str, payload: Any) -> None:
        self._event_seq += 1
        self._events.append(
            (self.scheduler.now, self.index, self._event_seq, kind, payload)
        )

    def drain_events(self) -> List[UpEvent]:
        events, self._events = self._events, []
        return events

    # -- downward commands ---------------------------------------------

    def client(self, prefix: str, poll_interval_ms: float) -> BlockchainClient:
        """Get-or-create the submission client of one control-plane
        identity; ``poll_interval_ms`` applies on creation only."""
        client = self._clients.get(prefix)
        if client is None:
            client = self.chain.create_client(
                f"{prefix}-s{self.index}", poll_interval_ms=poll_interval_ms
            )
            self._clients[prefix] = client
        return client

    def apply_commands(self, commands: List[Command]) -> None:
        for _seq, effect_time, op, payload in commands:
            if effect_time < self.scheduler.now:
                raise BridgeError(
                    f"shard {self.index}: command effect t={effect_time:.3f} "
                    f"is before local now={self.scheduler.now:.3f}"
                )
            if op != "invoke":
                raise BridgeError(f"shard {self.index}: unknown command op {op!r}")
            self.scheduler.call_at(effect_time, self._do_invoke, payload)

    def _do_invoke(self, payload: Dict[str, Any]) -> None:
        callback_id = payload["cb"]
        on_complete = None
        if callback_id is not None:
            def on_complete(result: TxResult, latency: float) -> None:
                self._emit("complete", (callback_id, result, latency))

        self.client(payload["prefix"], payload["poll_ms"]).invoke(
            payload["contract"],
            payload["function"],
            payload["args"],
            touched_keys=payload["keys"],
            on_complete=on_complete,
        )

    # -- epoch execution -----------------------------------------------

    def run_epoch(self, until: float) -> Dict[str, Any]:
        self.scheduler.run(until=until)
        return {
            "pending": self.scheduler.pending,
            "next_when": self.scheduler.next_when(),
        }

    # -- inspection ----------------------------------------------------

    def _reference_peer(self):
        """The most-advanced *reachable* peer, None when all are down.

        Host-side readers (swap recovery, the conservation scan) need a
        consistent-enough cut of the shard's committed state; the
        max-committed-height reachable peer is monotone with respect to
        the shard's commit order, so cross-shard reads through it can
        never observe a transfer's destination before its source.
        """
        best = None
        for peer in self.chain.peers:
            if self.chain.net.condition(peer.name).down:
                continue
            if best is None or peer.committed_height > best.committed_height:
                best = peer
        return best

    def committed_state_get(self, key: str) -> Any:
        peer = self._reference_peer()
        return peer.ledger.state.get(key) if peer is not None else None

    def summary(self) -> Dict[str, Any]:
        """Codec-safe digest of this shard's committed state.

        Asset records and locks are read through the reference peer; a
        shard with every peer down is ``readable: False`` and reports
        none (unobservable, not destroyed).  The progress figures
        describe the most advanced ledger, reachable or not.
        """
        reference = self._reference_peer()
        records = reference.ledger.state.snapshot() if reference is not None else {}
        peer = max(self.chain.peers, key=lambda p: p.committed_height)
        assets: Dict[str, Any] = {}
        locks: Dict[str, Any] = {}
        for key, value in sorted(records.items()):
            if value is None:
                continue  # tombstone
            if key.startswith(ASSET_PREFIX):
                assets[key[len(ASSET_PREFIX):]] = value
            elif key.startswith(LOCK_PREFIX):
                locks[key[len(LOCK_PREFIX):]] = value
        submitted = sum(c.submitted_count for c in self._clients.values())
        completed = sum(c.completed_count for c in self._clients.values())
        return {
            "shard": self.index,
            "readable": reference is not None,
            "committed_height": peer.committed_height,
            "committed_heights_all": sorted(
                {p.committed_height for p in self.chain.peers}
            ),
            "synced_heights": sorted({p.synced_height for p in self.chain.peers}),
            "ledgers_agree": len(
                {p.ledger.state_hash() for p in self.chain.peers}
            ) == 1,
            "state_hash": peer.ledger.state_hash(),
            "committed_tx_count": len(peer.ledger.committed_tx_ids()),
            "last_commit_ms": self.last_commit_ms,
            "sim_now_ms": self.scheduler.now,
            "events_processed": self.scheduler.events_processed,
            "assets": assets,
            "locks": locks,
            "counters": {
                "txs_submitted": submitted,
                "txs_completed": completed,
                "blocks_committed": self.blocks_committed,
            },
        }


# ----------------------------------------------------------------------
# frame protocol (shared by both placements)
#
#   down: ("epoch", until, {shard: [command, ...]})
#         ("summaries",)
#         ("get", shard, key)
#         ("stop",)
#   up:   ("events", [event, ...], {shard: {"pending", "next_when"}})
#         ("summaries", {shard: summary})
#         ("value", committed value or None)
#         ("bye",)
#
# "summaries" and "get" are only sent between epochs, when every world
# sits idle at the same horizon: the answer is the same for any
# placement and costs no scheduler event.


class _WorldGroup:
    """The shard worlds hosted by one worker; executes decoded frames."""

    def __init__(self, specs: List[Dict[str, Any]]):
        self.worlds = {spec["index"]: ShardWorld(spec) for spec in specs}

    def handle(self, frame: Tuple) -> Tuple:
        kind = frame[0]
        if kind == "epoch":
            _, until, commands_by_shard = frame
            for index, commands in commands_by_shard.items():
                self.worlds[index].apply_commands(commands)
            events: List[UpEvent] = []
            stats: Dict[int, Dict[str, Any]] = {}
            for index in sorted(self.worlds):
                world = self.worlds[index]
                stats[index] = world.run_epoch(until)
                events.extend(world.drain_events())
            return ("events", events, stats)
        if kind == "summaries":
            return (
                "summaries",
                {index: world.summary() for index, world in self.worlds.items()},
            )
        if kind == "get":
            _, index, key = frame
            return ("value", self.worlds[index].committed_state_get(key))
        raise BridgeError(f"unknown frame kind {frame[0]!r}")


def _worker_main(conn, specs_bytes: bytes) -> None:
    """Entry point of one spawned shard worker process."""
    # Cold caches regardless of start method: a forked worker inherits
    # the parent's verify/keypair memos, a spawned one starts empty —
    # after this reset both are identical (and deterministic).
    reset_crypto_caches()
    group = _WorldGroup(decode(specs_bytes))
    while True:
        frame = decode(conn.recv_bytes())
        if frame[0] == "stop":
            conn.send_bytes(encode(("bye",)))
            return
        conn.send_bytes(encode(group.handle(frame)))


class LocalShardGroupPort(ShardGroupPort):
    """All worlds in-process — but through the same codec-framed
    protocol as the process port, so the executed byte streams are
    identical in both placements."""

    def __init__(self, specs: List[Dict[str, Any]]):
        self.shard_indices = tuple(spec["index"] for spec in specs)
        self._group = _WorldGroup(decode(encode(specs)))
        #: The live worlds, by shard index (``BridgedShardEngine.worlds``).
        self.worlds = self._group.worlds
        self._reply: Optional[bytes] = None

    def _roundtrip(self, frame: Tuple) -> bytes:
        return encode(self._group.handle(decode(encode(frame))))

    def begin_epoch(self, until: float, commands: Dict[int, List[Command]]) -> None:
        self._reply = self._roundtrip(("epoch", until, commands))

    def finish_epoch(self) -> Tuple[List[UpEvent], Dict[int, Dict[str, Any]]]:
        assert self._reply is not None, "begin_epoch not called"
        _, events, stats = decode(self._reply)
        self._reply = None
        return events, stats

    def collect_summaries(self) -> Dict[int, Dict[str, Any]]:
        return decode(self._roundtrip(("summaries",)))[1]

    def committed_state_get(self, shard: int, key: str) -> Any:
        return decode(self._roundtrip(("get", shard, key)))[1]

    def close(self) -> None:
        pass


class ProcessShardGroupPort(ShardGroupPort):
    """Worlds in a spawned worker process, codec frames over a pipe.

    ``spawn`` (not ``fork``) so every worker starts from a clean
    interpreter: no inherited scheduler state, no warmed memo caches,
    identical bootstrap on every platform.
    """

    def __init__(self, specs: List[Dict[str, Any]]):
        self.shard_indices = tuple(spec["index"] for spec in specs)
        ctx = multiprocessing.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(
            target=_worker_main,
            args=(child_conn, encode(specs)),
            name=f"shardworker-{'-'.join(map(str, self.shard_indices))}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _send(self, frame: Tuple) -> None:
        try:
            self._conn.send_bytes(encode(frame))
        except OSError as exc:  # BrokenPipeError: the worker is gone
            raise self._worker_lost() from exc

    def _recv(self, kind: str) -> Tuple:
        try:
            data = self._conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._worker_lost() from exc
        try:
            reply = decode(data)
        except CodecError as exc:
            raise self._worker_error(f"sent an undecodable reply ({exc})") from exc
        if not (isinstance(reply, tuple) and reply and reply[0] == kind):
            raise self._worker_error(
                f"sent {reply!r:.80} where a {kind!r} reply was due"
            )
        return reply

    def _worker_error(self, what: str) -> BridgeError:
        return BridgeError(
            f"worker {self._process.name} hosting shards "
            f"{list(self.shard_indices)} {what}"
        )

    def _worker_lost(self) -> BridgeError:
        self._process.join(timeout=5)
        return self._worker_error(f"died (exit code {self._process.exitcode})")

    def begin_epoch(self, until: float, commands: Dict[int, List[Command]]) -> None:
        self._send(("epoch", until, commands))

    def finish_epoch(self) -> Tuple[List[UpEvent], Dict[int, Dict[str, Any]]]:
        reply = self._recv("events")
        return reply[1], reply[2]

    def collect_summaries(self) -> Dict[int, Dict[str, Any]]:
        self._send(("summaries",))
        return self._recv("summaries")[1]

    def committed_state_get(self, shard: int, key: str) -> Any:
        self._send(("get", shard, key))
        return self._recv("value")[1]

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send_bytes(encode(("stop",)))
                self._conn.recv_bytes()  # ("bye",)
            except (BrokenPipeError, EOFError, OSError):
                pass
        self._conn.close()
        self._process.join(timeout=30)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=5)


# ----------------------------------------------------------------------
# engine facade


class BridgedShardEngine:
    """The sharded deployment: a facade over the bridge + shard worlds.

    The control plane (completion callbacks, swap coordinator timers)
    runs on the bridge's control scheduler; every shard interaction is
    a routed command.  ``procs=1`` hosts all worlds in-process (still
    codec-framed); ``procs=N`` distributes them round-robin over
    ``min(N, n_shards)`` spawned workers.  Results are bit-identical
    across placements by construction.
    """

    def __init__(
        self,
        n_peers: int,
        n_shards: int,
        config: Optional[FabricConfig] = None,
        policy: str = MAJORITY,
        profile: LatencyProfile = INTERNET_US,
        seed: int = 0,
        procs: int = 1,
        lookahead_ms: float = DEFAULT_LOOKAHEAD_MS,
        contract: str = "repro.blockchain.swaps:ShardAssetContract",
    ):
        if procs < 1:
            raise ValueError("need at least one process")
        self.n_shards = n_shards
        self.config = config if config is not None else FabricConfig()
        self.contract_path = contract
        self.contract_name = _resolve_contract(contract).name
        self.procs = procs
        specs = shard_specs(
            n_peers, n_shards, self.config, seed=seed, policy=policy,
            profile=profile, contract=contract,
        )
        n_workers = min(procs, n_shards)
        by_worker: List[List[Dict[str, Any]]] = [[] for _ in range(n_workers)]
        for spec in specs:
            by_worker[spec["index"] % n_workers].append(spec)
        port_cls = LocalShardGroupPort if procs == 1 else ProcessShardGroupPort
        self.bridge = TimeBridge(
            [port_cls(group) for group in by_worker], lookahead_ms=lookahead_ms
        )
        #: ``(horizon, summaries)`` of the last collection.
        self._summaries: Optional[Tuple[float, Dict[int, Dict[str, Any]]]] = None
        self._closed = False

    @property
    def worlds(self) -> List[ShardWorld]:
        """The live shard worlds, by shard index — local placement only.

        The one host-side handle for what cannot cross a process
        boundary: chaos attaches invariant monitors, fault injectors
        and buggy fixtures to ``world.chain``, telemetry hooks each
        world's hosts on that world's clock.
        """
        if self.procs != 1:
            raise RuntimeError(
                f"engine.worlds needs the local placement (procs=1); with "
                f"procs={self.procs} the worlds live in worker processes"
            )
        worlds = self.bridge.ports[0].worlds
        return [worlds[index] for index in range(self.n_shards)]

    # -- routing -------------------------------------------------------

    def shard_index_for_key(self, key: str) -> int:
        return shard_index_for_key(key, self.n_shards)

    def shard_index_for_session(self, session_id: str) -> int:
        return self.shard_index_for_key(session_shard_key(session_id))

    # -- control plane -------------------------------------------------

    @property
    def now(self) -> float:
        return self.bridge.now

    @property
    def scheduler(self):
        return self.bridge.control

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any):
        return self.bridge.call_at(when, fn, *args)

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any):
        return self.bridge.call_after(delay, fn, *args)

    def submit_invoke(
        self,
        shard_index: int,
        function: str,
        args: Tuple,
        touched_keys: Tuple[str, ...] = (),
        on_complete: Optional[Callable[[TxResult, float], None]] = None,
        client_prefix: str = "router",
        poll_interval_ms: float = 250.0,
        contract: Optional[str] = None,
        effect_time: Optional[float] = None,
    ) -> float:
        """Route one contract invocation to a shard world.

        ``on_complete(result, latency_ms)`` fires on the control clock
        at the completion's shard-local timestamp.  Without an explicit
        ``effect_time`` the call is *reactive* and takes effect one
        lookahead window from control-now (the modeled bridge transit);
        pre-planned streams pass their absolute injection times.
        Returns the effect time.
        """
        callback_id = (
            self.bridge.register_callback(on_complete)
            if on_complete is not None else None
        )
        payload = {
            "cb": callback_id,
            "prefix": client_prefix,
            "poll_ms": float(poll_interval_ms),
            "contract": contract if contract is not None else self.contract_name,
            "function": function,
            "args": tuple(args),
            "keys": tuple(touched_keys),
        }
        return self.bridge.submit(shard_index, "invoke", payload, effect_time)

    def run(self) -> None:
        """Run epoch rounds until the whole system is quiescent."""
        self.bridge.run()

    # -- results -------------------------------------------------------

    def collect_summaries(self) -> Dict[int, Dict[str, Any]]:
        """Every shard's summary at the current horizon (worlds only
        change inside epochs, so one collection per horizon is kept)."""
        horizon = self.bridge.horizon
        if self._summaries is None or self._summaries[0] != horizon:
            merged: Dict[int, Dict[str, Any]] = {}
            for port in self.bridge.ports:
                merged.update(port.collect_summaries())
            self._summaries = (
                horizon, {index: merged[index] for index in sorted(merged)}
            )
        return self._summaries[1]

    def committed_state_get(self, shard_index: int, key: str) -> Any:
        """One key of a shard's reference committed state, read at the
        current horizon (None when absent or the shard is dark)."""
        for port in self.bridge.ports:
            if shard_index in port.shard_indices:
                return port.committed_state_get(shard_index, key)
        raise BridgeError(f"unknown shard {shard_index}")

    def committed_heights(self) -> List[int]:
        summaries = self.collect_summaries()
        return [summaries[i]["committed_height"] for i in range(self.n_shards)]

    def ledgers_agree(self) -> List[bool]:
        summaries = self.collect_summaries()
        return [summaries[i]["ledgers_agree"] for i in range(self.n_shards)]

    def state_hashes(self) -> List[str]:
        summaries = self.collect_summaries()
        return [summaries[i]["state_hash"] for i in range(self.n_shards)]

    def committed_tx_count(self) -> int:
        return sum(s["committed_tx_count"] for s in self.collect_summaries().values())

    def scheduler_events(self) -> int:
        """Shard events + control events: the cross-placement invariant."""
        total = sum(s["events_processed"] for s in self.collect_summaries().values())
        return total + self.bridge.control.events_processed

    def aggregate_telemetry(self, telemetry) -> None:
        """Merge per-worker counters into one parent metrics registry,
        labeled by shard — the single pane of glass over all workers."""
        for index, summary in self.collect_summaries().items():
            for name, value in summary["counters"].items():
                if value:
                    telemetry.registry.counter(
                        f"repro_shard_{name}_total",
                        f"per-shard {name.replace('_', ' ')} (worker aggregate)",
                        shard=str(index),
                    ).inc(value)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.bridge.close()

    def __enter__(self) -> "BridgedShardEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class BridgeSwapPort:
    """Adapts :class:`BridgedShardEngine` for the
    :class:`~repro.blockchain.swaps.SwapCoordinator`: 2PC submissions
    become bridged commands (reactive, so they pay the bridge transit
    latency), timers run on the control clock."""

    def __init__(self, engine: BridgedShardEngine, client_name: str = "swapcoord"):
        self.engine = engine
        self.client_name = client_name

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def swap_timeout_ms(self) -> float:
        return self.engine.config.swap_timeout_ms

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any):
        return self.engine.call_after(delay, fn, *args)

    def submit(
        self,
        shard_index: int,
        contract: str,
        function: str,
        args: Tuple,
        keys: Tuple[str, ...],
        on_complete: Callable[[TxResult, float], None],
    ) -> None:
        self.engine.submit_invoke(
            shard_index, function, args, touched_keys=keys,
            on_complete=on_complete, client_prefix=self.client_name,
            poll_interval_ms=self.engine.config.swap_poll_interval_ms,
            contract=contract,
        )

    def committed_state_get(self, shard_index: int, key: str) -> Any:
        return self.engine.committed_state_get(shard_index, key)
