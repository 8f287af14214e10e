"""Calibrated engine workloads measured in host wall-clock time.

Each workload returns a :class:`WorkloadResult` carrying both the
wall-clock cost and the *simulated* outcome metrics (commit counts,
simulated-ms latencies, heights).  The simulated metrics must be
bit-identical across engine optimisations — host-side caching and
incremental hashing may change how fast the simulation runs, never what
it computes — so the runner records them alongside the timings and the
regression gate compares them exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..blockchain import (
    CertificateAuthority,
    FabricConfig,
    MembershipProvider,
    Version,
    WorldState,
)
from ..blockchain.block import make_block, make_genesis_block
from ..blockchain.contracts import Contract, ContractError, execute_transaction
from ..blockchain.ledger import Ledger, TxExecution
from ..blockchain.transaction import Proposal, RWSet, Transaction, TxValidationCode

__all__ = [
    "Workload",
    "WorkloadResult",
    "WORKLOADS",
    "calibration_ms",
    "SESSION9_SEED",
]

#: Seed of the paper dataset's session #9 (``paper_dataset(seed=2018)``
#: generates sessions #1..#25 with per-session seeds 2018+i).
SESSION9_SEED = 2018 + 8
_SESSION9_DURATION_MS = 24 * 60_000.0


@dataclass
class WorkloadResult:
    """One measured workload run."""

    name: str
    wall_s: float
    #: Scale knobs the run used (events, peers, keys, ...).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Simulated outcome — must not change across engine optimisations.
    sim_metrics: Dict[str, Any] = field(default_factory=dict)
    #: Worker-process count the run used, for workloads that can place
    #: shards in worker processes.  Deliberately *not* part of
    #: ``params``: every ``procs`` placement is bit-identical by
    #: contract, so a ``--procs 8`` run gates against the same baseline.
    procs: Optional[int] = None

    def as_record(self) -> Dict[str, Any]:
        record = {
            "name": self.name,
            "wall_s": round(self.wall_s, 4),
            "params": self.params,
            "sim_metrics": self.sim_metrics,
        }
        if self.procs is not None:
            record["procs"] = self.procs
        return record


@dataclass(frozen=True)
class Workload:
    """A named, scalable benchmark workload."""

    name: str
    fn: Callable[..., WorkloadResult]
    #: (full-size kwargs, quick-size kwargs)
    full: Dict[str, Any] = field(default_factory=dict)
    quick: Dict[str, Any] = field(default_factory=dict)
    #: Whether the workload accepts a ``telemetry=`` kwarg (full-stack
    #: replays do; micro-benchmarks with no pipeline to trace do not).
    traceable: bool = False
    #: Whether the workload accepts ``procs=`` / ``profile_dir=`` kwargs
    #: (the sharded family runs on the bridged engine and can place its
    #: shard pipelines in worker processes).
    takes_procs: bool = False

    def run(
        self,
        quick: bool = False,
        telemetry=None,
        procs: Optional[int] = None,
        profile_dir: Optional[str] = None,
    ) -> WorkloadResult:
        kwargs = dict(self.quick if quick else self.full)
        if telemetry is not None and self.traceable:
            kwargs["telemetry"] = telemetry
        if procs is not None and self.takes_procs:
            kwargs["procs"] = procs
        if profile_dir is not None and self.takes_procs:
            kwargs["profile_dir"] = profile_dir
        return self.fn(**kwargs)


def calibration_ms(loops: int = 60) -> float:
    """Milliseconds this host takes for a fixed pure-Python reference loop.

    The CI regression gate normalises workload timings by this figure so
    a slower runner does not read as an engine regression.
    """
    t0 = time.perf_counter()
    h = hashlib.sha256()
    acc: Dict[str, int] = {}
    for i in range(loops):
        for j in range(1000):
            h.update(b"calibration-block-%d" % j)
            acc[str(j % 97)] = acc.get(str(j % 97), 0) + i
        int(h.hexdigest(), 16)
    return (time.perf_counter() - t0) * 1000.0


# ----------------------------------------------------------------------
# workload 1: block validation (signatures + execution + commit)


class _CounterContract(Contract):
    """Minimal deterministic contract: per-creator counters."""

    name = "perfcounter"

    def invoke(self, ctx, function, args):
        if function != "add":
            raise ContractError(f"unknown function {function!r}")
        key = f"ctr/{args[0]}"
        current = ctx.view.get(key)
        ctx.view.put(key, (current or 0) + int(args[1]))
        return None

    def functions(self):
        return ["add"]


def _make_signed_txs(n_txs: int, ca: CertificateAuthority, identity) -> List[Transaction]:
    txs = []
    for i in range(n_txs):
        proposal = Proposal(
            tx_id=f"perf-{i}",
            contract="perfcounter",
            function="add",
            args=(f"lane{i % 5}", 1),
            nonce=f"n{i}",
            creator=identity.name,
            timestamp=float(i),
            touched_keys=(f"ctr/lane{i % 5}",),
        )
        txs.append(
            Transaction(
                proposal=proposal,
                certificate=identity.certificate,
                signature=identity.sign(proposal.digest()),
            )
        )
    return txs


def block_validation(n_txs: int = 400, n_peers: int = 8, block_txs: int = 5) -> WorkloadResult:
    """Validate the same gossiped blocks at ``n_peers`` simulated peers.

    This is the per-peer CPU loop of the pipeline's stage 1: certificate
    chain + transaction signature verification, contract execution, MVCC
    commit.  Every peer sees the *same* transaction and block objects,
    exactly as in-process peers do in the simulator.
    """
    ca = CertificateAuthority(seed=11)
    msp = MembershipProvider()
    msp.trust_ca(ca)
    identity = ca.enroll("bench-player")
    contract = _CounterContract()
    txs = _make_signed_txs(n_txs, ca, identity)
    genesis = make_genesis_block({"peers": ["bench"], "policy": "majority"})

    blocks = []
    prev = genesis.digest()
    for start in range(0, n_txs, block_txs):
        chunk = txs[start : start + block_txs]
        block = make_block(len(blocks) + 1, prev, chunk, timestamp=float(start))
        prev = block.digest()
        blocks.append(block)

    t0 = time.perf_counter()
    code_tally: Dict[str, int] = {}
    heights = set()
    for _ in range(n_peers):
        ledger = Ledger(genesis)
        for block in blocks:
            if block.data_digest() != block.header.data_hash:
                raise RuntimeError("block integrity check failed")
            executions = []
            for tx in block.transactions:
                if not msp.validate(tx.certificate) or not tx.verify_signature():
                    executions.append(
                        TxExecution(rwset=RWSet(), code=TxValidationCode.BAD_SIGNATURE)
                    )
                    continue
                executions.append(execute_transaction(contract, tx, ledger.state))
            for code in ledger.append(block, executions):
                code_tally[code] = code_tally.get(code, 0) + 1
        heights.add(ledger.height)
    wall = time.perf_counter() - t0
    return WorkloadResult(
        name="block-validation",
        wall_s=wall,
        params={"n_txs": n_txs, "n_peers": n_peers, "block_txs": block_txs},
        sim_metrics={
            "codes": dict(sorted(code_tally.items())),
            "heights": sorted(heights),
        },
    )


# ----------------------------------------------------------------------
# workload 2: sync round (state hashing under a write stream)


def sync_round(
    n_keys: int = 20_000, rounds: int = 400, dirty_per_round: int = 8
) -> WorkloadResult:
    """State hashing as the ledger-sync stage exercises it.

    Builds a world state of ``n_keys`` entries, then performs ``rounds``
    sync rounds: a handful of writes followed by a full ``state_hash()``
    — the access pattern of every peer after every commit.
    """
    rng = random.Random(1905)
    state = WorldState()
    for i in range(n_keys):
        state.put(f"asset/p{i % 64}/{i}", {"v": i, "x": i * 7 % 1001}, Version(0, 0))

    t0 = time.perf_counter()
    hashes = set()
    for r in range(1, rounds + 1):
        for _ in range(dirty_per_round):
            i = rng.randrange(n_keys)
            state.put(
                f"asset/p{i % 64}/{i}", {"v": i, "x": r}, Version(r, 0)
            )
        hashes.add(state.state_hash())
    wall = time.perf_counter() - t0
    return WorkloadResult(
        name="sync-round",
        wall_s=wall,
        params={"n_keys": n_keys, "rounds": rounds, "dirty_per_round": dirty_per_round},
        # Hash *values* are scheme-specific; the scheme-independent
        # invariants are the state size and that every round's hash is
        # distinct (each round really changed the digest).
        sim_metrics={"n_keys": len(state), "distinct_hashes": len(hashes)},
    )


# ----------------------------------------------------------------------
# workload 3: session replay (the full stack)


def _session9_prefix(n_events: int):
    from ..game.traces import generate_session

    demo = generate_session("#9", _SESSION9_DURATION_MS, seed=SESSION9_SEED)
    if n_events >= len(demo.events):
        return demo
    return dataclasses.replace(demo, events=demo.events[:n_events])


def session_replay(
    n_peers: int = 32,
    n_events: int = 2500,
    seed: int = 7,
    telemetry=None,
) -> WorkloadResult:
    """Replay a prefix of session #9 (the paper's longest trace) through
    the real shim + blockchain + simnet stack.

    The simulated metrics recorded here — commit counts, simulated
    latencies, heights, scheduler event count — are the bit-identical
    contract the engine optimisations must preserve.  An optional
    :class:`repro.telemetry.Telemetry` traces the run; being host-side
    only, it never changes the simulated metrics (only ``wall_s``).
    """
    from ..core import GameSession

    demo = _session9_prefix(n_events)
    t0 = time.perf_counter()
    session = GameSession(
        n_peers=n_peers,
        fabric_config=FabricConfig(
            max_block_txs=5,
            mutually_exclusive_blocks=True,
        ),
        seed=seed,
    )
    if telemetry is not None:
        telemetry.instrument_session(session)
    session.setup()
    session.play_demo(demo)
    session.run_until_idle()
    wall = time.perf_counter() - t0

    stats = session.stats()
    peers = session.chain.peers
    latencies = stats.latencies_ms
    return WorkloadResult(
        name=f"replay-{n_peers}p",
        wall_s=wall,
        params={"n_peers": n_peers, "n_events": n_events, "seed": seed},
        sim_metrics={
            "accepted": stats.accepted_events,
            "rejected": stats.rejected_events,
            "avg_latency_ms": round(stats.avg_latency_ms, 6),
            "max_latency_ms": round(max(latencies), 6) if latencies else 0.0,
            "sim_now_ms": round(session.now, 6),
            "committed_heights": sorted({p.committed_height for p in peers}),
            "synced_heights": sorted({p.synced_height for p in peers}),
            "scheduler_events": session.scheduler.events_processed,
            "ledgers_agree": session.ledgers_agree(),
        },
    )


# ----------------------------------------------------------------------
# workload 4: sharded replay (1000+ sessions over per-shard pipelines)


def sharded_replay(
    n_shards: int,
    n_peers: int = 16,
    n_sessions: int = 1000,
    players_per_session: int = 100,
    n_events: int = 3000,
    swap_fraction: float = 0.02,
    seed: int = 11,
    lookahead_ms: Optional[float] = None,
    telemetry=None,
    procs: int = 1,
    profile_dir: Optional[str] = None,
) -> WorkloadResult:
    """Route an MMOG-scale event stream across ``n_shards`` pipelines.

    All shard counts run the *same* logical workload — fixed total peer
    count, fixed session/player population, fixed event schedule — so
    dividing the committed-event throughput of an 8-shard run by the
    1-shard run measures scaling efficiency and nothing else.  A
    ``swap_fraction`` slice of the load is cross-session asset trades
    driven through the two-phase swap protocol (degenerating to plain
    transfers when both sessions land on one shard).

    Runs on the :class:`~repro.blockchain.shardworker.BridgedShardEngine`:
    each shard's pipeline lives on its own clock behind a conservative-
    lookahead time bridge, and ``procs`` places the shard worlds either
    in-process (``1``) or across spawned worker processes (``N``).  The
    placements are bit-identical by construction (DESIGN.md §13), so
    ``procs`` stays out of ``params`` and every
    placement gates against one baseline; only ``wall_s`` may differ.

    Throughput is *simulated-time* events per second: makespan is the
    sim-clock span from the start of injection to the last ledger
    append, which is deterministic at a fixed seed and independent of
    host speed — exactly what a scaling ratio should compare.
    """
    from ..blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
    from ..blockchain.swaps import (
        SwapCoordinator,
        asset_key,
        check_conservation_summaries,
    )
    from ..core import ShardedSessionPool
    from ..simnet.bridge import DEFAULT_LOOKAHEAD_MS

    if lookahead_ms is None:
        lookahead_ms = DEFAULT_LOOKAHEAD_MS

    n_swaps = int(n_events * swap_fraction)
    rng = random.Random(seed)
    # (src session, dst session) per swap — drawn before the clock
    # starts so the trade plan is identical for every shard count.
    trades = [
        (rng.randrange(n_sessions), rng.randrange(n_sessions))
        for _ in range(n_swaps)
    ]

    t0 = time.perf_counter()
    engine = BridgedShardEngine(
        n_peers=n_peers,
        n_shards=n_shards,
        config=FabricConfig(
            max_block_txs=10,
            # Signature checks are host-side CPU with no simulated cost;
            # at 100k-player scale they only slow the host down.
            verify_signatures=False,
        ),
        seed=seed,
        procs=procs,
        lookahead_ms=lookahead_ms,
        profile_dir=profile_dir,
    )
    pool = ShardedSessionPool(
        engine, n_sessions, players_per_session, poll_interval_ms=250.0
    )

    # -- untimed-in-sim setup: mint one tradable asset per swap --------
    minted: Dict[str, int] = {}
    mint_failures = [0]

    def on_mint(result, _latency):
        if result.code != TxValidationCode.VALID:
            mint_failures[0] += 1

    for j, (src, _dst) in enumerate(trades):
        aid = f"a{j:04d}"
        minted[aid] = 100 + j
        pool.router.submit(
            pool.session_id(src), "mint",
            (aid, pool.session_id(src), minted[aid]),
            touched_keys=(asset_key(aid),),
            on_complete=on_mint,
            effect_time=0.0,
        )
    engine.run()

    # -- the measured stream -------------------------------------------
    # The bridge horizon after the mint quiesce *is* the control clock,
    # so measure_start is identical for every placement.
    measure_start = engine.now

    codes_tally: Dict[str, int] = {}

    def on_event(result, _latency):
        codes_tally[result.code] = codes_tally.get(result.code, 0) + 1

    # Saturating injection: fast enough that every shard's orderer cuts
    # full blocks at every shard count (a trickle would make the 8-shard
    # run pay timeout-cut partial blocks and measure the batcher, not
    # the pipelines).  The makespan is then capacity-bound — the thing
    # a scaling ratio should compare.  The whole stream is pre-planned
    # (absolute effect times), so it rides the bridge without paying
    # per-event lookahead latency.
    inject_interval_ms = 0.05
    for i in range(n_events):
        # Round-robin distinct (session, player) pairs: every event
        # touches a unique key, so shard counts are compared on the
        # same conflict-free load.
        sid = i % n_sessions
        pid = (i // n_sessions) % players_per_session
        pool.submit_event(
            sid, pid, 1, on_event,
            effect_time=measure_start + i * inject_interval_ms,
        )

    # Swaps are *reactive* control-plane traffic: each 2PC step crosses
    # the bridge and pays the modeled lookahead transit, like a real
    # coordinator talking to remote shards would.
    coordinator = SwapCoordinator(port=BridgeSwapPort(engine), telemetry=telemetry)
    inject_span_ms = n_events * inject_interval_ms
    for j, (src, dst) in enumerate(trades):
        engine.call_at(
            measure_start + (j + 1) * inject_span_ms / (n_swaps + 1),
            coordinator.start_swap,
            f"swap{j:04d}", f"a{j:04d}",
            pool.shard_of(src), pool.shard_of(dst),
            pool.session_id(dst), minted[f"a{j:04d}"],
        )

    engine.run()
    summaries = engine.collect_summaries()
    if telemetry is not None:
        engine.aggregate_telemetry(telemetry)
    bridge_rounds = engine.bridge.rounds
    scheduler_events = engine.scheduler_events()
    sim_now = engine.now
    engine.close()
    wall = time.perf_counter() - t0

    last_commit = max(
        [measure_start] + [s["last_commit_ms"] for s in summaries.values()]
    )
    makespan_ms = max(last_commit - measure_start, 1e-9)
    accepted = codes_tally.get(TxValidationCode.VALID, 0)
    rejected = sum(codes_tally.values()) - accepted
    return WorkloadResult(
        name=f"sharded-replay-{n_shards}s",
        wall_s=wall,
        params={
            "n_shards": n_shards,
            "n_peers": n_peers,
            "n_sessions": n_sessions,
            "players_per_session": players_per_session,
            "n_events": n_events,
            "swap_fraction": swap_fraction,
            "seed": seed,
            "lookahead_ms": lookahead_ms,
        },
        procs=procs,
        sim_metrics={
            "accepted": accepted,
            "rejected": rejected,
            "mint_failures": mint_failures[0],
            "swap_outcomes": coordinator.outcomes(),
            "swaps_unresolved": coordinator.unresolved(),
            "committed_txs": sum(
                s["committed_tx_count"] for s in summaries.values()
            ),
            "committed_heights": [
                summaries[i]["committed_height"] for i in range(n_shards)
            ],
            "ledgers_agree": [
                summaries[i]["ledgers_agree"] for i in range(n_shards)
            ],
            "state_hashes": [
                summaries[i]["state_hash"] for i in range(n_shards)
            ],
            "conservation_problems": check_conservation_summaries(
                summaries, minted, quiescent=True
            ),
            "sessions_per_shard": pool.sessions_per_shard(),
            "makespan_ms": round(makespan_ms, 6),
            "throughput_eps": round(accepted / (makespan_ms / 1000.0), 6),
            "sim_now_ms": round(sim_now, 6),
            "scheduler_events": scheduler_events,
            "bridge_rounds": bridge_rounds,
        },
    )


# ----------------------------------------------------------------------

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="block-validation",
        fn=block_validation,
        full={"n_txs": 400, "n_peers": 8, "block_txs": 5},
        quick={"n_txs": 100, "n_peers": 3, "block_txs": 5},
    ),
    Workload(
        name="sync-round",
        fn=sync_round,
        full={"n_keys": 20_000, "rounds": 400, "dirty_per_round": 8},
        quick={"n_keys": 4_000, "rounds": 80, "dirty_per_round": 8},
    ),
    Workload(
        name="replay-4p",
        fn=session_replay,
        full={"n_peers": 4, "n_events": 2500, "seed": 7},
        quick={"n_peers": 4, "n_events": 300, "seed": 7},
        traceable=True,
    ),
    Workload(
        name="replay-16p",
        fn=session_replay,
        full={"n_peers": 16, "n_events": 2500, "seed": 7},
        quick={"n_peers": 16, "n_events": 200, "seed": 7},
        traceable=True,
    ),
    Workload(
        name="replay-32p",
        fn=session_replay,
        full={"n_peers": 32, "n_events": 2500, "seed": 7},
        quick={"n_peers": 32, "n_events": 200, "seed": 7},
        traceable=True,
    ),
    # The sharded family measures shard-count scaling.
    Workload(
        name="sharded-replay-1s",
        fn=sharded_replay,
        full={"n_shards": 1, "n_peers": 16, "n_sessions": 1000,
              "players_per_session": 100, "n_events": 3000,
              "swap_fraction": 0.02, "seed": 11},
        quick={"n_shards": 1, "n_peers": 16, "n_sessions": 200,
               "players_per_session": 100, "n_events": 1200,
               "swap_fraction": 0.02, "seed": 11},
        traceable=True,
        takes_procs=True,
    ),
    Workload(
        name="sharded-replay-4s",
        fn=sharded_replay,
        full={"n_shards": 4, "n_peers": 16, "n_sessions": 1000,
              "players_per_session": 100, "n_events": 3000,
              "swap_fraction": 0.02, "seed": 11},
        quick={"n_shards": 4, "n_peers": 16, "n_sessions": 200,
               "players_per_session": 100, "n_events": 1200,
               "swap_fraction": 0.02, "seed": 11},
        traceable=True,
        takes_procs=True,
    ),
    Workload(
        name="sharded-replay-8s",
        fn=sharded_replay,
        full={"n_shards": 8, "n_peers": 16, "n_sessions": 1000,
              "players_per_session": 100, "n_events": 3000,
              "swap_fraction": 0.02, "seed": 11},
        quick={"n_shards": 8, "n_peers": 16, "n_sessions": 200,
               "players_per_session": 100, "n_events": 1200,
               "swap_fraction": 0.02, "seed": 11},
        traceable=True,
        takes_procs=True,
    ),
)
