"""The pinned workloads: session-#9 replays and sharded scaling replays.

Each returns its scale knobs (``params``) and its *simulated* outcome
(``sim_metrics``), a pure function of the params: host-side caching or
a different process placement may change how fast the simulation runs,
never what it computes.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..blockchain import FabricConfig
from ..blockchain.transaction import TxValidationCode

__all__ = [
    "WorkloadResult", "WORKLOADS", "SESSION9_SEED", "session_replay",
    "sharded_replay",
]

#: Seed of the paper dataset's session #9 (``paper_dataset(seed=2018)``
#: generates sessions #1..#25 with per-session seeds 2018+i).
SESSION9_SEED = 2018 + 8
_SESSION9_DURATION_MS = 24 * 60_000.0


@dataclass
class WorkloadResult:
    """One workload run: its scale knobs and its simulated outcome."""

    params: Dict[str, Any] = field(default_factory=dict)
    sim_metrics: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# session replay (the full stack)


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

    An optional :class:`repro.telemetry.Telemetry` traces the run; being
    host-side only, it never changes the simulated metrics.
    """
    from ..core import GameSession

    demo = _session9_prefix(n_events)
    session = GameSession(
        n_peers=n_peers,
        fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
        seed=seed,
    )
    if telemetry is not None:
        telemetry.instrument_session(session)
    session.setup()
    session.play_demo(demo)
    session.run_until_idle()

    stats = session.stats()
    peers = session.chain.peers
    latencies = stats.latencies_ms
    return WorkloadResult(
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
# sharded replay (1000 sessions over per-shard pipelines)


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
) -> WorkloadResult:
    """Route an MMOG-scale event stream across ``n_shards`` pipelines.

    All shard counts run the *same* logical workload — fixed total peer
    count, fixed session/player population, fixed event schedule — so
    dividing the committed-event throughput of an 8-shard run by the
    1-shard run measures scaling efficiency and nothing else.  A
    ``swap_fraction`` slice of the load is cross-session asset trades
    driven through the two-phase swap protocol (degenerating to plain
    transfers when both sessions land on one shard).

    ``procs`` places the :class:`~repro.blockchain.shardworker.BridgedShardEngine`
    shard worlds in-process (``1``) or across ``N`` worker processes.
    Placements are bit-identical by construction (DESIGN.md §13), so
    ``procs`` stays out of ``params``.

    Throughput is *simulated-time* events per second: makespan is the
    sim-clock span from the start of injection to the last ledger
    append, which is deterministic at a fixed seed and independent of
    host speed — exactly what a scaling ratio should compare.
    """
    from ..blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
    from ..blockchain.swaps import (
        SwapCoordinator, asset_key, check_conservation_summaries,
    )
    from ..core import ShardedSessionPool
    from ..simnet.bridge import DEFAULT_LOOKAHEAD_MS

    if lookahead_ms is None:
        lookahead_ms = DEFAULT_LOOKAHEAD_MS

    n_swaps = int(n_events * swap_fraction)
    rng = random.Random(seed)
    # (src session, dst session) per swap — drawn before the clock
    # starts so the trade plan is identical for every shard count.
    trades = [(rng.randrange(n_sessions), rng.randrange(n_sessions))
              for _ in range(n_swaps)]

    with BridgedShardEngine(
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
    ) as engine:
        pool = ShardedSessionPool(
            engine, n_sessions, players_per_session, poll_interval_ms=250.0
        )

        # -- untimed-in-sim setup: mint one tradable asset per swap ----
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

        # -- the measured stream ---------------------------------------
        # The bridge horizon after the mint quiesce *is* the control
        # clock, so measure_start is identical for every placement.
        measure_start = engine.now

        codes_tally: Dict[str, int] = {}

        def on_event(result, _latency):
            codes_tally[result.code] = codes_tally.get(result.code, 0) + 1

        # Saturating, pre-planned injection: every shard's orderer cuts
        # full blocks at every shard count, so the makespan is
        # capacity-bound, and absolute effect times ride the bridge
        # without paying per-event lookahead latency.
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

        # Swaps are *reactive* control-plane traffic: each 2PC step
        # crosses the bridge and pays the modeled lookahead transit, like
        # a real coordinator talking to remote shards would.
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

    shards = [summaries[i] for i in range(n_shards)]
    last_commit = max([measure_start] + [s["last_commit_ms"] for s in shards])
    makespan_ms = max(last_commit - measure_start, 1e-9)
    accepted = codes_tally.get(TxValidationCode.VALID, 0)
    rejected = sum(codes_tally.values()) - accepted
    return WorkloadResult(
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
        sim_metrics={
            "accepted": accepted,
            "rejected": rejected,
            "mint_failures": mint_failures[0],
            "swap_outcomes": coordinator.outcomes(),
            "swaps_unresolved": coordinator.unresolved(),
            "committed_txs": sum(s["committed_tx_count"] for s in shards),
            "committed_heights": [s["committed_height"] for s in shards],
            "ledgers_agree": [s["ledgers_agree"] for s in shards],
            "state_hashes": [s["state_hash"] for s in shards],
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

#: Every pinned workload by name, at its one size.  Each takes the
#: worker-process count, which only the sharded family uses.
WORKLOADS: Dict[str, Callable[[int], WorkloadResult]] = {}
for _n in (4, 16, 32):
    WORKLOADS[f"replay-{_n}p"] = (
        lambda procs, n=_n: session_replay(n_peers=n, n_events=2500, seed=7))
for _n in (1, 4, 8):
    WORKLOADS[f"sharded-replay-{_n}s"] = (
        lambda procs, n=_n: sharded_replay(n_shards=n, procs=procs))
