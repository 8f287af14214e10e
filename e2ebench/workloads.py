"""The five workloads.  Why each exists is in ``why`` (and the README).

Every workload drives the program only through its stable entry points
(``GameSession``, ``BlockchainNetwork.create_client`` / ``invoke``, the
shard engine with ``ShardedSessionPool`` and ``SwapCoordinator``, the
``FaultSchedule`` / ``FaultInjector`` DSL, ``generate_session``) and
leaves ``FabricConfig`` at its defaults except ``max_block_txs`` and
``mutually_exclusive_blocks``.

**What ``--seed`` changes.**  The *deployment shape* — which region each
peer sits in — is part of a workload's definition, because it decides
the commit latency and, through shim batching, how many transactions a
trace becomes (on ``doom-4p``, 1,250 to 5,300 transactions for the same
6,000 events across placements).  ``--seed`` therefore picks the random
streams *within* that shape: network jitter, key material, the fault
injector's coin flips, and the generated operation stream.  See
:func:`placement_matched_seed`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from repro.blockchain import (
    BlockchainNetwork,
    FabricConfig,
    SwapCoordinator,
    TxValidationCode,
)
from repro.blockchain.crypto import reset_crypto_caches
from repro.blockchain.execution import clear_execution_cache, reset_execution_stats
from repro.blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
from repro.blockchain.swaps import asset_key, check_conservation_summaries
from repro.chaos import (
    ChaosCounterContract,
    CounterConservation,
    DoomAssetBounds,
    FaultInjector,
    FaultSchedule,
    InvariantMonitor,
)
from repro.core import GameSession, ShardedSessionPool
from repro.game.traces import generate_session
from repro.realnet import make_network
from repro.simnet.clock import SimulationError
from repro.simnet.latency import INTERNET_US
from repro.simnet.topology import place_random
from repro.telemetry import Telemetry, stage_summary

from .harness import (
    TRACED_ROUNDS,
    RoundOutcome,
    RoundRecord,
    RunResult,
    SimWorkload,
    derive_seed,
    host_counters,
    percentile,
)
from .trace import Tracer, install_layer_wrappers

__all__ = ["WORKLOADS", "DEFAULT_SEED", "placement_matched_seed"]

DEFAULT_SEED = 1
VALID = TxValidationCode.VALID

#: Session #9 of the paper dataset (``paper_dataset(seed=2018)`` gives
#: session #i the seed 2018 + i - 1): the longest trace, 24 minutes.
SESSION9_SEED = 2018 + 8
SESSION9_DURATION_MS = 24 * 60_000.0


# ----------------------------------------------------------------------
# seeds and shared checks


def placement_matched_seed(
    seed: int, n_peers: int, reference_seed: int, match_first: int
) -> int:
    """A deployment seed derived from ``seed`` that places the first
    ``match_first`` peers in the regions ``reference_seed`` places them.

    ``BlockchainNetwork`` draws placement, jitter stream and key
    material from one seed.  Candidates are drawn from ``seed`` until
    one reproduces the reference placement, so runs at different seeds
    share the deployment shape and differ in everything else.
    """
    pool = INTERNET_US.region_pool
    reference = place_random(n_peers, pool, seed=reference_seed)[:match_first]
    attempt = 0
    while True:
        candidate = derive_seed(seed, f"deploy:{attempt}")
        if place_random(n_peers, pool, seed=candidate)[:match_first] == reference:
            return candidate
        attempt += 1


def _latency_digest(latencies: List[float]) -> str:
    return hashlib.sha256(repr(latencies).encode()).hexdigest()[:16]


def _chain_problems(chain: BlockchainNetwork) -> List[str]:
    """Ledgers agree and every hash chain validates (untimed)."""
    problems: List[str] = []
    peers = chain.peers
    if len({p.committed_height for p in peers}) != 1:
        problems.append(
            "committed heights diverge: "
            + ", ".join(f"{p.name}={p.committed_height}" for p in peers)
        )
    if len({p.ledger.state_hash() for p in peers}) != 1:
        problems.append("state hashes diverge across peers")
    for peer in peers:
        if not peer.ledger.validate_chain():
            problems.append(f"{peer.name}: hash chain broken")
        if peer.diverged:
            problems.append(f"{peer.name}: diverged from consensus")
    return problems


def _chain_fingerprint(chain: BlockchainNetwork, latencies: List[float]) -> Dict[str, Any]:
    return {
        "committed_heights": sorted({p.committed_height for p in chain.peers}),
        "synced_heights": sorted({p.synced_height for p in chain.peers}),
        "state_hash": chain.peers[0].ledger.state_hash(),
        "scheduler_events": chain.scheduler.events_processed,
        "latencies": _latency_digest(latencies),
    }


def _stage_counters(telemetry: Optional[Telemetry]) -> Dict[str, float]:
    """Fig. 3c stage decomposition from the program's own tracer."""
    if telemetry is None:
        return {}
    summary = stage_summary(telemetry)
    out = {
        f"stage_{stage}_ms": summary.get(stage, {}).get("mean_ms", 0.0)
        for stage in ("ordering", "gossip", "validation", "commit")
    }
    # Submission to commit at the witness peer: the continuous latency
    # that the client's poll tick quantises away.
    submitted: Dict[str, float] = {}
    spans: List[float] = []
    for span in telemetry.tracer.spans:
        if span.stage == "submit":
            submitted[span.trace_id] = span.t_start
        elif span.stage == "commit" and span.trace_id in submitted:
            spans.append(span.t_end - submitted[span.trace_id])
    out["stage_commit_p50_ms"] = statistics.median(spans) if spans else 0.0
    return out


def _net_counters(net) -> Dict[str, float]:
    return {
        "net_sent": net.stats.messages_sent,
        "net_dropped": net.stats.messages_dropped,
    }


# ----------------------------------------------------------------------
# doom-4p / gossip-32p: session #9 through the shim


class SessionReplay(SimWorkload):
    """A prefix of session #9 through ``Shim.on_game_event``."""

    #: The perf suite's replay seed; its placement is the reference.
    reference_seed = 7
    segments = 8

    def __init__(self, name: str, why: str, n_peers: int, n_events: int,
                 pinned: Dict[int, Dict[str, Any]]):
        self.name = name
        self.why = why
        self.n_peers = n_peers
        self.n_events = n_events
        self.pinned = pinned

    def prepare(self, seed: int) -> None:
        demo = generate_session("#9", SESSION9_DURATION_MS, seed=SESSION9_SEED)
        self.demo = dataclasses.replace(demo, events=demo.events[: self.n_events])
        # Equal consecutive segments, each replayed to idle: the laps.
        size = -(-self.n_events // self.segments)
        self.parts = [
            dataclasses.replace(demo, events=self.demo.events[i : i + size])
            for i in range(0, len(self.demo.events), size)
        ]
        # The shim anchors at peer 0 and a 4-peer quorum needs 3 votes,
        # so the first four placements decide the latency class.
        self.deploy_seed = placement_matched_seed(
            seed, self.n_peers, self.reference_seed, match_first=4
        )

    def build(self, tracer: Optional[Tracer]):
        session = GameSession(
            n_peers=self.n_peers,
            fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
            game_map=self.demo.game_map,
            seed=self.deploy_seed,
        )
        telemetry = None
        if tracer is not None:
            telemetry = Telemetry().instrument_session(session)
        session.setup()
        return SimpleNamespace(
            session=session, telemetry=telemetry,
            events_before=session.scheduler.events_processed,
        )

    def drive(self, dep, lap) -> None:
        for index, part in enumerate(self.parts):
            if index:
                lap()
            dep.session.play_demo(part)
            dep.session.run_until_idle()

    def finish(self, dep) -> RoundOutcome:
        session = dep.session
        stats = session.stats()
        codes = dict(stats.rejections_by_code)
        if stats.accepted_events:
            codes[VALID] = stats.accepted_events
        latencies = list(stats.latencies_ms)
        problems = _chain_problems(session.chain)
        bounds = DoomAssetBounds()
        for peer in session.chain.peers:
            breach = bounds.on_append(peer.name, peer, None, None, None)
            if breach:
                problems.append(f"{peer.name}: {bounds.name}: {breach}")
        if stats.events_received != len(self.demo.events):
            problems.append(
                f"shim received {stats.events_received} of {len(self.demo.events)} events"
            )
        fingerprint = _chain_fingerprint(session.chain, latencies)
        fingerprint["accepted"] = stats.accepted_events
        fingerprint["rejected"] = stats.rejected_events
        counters = {
            "scheduler_events": session.scheduler.events_processed - dep.events_before,
            "shim_events": stats.events_received,
            "shim_txs": stats.txs_dispatched,
            "peers_per_chain": self.n_peers,
        }
        counters.update(_net_counters(session.chain.net))
        counters.update(_stage_counters(dep.telemetry))
        session.teardown()
        return RoundOutcome(
            attempted=len(self.demo.events), codes=codes, latencies=latencies,
            fingerprint=fingerprint, counters=counters, problems=problems,
        )


# ----------------------------------------------------------------------
# counter streams over BlockchainNetwork.create_client / invoke


class _CounterClients:
    """Clients invoking ``ChaosCounterContract`` and recording every ack."""

    def __init__(self, chain: BlockchainNetwork, anchors: List[int], counters: List[str]):
        self.chain = chain
        self.counters = counters
        chain.install_contract(ChaosCounterContract)
        self.clients = [
            chain.create_client(f"wl{i}", anchor=chain.peers[index])
            for i, index in enumerate(anchors)
        ]
        self.attempted = 0
        self.codes: Dict[str, int] = {}
        self.latencies: List[float] = []
        #: counter -> sum of deltas acked VALID (the conservation side).
        self.valid_adds: Dict[str, int] = {}
        self.on_ack = None

    def init_counters(self) -> None:
        """Create every counter (unrecorded set-up transactions)."""
        for counter in self.counters:
            self.submit(0, "init", counter, record=False)

    def submit(self, client_index: int, function: str, counter: str, delta: int = 1,
               record: bool = True) -> None:
        if record:
            self.attempted += 1

        def done(result, latency) -> None:
            if result.code == VALID and function == "add":
                self.valid_adds[counter] = self.valid_adds.get(counter, 0) + delta
            if record:
                self.codes[result.code] = self.codes.get(result.code, 0) + 1
                self.latencies.append(latency)
            if self.on_ack is not None:
                self.on_ack(client_index, result, latency)

        args = (counter,) if function == "init" else (counter, delta)
        self.clients[client_index].invoke(
            ChaosCounterContract.name, function, args,
            touched_keys=(ChaosCounterContract.key(counter),),
            on_complete=done,
        )

    def conservation_problems(self) -> List[str]:
        """Every peer's counters equal the acked-VALID adds, and the
        repository's own replay invariant agrees."""
        problems: List[str] = []
        invariant = CounterConservation()
        for peer in self.chain.peers:
            for counter in self.counters:
                actual = peer.ledger.state.get(ChaosCounterContract.key(counter))
                expected = self.valid_adds.get(counter, 0)
                if actual != expected:
                    problems.append(
                        f"{peer.name}: counter {counter} is {actual}, "
                        f"acked-VALID adds say {expected}"
                    )
            # The invariant compares its replay with the *current* state,
            # so only the verdict after the last block is meaningful.
            breach = None
            for block in peer.ledger.blocks()[1:]:
                breach = invariant.on_append(
                    peer.name, peer, block, None, block.validation_codes
                )
            if breach:
                problems.append(f"{peer.name}: {invariant.name}: {breach}")
        return problems


class ChaosCounters(SimWorkload):
    """A counter stream on 8 peers under a fixed fault schedule."""

    name = "chaos-8p"
    why = (
        "fault hook forces send_many off its fast path; catch-up, anti-entropy "
        "and rejection paths run, so a fast-path gain that costs the slow path shows"
    )
    n_peers = 8
    duration_ms = 30_000.0
    tick_ms = 40.0
    conflict_every = 4
    slices = 8
    reference_seed = 7
    counters = ("c0", "c1", "c2")
    crashed_peer = 3
    minority = (5, 6, 7)

    def __init__(self, pinned: Dict[int, Dict[str, Any]]):
        self.pinned = pinned

    def prepare(self, seed: int) -> None:
        self.deploy_seed = placement_matched_seed(
            seed, self.n_peers, self.reference_seed, match_first=self.n_peers
        )
        self.fault_seed = derive_seed(seed, "faults")
        rng = random.Random(derive_seed(seed, "stream"))
        # (offset ms, client, function, counter, delta): the tick shape
        # of repro.chaos.CounterWorkload — every 4th tick a same-key
        # pair (an MVCC conflict to reject), an occasional oversized sub
        # (the contract-level cheat), otherwise one add.
        self.plan: List[Tuple[float, int, str, str, int]] = []
        tick = 0
        t = 0.0
        while t < self.duration_ms:
            tick += 1
            counter = rng.choice(self.counters)
            # The two anchors sit in different regions; strict alternation
            # keeps the latency mix the same at every seed.
            client = tick % 2
            if tick % self.conflict_every == 0:
                self.plan.append((t, client, "add", counter, 1))
                self.plan.append((t, client, "add", counter, 1))
            elif rng.random() < 0.15:
                self.plan.append((t, client, "sub", counter, 1000))
            else:
                self.plan.append((t, client, "add", counter, 1))
            t += self.tick_ms

    def build(self, tracer: Optional[Tracer]):
        # Blocks of up to 5: a same-tick pair lands in one block, so the
        # second update is a real intra-block MVCC conflict, and a
        # backlog (partition, drops) drains in bigger blocks instead of
        # growing without bound at one transaction per consensus round.
        chain = BlockchainNetwork(
            self.n_peers, config=FabricConfig(max_block_txs=5), seed=self.deploy_seed
        )
        clients = _CounterClients(chain, [0, self.n_peers // 2], list(self.counters))
        telemetry = monitor = catchup = None
        if tracer is not None:
            # Attached before the first transaction: the conservation
            # invariant replays the chain from its first block.
            telemetry = Telemetry().instrument_chain(chain)
            monitor = InvariantMonitor(
                chain, asset_invariants=(CounterConservation(),)
            ).attach()
            catchup = _CatchupWatch(chain)
            for peer in chain.peers:
                check = tracer.wrap("chaos.invariants.busy", peer.ledger.on_append)
                peer.ledger.on_append = catchup.chained(peer, check)
        clients.init_counters()
        chain.run_until_idle()

        start = chain.now + 10.0
        span = self.duration_ms
        names = [p.name for p in chain.peers]
        minority = [names[i] for i in self.minority]
        majority = [n for n in names if n not in minority]
        majority += [chain.orderer.name] + [c.name for c in clients.clients]
        schedule = (
            FaultSchedule(seed=self.fault_seed)
            # Peers only: a dropped SubmitTx would never be ordered and
            # its event could only time out.
            .drop(start + 0.10 * span, names, 0.03 * span, 0.10)
            .crash(start + 0.25 * span, names[self.crashed_peer])
            .restart(start + 0.45 * span, names[self.crashed_peer])
            .partition(start + 0.55 * span, majority, minority)
            .heal(start + 0.70 * span)
        )
        injector = FaultInjector(
            chain, schedule, on_fault=catchup.on_fault if catchup else None
        ).install()
        return SimpleNamespace(
            chain=chain, clients=clients, injector=injector, start=start,
            telemetry=telemetry, monitor=monitor, catchup=catchup,
            events_before=chain.scheduler.events_processed,
        )

    def drive(self, dep, lap) -> None:
        call_at = dep.chain.scheduler.call_at
        for offset, client, function, counter, delta in self.plan:
            call_at(dep.start + offset, dep.clients.submit, client, function, counter, delta)
        for k in range(1, self.slices + 1):
            dep.chain.run(until=dep.start + self.duration_ms * k / self.slices)
            if k < self.slices:
                lap()
        dep.injector.lift_all()
        dep.chain.run_until_idle()

    def finish(self, dep) -> RoundOutcome:
        chain, clients, monitor, catchup = dep.chain, dep.clients, dep.monitor, dep.catchup
        problems = _chain_problems(chain) + clients.conservation_problems()
        for peer in chain.peers:
            if peer.synced_height != peer.committed_height:
                problems.append(f"{peer.name}: synced height lags committed")
        if monitor is not None:
            monitor.check_convergence()
            problems.extend(v.describe() for v in monitor.violations)
        fingerprint = _chain_fingerprint(chain, clients.latencies)
        fingerprint["codes"] = dict(sorted(clients.codes.items()))
        counters = {
            "scheduler_events": chain.scheduler.events_processed - dep.events_before,
            "faults_applied": dep.injector.faults_applied,
            "catchup_ms": catchup.mean_ms() if catchup is not None else 0.0,
            "peers_per_chain": self.n_peers,
        }
        counters.update(_net_counters(chain.net))
        counters.update(_stage_counters(dep.telemetry))
        return RoundOutcome(
            attempted=clients.attempted, codes=clients.codes,
            latencies=clients.latencies, fingerprint=fingerprint,
            counters=counters, problems=problems,
        )


class _CatchupWatch:
    """Simulated ms from a restart or heal until each lagging peer's
    ledger is level with the tallest one.  Host-side observation only
    (``on_fault`` and ``Ledger.on_append``): it schedules nothing, so a
    watched round keeps the simulated fingerprint of an unwatched one.
    """

    def __init__(self, chain: BlockchainNetwork):
        self.chain = chain
        self._lagging_since: Dict[str, float] = {}
        self.samples_ms: List[float] = []

    def on_fault(self, at_ms: float, kind: str, targets) -> None:
        if kind == "peer-restart":
            self._lagging_since[targets[0]] = at_ms
        elif kind == "heal":
            head = max(p.ledger.height for p in self.chain.peers)
            for peer in self.chain.peers:
                if peer.ledger.height < head:
                    self._lagging_since[peer.name] = at_ms

    def chained(self, peer, check):
        def on_append(block, executions, codes) -> None:
            check(block, executions, codes)
            since = self._lagging_since.get(peer.name)
            if since is not None and peer.ledger.height >= max(
                p.ledger.height for p in self.chain.peers
            ):
                del self._lagging_since[peer.name]
                self.samples_ms.append(self.chain.now - since)

        return on_append

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms) if self.samples_ms else 0.0


# ----------------------------------------------------------------------
# sharded-4s: routed session events plus cross-shard swaps


class ShardedSessions(SimWorkload):
    """Session events and 2% swaps over 4 shards x 4 peers, ``procs=1``."""

    name = "sharded-4s"
    why = (
        "router, time bridge, codec-framed epochs and 2PC swaps under "
        "saturating injection; guards the one-shard-engine refactor"
    )
    n_shards = 4
    n_peers = 16
    #: Three events per session (see the registry): a whole number, so
    #: every session, and with it every shard, carries the same load at
    #: every seed.
    n_sessions = 960
    players_per_session = 100
    swap_fraction = 0.02
    inject_interval_ms = 0.05
    #: The bridged engine seeds shard i with ``seed + i``, so placements
    #: cannot be matched shard by shard; the engine keeps the perf
    #: suite's seed and ``--seed`` generates the input stream instead.
    engine_seed = 11

    def __init__(self, n_events: int, pinned: Dict[int, Dict[str, Any]]):
        self.n_events = n_events
        self.pinned = pinned

    def prepare(self, seed: int) -> None:
        rng = random.Random(derive_seed(seed, "stream"))
        n_swaps = int(self.n_events * self.swap_fraction)
        self.trades = [
            (rng.randrange(self.n_sessions), rng.randrange(self.n_sessions))
            for _ in range(n_swaps)
        ]
        if self.n_events % self.n_sessions:
            raise ValueError("n_events must be a whole multiple of n_sessions")
        # Every session gets the same number of events whatever the
        # order, so per-shard load is seed-independent; only the
        # interleaving (and so block composition) moves.
        self.session_order = list(range(self.n_sessions))
        rng.shuffle(self.session_order)

    def build(self, tracer: Optional[Tracer]):
        engine = BridgedShardEngine(
            n_peers=self.n_peers, n_shards=self.n_shards,
            config=FabricConfig(max_block_txs=10),
            seed=self.engine_seed, procs=1,
        )
        pool = ShardedSessionPool(
            engine, self.n_sessions, self.players_per_session, poll_interval_ms=250.0
        )
        minted: Dict[str, int] = {}
        mint_failures: List[str] = []

        def on_mint(result, _latency) -> None:
            if result.code != VALID:
                mint_failures.append(f"{result.tx_id}: {result.code}")

        for j, (src, _dst) in enumerate(self.trades):
            aid = f"a{j:04d}"
            minted[aid] = 100 + j
            pool.router.submit(
                pool.session_id(src), "mint", (aid, pool.session_id(src), minted[aid]),
                touched_keys=(asset_key(aid),), on_complete=on_mint, effect_time=0.0,
            )
        engine.run()
        return SimpleNamespace(
            engine=engine, pool=pool, minted=minted, mint_failures=mint_failures,
            coordinator=SwapCoordinator(port=BridgeSwapPort(engine)),
            codes={}, latencies=[],
            events_before=engine.scheduler_events(),
            rounds_before=engine.bridge.rounds,
        )

    def drive(self, dep, lap) -> None:
        # One saturating burst: slicing it would drain the queues that
        # make the run capacity-bound, so this workload has no laps.
        engine, pool, codes, latencies = dep.engine, dep.pool, dep.codes, dep.latencies

        def on_event(result, latency) -> None:
            codes[result.code] = codes.get(result.code, 0) + 1
            latencies.append(latency)

        start = engine.now
        n_sessions = self.n_sessions
        order = self.session_order
        # Saturating injection, pre-planned: every shard's orderer cuts
        # full blocks, so the run is capacity-bound.
        for i in range(self.n_events):
            pool.submit_event(
                order[i % n_sessions],
                (i // n_sessions) % self.players_per_session,
                1, on_event,
                effect_time=start + i * self.inject_interval_ms,
            )
        span = self.n_events * self.inject_interval_ms
        n_swaps = len(self.trades)
        for j, (src, dst) in enumerate(self.trades):
            engine.call_at(
                start + (j + 1) * span / (n_swaps + 1),
                dep.coordinator.start_swap,
                f"swap{j:04d}", f"a{j:04d}",
                pool.shard_of(src), pool.shard_of(dst),
                pool.session_id(dst), dep.minted[f"a{j:04d}"],
            )
        engine.run()

    def finish(self, dep) -> RoundOutcome:
        engine, coordinator, latencies = dep.engine, dep.coordinator, dep.latencies
        summaries = engine.collect_summaries()
        problems = list(dep.mint_failures)
        problems += check_conservation_summaries(summaries, dep.minted, quiescent=True)
        for index, summary in summaries.items():
            if not summary["ledgers_agree"]:
                problems.append(f"shard {index}: ledgers disagree")
            if len(summary["committed_heights_all"]) != 1:
                problems.append(f"shard {index}: committed heights diverge")
        problems += [f"swap {sid} unresolved" for sid in coordinator.unresolved()]
        outcomes = coordinator.outcomes()
        swap_latencies = sorted(
            swap.finished_at - swap.started_at
            for swap in coordinator.swaps.values()
            if swap.outcome == "committed" and swap.finished_at is not None
        )
        fingerprint = {
            "committed_heights": [summaries[i]["committed_height"] for i in sorted(summaries)],
            "state_hash": [summaries[i]["state_hash"] for i in sorted(summaries)],
            "scheduler_events": engine.scheduler_events(),
            "latencies": _latency_digest(latencies),
            "codes": dict(sorted(dep.codes.items())),
            "swap_outcomes": outcomes,
        }
        counters = {
            "scheduler_events": engine.scheduler_events() - dep.events_before,
            "bridge_rounds": engine.bridge.rounds - dep.rounds_before,
            "swaps_committed": outcomes.get("committed", 0),
            "swaps_timed_out": outcomes.get("timed_out", 0),
            "swap_latency_p50_ms": percentile(swap_latencies, 0.50),
            "peers_per_chain": self.n_peers // self.n_shards,
        }
        engine.close()
        return RoundOutcome(
            attempted=self.n_events, codes=dep.codes, latencies=latencies,
            fingerprint=fingerprint, counters=counters, problems=problems,
        )


# ----------------------------------------------------------------------
# realnet-8p: a closed loop over loopback TCP


class _ClosedLoop:
    """Every client resubmits on each ack until told to stop."""

    def __init__(self, clients: _CounterClients):
        self.clients = clients
        self.recording = False
        self.stopped = False
        self.acks = 0
        clients.on_ack = self._on_ack

    def _submit(self, client_index: int) -> None:
        self.clients.submit(
            client_index, "add", self.clients.counters[client_index],
            record=self.recording,
        )

    def start(self) -> None:
        for index in range(len(self.clients.clients)):
            self._submit(index)

    def _on_ack(self, client_index: int, _result, _latency) -> None:
        self.acks += 1
        if not self.stopped:
            self._submit(client_index)


class RealnetLoop:
    """Eight peers on real loopback sockets; four clients, each with one
    counter update in flight, polling at the 35 Hz Doom tick.

    Unsaturated on purpose: a saturated realnet run is chaotic on a
    shared host, while this closed loop repeats.  Ack latency is
    quantised to poll ticks, so ``cpu_ms_per_event`` is the sensitive
    metric here.  One deployment; the fast quartile is taken over
    measurement windows instead of rebuilt rounds.
    """

    name = "realnet-8p"
    why = (
        "real loopback TCP: codec, realnet.transport and WallClock dominate CPU; "
        "closed loop of 4 clients with one update in flight at the 35 Hz poll tick"
    )
    backend = "realnet"
    latency_clock = "wall ms"
    n_peers = 8
    n_clients = 4
    #: Untraced: this many windows of ``seconds / windows``.  Traced:
    #: each window is ``seconds / traced_window_share`` long.
    windows = 14
    traced_window_share = 7
    warmup_s = 2.0
    setup_builds = 3
    drain_wall_ms = 10_000.0

    def _build(self, seed: int):
        net = make_network("realnet", seed=seed)
        try:
            net.start()
            chain = BlockchainNetwork(self.n_peers, seed=seed, net=net)
            anchors = [i * self.n_peers // self.n_clients for i in range(self.n_clients)]
            # One counter per client: the loop measures the pipeline,
            # not MVCC conflicts between the clients.
            clients = _CounterClients(
                chain, anchors, [f"c{i}" for i in range(self.n_clients)]
            )
            clients.init_counters()
            net.run_until_idle(max_wall_ms=self.drain_wall_ms)
        except BaseException:
            net.close()
            raise
        return net, chain, clients

    def run(self, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        deploy_seed = derive_seed(seed, "deploy")
        clear_execution_cache()
        reset_execution_stats()
        # Set-up is sampled by building the deployment several times,
        # each from cold caches; the last build is the one measured.
        setups: List[float] = []
        net = None
        for _ in range(self.setup_builds):
            if net is not None:
                net.close()
            reset_crypto_caches()
            t0 = time.perf_counter()
            net, chain, clients = self._build(deploy_seed)
            setups.append(time.perf_counter() - t0)
        try:
            telemetry = None
            if tracer is not None:
                telemetry = Telemetry().instrument_chain(chain)
            records, window_latencies = self._windows(net, clients, seconds, tracer)
            outcome = self._finish(net, chain, clients, telemetry)
        finally:
            net.close()
        return RunResult(
            workload=self.name, seed=seed, backend=self.backend,
            latency_clock=self.latency_clock, outcome=outcome,
            rounds=records, setups=setups, problems=list(outcome.problems),
            identical_rounds=False, window_latencies=window_latencies,
        )

    def _windows(self, net, clients: _CounterClients, seconds: float,
                 tracer: Optional[Tracer]):
        """Warm up, then measure consecutive windows of the running loop;
        leaves the loop stopped."""
        scheduler = net.scheduler
        loop = _ClosedLoop(clients)
        loop.start()
        net.run(until=scheduler.now + self.warmup_s * 1000.0)

        if tracer is not None:
            plan = [False] + [True] * TRACED_ROUNDS
            window_ms = seconds * 1000.0 / self.traced_window_share
        else:
            plan = [False] * self.windows
            window_ms = seconds * 1000.0 / self.windows
        loop.recording = True
        records: List[RoundRecord] = []
        window_latencies: List[List[float]] = []
        installer = None
        try:
            for window_traced in plan:
                if window_traced:
                    if installer is None:
                        installer = install_layer_wrappers(tracer)
                    tracer.reset()
                before = host_counters()
                timers_before = scheduler.events_processed
                loop.acks = 0
                recorded_before = len(clients.latencies)
                cpu0 = time.process_time()
                wall0 = time.perf_counter()
                net.run(until=scheduler.now + window_ms)
                wall_s = time.perf_counter() - wall0
                cpu_s = time.process_time() - cpu0
                trace = None
                if window_traced:
                    after = host_counters()
                    trace = tracer.snapshot()
                    trace["host"] = {key: after[key] - before[key] for key in after}
                    trace["host"]["timers"] = scheduler.events_processed - timers_before
                    trace["host"]["cpu_s"] = cpu_s
                window_latencies.append(clients.latencies[recorded_before:])
                records.append(RoundRecord(
                    wall_s=wall_s, cpu_s=cpu_s, acked=loop.acks,
                    slices=[(wall_s, cpu_s)], traced=window_traced, trace=trace,
                ))
        finally:
            if installer is not None:
                installer.restore()
        loop.recording = False
        loop.stopped = True
        return records, window_latencies

    def _finish(self, net, chain, clients: _CounterClients,
                telemetry: Optional[Telemetry]) -> RoundOutcome:
        """Untimed: drain what is in flight, then the correctness gates."""
        problems: List[str] = []
        try:
            net.run_until_idle(max_wall_ms=self.drain_wall_ms)
        except SimulationError as exc:
            problems.append(f"drain: {exc}")
        problems += _chain_problems(chain) + clients.conservation_problems()
        if net.frame_errors:
            problems.append(f"{net.frame_errors} frame errors")
        unacked = clients.attempted - sum(clients.codes.values())
        if unacked:
            problems.append(f"{unacked} recorded events never acked")
        counters = {
            "connects": net.connects,
            "frame_errors": net.frame_errors,
            "peers_per_chain": self.n_peers,
        }
        counters.update(_stage_counters(telemetry))
        return RoundOutcome(
            attempted=clients.attempted, codes=clients.codes,
            latencies=clients.latencies, counters=counters, problems=problems,
        )


# ----------------------------------------------------------------------
# registry, with the outcomes pinned after the first green run


# seed -> {"attempted", "codes"}.  realnet-8p has nothing to pin: how
# many updates a closed loop completes in a wall-clock window is not an
# input.
_PINNED_DOOM = {1: {"attempted": 6000, "codes": {"VALID": 6000}}}
_PINNED_GOSSIP = {1: {"attempted": 450, "codes": {"VALID": 450}}}
_PINNED_SHARDED = {1: {"attempted": 2880, "codes": {"VALID": 2880}}}
_PINNED_CHAOS = {
    1: {
        "attempted": 937,
        "codes": {"CONTRACT_REJECTED": 87, "MVCC_READ_CONFLICT": 187, "VALID": 663},
    },
}

WORKLOADS = {
    w.name: w
    for w in (
        SessionReplay(
            "doom-4p",
            "shim, Doom contract, crypto, ledger and state_hash dominate "
            "(~25 scheduler events per game event); the paper's own figure",
            n_peers=4, n_events=6000, pinned=_PINNED_DOOM,
        ),
        SessionReplay(
            "gossip-32p",
            "same trace and code as doom-4p, but the O(N^2) vote/sync plane and "
            "scheduler dispatch dominate (~1,350 scheduler events per game event)",
            n_peers=32, n_events=450, pinned=_PINNED_GOSSIP,
        ),
        # 960 sessions x 3 events.  Acks arrive on the 250 ms poll tick,
        # about 100 per tick from the slowest shard, so the latency CDF
        # is a staircase whose steps are 250 ms (8% of the p95) apart.
        # This size puts the p95 rank (2,736) in the middle of a step
        # (2,690..2,810 across seeds); at 2,600 events over 1,000 sessions
        # it sat on an edge and flipped between 2,898 and 3,132 ms.
        ShardedSessions(n_events=2880, pinned=_PINNED_SHARDED),
        ChaosCounters(pinned=_PINNED_CHAOS),
        RealnetLoop(),
    )
}
