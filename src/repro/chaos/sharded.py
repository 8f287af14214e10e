"""Chaos over the sharded deployment: swaps under fire, conservation global.

:func:`run_sharded_scenario` is the multi-shard twin of
:func:`repro.chaos.runner.run_scenario` (which dispatches here whenever
``scenario.n_shards > 1``).  The deployment is a
:class:`~repro.blockchain.shardworker.BridgedShardEngine` in its local
placement — one chain per shard, each on its own clock behind the time
bridge — and the workload adds what single-chain chaos cannot exercise:
cross-shard asset swaps driven by a crashable
:class:`~repro.blockchain.swaps.SwapCoordinator` while peers churn,
partitions cut through in-flight prepares, and (per the scenario) the
coordinator itself dies between prepare and commit and must recover.

Everything that touches a shard's hosts — invariant monitors, fault
injection, buggy fixtures — attaches to ``engine.worlds[i].chain`` and
runs as timers on that world's clock; the workload, the conservation
probes and the coordinator's lifecycle are timers on the control clock.
One ``engine.run()`` then plays the whole scenario.

Safety is judged at two levels:

* **per shard** — each shard gets its own
  :class:`~repro.chaos.invariants.InvariantMonitor` (prefix
  consistency, shadow-ledger MVCC, state-hash agreement, convergence),
  because block numbers and state hashes are per-chain quantities;
* **globally** — :func:`repro.blockchain.swaps.check_conservation_summaries`
  judges every shard's reference committed state on a fixed cadence and
  again at quiescence: no asset may ever be observed twice, and at the
  end each must exist exactly once with no surviving locks.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

from ..blockchain.config import FabricConfig
from ..blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
from ..blockchain.swaps import (
    OUTCOME_COMMITTED,
    SwapCoordinator,
    asset_key,
    check_conservation_summaries,
)
from ..blockchain.transaction import TxValidationCode
from ..core.shim import ShardRouter
from .faults import FaultSchedule
from .injector import FaultInjector
from .invariants import InvariantMonitor, Violation
from .runner import BUGGY_FIXTURES, ChaosResult
from .scenarios import Scenario, get_scenario

__all__ = ["ShardedSwapWorkload", "run_sharded_scenario"]

#: Client-side poll timeout, matching the single-chain chaos workload:
#: long enough to ride out any healed fault, short enough that a tx
#: stranded by the fault horizon doesn't stall quiescence for the
#: default two simulated minutes.
_POLL_TIMEOUT_MS = 20_000.0


class ShardedSwapWorkload:
    """Session events on every shard plus periodic cross-shard swaps.

    Minting, the session-event cadence and the swap plan are all drawn
    from the seeded RNG before anything runs, so ``(scenario, seed)``
    replays the identical stream.  The workload tracks each asset's
    home shard from committed swap outcomes; a stale guess (possible
    while the coordinator is down) just yields a rejected prepare and an
    aborted swap — never an unsafe one.
    """

    def __init__(
        self,
        engine: BridgedShardEngine,
        scenario: Scenario,
        seed: int,
        telemetry=None,
        on_swap_done=None,
    ):
        self.engine = engine
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.telemetry = telemetry
        self.on_swap_done = on_swap_done
        self.codes: Counter = Counter()
        self.submitted = 0
        self.swaps_started = 0
        self.swaps_skipped_while_crashed = 0
        self.probe_codes: List[str] = []
        self.minted: Dict[str, int] = {}
        self._asset_home: Dict[str, int] = {}
        self.recover_actions: List = []
        self.router: Optional[ShardRouter] = None
        self.coordinator: Optional[SwapCoordinator] = None
        self._installed = False

    # ------------------------------------------------------------------

    def sessions(self) -> List[str]:
        return [f"g{k:02d}" for k in range(4 * self.engine.n_shards)]

    def install(self) -> "ShardedSwapWorkload":
        if self._installed:
            raise RuntimeError("workload already installed")
        self._installed = True
        engine = self.engine
        scenario = self.scenario
        self.router = ShardRouter(engine)
        port = BridgeSwapPort(engine)
        self.coordinator = SwapCoordinator(port=port, telemetry=self.telemetry)
        for world in engine.worlds:
            for prefix, poll_ms in (
                (self.router.client_prefix, self.router.poll_interval_ms),
                (port.client_name, engine.config.swap_poll_interval_ms),
            ):
                world.client(prefix, poll_ms).poll_timeout_ms = _POLL_TIMEOUT_MS

        # Mint every tradable asset up front, round-robin across shards
        # (explicitly placed — swaps move assets anywhere, so asset
        # residence is coordinator state, not key-hash routing).
        for j in range(scenario.n_assets):
            aid = f"asset{j:03d}"
            self.minted[aid] = 50 + j
            self._asset_home[aid] = j % engine.n_shards
            engine.call_at(1.0 + 2.0 * j, self._mint, aid)

        t = 50.0
        sessions = self.sessions()
        while t < scenario.duration_ms:
            session = self.rng.choice(sessions)
            player = f"p{self.rng.randrange(4)}"
            engine.call_at(t, self._session_event, session, player)
            t += scenario.workload_interval_ms

        index = 0
        t = 2_000.0
        while t < scenario.duration_ms * 0.9:
            engine.call_at(t, self._try_swap, index)
            index += 1
            t += scenario.swap_interval_ms
        return self

    # ------------------------------------------------------------------

    def _count(self, result, _latency) -> None:
        self.codes.update([result.code])

    def _mint(self, aid: str) -> None:
        assert self.router is not None
        self.submitted += 1
        self.engine.submit_invoke(
            self._asset_home[aid], "mint", (aid, "bank", self.minted[aid]),
            touched_keys=(asset_key(aid),), on_complete=self._count,
            client_prefix=self.router.client_prefix,
            poll_interval_ms=self.router.poll_interval_ms,
        )

    def _session_event(self, session: str, player: str) -> None:
        self.submitted += 1
        assert self.router is not None
        self.router.submit_session_event(
            session, player, 1, on_complete=self._count
        )

    def _try_swap(self, index: int) -> None:
        coordinator = self.coordinator
        assert coordinator is not None
        if coordinator.crashed:
            self.swaps_skipped_while_crashed += 1
            return
        aid = self.rng.choice(sorted(self._asset_home))
        src = self._asset_home[aid]
        others = [s for s in range(self.engine.n_shards) if s != src]
        dst = self.rng.choice(others)
        self.swaps_started += 1
        self.submitted += 1

        def on_done(swap):
            if swap.outcome == OUTCOME_COMMITTED:
                self._asset_home[aid] = dst
            if self.on_swap_done is not None:
                self.on_swap_done(swap)

        coordinator.start_swap(
            f"cswap{index:03d}", aid, src, dst,
            f"owner{index}", self.minted[aid], on_done=on_done,
        )

    # ------------------------------------------------------------------
    # coordinator lifecycle (scheduled by the runner)

    def crash_coordinator(self) -> None:
        assert self.coordinator is not None
        self.coordinator.crash()

    def recover_coordinator(self) -> None:
        assert self.coordinator is not None
        self.coordinator.restart()
        self.recover_actions.extend(self.coordinator.recover())

    # ------------------------------------------------------------------
    # end-of-run

    def submit_probes(self, count: int = 3) -> None:
        """Post-heal liveness probes: one session event per shard-ish,
        each of which must commit VALID on its shard."""
        assert self.router is not None
        sessions = self.sessions()
        for i in range(count):
            self.router.submit_session_event(
                sessions[i % len(sessions)], "probe", 1,
                on_complete=lambda result, _lat: self.probe_codes.append(
                    result.code
                ),
            )

    def summary(self) -> Dict[str, int]:
        out = dict(sorted(self.codes.items()))
        assert self.coordinator is not None
        for outcome, n in self.coordinator.outcomes().items():
            out[f"swap_{outcome}"] = n
        if self.swaps_skipped_while_crashed:
            out["swap_skipped_while_crashed"] = self.swaps_skipped_while_crashed
        return out


def _world_share(schedule: FaultSchedule, chain) -> Tuple[FaultSchedule, List[int]]:
    """The part of a fabric-wide schedule that touches one world's hosts,
    and each kept event's position in ``schedule``.

    An event naming hosts is narrowed to the ones this world has and
    dropped when it has none.  Partitions, heals and ``"*"`` windows
    reach every world; a partition keeps its groups verbatim — names a
    network does not know are inert, and the world's unlisted hosts (its
    own orderer, its clients) fall into the implicit extra group exactly
    as they would on one shared fabric.
    """
    local = {peer.name for peer in chain.peers} | {chain.orderer.name, "*"}
    events, positions = [], []
    for position, event in enumerate(schedule.events):
        if event.targets:
            targets = tuple(name for name in event.targets if name in local)
            if not targets:
                continue
            event = replace(event, targets=targets)
        events.append(event)
        positions.append(position)
    return FaultSchedule(events=events, seed=schedule.seed), positions


def run_sharded_scenario(
    scenario: Union[str, Scenario],
    seed: int,
    max_faults: Optional[int] = None,
    buggy: Optional[str] = None,
    record_timeline: bool = True,
    telemetry=None,
    max_wall_s: Optional[float] = None,
    config: Optional[FabricConfig] = None,
) -> ChaosResult:
    """Run one seeded multi-shard chaos experiment end to end.

    Mirrors :func:`repro.chaos.runner.run_scenario` phase for phase
    (fault horizon → lift-all → settle → probes → quiesce), each phase
    boundary a timer instead of a ``run(until=...)``, and adds the
    sharded tail: a final coordinator restart+recover for swaps the
    crash orphaned, a stale-lock sweep, and the quiescent global
    conservation check.  ``max_wall_s`` is checked between bridge rounds.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if scenario.n_shards < 2:
        raise ValueError("run_sharded_scenario needs a scenario with n_shards > 1")
    if buggy is not None and buggy not in BUGGY_FIXTURES:
        known = ", ".join(sorted(BUGGY_FIXTURES))
        raise KeyError(f"unknown buggy fixture {buggy!r}; known: {known}")

    if config is None:
        config = FabricConfig(max_block_txs=scenario.max_block_txs)
    else:
        config = config.with_options(max_block_txs=scenario.max_block_txs)
    engine = BridgedShardEngine(
        n_peers=scenario.n_peers,
        n_shards=scenario.n_shards,
        config=config,
        seed=seed,
    )
    worlds = engine.worlds
    if telemetry is not None:
        # Before the workload installs: its clients then inherit the
        # telemetry through BlockchainNetwork.create_client.
        telemetry.instrument_sharded(engine)
    timeline: List[list] = []

    def record(kind: str, t: float, *fields) -> None:
        if record_timeline:
            timeline.append([kind, round(t, 3), *fields])

    workload = ShardedSwapWorkload(
        engine, scenario, seed, telemetry=telemetry,
        on_swap_done=lambda swap: record(
            "swap", engine.now,
            swap.swap_id, swap.outcome, swap.src_shard, swap.dst_shard,
        ),
    ).install()

    # One monitor per shard: block numbers, state hashes and convergence
    # are per-chain quantities, so cross-shard comparison would be noise.
    monitors = [
        InvariantMonitor(
            world.chain,
            deep=True,
            on_commit=lambda t, peer, height, state_hash: record(
                "commit", t, peer, height, state_hash
            ),
        ).attach()
        for world in worlds
    ]
    conservation_violations: List[Violation] = []

    def judge_conservation(quiescent: bool) -> int:
        problems = check_conservation_summaries(
            engine.collect_summaries(), workload.minted, quiescent=quiescent
        )
        for problem in problems:
            conservation_violations.append(
                Violation(engine.now, "asset-conservation", "-", problem)
            )
        return len(problems)

    probe_t = 2_500.0
    while probe_t < scenario.duration_ms:
        engine.call_at(
            probe_t,
            lambda: record("conservation", engine.now, judge_conservation(False)),
        )
        probe_t += 2_500.0

    if buggy is not None:
        for world in worlds:
            BUGGY_FIXTURES[buggy](world.chain)

    schedule = scenario.build_schedule(
        seed,
        [peer.name for world in worlds for peer in world.chain.peers],
        worlds[0].chain.orderer.name,
    )
    if max_faults is not None:
        schedule = schedule.prefix(max_faults)

    # One injector per world replays that world's share of the schedule
    # on the world's own clock.  A fabric-wide event is injected into
    # every world but is one timeline entry.
    logged = set()

    def on_fault(t: float, kind: str, targets) -> None:
        if (t, kind, targets) not in logged:
            logged.add((t, kind, targets))
            record("fault", t, kind, list(targets))

    injectors: List[FaultInjector] = []
    shares: List[List[int]] = []
    for world in worlds:
        share, positions = _world_share(schedule, world.chain)
        injector = FaultInjector(world.chain, share, on_fault=on_fault).install()
        injector.telemetry = world.chain.telemetry
        world.scheduler.call_at(scenario.duration_ms, injector.lift_all)
        injectors.append(injector)
        shares.append(positions)

    if scenario.coordinator_crash_ms > 0:
        engine.call_at(
            scenario.coordinator_crash_ms,
            lambda: (record("coordinator-crash", engine.now),
                     workload.crash_coordinator()),
        )
        engine.call_at(
            scenario.coordinator_crash_ms + scenario.coordinator_recover_ms,
            lambda: (record("coordinator-recover", engine.now),
                     workload.recover_coordinator()),
        )
    engine.call_at(
        scenario.duration_ms + scenario.settle_ms, workload.submit_probes
    )

    wall_start = time.perf_counter()

    def run_engine() -> bool:
        """Run to quiescence; False when the wall budget ran out first."""
        if max_wall_s is None:
            engine.run()
            return True
        deadline = wall_start + max_wall_s
        while time.perf_counter() < deadline:
            if not engine.bridge.step():
                return True
        return False

    def finish_swaps() -> bool:
        """Post-quiescence tail: resolve orphans, then sweep stale locks."""
        coordinator = workload.coordinator
        assert coordinator is not None
        if coordinator.crashed:
            record("coordinator-recover", engine.now)
            workload.recover_coordinator()
            if not run_engine():
                return False
        if coordinator.unresolved():
            workload.recover_actions.extend(coordinator.recover())
            if not run_engine():
                return False
        for _ in range(3):
            if coordinator.sweep_stale_locks() == 0:
                break
            record("lock-sweep", engine.now)
            if not run_engine():
                return False
        return True

    truncated = not (run_engine() and finish_swaps())
    wall_s = time.perf_counter() - wall_start

    if not truncated:
        for monitor in monitors:
            monitor.check_convergence()
        monitor0 = monitors[0]
        for index, code in enumerate(workload.probe_codes):
            if code != TxValidationCode.VALID:
                monitor0._record(
                    "liveness", "wl-probe",
                    f"post-heal probe {index} ended {code}, expected VALID",
                )
        if len(workload.probe_codes) < 3:
            monitor0._record(
                "liveness", "wl-probe",
                f"only {len(workload.probe_codes)} of 3 probes completed",
            )
        judge_conservation(quiescent=True)

    violations = [v for monitor in monitors for v in monitor.violations]
    violations.extend(conservation_violations)
    # Worlds run an epoch one after the other, the control plane after
    # them: put the entries back in time order (ties keep that order).
    timeline.sort(key=lambda entry: entry[1])
    network_stats: Counter = Counter()
    for world in worlds:
        network_stats.update(world.chain.net.stats.as_dict())
    committed_height = max(engine.committed_heights())
    engine.close()
    return ChaosResult(
        scenario=scenario.name,
        seed=seed,
        buggy=buggy,
        faults_in_schedule=len(schedule),
        # Each injector applies its share in order, so the events it has
        # applied are a prefix of the share; an event shared by several
        # worlds counts once.
        faults_applied=len({
            position
            for injector, positions in zip(injectors, shares)
            for position in positions[:injector.faults_applied]
        }),
        violations=violations,
        timeline=timeline,
        workload_summary=workload.summary(),
        probe_codes=list(workload.probe_codes),
        submitted=workload.submitted,
        committed_height=committed_height,
        network_stats=dict(network_stats),
        schedule=schedule,
        truncated=truncated,
        wall_s=round(wall_s, 3) if max_wall_s is not None else 0.0,
    )
