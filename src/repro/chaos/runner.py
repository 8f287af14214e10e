"""The chaos scenario runner: build, injure, heal, verify, shrink.

One :func:`run_scenario` call is a complete experiment:

1. build a fresh deployment (:class:`BlockchainNetwork`) from the seed;
2. install the deterministic counter workload and the
   :class:`~repro.chaos.invariants.InvariantMonitor`;
3. optionally break a peer with a fixture from :mod:`repro.chaos.buggy`;
4. draw the scenario's :class:`FaultSchedule` from the seed and inject
   it through the :class:`~repro.chaos.injector.FaultInjector`;
5. at the fault horizon, lift everything, submit liveness probes and
   run the network to quiescence;
6. check convergence and report every violation plus a canonical digest
   of the run's event timeline (the determinism witness).

When a run fails, :func:`shrink_failing_schedule` replays ever-shorter
fault prefixes to find the *minimal* failing one, and the CLI prints the
exact command that reproduces it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..blockchain.config import FabricConfig
from ..blockchain.crypto import canonical_digest
from ..blockchain.network import BlockchainNetwork
from ..blockchain.transaction import TxValidationCode
from .buggy import install_catchup_corruption, install_mvcc_bypass
from .faults import FaultSchedule
from .injector import FaultInjector
from .invariants import CounterConservation, InvariantMonitor, Violation
from .scenarios import Scenario, get_scenario
from .workload import CounterWorkload

__all__ = ["ChaosResult", "ShrinkReport", "BUGGY_FIXTURES",
           "run_scenario", "shrink_failing_schedule", "replay_command"]


#: Named intentionally-buggy deployments: fixture name -> installer that
#: receives the freshly built chain.
BUGGY_FIXTURES: Dict[str, Callable[[BlockchainNetwork], None]] = {
    # A platform-wide MVCC regression: every peer skips conflict checks.
    "mvcc-bypass": lambda chain: [
        install_mvcc_bypass(peer) for peer in chain.peers
    ],
    # One peer whose gap-recovery path re-applies rejected writes; only
    # observable once a fault forces it through catch-up.
    "catchup-corruption": lambda chain: install_catchup_corruption(chain.peers[1]),
}


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    scenario: str
    seed: int
    buggy: Optional[str]
    faults_in_schedule: int
    faults_applied: int
    violations: List[Violation]
    timeline: List[list] = field(default_factory=list)
    workload_summary: Dict[str, int] = field(default_factory=dict)
    probe_codes: List[str] = field(default_factory=list)
    submitted: int = 0
    committed_height: int = 0
    network_stats: Dict[str, int] = field(default_factory=dict)
    schedule: Optional[FaultSchedule] = None
    #: True when a ``max_wall_s`` budget expired before the scenario
    #: finished — the run's results are partial and not comparable.
    truncated: bool = False
    #: Host wall-clock seconds the simulation loop consumed (only
    #: measured when a ``max_wall_s`` budget was given, else 0.0).
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def timeline_digest(self) -> str:
        """Canonical digest of the full event timeline — two runs are
        *the same run* iff their digests match."""
        return canonical_digest({"seed": self.seed, "timeline": self.timeline})

    def describe(self) -> List[str]:
        lines = [
            f"scenario={self.scenario} seed={self.seed}"
            + (f" buggy={self.buggy}" if self.buggy else "")
            + (f" TRUNCATED after {self.wall_s:.1f}s wall" if self.truncated else ""),
            f"faults: {self.faults_applied}/{self.faults_in_schedule} applied",
            f"workload: {self.submitted} submitted, outcomes {self.workload_summary}",
            f"probes: {self.probe_codes}",
            f"committed height: {self.committed_height}",
            f"timeline: {len(self.timeline)} events, digest {self.timeline_digest()[:16]}",
        ]
        if self.ok:
            lines.append("invariants: all green")
        else:
            lines.append(f"invariants: {len(self.violations)} violation(s)")
            lines.extend(f"  {v.describe()}" for v in self.violations)
        return lines


#: Events fired between wall-clock checks under a ``max_wall_s`` budget.
#: Large enough that the ``perf_counter`` call is noise, small enough
#: that overshoot past the budget stays well under a second.
_WALL_CHECK_EVERY = 20_000

#: Backstop matching :meth:`Scheduler.run_until_idle`'s default.
_MAX_TOTAL_EVENTS = 10_000_000


def _run_budgeted(scheduler, deadline: float, until: Optional[float]) -> bool:
    """Run the scheduler in event chunks, checking the wall clock between
    chunks.  Returns True when the phase completed (queue drained or
    ``until`` reached), False when the ``deadline`` expired first.

    Only used when a budget was requested: the unbudgeted path stays the
    exact event loop the golden determinism record was taken on (the sim
    results are identical either way — chunking never reorders events —
    but the unchunked loop is faster and simpler to reason about).
    """
    total = 0
    while True:
        if time.perf_counter() >= deadline:
            return False
        before = scheduler.events_processed
        scheduler.run(until=until, max_events=_WALL_CHECK_EVERY)
        fired = scheduler.events_processed - before
        total += fired
        if fired < _WALL_CHECK_EVERY:
            return True  # run() hit its natural end, not the chunk cap
        if total >= _MAX_TOTAL_EVENTS:
            raise RuntimeError(
                f"simulation did not quiesce within {_MAX_TOTAL_EVENTS} events"
            )


def run_scenario(
    scenario: Union[str, Scenario],
    seed: int,
    max_faults: Optional[int] = None,
    buggy: Optional[str] = None,
    record_timeline: bool = True,
    telemetry=None,
    max_wall_s: Optional[float] = None,
    config: Optional[FabricConfig] = None,
) -> ChaosResult:
    """Run one seeded chaos experiment end to end.

    Args:
        scenario: catalog name or an explicit :class:`Scenario`.
        seed: drives deployment placement, workload and fault schedule.
        max_faults: truncate the schedule to its first ``max_faults``
            injections — the replay/shrink hook.
        buggy: name of a :data:`BUGGY_FIXTURES` entry to install.
        record_timeline: keep the per-event timeline (disabled inside the
            shrinker's inner loop, where only pass/fail matters).
        telemetry: optional :class:`repro.telemetry.Telemetry` to wire
            through the deployment and the injector.  Purely host-side:
            the simulated results are identical with and without.
        max_wall_s: host wall-clock budget in seconds.  When it expires
            the run stops in-process and returns with ``truncated=True``
            and whatever was recorded so far; convergence/liveness are
            not judged on a partial run.
        config: override the :class:`FabricConfig` (the scenario's
            ``max_block_txs`` is applied on top).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if scenario.n_shards > 1:
        # Multi-shard scenarios swap the deployment and workload for
        # their sharded twins; imported lazily so single-chain runs
        # never load the sharding stack.
        from .sharded import run_sharded_scenario

        return run_sharded_scenario(
            scenario, seed,
            max_faults=max_faults, buggy=buggy,
            record_timeline=record_timeline, telemetry=telemetry,
            max_wall_s=max_wall_s, config=config,
        )
    if buggy is not None and buggy not in BUGGY_FIXTURES:
        known = ", ".join(sorted(BUGGY_FIXTURES))
        raise KeyError(f"unknown buggy fixture {buggy!r}; known: {known}")

    if config is None:
        config = FabricConfig(max_block_txs=scenario.max_block_txs)
    else:
        config = config.with_options(max_block_txs=scenario.max_block_txs)
    chain = BlockchainNetwork(
        n_peers=scenario.n_peers,
        seed=seed,
        config=config,
    )
    if telemetry is not None:
        # Before the workload installs: its clients then inherit the
        # telemetry through BlockchainNetwork.create_client.
        telemetry.instrument_chain(chain)
    timeline: List[list] = []

    def record(kind: str, *fields) -> None:
        if record_timeline:
            timeline.append([kind, round(chain.now, 3), *fields])

    workload = CounterWorkload(
        chain,
        duration_ms=scenario.duration_ms,
        interval_ms=scenario.workload_interval_ms,
        n_counters=scenario.n_counters,
        conflict_every=scenario.conflict_every,
        seed=seed,
    ).install()

    monitor = InvariantMonitor(
        chain,
        asset_invariants=(CounterConservation(),),
        deep=True,
        on_commit=lambda t, peer, height, state_hash: record(
            "commit", peer, height, state_hash
        ),
    ).attach()

    if buggy is not None:
        BUGGY_FIXTURES[buggy](chain)

    schedule = scenario.build_schedule(seed, chain.peer_names(), chain.orderer.name)
    if max_faults is not None:
        schedule = schedule.prefix(max_faults)
    injector = FaultInjector(
        chain,
        schedule,
        on_fault=lambda t, kind, targets: record("fault", kind, list(targets)),
    ).install()
    if telemetry is not None:
        injector.telemetry = telemetry

    # Fault phase, then heal-and-settle, then liveness probes.
    truncated = False
    wall_start = time.perf_counter()
    if max_wall_s is None:
        chain.run(until=scenario.duration_ms)
        injector.lift_all()
        chain.run(until=scenario.duration_ms + scenario.settle_ms)
        workload.submit_probes()
        chain.run_until_idle()
    else:
        deadline = wall_start + max_wall_s
        sched = chain.net.scheduler
        if _run_budgeted(sched, deadline, until=scenario.duration_ms):
            injector.lift_all()
            if _run_budgeted(
                sched, deadline, until=scenario.duration_ms + scenario.settle_ms
            ):
                workload.submit_probes()
                truncated = not _run_budgeted(sched, deadline, until=None)
            else:
                truncated = True
        else:
            truncated = True
    wall_s = time.perf_counter() - wall_start

    if not truncated:
        # Convergence and liveness are end-of-run judgements; a
        # wall-clock-truncated run never reached its end.
        monitor.check_convergence()
        for index, code in enumerate(workload.probe_codes):
            if code != TxValidationCode.VALID:
                monitor._record(
                    "liveness", "wl-probe",
                    f"post-heal probe {index} ended {code}, expected VALID",
                )
        if len(workload.probe_codes) < 3:
            monitor._record(
                "liveness", "wl-probe",
                f"only {len(workload.probe_codes)} of 3 probes completed",
            )

    return ChaosResult(
        scenario=scenario.name,
        seed=seed,
        buggy=buggy,
        faults_in_schedule=len(schedule),
        faults_applied=injector.faults_applied,
        violations=list(monitor.violations),
        timeline=timeline,
        workload_summary=workload.summary(),
        probe_codes=list(workload.probe_codes),
        submitted=workload.submitted,
        committed_height=max(p.committed_height for p in chain.peers),
        network_stats=chain.net.stats.as_dict(),
        schedule=schedule,
        truncated=truncated,
        wall_s=round(wall_s, 3) if max_wall_s is not None else 0.0,
    )


def replay_command(
    scenario: str, seed: int, faults: Optional[int] = None,
    buggy: Optional[str] = None,
) -> str:
    """The exact CLI invocation that reproduces a run."""
    cmd = f"python -m repro.chaos --seed {seed} --scenario {scenario}"
    if faults is not None:
        cmd += f" --faults {faults}"
    if buggy is not None:
        cmd += f" --buggy {buggy}"
    return cmd


@dataclass
class ShrinkReport:
    """Outcome of shrinking a failing schedule to a minimal prefix."""

    scenario: str
    seed: int
    buggy: Optional[str]
    full_faults: int
    #: None when the full run already passed (nothing to shrink).
    minimal_faults: Optional[int]
    minimal_schedule: Optional[FaultSchedule]
    violations: List[Violation]
    runs: int

    @property
    def failed(self) -> bool:
        return self.minimal_faults is not None

    def replay(self) -> Optional[str]:
        if not self.failed:
            return None
        return replay_command(
            self.scenario, self.seed, faults=self.minimal_faults, buggy=self.buggy
        )

    def describe(self) -> List[str]:
        if not self.failed:
            return ["nothing to shrink: full schedule passed"]
        lines = [
            f"minimal failing prefix: {self.minimal_faults} of "
            f"{self.full_faults} fault(s) ({self.runs} replays)",
        ]
        if self.minimal_schedule is not None:
            lines.extend(f"  {line}" for line in self.minimal_schedule.describe())
        lines.append(f"replay: {self.replay()}")
        return lines


def shrink_failing_schedule(
    scenario: Union[str, Scenario],
    seed: int,
    buggy: Optional[str] = None,
    full_result: Optional[ChaosResult] = None,
) -> ShrinkReport:
    """Find the smallest fault prefix that still fails.

    Replays the scenario with ``prefix(k)`` for ``k = 0, 1, …`` and
    returns the first failing ``k`` — by construction the minimal
    failing prefix under the schedule's time order.  ``k = 0`` failing
    means the bug needs no faults at all.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    runs = 0
    if full_result is None:
        full_result = run_scenario(
            scenario, seed, buggy=buggy, record_timeline=False
        )
        runs += 1
    total = full_result.faults_in_schedule
    if full_result.ok:
        return ShrinkReport(
            scenario=scenario.name, seed=seed, buggy=buggy, full_faults=total,
            minimal_faults=None, minimal_schedule=None, violations=[], runs=runs,
        )
    minimal, violations, schedule = total, full_result.violations, full_result.schedule
    for k in range(total):
        result = run_scenario(
            scenario, seed, max_faults=k, buggy=buggy, record_timeline=False
        )
        runs += 1
        if not result.ok:
            minimal, violations, schedule = k, result.violations, result.schedule
            break
    return ShrinkReport(
        scenario=scenario.name, seed=seed, buggy=buggy, full_faults=total,
        minimal_faults=minimal, minimal_schedule=schedule,
        violations=list(violations), runs=runs,
    )
