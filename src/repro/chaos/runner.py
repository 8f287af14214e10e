"""The chaos scenario runner: build, injure, heal, verify, shrink.

One :func:`run_scenario` call is a complete experiment:

1. build a fresh deployment from the seed — one :class:`BlockchainNetwork`
   with the deterministic counter workload, or a sharded engine with the
   cross-shard swap workload (:mod:`repro.chaos.sharded`);
2. draw the scenario's :class:`FaultSchedule` from the seed;
3. hand both to the run loop (:func:`repro.chaos.loop.run_worlds`): it
   attaches the invariant monitors and fault injectors, optionally
   breaks peers with a fixture from :mod:`repro.chaos.buggy`, lifts
   every fault at the horizon, probes liveness after the settle period,
   runs to quiescence and checks convergence;
4. report every violation plus a canonical digest of the run's event
   timeline (the determinism witness).

When a run fails, :func:`shrink_failing_schedule` replays ever-shorter
fault prefixes to find the *minimal* failing one, and the CLI prints the
exact command that reproduces it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..blockchain.config import FabricConfig
from ..blockchain.crypto import canonical_digest
from ..blockchain.network import BlockchainNetwork
from .buggy import BUGGY_FIXTURES
from .faults import FaultSchedule
from .invariants import CounterConservation, Violation
from .loop import run_worlds
from .scenarios import Scenario, get_scenario
from .workload import CounterWorkload

__all__ = ["ChaosResult", "ShrinkReport", "BUGGY_FIXTURES",
           "run_scenario", "shrink_failing_schedule", "replay_command"]


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


def _world_share(schedule: FaultSchedule, chain) -> Tuple[FaultSchedule, List[int]]:
    """The part of a fabric-wide schedule that touches one world's hosts,
    and each kept event's position in ``schedule``.

    An event naming hosts is narrowed to the ones this world has and
    dropped when it has none.  Partitions, heals and ``"*"`` windows
    reach every world; a partition keeps its groups verbatim — names a
    network does not know are inert, and the world's unlisted hosts (its
    own orderer, its clients) fall into the implicit extra group exactly
    as they would on one shared fabric.  A single chain's share is the
    whole schedule.
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

    Builds the deployment — a :class:`BlockchainNetwork` with the counter
    workload, or with ``scenario.n_shards > 1`` a
    :class:`~repro.blockchain.shardworker.BridgedShardEngine` (local
    placement) with the cross-shard swap workload — and plays it through
    :func:`repro.chaos.loop.run_worlds`, one world per chain.

    Args:
        scenario: catalog name or an explicit :class:`Scenario`.
        seed: drives deployment placement, workload and fault schedule.
        max_faults: truncate the schedule to its first ``max_faults``
            injections — the replay/shrink hook.
        buggy: name of a :data:`BUGGY_FIXTURES` entry to install.
        record_timeline: keep the per-event timeline (disabled inside the
            shrinker's inner loop, where only pass/fail matters).
        telemetry: optional :class:`repro.telemetry.Telemetry` to wire
            through the deployment and the injectors.  Purely host-side:
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
    config = (config if config is not None else FabricConfig()).with_options(
        max_block_txs=scenario.max_block_txs
    )
    timeline: List[list] = []

    def record(kind: str, t: float, *fields) -> None:
        if record_timeline:
            timeline.append([kind, round(t, 3), *fields])

    if scenario.n_shards > 1:
        # Imported lazily so single-chain runs never load the sharding
        # stack.
        from ..blockchain.shardworker import BridgedShardEngine
        from .sharded import ShardedSwapWorkload

        engine = BridgedShardEngine(
            n_peers=scenario.n_peers, n_shards=scenario.n_shards,
            config=config, seed=seed,
        )
        chains = [world.chain for world in engine.worlds]
        if telemetry is not None:
            telemetry.instrument_sharded(engine)
        workload = ShardedSwapWorkload(
            engine, scenario, seed, telemetry=telemetry, record=record
        ).install()
        clock, tail, close = engine.bridge, workload.finish_swaps(), [engine.close]
        invariants = tuple
        extra_violations = workload.conservation_violations
    else:
        chain = BlockchainNetwork(n_peers=scenario.n_peers, seed=seed, config=config)
        chains = [chain]
        if telemetry is not None:
            # Before the workload installs: its clients then inherit the
            # telemetry through BlockchainNetwork.create_client.
            telemetry.instrument_chain(chain)
        workload = CounterWorkload(
            chain,
            duration_ms=scenario.duration_ms,
            interval_ms=scenario.workload_interval_ms,
            n_counters=scenario.n_counters,
            conflict_every=scenario.conflict_every,
            seed=seed,
        ).install()
        clock, tail, close = chain.scheduler, [], []
        invariants = lambda: (CounterConservation(),)
        extra_violations = []

    schedule = scenario.build_schedule(
        seed, [peer.name for chain in chains for peer in chain.peers],
        chains[0].orderer.name,
    )
    if max_faults is not None:
        schedule = schedule.prefix(max_faults)
    shares = [_world_share(schedule, chain) for chain in chains]
    run = run_worlds(
        clock,
        [(chain, share) for chain, (share, _) in zip(chains, shares)],
        [workload],
        horizon_ms=scenario.duration_ms,
        probe_at_ms=scenario.duration_ms + scenario.settle_ms,
        tail=tail,
        max_wall_s=max_wall_s,
        buggy=buggy,
        invariants=invariants,
        record=record,
        close=close,
    )

    # Worlds run an epoch one after the other, the control plane after
    # them: put the entries back in time order (ties keep that order).
    timeline.sort(key=lambda entry: entry[1])
    network_stats: Counter = Counter()
    for chain in chains:
        network_stats.update(chain.net.stats.as_dict())
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
            for injector, (_, positions) in zip(run.injectors, shares)
            for position in positions[:injector.faults_applied]
        }),
        violations=run.violations + extra_violations,
        timeline=timeline,
        workload_summary=workload.summary(),
        probe_codes=list(workload.probe_codes),
        submitted=workload.submitted,
        committed_height=max(
            peer.committed_height for chain in chains for peer in chain.peers
        ),
        network_stats=dict(network_stats),
        schedule=schedule,
        truncated=run.truncated,
        wall_s=round(run.wall_s, 3) if max_wall_s is not None else 0.0,
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
