"""The one run loop behind every scenario driver.

A run is a list of *worlds* — a :class:`~repro.blockchain.network
.BlockchainNetwork` each, with the fault schedule to replay on it — and
the control clock the workload runs on: one chain, one world per shard
of a sharded engine, or N soak sessions on one transport.
:func:`run_worlds` attaches a monitor and an injector to every world,
installs a buggy fixture, plays the phases as timers (every fault
lifted at the horizon, liveness probes at horizon + settle), drains the
control clock under one wall budget, runs the post-drain tail, judges
convergence and probe liveness, and closes what it was handed in a
``finally``.  DESIGN.md §8 has the argument that this replays the old
phase-by-phase loop event for event.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..blockchain.transaction import TxValidationCode
from ..simnet.clock import SimulationError
from .buggy import BUGGY_FIXTURES
from .faults import FaultSchedule
from .injector import FaultInjector
from .invariants import AssetInvariant, InvariantMonitor, Violation

__all__ = ["WorldsRun", "run_worlds"]

#: Backstop on drain steps, as :meth:`Scheduler.run_until_idle`'s.
_MAX_STEPS = 10_000_000

#: Probes a workload submits; fewer completing is a liveness breach.
_PROBES = 3


@dataclass
class WorldsRun:
    """What :func:`run_worlds` attached, per world, and how the run ended."""

    monitors: List[InvariantMonitor]
    #: None for a world handed no schedule.
    injectors: List[Optional[FaultInjector]]
    #: ``(clock ms, kind, targets)`` of every fault the world's injector logged.
    faults: List[List[Tuple[float, str, Tuple[str, ...]]]]
    #: The wall budget ran out first: partial results, nothing judged.
    truncated: bool
    wall_s: float

    @property
    def violations(self) -> List[Violation]:
        return [v for monitor in self.monitors for v in monitor.violations]


def _drain(clock, deadline: float) -> bool:
    """Run ``clock`` until nothing is left to do; False when the
    ``time.perf_counter()`` deadline passed first."""
    step = getattr(clock, "step", None)
    if step is None:
        # A WallClock keeps wall time itself: it drains under its own cap.
        try:
            clock.run_until_idle(max_wall_ms=(deadline - time.perf_counter()) * 1000.0)
        except SimulationError:
            return False
        return True
    # A Scheduler steps one event, a TimeBridge one epoch round.  An idle
    # clock is drained whatever the time.
    now = time.perf_counter
    for _ in range(_MAX_STEPS):
        if not step():
            return True
        if now() >= deadline:
            return False
    raise SimulationError(f"run did not quiesce within {_MAX_STEPS} steps")


def run_worlds(
    clock,
    worlds: Sequence[Tuple[Any, Optional[FaultSchedule]]],
    workloads: Sequence[Any],
    horizon_ms: float,
    probe_at_ms: Optional[float] = None,
    tail: Sequence[Callable[[], None]] = (),
    max_wall_s: Optional[float] = None,
    buggy: Optional[str] = None,
    invariants: Callable[[], Tuple[AssetInvariant, ...]] = tuple,
    record: Optional[Callable[..., None]] = None,
    close: Sequence[Callable[[], None]] = (),
) -> WorldsRun:
    """Play one run over ``worlds`` and judge it.

    Args:
        clock: the control clock — a ``Scheduler``, a ``TimeBridge`` or a
            ``WallClock``.
        worlds: ``(chain, schedule)`` pairs; a None schedule gets no
            injector.
        workloads: installed workloads; workload *i*'s ``probe_codes``
            are judged on world *i*'s monitor.
        horizon_ms: when every fault is lifted, on each world's clock.
        probe_at_ms: control-clock time to submit the probes; None
            submits them after the drain, as the first tail step.
        tail: steps run after the drain, each followed by a drain.
        max_wall_s: host wall budget for the drains and the tail.
        buggy: a :data:`BUGGY_FIXTURES` name, installed on every world.
        invariants: builds one monitor's asset invariants.
        record: timeline observer ``(kind, t, *fields)`` for commits and
            faults.  A fault several worlds log at one time with the same
            targets is one entry: a fabric-wide event reaches every world.
        close: called in order, however the run ends.
    """
    try:
        if buggy is not None and buggy not in BUGGY_FIXTURES:
            known = ", ".join(sorted(BUGGY_FIXTURES))
            raise KeyError(f"unknown buggy fixture {buggy!r}; known: {known}")
        on_commit = None
        if record is not None:
            def on_commit(t, peer, height, state_hash) -> None:
                record("commit", t, peer, height, state_hash)

        monitors = [
            InvariantMonitor(
                chain, asset_invariants=invariants(), on_commit=on_commit
            ).attach()
            for chain, _ in worlds
        ]
        if buggy is not None:
            for chain, _ in worlds:
                BUGGY_FIXTURES[buggy](chain)

        logged: set = set()
        injectors: List[Optional[FaultInjector]] = []
        faults: List[List[Tuple[float, str, Tuple[str, ...]]]] = []
        for chain, schedule in worlds:
            log: List[Tuple[float, str, Tuple[str, ...]]] = []
            faults.append(log)
            if schedule is None:
                injectors.append(None)
                continue

            def on_fault(t, kind, targets, log=log) -> None:
                log.append((t, kind, targets))
                if record is not None and (t, kind, targets) not in logged:
                    logged.add((t, kind, targets))
                    record("fault", t, kind, list(targets))

            injector = FaultInjector(chain, schedule, on_fault=on_fault).install()
            injector.telemetry = chain.telemetry
            chain.scheduler.call_at(horizon_ms, injector.lift_all)
            injectors.append(injector)

        def submit_probes() -> None:
            for workload in workloads:
                workload.submit_probes()

        steps = list(tail)
        if probe_at_ms is None:
            steps.insert(0, submit_probes)
        else:
            clock.call_at(probe_at_ms, submit_probes)

        started = time.perf_counter()
        deadline = started + (max_wall_s if max_wall_s is not None else math.inf)
        truncated = not _drain(clock, deadline)
        for step in steps:
            if truncated:
                break
            step()
            truncated = not _drain(clock, deadline)
        wall_s = time.perf_counter() - started

        if not truncated:
            for monitor in monitors:
                monitor.check_convergence()
            for monitor, workload in zip(monitors, workloads):
                for index, code in enumerate(workload.probe_codes):
                    if code != TxValidationCode.VALID:
                        monitor._record(
                            "liveness", "wl-probe",
                            f"post-heal probe {index} ended {code}, expected VALID",
                        )
                if len(workload.probe_codes) < _PROBES:
                    monitor._record(
                        "liveness", "wl-probe",
                        f"only {len(workload.probe_codes)} of {_PROBES} probes completed",
                    )
        return WorldsRun(monitors, injectors, faults, truncated, wall_s)
    finally:
        for fn in close:
            fn()
