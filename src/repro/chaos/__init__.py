"""Deterministic chaos harness for the execute-order-validate pipeline.

Seeded fault schedules (:mod:`repro.chaos.faults`) are injected into a
live simulated deployment (:mod:`repro.chaos.injector`) while safety and
liveness invariants are checked independently of the implementation
under test (:mod:`repro.chaos.invariants`).  One run loop
(:mod:`repro.chaos.loop`) plays every scenario and soak.  The scenario
runner (:mod:`repro.chaos.runner`, CLI via ``python -m repro.chaos``)
shrinks a failing schedule to a minimal fault prefix and prints the
command that replays it.
"""

from .faults import FaultEvent, FaultKind, FaultSchedule
from .injector import FaultInjector
from .invariants import (
    AssetInvariant,
    CounterConservation,
    DoomAssetBounds,
    InvariantMonitor,
    MonopolyConservation,
    Violation,
)
from .runner import (
    BUGGY_FIXTURES,
    ChaosResult,
    ShrinkReport,
    replay_command,
    run_scenario,
    shrink_failing_schedule,
)
from .scenarios import SCENARIOS, Scenario, get_scenario
from .workload import ChaosCounterContract, CounterWorkload

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "FaultInjector",
    "AssetInvariant",
    "CounterConservation",
    "DoomAssetBounds",
    "MonopolyConservation",
    "InvariantMonitor",
    "Violation",
    "BUGGY_FIXTURES",
    "ChaosResult",
    "ShrinkReport",
    "replay_command",
    "run_scenario",
    "shrink_failing_schedule",
    "SCENARIOS",
    "Scenario",
    "get_scenario",
    "ChaosCounterContract",
    "CounterWorkload",
]
