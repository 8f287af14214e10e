"""Run shape, timers and statistics shared by every workload.

The noise fix lives here.  Interference on a shared host is episodic
and one-sided — a round is either clean or slowed, never sped up — so a
run repeats identical work several times and reports host-time metrics
as the *fast quartile* (the mean of the best quarter: the two best of
seven rounds).  Slow episodes last a second or two, about as long as a
round, so a workload also marks *laps* inside its timed region: every
round does the same work in every slice, the fast quartile is taken
slice by slice across the rounds, and the slices are summed.  A clean
quarter-second is far likelier than a clean two seconds.  The median
and inter-quartile range of the whole rounds are kept as diagnostics,
and a run whose fast quartile and median disagree by more than
:data:`NOISY_THRESHOLD` is flagged ``noisy``; the flag is reported,
never acted on (no adaptive extra rounds: run length is fixed by
``--seconds`` alone).
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.blockchain import TxValidationCode
from repro.blockchain.crypto import crypto_cache_sizes, reset_crypto_caches
from repro.blockchain.execution import (
    clear_execution_cache,
    execution_stats,
    reset_execution_stats,
)

from .trace import Tracer, install_layer_wrappers

__all__ = [
    "END_TO_END",
    "RoundOutcome",
    "RoundRecord",
    "RunResult",
    "SimWorkload",
    "pin_to_one_core",
    "derive_seed",
    "host_counters",
    "percentile",
    "quartile_size",
    "fast_quartile",
    "median_iqr",
    "rounds_for",
    "one_round",
    "run_sim_rounds",
    "summarise",
]

#: (name, unit, better) of the end-to-end metrics, the same on every
#: workload.  BENCHMARK.json carries the bounds.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("events_per_s", "1/s", "higher"),
    ("cpu_ms_per_event", "ms", "lower"),
    ("ack_p50_ms", "ms", "lower"),
    ("ack_p95_ms", "ms", "lower"),
    ("acked_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Nominal length of one measured round; ``--seconds`` buys rounds.
ROUND_NOMINAL_S = 2.0
MIN_ROUNDS = 3
MAX_ROUNDS = 7
TRACED_ROUNDS = 2
NOISY_THRESHOLD = 0.10


# ----------------------------------------------------------------------
# host hygiene


def pin_to_one_core() -> Optional[int]:
    """Pin this process to one allowed core; None where the OS refuses."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        core = allowed[-1]
        os.sched_setaffinity(0, {core})
        return core
    except (AttributeError, OSError):
        return None


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one purpose, a pure function of ``--seed``."""
    digest = hashlib.sha256(f"e2ebench:{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ----------------------------------------------------------------------
# statistics


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def quartile_size(n: int) -> int:
    """How many of ``n`` samples the fast quartile keeps: 2 of 7, 4 of 14."""
    return min(n, max(2, round(n / 4)))


def fast_quartile(values: Sequence[float], better: str) -> float:
    """Mean of the best quarter of the values (at least two of them)."""
    ordered = sorted(values, reverse=(better == "higher"))
    best = ordered[: quartile_size(len(ordered))]
    return sum(best) / len(best)


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def rounds_for(seconds: float) -> int:
    """Measured rounds a ``--seconds`` budget buys (fixed, not adaptive)."""
    return max(MIN_ROUNDS, min(MAX_ROUNDS, round(seconds / ROUND_NOMINAL_S)))


# ----------------------------------------------------------------------
# records


@dataclass
class RoundOutcome:
    """What one round (or one realnet run) produced, collected untimed."""

    attempted: int
    #: final validation code -> events acked with it.
    codes: Dict[str, int]
    #: per-event latency from entry point to ack (sim ms or wall ms).
    latencies: List[float]
    #: simulated outcome that must be identical in every round.
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    #: counters the program exposes, read after the round.
    counters: Dict[str, float] = field(default_factory=dict)
    #: correctness-gate failures; empty means the round is correct.
    problems: List[str] = field(default_factory=list)

    @property
    def acked(self) -> int:
        """Events acked with a final code other than TIMEOUT."""
        return sum(
            n for code, n in self.codes.items() if code != TxValidationCode.TIMEOUT
        )


@dataclass
class RoundRecord:
    wall_s: float
    cpu_s: float
    acked: int
    setup_s: float = 0.0
    #: (wall s, cpu s) of each slice between laps; sums to the totals.
    slices: List[Tuple[float, float]] = field(default_factory=list)
    traced: bool = False
    #: tracer snapshot + host counters of a traced round.
    trace: Optional[Dict[str, Any]] = None


@dataclass
class RunResult:
    workload: str
    seed: int
    backend: str
    latency_clock: str
    outcome: RoundOutcome
    rounds: List[RoundRecord]
    #: setup samples (per round on simnet, repeated builds on realnet).
    setups: List[float]
    problems: List[str] = field(default_factory=list)
    pinned_core: Optional[int] = None
    #: simnet: every round does identical work, slice by slice.
    #: realnet: rounds are consecutive windows of one deployment, and
    #: ``window_latencies`` holds the latencies acked in each.
    identical_rounds: bool = True
    window_latencies: Optional[List[List[float]]] = None


class SimWorkload:
    """One simnet workload: identical rounds on fresh deployments."""

    name = ""
    why = ""
    backend = "simnet"
    latency_clock = "sim ms"
    #: seed -> {"attempted", "codes"}, recorded after the first green run.
    pinned: Dict[int, Dict[str, Any]] = {}

    def prepare(self, seed: int) -> None:
        """Generate the inputs from ``seed`` (untimed, once per run)."""
        raise NotImplementedError

    def build(self, tracer: Optional[Tracer]) -> Any:
        """Build the deployment, join and start: everything up to the
        first timed event.  Timed as ``setup_s``."""
        raise NotImplementedError

    def drive(self, deployment: Any, lap: Callable[[], None]) -> None:
        """The timed region: hand every event in, run until all acked.
        Call ``lap()`` at the same points of the work in every round
        (not at the start or the end: the harness marks those)."""
        raise NotImplementedError

    def finish(self, deployment: Any) -> RoundOutcome:
        """Untimed: read results, run the correctness gates, tear down."""
        raise NotImplementedError

    def run(self, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
        """Untraced without a tracer; a traced run with one."""
        return run_sim_rounds(self, seed, seconds, tracer)


# ----------------------------------------------------------------------
# the simnet run shape


def host_counters() -> Dict[str, int]:
    """Process-wide counters the program exposes; traced rounds diff them."""
    counters = dict(execution_stats())
    counters["verify_cache_entries"] = crypto_cache_sizes()["verify"]
    return counters


def one_round(
    workload: SimWorkload, tracer: Optional[Tracer]
) -> Tuple[RoundRecord, RoundOutcome]:
    """Build, drive (timed) and finish one fresh deployment."""
    # Cold, identical start: the verify and execution caches must not
    # carry work from one round into the next.
    reset_crypto_caches()
    clear_execution_cache()
    reset_execution_stats()
    gc.collect()
    t0 = time.perf_counter()
    deployment = workload.build(tracer)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.reset()
    before = host_counters()
    marks: List[Tuple[float, float]] = []

    def lap() -> None:
        marks.append((time.perf_counter(), time.process_time()))

    lap()
    workload.drive(deployment, lap)
    lap()
    slices = [
        (b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])
    ]
    wall_s = marks[-1][0] - marks[0][0]
    cpu_s = marks[-1][1] - marks[0][1]
    trace = None
    if tracer is not None:
        after = host_counters()
        trace = tracer.snapshot()
        trace["host"] = {key: after[key] - before[key] for key in after}
    outcome = workload.finish(deployment)
    record = RoundRecord(
        wall_s=wall_s, cpu_s=cpu_s, setup_s=setup_s, acked=outcome.acked,
        slices=slices, traced=tracer is not None, trace=trace,
    )
    return record, outcome


def run_sim_rounds(
    workload: SimWorkload,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """One discarded warm-up round, then the measured rounds.

    Untraced: ``rounds_for(seconds)`` measured rounds.  Traced: one
    untraced reference round (the base of ``e2ebench.trace_overhead``)
    and :data:`TRACED_ROUNDS` rounds with the wrappers installed.
    """
    workload.prepare(seed)
    problems: List[str] = []
    records: List[RoundRecord] = []
    fingerprints: List[Dict[str, Any]] = []
    outcome: Optional[RoundOutcome] = None

    def one(tracer_now: Optional[Tracer], keep: bool) -> None:
        nonlocal outcome
        record, result = one_round(workload, tracer_now)
        fingerprints.append(result.fingerprint)
        problems.extend(result.problems)
        if keep:
            records.append(record)
            outcome = result

    one(None, keep=False)  # warm-up
    if tracer is not None:
        one(None, keep=True)
        with install_layer_wrappers(tracer):
            for _ in range(TRACED_ROUNDS):
                one(tracer, keep=True)
    else:
        for _ in range(rounds_for(seconds)):
            one(None, keep=True)

    for index, fingerprint in enumerate(fingerprints[1:], start=1):
        if fingerprint != fingerprints[0]:
            diff = sorted(
                key for key in fingerprint
                if fingerprint[key] != fingerprints[0].get(key)
            )
            problems.append(f"round {index} fingerprint differs from round 0 in {diff}")
    pinned = workload.pinned.get(seed)
    if pinned is not None:
        got = {"attempted": outcome.attempted, "codes": dict(sorted(outcome.codes.items()))}
        if got != pinned:
            problems.append(f"pinned outcome for seed {seed} is {pinned}, got {got}")
    return RunResult(
        workload=workload.name, seed=seed, backend=workload.backend,
        latency_clock=workload.latency_clock, outcome=outcome,
        rounds=records, setups=[r.setup_s for r in records],
        problems=problems,
    )


# ----------------------------------------------------------------------
# end-to-end summary


def _clean_totals(rounds: List[RoundRecord]) -> Tuple[float, float]:
    """Fast-quartile wall and CPU seconds of one round's work, taken
    slice by slice across identical rounds and summed."""
    n_slices = {len(r.slices) for r in rounds}
    if len(n_slices) != 1:
        raise ValueError(f"rounds disagree on the number of slices: {sorted(n_slices)}")
    wall = cpu = 0.0
    for k in range(n_slices.pop()):
        wall += fast_quartile([r.slices[k][0] for r in rounds], "lower")
        cpu += fast_quartile([r.slices[k][1] for r in rounds], "lower")
    return wall, cpu


def summarise(result: RunResult) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """``(end-to-end metrics, diagnostics)`` of an untraced run."""
    outcome = result.outcome
    rounds = [r for r in result.rounds if not r.traced]
    rates = [r.acked / r.wall_s for r in rounds]
    cpus = [r.cpu_s * 1000.0 / max(r.acked, 1) for r in rounds]
    all_latencies = sorted(outcome.latencies)
    if result.identical_rounds:
        acked = rounds[0].acked
        clean_wall, clean_cpu = _clean_totals(rounds)
        events_per_s = acked / clean_wall
        cpu_ms_per_event = clean_cpu * 1000.0 / max(acked, 1)
        latencies = all_latencies
    else:
        events_per_s = fast_quartile(rates, "higher")
        cpu_ms_per_event = fast_quartile(cpus, "lower")
        # Latency of the events acked in the fast-quartile windows: a
        # slowed window stretches acks by whole poll ticks, and says
        # what the host did, not what the program does.
        keep = sorted(range(len(rounds)), key=lambda i: -rates[i])
        keep = keep[: quartile_size(len(rounds))]
        latencies = sorted(
            lat for i in keep for lat in result.window_latencies[i]
        )
    metrics = {
        "events_per_s": events_per_s,
        "cpu_ms_per_event": cpu_ms_per_event,
        "ack_p50_ms": percentile(latencies, 0.50),
        "ack_p95_ms": percentile(latencies, 0.95),
        "acked_share": outcome.acked / outcome.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": fast_quartile(result.setups, "lower"),
    }
    rate_median, rate_iqr = median_iqr(rates)
    cpu_median, cpu_iqr = median_iqr(cpus)
    fastq_vs_median = metrics["events_per_s"] / rate_median
    diagnostics = {
        "rounds": len(rounds),
        "slices_per_round": len(rounds[0].slices),
        "latency_clock": result.latency_clock,
        "latency_samples": len(latencies),
        "ack_p99_ms": percentile(latencies, 0.99),
        "ack_p50_ms_all": percentile(all_latencies, 0.50),
        "ack_p95_ms_all": percentile(all_latencies, 0.95),
        "failed_share": 1.0 - metrics["acked_share"],
        "codes": dict(sorted(outcome.codes.items())),
        "events_per_s_median": rate_median,
        "events_per_s_iqr": rate_iqr,
        "cpu_ms_per_event_median": cpu_median,
        "cpu_ms_per_event_iqr": cpu_iqr,
        "round_iqr_ratio": rate_iqr / rate_median,
        "fastq_vs_median": fastq_vs_median,
        "noisy": abs(fastq_vs_median - 1.0) > NOISY_THRESHOLD,
        "round_wall_s": [round(r.wall_s, 4) for r in rounds],
        "setup_samples_s": [round(s, 4) for s in result.setups],
        "pinned_core": result.pinned_core,
    }
    return metrics, diagnostics
