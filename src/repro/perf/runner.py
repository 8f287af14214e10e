"""Suite runner, cProfile attribution and the CI regression gate."""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from .workloads import WORKLOADS, calibration_ms

__all__ = [
    "run_suite",
    "check_against_baseline",
    "profile_workload",
    "scaling_report",
    "host_metadata",
    "run_context",
]

SCHEMA = "repro.perf/1"


def profile_workload(workload, quick: bool = False, top: int = 10) -> List[Dict[str, Any]]:
    """Run one workload under cProfile; return the top hotspots by
    cumulative time (the table DESIGN.md's perf section reports)."""
    profiler = cProfile.Profile()
    profiler.enable()
    workload.run(quick=quick)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    ):
        filename, lineno, name = func
        if filename.startswith("<") or "/perf/" in filename.replace("\\", "/"):
            continue  # harness frames, not engine frames
        short = filename.replace("\\", "/").split("/site-packages/")[-1]
        if "/repro/" in short:
            short = "repro/" + short.split("/repro/", 1)[1]
        elif "/lib/python" in short:
            short = short.rsplit("/", 1)[-1]
        rows.append(
            {
                "function": f"{short}:{lineno}({name})",
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            }
        )
        if len(rows) >= top:
            break
    return rows


def host_metadata() -> Dict[str, Any]:
    """Where this record was measured: CPU count and load average.

    Stored in every BENCH record and echoed by the regression gate so a
    mismatch can be read in context — a loaded 1-core runner regressing
    a wall-clock figure is a very different signal than a quiet 16-core
    box doing so.
    """
    meta: Dict[str, Any] = {"cpu_count": os.cpu_count()}
    try:
        meta["loadavg_1m"] = round(os.getloadavg()[0], 2)
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        meta["loadavg_1m"] = None
    return meta


def run_context(record: Dict[str, Any]) -> str:
    """One-line host/placement context for a BENCH record."""
    host = record.get("host") or {}
    bits = []
    if host.get("cpu_count") is not None:
        bits.append(f"cpus={host['cpu_count']}")
    if host.get("loadavg_1m") is not None:
        bits.append(f"load1m={host['loadavg_1m']}")
    if record.get("procs") is not None:
        bits.append(f"procs={record['procs']}")
    if record.get("backend") is not None:
        bits.append(f"backend={record['backend']}")
    return ", ".join(bits) if bits else "no host metadata"


def run_suite(
    quick: bool = False,
    profile: bool = False,
    only: Optional[List[str]] = None,
    verbose: bool = True,
    trace_dir: Optional[str] = None,
    procs: Optional[int] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the workload suite and return the BENCH_engine record.

    With ``trace_dir`` set, every traceable workload (the full-stack
    replays) runs with telemetry enabled: the lifecycle trace is dumped
    to ``<trace_dir>/trace_<name>.jsonl``, the metrics registry to
    ``<trace_dir>/metrics_<name>.prom``, and the per-stage latency
    summary is embedded in the workload's record entry.  Telemetry is
    host-side only, so simulated metrics are identical either way —
    but ``wall_s`` includes the recording overhead, so traced runs
    should not be gated against an untraced baseline.

    ``procs`` places the sharded replays' shard pipelines across that
    many worker processes (the bridged engine; 1 keeps them in-process).
    Placements are bit-identical by contract, so any ``procs`` run
    gates against the same baseline.  ``profile_dir`` additionally asks
    each worker process to dump a cProfile (``shardworker_*.pstats``)
    there on shutdown.
    """
    selected = [w for w in WORKLOADS if only is None or w.name in only]
    if only is not None:
        unknown = set(only) - {w.name for w in selected}
        if unknown:
            raise ValueError(f"unknown workloads: {sorted(unknown)}")

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    cal = calibration_ms()
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        # Perf workloads always measure the deterministic backend; the
        # tag lets the regression gate refuse a baseline produced by a
        # wall-clock (realnet/soak) run, whose timings mean something else.
        "backend": "simnet",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_ms": round(cal, 3),
        "host": host_metadata(),
        "workloads": {},
    }
    if procs is not None:
        record["procs"] = procs
    t0 = time.perf_counter()
    for workload in selected:
        if verbose:
            print(f"[perf] running {workload.name} ({record['mode']}) ...", file=sys.stderr)
        telemetry = None
        if trace_dir is not None and workload.traceable:
            from ..telemetry import Telemetry

            telemetry = Telemetry()
        result = workload.run(
            quick=quick, telemetry=telemetry,
            procs=procs, profile_dir=profile_dir,
        )
        entry = result.as_record()
        entry["normalized"] = round(result.wall_s * 1000.0 / cal, 4)
        if telemetry is not None:
            from ..telemetry import prometheus_text, stage_summary, write_trace_jsonl

            trace_path = os.path.join(trace_dir, f"trace_{workload.name}.jsonl")
            n_records = write_trace_jsonl(telemetry, trace_path)
            prom_path = os.path.join(trace_dir, f"metrics_{workload.name}.prom")
            with open(prom_path, "w", encoding="utf-8") as fh:
                fh.write(prometheus_text(telemetry))
            entry["trace"] = {
                "path": trace_path,
                "records": n_records,
                "stage_summary": stage_summary(telemetry),
            }
            if verbose:
                print(
                    f"[perf]   {workload.name}: trace {n_records} records -> {trace_path}",
                    file=sys.stderr,
                )
        record["workloads"][workload.name] = entry
        if verbose:
            print(
                f"[perf]   {workload.name}: {result.wall_s:.2f}s wall "
                f"(x{entry['normalized']:.1f} calibration)",
                file=sys.stderr,
            )
    record["total_wall_s"] = round(time.perf_counter() - t0, 3)

    scaling = scaling_report(record["workloads"])
    if scaling is not None:
        record["scaling"] = scaling
        if verbose:
            for shards, eff in scaling["efficiency"].items():
                print(
                    f"[perf] scaling: {shards} shards -> "
                    f"{scaling['speedup'][shards]:.2f}x speedup "
                    f"(efficiency {eff:.2f})",
                    file=sys.stderr,
                )

    if profile:
        # Profile the largest replay in the selection (replay names end in
        # "<N>p"): the 32-peer replay is where the O(N^2) gossip dominates
        # and is the workload the DESIGN.md perf tables are drawn from.
        replays = [w for w in selected if w.name.startswith("replay-")]

        def _peers(w):  # "replay-32p" -> 32
            digits = "".join(ch for ch in w.name if ch.isdigit())
            return int(digits) if digits else 0

        replay = max(replays, key=_peers, default=selected[-1])
        if verbose:
            print(f"[perf] profiling {replay.name} ...", file=sys.stderr)
        record["profile"] = {
            "workload": replay.name,
            "top_cumulative": profile_workload(replay, quick=quick),
        }
    return record


def scaling_report(workloads: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Scaling-efficiency summary over the ``sharded-replay-<n>s`` runs.

    Every shard count runs the same logical workload on the same total
    peer count, and throughput is measured in *simulated* time, so
    ``speedup(n) = throughput(n) / throughput(1)`` isolates the
    pipeline-parallelism win and ``efficiency(n) = speedup(n) / n`` is
    directly comparable across hosts.  Returns None unless the 1-shard
    base and at least one multi-shard run are present.
    """
    prefix, suffix = "sharded-replay-", "s"
    throughput: Dict[int, float] = {}
    for name, entry in workloads.items():
        if not (name.startswith(prefix) and name.endswith(suffix)):
            continue
        eps = entry.get("sim_metrics", {}).get("throughput_eps")
        if eps:
            throughput[int(name[len(prefix):-len(suffix)])] = eps
    if 1 not in throughput or len(throughput) < 2:
        return None
    base = throughput[1]
    report: Dict[str, Any] = {
        "base": f"{prefix}1{suffix}",
        "throughput_eps": {str(n): round(throughput[n], 6) for n in sorted(throughput)},
        "speedup": {},
        "efficiency": {},
    }
    for n in sorted(throughput):
        if n == 1:
            continue
        speedup = throughput[n] / base
        report["speedup"][str(n)] = round(speedup, 4)
        report["efficiency"][str(n)] = round(speedup / n, 4)
    return report


def check_against_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
    min_wall_s: float = 0.25,
    min_efficiency: float = 0.375,
    only: Optional[List[str]] = None,
) -> Tuple[bool, List[str], List[str]]:
    """Compare a run against a checked-in baseline.

    Returns ``(ok, problems, skipped)``.  Timings are compared through
    the ``normalized`` figure (wall-clock divided by the host
    calibration loop) so a slower CI runner is not misread as an engine
    regression; a workload fails when it is more than ``tolerance``
    slower than baseline.  Workloads whose wall time is under
    ``min_wall_s`` on both sides skip the timing gate — below that,
    timer and calibration noise dwarf any real engine change.
    Simulated metrics must match exactly regardless of size: the engine
    may get faster, never different.

    Workloads present in the current run but absent from the baseline
    are *skipped*, not failed: a filtered run (``--workloads``) or a
    freshly added workload is gated on what the baseline does cover,
    and the skip is reported so a stale baseline stays visible.  A
    malformed baseline (no ``workloads`` mapping) is still a failure.
    Symmetrically, ``only`` names the workloads the run was filtered
    to: baseline entries outside the filter are skipped (they were
    never run), while a baseline entry *inside* the filter that the
    run failed to produce is still a failure.

    When the current run carries a ``scaling`` section (the sharded
    replays all ran), every shard count's parallel efficiency must meet
    ``min_efficiency`` — the scale-out subsystem's headline guarantee,
    gated absolutely rather than against the baseline so it can never
    ratchet down.
    """
    problems: List[str] = []
    skipped: List[str] = []
    # Host/placement context rides on every mismatch message: a timing
    # regression on a loaded or smaller box reads differently, and a
    # sim divergence between placements names the suspect immediately.
    context = f" [current: {run_context(current)}; baseline: {run_context(baseline)}]"
    base_workloads = baseline.get("workloads")
    if not isinstance(base_workloads, dict):
        return (
            False,
            [
                "baseline is malformed: no 'workloads' mapping "
                "(regenerate it with python -m repro.perf)"
            ],
            skipped,
        )
    # Records from different transport backends time different things
    # entirely (discrete-event cranking vs wall-clock sockets): refuse
    # the comparison outright rather than report nonsense regressions.
    cur_backend = current.get("backend", "simnet")
    base_backend = baseline.get("backend", "simnet")
    if cur_backend != base_backend:
        return (
            False,
            [
                f"backend mismatch: current run is {cur_backend!r} but the "
                f"baseline is {base_backend!r} — cross-backend timing "
                "comparisons are meaningless; regenerate the baseline on "
                "the same backend"
            ],
            skipped,
        )
    # Execution placement differs between the two records: the timing
    # comparison still runs (normalized figures absorb most of it), but
    # the mismatch is surfaced rather than discovered inside a cryptic
    # regression message.
    if current.get("procs") != baseline.get("procs"):
        skipped.append(
            "host-context: procs differs between run and baseline "
            f"(current={current.get('procs')!r}, baseline="
            f"{baseline.get('procs')!r}) — timings compared across "
            "different execution placements"
        )
    cur_workloads = current.get("workloads", {})
    for name in sorted(cur_workloads):
        if name not in base_workloads:
            skipped.append(
                f"{name}: not in baseline — timing not gated "
                "(regenerate the baseline to cover it)"
            )
    scaling = current.get("scaling")
    if isinstance(scaling, dict):
        for shards, efficiency in sorted(scaling.get("efficiency", {}).items()):
            if efficiency < min_efficiency:
                problems.append(
                    f"scaling: {shards}-shard efficiency {efficiency:.3f} "
                    f"below the {min_efficiency} floor"
                )
    for name, base_entry in base_workloads.items():
        cur_entry = current.get("workloads", {}).get(name)
        if cur_entry is None:
            if only is not None and name not in only:
                skipped.append(
                    f"{name}: in baseline but excluded by the workload filter"
                )
                continue
            problems.append(f"{name}: missing from current run")
            continue
        if cur_entry.get("params") != base_entry.get("params"):
            problems.append(
                f"{name}: params changed {base_entry.get('params')} -> "
                f"{cur_entry.get('params')} (regenerate the baseline)"
            )
            continue
        base_sim = base_entry.get("sim_metrics", {})
        cur_sim = cur_entry.get("sim_metrics", {})
        if base_sim != cur_sim:
            diffs = [
                k
                for k in set(base_sim) | set(cur_sim)
                if base_sim.get(k) != cur_sim.get(k)
            ]
            problems.append(
                f"{name}: simulated metrics diverged ({sorted(diffs)}){context}"
            )
        base_norm = base_entry.get("normalized")
        cur_norm = cur_entry.get("normalized")
        if (
            base_entry.get("wall_s", 0.0) < min_wall_s
            and cur_entry.get("wall_s", 0.0) < min_wall_s
        ):
            continue  # too small to time reliably; sim metrics checked above
        if base_norm and cur_norm and cur_norm > base_norm * (1.0 + tolerance):
            problems.append(
                f"{name}: {cur_norm:.2f} normalized vs baseline {base_norm:.2f} "
                f"(> {tolerance:.0%} regression){context}"
            )
    return (not problems, problems, skipped)


def load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(record: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
