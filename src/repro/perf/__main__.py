"""CLI: ``python -m repro.perf``.

Examples::

    python -m repro.perf --quick                    # CI smoke sizes
    python -m repro.perf --out BENCH_engine.json    # full suite
    python -m repro.perf --quick --check benchmarks/BENCH_engine_baseline.json
    python -m repro.perf --only replay-32p --profile
    python -m repro.perf --quick --workloads 'sharded-replay-*'
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys

from .runner import (
    check_against_baseline,
    dump_json,
    load_json,
    run_context,
    run_suite,
)
from .workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Wall-clock performance harness for the simulation engine.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload sizes (CI smoke; seconds instead of minutes)",
    )
    parser.add_argument(
        "--only", nargs="+", metavar="NAME",
        help="run only the named workloads (e.g. replay-32p sync-round)",
    )
    parser.add_argument(
        "--workloads", nargs="+", metavar="GLOB",
        help="run only workloads whose name matches one of the shell-style "
        "globs (e.g. 'sharded-replay-*'); composes with --only",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also cProfile the replay workload and record top hotspots",
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--procs", type=int, default=None, metavar="N",
        help="run the sharded replays' shard pipelines across N worker "
        "processes (bridged engine; bit-identical to in-process, so any "
        "N --check's against the same baseline; default: 1, in-process)",
    )
    parser.add_argument(
        "--profile-dir", default=None, metavar="DIR",
        help="with --procs > 1, each shard worker dumps a cProfile "
        "(shardworker_*.pstats) into DIR on shutdown",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="allow overwriting a full-mode record with a quick or "
        "filtered run (refused by default: CI's quick smoke must not "
        "clobber the checked-in full benchmark record)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a baseline JSON; exit 1 on >tolerance regression "
        "or any simulated-metric divergence",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed normalized-time regression vs baseline (default: 0.25)",
    )
    parser.add_argument(
        "--baseline-of", metavar="BASELINE",
        help="embed this baseline run in the output and report the speedup",
    )
    parser.add_argument(
        "--trace", nargs="?", const="traces", default=None, metavar="DIR",
        help="enable telemetry on the replay workloads: dump JSONL "
        "lifecycle traces + Prometheus metrics into DIR (default: "
        "%(const)s) and print the per-stage latency summary",
    )
    args = parser.parse_args(argv)

    only = list(args.only) if args.only else None
    if args.workloads:
        matched = [
            w.name for w in WORKLOADS
            if any(fnmatch.fnmatch(w.name, pattern) for pattern in args.workloads)
        ]
        if not matched:
            print(
                f"[perf] no workload matches {args.workloads} "
                f"(known: {[w.name for w in WORKLOADS]})",
                file=sys.stderr,
            )
            return 2
        only = sorted(set(matched) | set(only or []))

    # Refuse before spending minutes on the suite: a quick or filtered
    # run silently replacing the checked-in full record is exactly how
    # BENCH_engine.json lost its history once.
    if not args.force and os.path.exists(args.out):
        try:
            existing = load_json(args.out)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and existing.get("mode") == "full":
            downgrade = []
            if args.quick:
                downgrade.append("a quick-mode run")
            if only is not None:
                missing = sorted(set(existing.get("workloads", {})) - set(only))
                if missing:
                    downgrade.append(
                        f"a filtered run dropping {missing}"
                    )
            if downgrade:
                print(
                    f"[perf] refusing to overwrite full-mode record "
                    f"{args.out} with {' and '.join(downgrade)}; pass "
                    f"--force to allow it or --out for a separate file",
                    file=sys.stderr,
                )
                return 2

    record = run_suite(
        quick=args.quick, profile=args.profile, only=only,
        trace_dir=args.trace,
        procs=args.procs, profile_dir=args.profile_dir,
    )
    print(f"[perf] host: {run_context(record)}", file=sys.stderr)

    if args.baseline_of:
        baseline = load_json(args.baseline_of)
        record["baseline"] = baseline
        speedups = {}
        for name, entry in record["workloads"].items():
            base = baseline.get("workloads", {}).get(name)
            if base and entry["wall_s"] > 0:
                speedups[name] = round(base["wall_s"] / entry["wall_s"], 2)
        record["speedup_vs_baseline"] = speedups

    dump_json(record, args.out)
    print(f"[perf] wrote {args.out}", file=sys.stderr)

    if args.trace is not None:
        for name, entry in record["workloads"].items():
            summary = entry.get("trace", {}).get("stage_summary")
            if not summary:
                continue
            print(f"[perf] {name} per-stage latency:")
            width = max(len(stage) for stage in summary)
            for stage, row in summary.items():
                print(
                    f"[perf]   {stage:<{width}s}  count={row['count']:<6d} "
                    f"mean={row['mean_ms']:.2f}ms p50={row['p50_ms']:.2f}ms "
                    f"p95={row['p95_ms']:.2f}ms max={row['max_ms']:.2f}ms"
                )
    print(json.dumps({
        name: {
            "wall_s": entry["wall_s"],
            "normalized": entry["normalized"],
        }
        for name, entry in record["workloads"].items()
    }, indent=2))

    if args.check:
        ok, problems, skipped = check_against_baseline(
            record, load_json(args.check), tolerance=args.tolerance, only=only
        )
        for skip in skipped:
            print(f"[perf] SKIPPED: {skip}", file=sys.stderr)
        if not ok:
            for problem in problems:
                print(f"[perf] REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("[perf] no regression vs baseline", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
