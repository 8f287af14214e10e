"""CLI: ``python -m repro.perf [--procs N] [--workloads GLOB ...]
(--out FILE | --check FILE)``; e.g. ``--check
benchmarks/engine_sim_metrics.json``."""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys

from . import check_against_baseline, run_suite
from .workloads import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run the pinned engine workloads and record or check "
        "their simulated outcome.",
    )
    parser.add_argument(
        "--procs", type=int, default=1, metavar="N",
        help="run the sharded replays' shard pipelines across N worker "
        "processes (bit-identical to in-process; default: %(default)s)",
    )
    parser.add_argument(
        "--workloads", nargs="+", metavar="GLOB",
        help="run only workloads whose name matches one of the shell-style "
        "globs (e.g. 'sharded-replay-*')",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write the record to FILE")
    mode.add_argument(
        "--check", metavar="FILE",
        help="compare params and sim_metrics with the record in FILE; "
        "exit 1 on any difference or a scaling efficiency below the floor",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    names = [
        name for name in WORKLOADS
        if not args.workloads
        or any(fnmatch.fnmatch(name, pattern) for pattern in args.workloads)
    ]
    if not names:
        parser.error(f"no workload matches {args.workloads} (known: {list(WORKLOADS)})")

    record = run_suite(names, procs=args.procs)
    if "scaling" in record:
        print(f"[perf] scaling: {record['scaling']}", file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[perf] wrote {args.out}", file=sys.stderr)
        return 0

    with open(args.check, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    problems = check_against_baseline(record, baseline, only=names)
    for problem in problems:
        print(f"[perf] MISMATCH: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"[perf] {len(names)} workloads match {args.check}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
