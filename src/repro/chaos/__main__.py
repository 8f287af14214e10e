"""CLI entry point: ``python -m repro.chaos --seed 42 --scenario churn-partition-ddos``.

Runs one seeded chaos experiment, prints the injected schedule, the
invariant verdict and the timeline digest.  On failure it automatically
shrinks the schedule to a minimal failing prefix (unless ``--faults``
was given — that *is* the replay mode) and prints the replay command.

``--catalog [GLOB ...]`` runs every matching scenario instead, one
status/digest line each; ``--procs N`` spreads the catalog over N
spawned worker processes with bit-identical digests (scenarios are
independent seeded worlds, so this is embarrassingly parallel).

Exit status:

* ``0`` — every invariant held;
* ``1`` — at least one invariant violation (or bad usage via argparse's
  own ``2``);
* ``3`` — the ``--max-wall-s`` budget expired before the scenario
  finished.  The run is *truncated*, not failed: no verdict was
  reached, shrinking is skipped, and CI should treat it as an
  infrastructure timeout rather than a regression.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import result_payload, run_catalog, select_scenarios
from .runner import (
    BUGGY_FIXTURES,
    replay_command,
    run_scenario,
    shrink_failing_schedule,
)
from .scenarios import SCENARIOS, get_scenario

#: Exit status for a run stopped by ``--max-wall-s`` (see module doc).
EXIT_TRUNCATED = 3


def _catalog_main(args, parser) -> int:
    names = select_scenarios(args.catalog if args.catalog else ["*"])
    if not names:
        parser.error(f"no scenario matches {args.catalog} (see --list)")
    catalog = run_catalog(
        names, args.seed, procs=args.procs, max_wall_s=args.max_wall_s
    )
    payloads = [catalog["scenarios"][name] for name in names]
    if args.record is not None:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(catalog, fh, indent=2, sort_keys=True)
    if args.as_json:
        print(json.dumps(catalog, indent=2, sort_keys=True))
    else:
        width = max(len(p["scenario"]) for p in payloads)
        for p in payloads:
            status = (
                "TRUNCATED" if p["truncated"] else "ok" if p["ok"] else "FAIL"
            )
            print(
                f"{p['scenario']:<{width}s}  {status:<9s} "
                f"faults={p['faults_applied']:<3d} "
                f"digest={p['timeline_digest']}"
            )
    if any(p["truncated"] for p in payloads):
        return EXIT_TRUNCATED
    return 0 if all(p["ok"] for p in payloads) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded chaos testing for the execute-order-validate "
        "pipeline: fault injection, invariant checking, schedule shrinking.",
    )
    parser.add_argument("--seed", type=int, default=42, help="run seed")
    parser.add_argument(
        "--scenario", default="churn-partition-ddos",
        help="scenario name (see --list)",
    )
    parser.add_argument(
        "--faults", type=int, default=None, metavar="K",
        help="replay only the first K faults of the schedule",
    )
    parser.add_argument(
        "--buggy", default=None, choices=sorted(BUGGY_FIXTURES),
        help="install an intentionally-buggy peer fixture",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="on failure, skip shrinking to a minimal prefix",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable result on stdout",
    )
    parser.add_argument(
        "--record", default=None, metavar="PATH",
        help="write the machine-readable result to PATH as JSON "
        "(CI uploads it as an artifact on failure)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="chaos_trace.jsonl", default=None,
        metavar="PATH",
        help="enable telemetry and dump the lifecycle trace as JSON "
        "Lines (default: chaos_trace.jsonl)",
    )
    parser.add_argument(
        "--max-wall-s", type=float, default=None, metavar="S",
        help="stop the run in-process after S wall-clock seconds and "
        f"exit {EXIT_TRUNCATED} (replaces wrapping the CLI in a shell "
        "timeout, which loses the partial record)",
    )
    parser.add_argument(
        "--catalog", nargs="*", default=None, metavar="GLOB",
        help="run every scenario matching the shell-style globs (all "
        "scenarios when no glob is given) instead of a single "
        "--scenario; prints one status/digest line per scenario in "
        "name order and exits non-zero if any failed",
    )
    parser.add_argument(
        "--procs", type=int, default=1, metavar="N",
        help="with --catalog: run scenarios across N spawned worker "
        "processes; results (digests included) are identical to a "
        "serial catalog, only wall time changes (default: 1)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            print(f"{name:22s} {scenario.description}")
        return 0

    if args.catalog is not None:
        return _catalog_main(args, parser)
    if args.procs != 1:
        parser.error("--procs requires --catalog (one scenario is one world)")

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        parser.error(str(exc))

    telemetry = None
    if args.trace is not None:
        from ..telemetry import Telemetry

        telemetry = Telemetry()

    result = run_scenario(
        scenario, args.seed, max_faults=args.faults, buggy=args.buggy,
        telemetry=telemetry, max_wall_s=args.max_wall_s,
    )

    if telemetry is not None:
        from ..telemetry import format_stage_summary, stage_summary, write_trace_jsonl

        n_records = write_trace_jsonl(telemetry, args.trace)
        print(f"# trace: {n_records} records -> {args.trace}", file=sys.stderr)
        for line in format_stage_summary(stage_summary(telemetry)):
            print(f"  {line}", file=sys.stderr)

    if args.record is not None:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(result_payload(result), fh, indent=2, sort_keys=True)

    if args.as_json:
        print(json.dumps(result_payload(result), indent=2, sort_keys=True))
    else:
        print(f"# schedule ({result.faults_in_schedule} faults)")
        for line in result.schedule.describe():
            print(f"  {line}")
        print("# result")
        for line in result.describe():
            print(f"  {line}")

    if result.truncated:
        print(
            f"# truncated by --max-wall-s {args.max_wall_s} after "
            f"{result.wall_s:.1f}s; no invariant verdict",
            file=sys.stderr,
        )
        return EXIT_TRUNCATED

    if result.ok:
        return 0

    if args.faults is None and not args.no_shrink:
        print("# shrinking failing schedule ...", file=sys.stderr)
        report = shrink_failing_schedule(
            scenario, args.seed, buggy=args.buggy, full_result=result
        )
        for line in report.describe():
            print(f"  {line}", file=sys.stderr)
    else:
        print(
            "  replay: "
            + replay_command(
                result.scenario, result.seed, faults=args.faults, buggy=args.buggy
            ),
            file=sys.stderr,
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())
