"""``python -m e2ebench``: run one workload, compare two sets of runs,
or self-check the tracing wrappers.

The last line of standard output of a run is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer table with
``--trace 1``.  Exit status is non-zero on a correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from . import ProgramMissing, require_program

SCHEMA = "e2ebench/1"
DEFAULT_SPANS_DIR = "e2ebench_out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m e2ebench",
        description="End-to-end and per-layer benchmark of the repro engine.",
    )
    parser.add_argument("--workload", help="workload name (see --list)")
    parser.add_argument("--seed", type=int, default=None,
                        help="the only input: every generated stream derives from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget; default is BENCHMARK.json run_seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: traced run, print the per-layer table")
    parser.add_argument("--out", metavar="FILE",
                        help="append this run's full record to a JSON list (for --compare)")
    parser.add_argument("--spans-out", metavar="FILE",
                        help=f"raw span ring of a traced run (default {DEFAULT_SPANS_DIR}/)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two sets of recorded runs against the bounds")
    parser.add_argument("--selfcheck", action="store_true",
                        help="traced and untraced rounds must give one fingerprint")
    parser.add_argument("--list", action="store_true", help="list workloads and exit")
    return parser


def _append_record(path: str, record: Dict[str, Any]) -> None:
    records: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path) as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _run(args) -> int:
    from .compare import load_benchmark_spec
    from .harness import END_TO_END, pin_to_one_core, summarise
    from .layers import PER_LAYER, layer_metrics
    from .trace import Tracer
    from .workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    seconds = args.seconds
    if seconds is None:
        seconds = float(load_benchmark_spec()["run_seconds"])
    if seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    core = pin_to_one_core()
    tracer = Tracer() if traced else None
    result = WORKLOADS[args.workload].run(seed, seconds, tracer)
    result.pinned_core = core

    outcome = result.outcome
    correct = not result.problems
    failed = outcome.attempted - outcome.acked
    print(f"e2ebench {result.workload} seed={seed} backend={result.backend} "
          f"trace={int(traced)} pinned_core={core}")
    diagnostics: Dict[str, Any] = {}
    if traced:
        values = layer_metrics(result)
        units = dict(PER_LAYER)
        spans_path = args.spans_out
        if spans_path is None:
            os.makedirs(DEFAULT_SPANS_DIR, exist_ok=True)
            spans_path = os.path.join(
                DEFAULT_SPANS_DIR, f"spans-{result.workload}-seed{seed}.jsonl"
            )
        written = tracer.write_spans(spans_path)
        diagnostics["spans_written"] = written
        diagnostics["spans_path"] = spans_path
        if values["e2ebench.closure"] < 0.9:
            result.problems.append(
                f"span closure {values['e2ebench.closure']:.3f} is below 0.9"
            )
            correct = False
    else:
        values, diagnostics = summarise(result)
        units = {name: unit for name, unit, _better in END_TO_END}
    for name, value in values.items():
        print(f"  {name:<48s} {value:>16.6f} {units[name]}")
    if not traced:
        print(f"  latency: {diagnostics['latency_samples']} samples, "
              f"{diagnostics['latency_clock']}; ack_p99_ms={diagnostics['ack_p99_ms']:.4f} "
              f"(diagnostic only)")
        print(f"  events_per_s median={diagnostics['events_per_s_median']:.4f} "
              f"IQR={diagnostics['events_per_s_iqr']:.4f}; "
              f"fastq_vs_median={diagnostics['fastq_vs_median']:.4f}; "
              f"noisy={diagnostics['noisy']}")
        print(f"  codes={diagnostics['codes']} attempted={outcome.attempted} failed={failed}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")

    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }
    if args.out:
        _append_record(args.out, {
            "schema": SCHEMA, "workload": result.workload, "seed": seed,
            "seconds": seconds, "trace": traced, "correct": correct,
            "attempted": outcome.attempted, "failed": failed, "metrics": metrics,
            "diagnostics": diagnostics, "problems": result.problems,
        })
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def _compare(paths: List[str]) -> int:
    from .compare import compare_sets, format_rows, load_records

    rows = compare_sets(load_records(paths[0]), load_records(paths[1]))
    if not rows:
        print("no (workload, metric) pair is present in both sets", file=sys.stderr)
        return 2
    for line in format_rows(rows):
        print(line)
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('worse')} worse, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "worse" in verdicts or "unresolved" in verdicts else 0


def _selfcheck(only: Optional[str], seed: Optional[int]) -> int:
    """Tracing must be invisible to the simulation and leave no patch
    behind; BENCHMARK.json must name exactly the metrics printed."""
    from .compare import load_benchmark_spec
    from .harness import END_TO_END, SimWorkload, one_round, pin_to_one_core
    from .layers import PER_LAYER
    from .trace import Tracer, install_layer_wrappers
    from .workloads import DEFAULT_SEED, WORKLOADS

    failures: List[str] = []
    spec = load_benchmark_spec()
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the registry")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from harness.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")

    pin_to_one_core()
    seed = seed if seed is not None else DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        if not isinstance(workload, SimWorkload) or (only is not None and name != only):
            continue
        workload.prepare(seed)
        _record, plain = one_round(workload, None)
        tracer = Tracer()
        installer = install_layer_wrappers(tracer)
        try:
            _record, traced = one_round(workload, tracer)
        finally:
            installer.restore()
        problems = plain.problems + traced.problems
        if plain.fingerprint != traced.fingerprint:
            problems.append("traced fingerprint differs from untraced")
        problems += [f"patch left installed: {site}" for site in installer.leftovers()]
        print(f"selfcheck {name}: {'ok' if not problems else problems}")
        failures.extend(f"{name}: {p}" for p in problems)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selfcheck", "passed" if not failures else "failed")
    return 1 if failures else 0


def _fix_hash_seed(argv: List[str]) -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.

    String hashing is randomised per process, which moves dict and set
    layouts and with them throughput: six runs of one seed spread 4.2%
    with random hashing and 1.4% with it fixed.  ``exec`` replaces this
    process image; there is still one process.
    """
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, "-m", "e2ebench", *argv], env)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(argv)
    if args.compare:
        return _compare(args.compare)
    if args.selfcheck or args.workload:
        _fix_hash_seed(argv)
    try:
        require_program()
    except ProgramMissing as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.list:
        from .workloads import WORKLOADS

        for workload in WORKLOADS.values():
            print(f"{workload.name:<12s} {workload.why}")
        return 0
    if args.selfcheck:
        return _selfcheck(args.workload, args.seed)
    if not args.workload:
        _parser().print_usage(sys.stderr)
        return 2
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
