"""CLI for the contract static analyzer.

Usage::

    python -m repro.staticcheck repro.core.doom_contract:DoomContract
    python -m repro.staticcheck repro.core.monopoly_contract:MonopolyContract --json
    python -m repro.staticcheck --no-strict my.module:MyContract
    python -m repro.staticcheck a.module:A b.module:B --sarif findings.sarif
    python -m repro.staticcheck --fuzz 200 --seed 7

With targets, runs the full analysis (determinism lint + CHT taint
rules + footprints) over each contract class.
``--sarif PATH`` additionally writes the combined findings as a SARIF
2.1.0 log for CI code-scanning upload.

``--fuzz N`` runs the fuzz-differential coverage harness instead:
randomized N-event traces through every shipped contract, asserting the
inferred footprints cover 100% of the runtime RWSet keys.

Exit status 0 when every contract passes its gate (strict mode fails on
warnings too) and every fuzz case is sound, 1 on findings or soundness
violations, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys

from . import analyze_contract, to_sarif
from .fuzz import default_cases, fuzz_case


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load(target: str):
    if ":" not in target:
        raise _usage_error(
            f"target must look like package.module:ClassName, got {target!r}"
        )
    module_name, _, class_name = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as err:
        raise _usage_error(f"cannot import {module_name!r}: {err}")
    try:
        cls = getattr(module, class_name)
    except AttributeError:
        raise _usage_error(f"{module_name!r} has no attribute {class_name!r}")
    if not isinstance(cls, type):
        raise _usage_error(f"{target!r} is not a class")
    return cls


def _source_uri(cls: type) -> str:
    """A repo-relative-ish artifact URI for SARIF locations."""
    try:
        path = inspect.getsourcefile(cls) or ""
    except TypeError:
        path = ""
    if not path:
        return f"contract://{cls.__name__}"
    for marker in ("src/", "tests/", "examples/"):
        index = path.find(marker)
        if index != -1:
            return path[index:]
    return path


def _run_fuzz(args) -> int:
    if args.target:
        raise _usage_error(
            "--fuzz covers the shipped contracts (which carry payload "
            "generators); run it without positional targets"
        )
    failures = 0
    for case in default_cases():
        outcome = fuzz_case(case, n_events=args.fuzz, seed=args.seed)
        verdict = "SOUND" if outcome.ok else "UNSOUND"
        print(
            f"{verdict} {outcome.case}: seed={outcome.seed} "
            f"events={outcome.n_events} blocks={outcome.blocks} "
            f"keys={outcome.keys_checked} "
            f"codes={dict(sorted(outcome.codes.items()))}"
        )
        for violation in outcome.violations:
            failures += 1
            print(f"  {violation.kind}: {violation.detail}", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="Determinism linting, cheat-vulnerability taint rules, "
        "and RWSet inference for smart contracts.",
    )
    parser.add_argument(
        "target",
        nargs="*",
        help="contract classes as package.module:ClassName",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the machine-readable JSON report"
    )
    parser.add_argument(
        "--no-strict",
        action="store_true",
        help="fail only on errors (strict mode also fails on warnings)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="write combined findings as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        help="run the fuzz-differential coverage harness with N events "
        "per contract instead of the static report",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fuzz seed (default 0)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.fuzz is not None:
        if args.fuzz < 1:
            raise _usage_error("--fuzz needs a positive event count")
        return _run_fuzz(args)

    if not args.target:
        raise _usage_error("need at least one target (or --fuzz N)")

    reports = []
    sarif_groups = []
    for target in args.target:
        cls = _load(target)
        report = analyze_contract(cls, strict=not args.no_strict)
        reports.append(report)
        sarif_groups.append(
            {
                "uri": _source_uri(cls),
                "diagnostics": report.diagnostics,
                "waived": report.waived,
            }
        )

    if args.sarif:
        with open(args.sarif, "w") as handle:
            json.dump(to_sarif(sarif_groups), handle, indent=2, sort_keys=True)
        print(f"SARIF written to {args.sarif}", file=sys.stderr)

    if args.json:
        payload = [report.to_json() for report in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for index, report in enumerate(reports):
            if index:
                print()
            print(report.render())
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
