"""Static analysis for smart contracts: determinism linting, cheat
taint rules and read/write set inference.

The platform's core guarantee — every peer executes the same contract
against the same state and reaches the same verdict (§4.2.2) — holds
only for *deterministic* contracts, and its throughput behaviour
(§6 opt. i) is fixed by *which keys* each handler touches.  This
package checks both before a contract ever runs:

* :func:`lint_contract` / :func:`lint_source` — AST determinism linter
  (wall clocks, randomness, unordered iteration, I/O, cross-invocation
  state, float accumulation).
* :func:`infer_footprints` — per-handler read/write key patterns,
  validated against the runtime ``StateView.rwset()`` ground truth by
  the differential tests.
* :func:`taint_contract` / :func:`taint_source` — interprocedural taint
  rules (CHT001–CHT005) flagging cheat vulnerabilities: unguarded
  payload→state writes, unbounded tainted arithmetic, asset minting,
  client-addressed keys, and payload fields read but not declared in
  the handler's ``PAYLOADS`` entry.
* :func:`analyze_contract` / :func:`analyze_source` — everything at
  once, as a :class:`ContractReport`; also behind the
  ``python -m repro.staticcheck module:Class`` CLI, which additionally
  offers ``--fuzz N --seed S`` (footprint coverage harness) and
  ``--sarif PATH`` (SARIF 2.1.0 export).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .fuzz import FuzzCase, FuzzOutcome, default_cases, fuzz_case, run_fuzz
from .linter import StaticCheckError, gate, lint_contract, lint_source
from .rules import Diagnostic, SEVERITY_ERROR, SEVERITY_WARNING
from .rwset import Footprint, infer_footprints
from .sarif import to_sarif
from .symbols import KeyPattern, Sym, SymKind, covers_key, make_pattern
from .taint import CHT_RULES, TaintReport, taint_contract, taint_source

__all__ = [
    "CHT_RULES",
    "ContractReport",
    "Diagnostic",
    "Footprint",
    "FuzzCase",
    "FuzzOutcome",
    "KeyPattern",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "StaticCheckError",
    "Sym",
    "SymKind",
    "TaintReport",
    "analyze_contract",
    "analyze_source",
    "covers_key",
    "default_cases",
    "fuzz_case",
    "gate",
    "infer_footprints",
    "lint_contract",
    "lint_source",
    "make_pattern",
    "run_fuzz",
    "taint_contract",
    "taint_source",
    "to_sarif",
]


@dataclass
class ContractReport:
    """Combined static-analysis result for one contract.

    ``diagnostics`` merges the determinism (DET) and taint (CHT)
    findings; ``waived`` holds CHT findings suppressed by an explicit
    ``STATICCHECK_WAIVERS`` entry — reported, never dropped, and never
    counted against the gate.
    """

    contract: str
    diagnostics: List[Diagnostic]
    footprints: Dict[str, Footprint]
    strict: bool = True
    waived: List[Diagnostic] = field(default_factory=list)
    waivers: Dict[str, str] = field(default_factory=dict)

    def failures(self) -> List[Diagnostic]:
        return gate(self.diagnostics, strict=self.strict)

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_json(self) -> dict:
        return {
            "contract": self.contract,
            "strict": self.strict,
            "ok": self.ok,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "waived": [d.to_json() for d in self.waived],
            "waivers": dict(self.waivers),
            "footprints": {
                name: fp.to_json() for name, fp in sorted(self.footprints.items())
            },
        }

    def render(self) -> str:
        """Human-readable multi-section report."""
        from ..analysis.report import AsciiTable

        lines: List[str] = [f"Static analysis: {self.contract}"]
        lines.append("=" * len(lines[0]))
        if self.diagnostics:
            lines.append("")
            lines.append(f"Diagnostics ({len(self.diagnostics)}):")
            for diag in self.diagnostics:
                lines.append(f"  {diag}")
        else:
            lines.append("")
            lines.append("Determinism + taint: clean (no diagnostics)")
        if self.waived:
            lines.append("")
            lines.append(f"Waived findings ({len(self.waived)}):")
            for diag in self.waived:
                reason = self.waivers.get(diag.code, "")
                lines.append(f"  {diag}  [waived: {reason}]")

        table = AsciiTable(
            ["event", "reads", "writes"], title="Inferred per-event KVS footprints"
        )
        for name, fp in sorted(self.footprints.items()):
            table.row(
                name,
                " ".join(sorted(str(p) for p in fp.reads)),
                " ".join(sorted(str(p) for p in fp.writes)),
            )
        lines.append("")
        lines.append(table.render())
        lines.append("")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"Verdict: {verdict} (strict={self.strict})")
        return "\n".join(lines)


def _analyze(
    lint_diags: List[Diagnostic],
    taint: TaintReport,
    footprints: Dict[str, Footprint],
    name: str,
    strict: bool,
) -> ContractReport:
    merged = sorted(
        list(lint_diags) + list(taint.diagnostics),
        key=lambda d: (d.line, d.col, d.code),
    )
    return ContractReport(
        contract=name,
        diagnostics=merged,
        footprints=footprints,
        strict=strict,
        waived=list(taint.waived),
        waivers=dict(taint.waivers),
    )


def analyze_contract(cls: type, strict: bool = True) -> ContractReport:
    """Run the full analysis suite over a live contract class."""
    return _analyze(
        lint_contract(cls),
        taint_contract(cls),
        infer_footprints(cls),
        cls.__name__,
        strict,
    )


def analyze_source(
    source: str, class_name: Optional[str] = None, strict: bool = True
) -> ContractReport:
    """Run the full analysis suite over contract source text."""
    return _analyze(
        lint_source(source),
        taint_source(source, class_name=class_name),
        infer_footprints(source, class_name=class_name),
        class_name or "<generated>",
        strict,
    )
