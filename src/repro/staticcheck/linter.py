"""Lint driver: runs the determinism rules over contract source.

Two entry points:

* :func:`lint_source` — lint a source string (e.g. the output of
  :func:`repro.core.codegen.generate_contract_source` before it is
  exec'd).
* :func:`lint_contract` — lint a live :class:`Contract` subclass by
  recovering its class source with :mod:`inspect`; the defining
  module's namespace is used to see through import aliases.

Both lint the bases the class inherits code from too
(:func:`~repro.staticcheck.rwset.class_chain`).

``strict`` semantics (shared with the CLI and the codegen gate): errors
always fail; in strict mode warnings fail too.
"""

from __future__ import annotations

import ast
import textwrap
from typing import List, Optional, Type

from .rules import Diagnostic, SEVERITY_ERROR, run_rules
from .rwset import class_chain

__all__ = ["StaticCheckError", "lint_source", "lint_contract", "gate"]


class StaticCheckError(ValueError):
    """A contract failed static verification.

    Carries the diagnostics so callers (and tests) can inspect exactly
    which hazards were found.
    """

    def __init__(self, message: str, diagnostics: List[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics


def lint_source(
    source: str,
    env: Optional[dict] = None,
    filename: str = "<contract>",
) -> List[Diagnostic]:
    """Lint contract source text; returns all diagnostics found."""
    tree = ast.parse(textwrap.dedent(source), filename=filename)
    diagnostics = run_rules(tree, env=env)
    if any(isinstance(node, ast.ClassDef) for node in tree.body):
        for node, base_env in class_chain(source)[1:]:
            diagnostics += run_rules(node, env=base_env)
    return diagnostics


def lint_contract(cls: Type) -> List[Diagnostic]:
    """Lint a live contract class from its recovered source."""
    diagnostics: List[Diagnostic] = []
    for node, env in class_chain(cls):
        diagnostics += run_rules(node, env=env)
    return diagnostics


def gate(diagnostics: List[Diagnostic], strict: bool = True) -> List[Diagnostic]:
    """The diagnostics that fail the check under the given strictness."""
    if strict:
        return list(diagnostics)
    return [d for d in diagnostics if d.severity == SEVERITY_ERROR]
