"""Symbolic world-state keys for static read/write-set inference.

The analyzer cannot know concrete key strings like ``asset/p1/6`` ahead
of time — it sees key *expressions* (``asset_key(player, aid)``,
f-strings, string constants).  This module models the result of
partially evaluating such an expression: a :class:`KeyPattern` is a
sequence of literal fragments and :class:`Sym` placeholders, each
placeholder tagged with *where its value comes from* at runtime:

* ``CREATOR`` — the transaction submitter's identity.
* ``NONCE`` — per-transaction unique material (nonce, tx id).
* ``ARG`` — an invocation argument (e.g. ``payload["item_id"]``); the
  taint rules treat keys built from it as client-addressed.
* ``UNKNOWN`` — anything the evaluator could not resolve (state reads,
  loop variables over unresolvable iterables).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

__all__ = ["Sym", "KeyPattern", "SymKind", "make_pattern", "covers_key"]


class SymKind:
    """Provenance of a symbolic key fragment (see module docstring)."""

    CREATOR = "creator"
    NONCE = "nonce"
    ARG = "arg"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Sym:
    """One unresolved fragment of a world-state key."""

    name: str
    kind: str = SymKind.UNKNOWN

    def __str__(self) -> str:
        return "{%s}" % self.name


Part = Union[str, Sym]


@dataclass(frozen=True)
class KeyPattern:
    """A world-state key with zero or more symbolic fragments.

    ``parts`` alternates literal strings and :class:`Sym` placeholders;
    a fully literal pattern is a concrete key.  A placeholder expands to
    non-empty text.  Identifier-derived placeholders (``CREATOR``,
    ``NONCE``, ``ARG``) are assumed to contain no ``/``: every key
    helper in this codebase interpolates identifiers, asset ids and
    nonces, none of which contain the segment separator.  An
    ``UNKNOWN`` placeholder carries no such promise — a key read back
    from state may be a whole ``asset/p1/2`` — so it matches any text.
    """

    parts: Tuple[Part, ...]

    def __str__(self) -> str:
        return "".join(str(p) for p in self.parts)

    @property
    def is_literal(self) -> bool:
        return all(isinstance(p, str) for p in self.parts)

    def regex(self) -> "re.Pattern[str]":
        out = []
        for part in self.parts:
            if isinstance(part, str):
                out.append(re.escape(part))
            elif part.kind == SymKind.UNKNOWN:
                out.append(r".+")
            else:
                out.append(r"[^/]+")
        return re.compile("".join(out) + r"\Z")

    def covers(self, key: str) -> bool:
        """True if this pattern can expand to the concrete ``key``."""
        return self.regex().match(key) is not None


def make_pattern(parts: Iterable[Part]) -> KeyPattern:
    """Build a :class:`KeyPattern`, merging adjacent literal fragments."""
    return KeyPattern(tuple(_normalise(list(parts))))


def _normalise(tokens: Sequence[Part]) -> List[Part]:
    """Drop empty literals and merge adjacent literal tokens."""
    out: List[Part] = []
    for token in tokens:
        if isinstance(token, str):
            if not token:
                continue
            if out and isinstance(out[-1], str):
                out[-1] = out[-1] + token
                continue
        out.append(token)
    return out


def covers_key(patterns: Iterable[KeyPattern], key: str) -> bool:
    """True if any pattern in ``patterns`` covers the concrete ``key``."""
    return any(p.covers(key) for p in patterns)
