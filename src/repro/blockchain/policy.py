"""Consensus-policy mini-language.

"The consensus policy is a boolean formula over asset update validation
results communicated by each peer.  In the absence of any user specified
consensus criteria, we fallback on the blockchain platform's default
consensus policy." (§4.2.1) — the prototype's default is a simple
majority (§6).

Grammar::

    expr    := term ("or" term)*
    term    := factor ("and" factor)*
    factor  := "not" factor | "(" expr ")" | atom
    atom    := "majority" | "all" | "any" | "atleast(" INT ")" | "peer(" NAME ")"

Examples: ``"majority"``, ``"atleast(3)"``,
``"majority and peer(referee)"``, ``"all or (majority and peer(p0))"``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

__all__ = ["ConsensusPolicy", "PolicyError", "parse_policy", "MAJORITY"]


class PolicyError(ValueError):
    """Raised on a malformed policy expression."""


class _Node:
    def evaluate(self, votes: Dict[str, bool], total: int) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class _Majority(_Node):
    def evaluate(self, votes, total):
        yes = sum(1 for v in votes.values() if v)
        return yes * 2 > total

    def describe(self):
        return "majority"


class _All(_Node):
    def evaluate(self, votes, total):
        yes = sum(1 for v in votes.values() if v)
        return yes == total

    def describe(self):
        return "all"


class _Any(_Node):
    def evaluate(self, votes, total):
        return any(votes.values())

    def describe(self):
        return "any"


class _AtLeast(_Node):
    def __init__(self, k: int):
        if k < 1:
            raise PolicyError("atleast(k) requires k >= 1")
        self.k = k

    def evaluate(self, votes, total):
        yes = sum(1 for v in votes.values() if v)
        return yes >= self.k

    def describe(self):
        return f"atleast({self.k})"


class _PeerVote(_Node):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, votes, total):
        return bool(votes.get(self.name, False))

    def describe(self):
        return f"peer({self.name})"


class _Not(_Node):
    def __init__(self, child: _Node):
        self.child = child

    def evaluate(self, votes, total):
        return not self.child.evaluate(votes, total)

    def describe(self):
        return f"not {self.child.describe()}"


class _And(_Node):
    def __init__(self, children: List[_Node]):
        self.children = children

    def evaluate(self, votes, total):
        return all(c.evaluate(votes, total) for c in self.children)

    def describe(self):
        return "(" + " and ".join(c.describe() for c in self.children) + ")"


class _Or(_Node):
    def __init__(self, children: List[_Node]):
        self.children = children

    def evaluate(self, votes, total):
        return any(c.evaluate(votes, total) for c in self.children)

    def describe(self):
        return "(" + " or ".join(c.describe() for c in self.children) + ")"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>majority|all|any|and|or|not)"
    r"|(?P<atleast>atleast\(\s*(?P<k>\d+)\s*\))"
    r"|(?P<peer>peer\(\s*(?P<name>[\w.\-]+)\s*\))"
    r"|(?P<lparen>\()|(?P<rparen>\)))"
)


def _tokenize(text: str) -> List[tuple]:
    tokens: List[tuple] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolicyError(f"unexpected input at {text[pos:]!r}")
        if m.group("atom"):
            tokens.append((m.group("atom"), None))
        elif m.group("atleast"):
            tokens.append(("atleast", int(m.group("k"))))
        elif m.group("peer"):
            tokens.append(("peer", m.group("name")))
        elif m.group("lparen"):
            tokens.append(("(", None))
        elif m.group("rparen"):
            tokens.append((")", None))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[tuple]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[tuple]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> tuple:
        tok = self._peek()
        if tok is None:
            raise PolicyError("unexpected end of policy expression")
        self._pos += 1
        return tok

    def parse(self) -> _Node:
        node = self._expr()
        if self._peek() is not None:
            raise PolicyError(f"trailing tokens: {self._tokens[self._pos:]}")
        return node

    def _expr(self) -> _Node:
        parts = [self._term()]
        while self._peek() == ("or", None):
            self._next()
            parts.append(self._term())
        return parts[0] if len(parts) == 1 else _Or(parts)

    def _term(self) -> _Node:
        parts = [self._factor()]
        while self._peek() == ("and", None):
            self._next()
            parts.append(self._factor())
        return parts[0] if len(parts) == 1 else _And(parts)

    def _factor(self) -> _Node:
        kind, value = self._next()
        if kind == "not":
            return _Not(self._factor())
        if kind == "(":
            node = self._expr()
            if self._next() != (")", None):
                raise PolicyError("missing closing parenthesis")
            return node
        if kind == "majority":
            return _Majority()
        if kind == "all":
            return _All()
        if kind == "any":
            return _Any()
        if kind == "atleast":
            return _AtLeast(value)
        if kind == "peer":
            return _PeerVote(value)
        raise PolicyError(f"unexpected token {kind!r}")


class ConsensusPolicy:
    """A compiled consensus policy.

    ``evaluate(votes, total)`` computes the formula over the votes seen so
    far.  ``decided(votes, total)`` additionally reports whether the
    outcome is already fixed regardless of how the missing peers vote —
    this lets a peer finalise as soon as a quorum is reached instead of
    waiting for stragglers (and is what makes consensus progress when
    DDoSed peers never vote, §7.2.4(3)).
    """

    def __init__(self, expression: str):
        self.expression = expression.strip()
        if not self.expression:
            raise PolicyError("empty policy expression")
        self._root = _Parser(_tokenize(self.expression)).parse()

    def evaluate(self, votes: Dict[str, bool], total: int) -> bool:
        if total < 1:
            raise PolicyError("total peer count must be >= 1")
        return self._root.evaluate(votes, total)

    def decided(
        self, votes: Dict[str, bool], total: int, all_voters: Optional[List[str]] = None
    ) -> Optional[bool]:
        """The fixed outcome given partial votes, or None if still open.

        ``all_voters`` names the full electorate; missing voters are tried
        both ways.  When omitted, synthetic names stand in for the
        ``total - len(votes)`` absentees (sound for the vote-counting
        atoms; ``peer(name)`` atoms need the real electorate).
        """
        if all_voters is None:
            missing = [f"_absent{i}" for i in range(total - len(votes))]
        else:
            missing = [v for v in all_voters if v not in votes]
        optimistic = dict(votes)
        pessimistic = dict(votes)
        for name in missing:
            optimistic[name] = True
            pessimistic[name] = False
        hi = self._root.evaluate(optimistic, total)
        lo = self._root.evaluate(pessimistic, total)
        if hi == lo:
            return hi
        return None

    @property
    def is_simple_majority(self) -> bool:
        """True iff the compiled policy is exactly ``majority`` — the
        shape :meth:`decided_counts` can finalise from vote counts alone
        (callers on the hot path use this to skip building vote dicts)."""
        return type(self._root) is _Majority

    def decided_counts(self, yes: int, cast: int, total: int) -> Optional[bool]:
        """Count-based :meth:`decided` for the plain-majority policy:
        ``yes`` of ``cast`` votes received, out of ``total`` electors.
        Only meaningful when :attr:`is_simple_majority` is true."""
        n_missing = total - cast
        if n_missing > 0:
            hi = (yes + n_missing) * 2 > total
            lo = yes * 2 > total
            return hi if hi == lo else None
        return yes * 2 > total

    def describe(self) -> str:
        return self._root.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConsensusPolicy({self.expression!r})"


def parse_policy(expression: str) -> ConsensusPolicy:
    """Compile a policy expression (convenience wrapper)."""
    return ConsensusPolicy(expression)


#: The prototype's default: "our default consensus policy involves a
#: simple majority" (§6).
MAJORITY = "majority"
