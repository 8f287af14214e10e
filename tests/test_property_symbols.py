"""Property tests for :mod:`repro.staticcheck.symbols`: a pattern
covers every concrete key it can expand to under the provenance rules.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.staticcheck.symbols import Sym, SymKind, make_pattern

_LITERALS = st.text(alphabet="ab1/", min_size=1, max_size=3)
# Identifier-derived values never contain "/"; a value read back from
# state (an UNKNOWN placeholder) may be a whole key.
_VALUES = st.text(alphabet="ab1", min_size=1, max_size=2)
_UNKNOWN_VALUES = st.text(alphabet="ab1/", min_size=1, max_size=3)

_SYMS = st.builds(
    Sym,
    name=st.sampled_from(["x", "y", "item", "target"]),
    kind=st.sampled_from(
        [SymKind.ARG, SymKind.UNKNOWN, SymKind.CREATOR, SymKind.NONCE]
    ),
)

_PARTS = st.lists(st.one_of(_LITERALS, _SYMS), min_size=0, max_size=5)


def _instantiate(parts, creator, data):
    """Expand a pattern to a concrete key under the provenance rules:
    CREATOR placeholders resolve to the submitter identity, NONCE to
    the transaction's nonce, ARG and UNKNOWN to drawn values."""
    out = []
    for part in parts:
        if isinstance(part, str):
            out.append(part)
        elif part.kind == SymKind.CREATOR:
            out.append(creator)
        elif part.kind == SymKind.NONCE:
            out.append("nonce")
        elif part.kind == SymKind.UNKNOWN:
            out.append(data.draw(_UNKNOWN_VALUES, label="unknown"))
        else:
            out.append(data.draw(_VALUES, label="value"))
    return "".join(out)


@given(parts=_PARTS, data=st.data())
def test_pattern_covers_its_own_expansions(parts, data):
    pattern = make_pattern(parts)
    assert pattern.covers(_instantiate(parts, "cr", data))
