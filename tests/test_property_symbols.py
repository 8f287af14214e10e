"""Property tests for :mod:`repro.staticcheck.symbols`.

``may_collide`` is the foundation of conflict prediction, so it must be

* **symmetric** — ``may_collide(a, b) == may_collide(b, a)``, and
* a sound **over-approximation** of concrete key equality: whenever two
  patterns *can* expand to the same concrete key under the provenance
  rules (creators equal iff ``same_creator``, nonces unique per
  transaction, arguments arbitrary), the verdict must be ``True``.

The second property is checked constructively: draw two patterns, draw a
concrete instantiation for every placeholder consistent with its
provenance, and whenever the two expansions happen to produce the same
string, require ``may_collide`` to have predicted it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.staticcheck.symbols import Sym, SymKind, make_pattern, may_collide

# Small alphabets keep collisions frequent enough to exercise the
# interesting branch (hypothesis finds equal expansions easily).
_LITERALS = st.text(alphabet="ab1/", min_size=1, max_size=3)
_VALUES = st.text(alphabet="ab1", min_size=1, max_size=2)

_SYMS = st.builds(
    Sym,
    name=st.sampled_from(["x", "y", "item", "target"]),
    kind=st.sampled_from(
        [SymKind.ARG, SymKind.UNKNOWN, SymKind.CREATOR, SymKind.NONCE]
    ),
)

_PARTS = st.lists(st.one_of(_LITERALS, _SYMS), min_size=0, max_size=5)


def _instantiate(parts, side, creator, draw_value):
    """Expand a pattern to a concrete key under the provenance rules.

    ``side`` distinguishes the two transactions: nonce material is
    unique per transaction, so each side gets its own nonce text.
    ARG/UNKNOWN placeholders take arbitrary drawn values (clients may
    pass anything); CREATOR placeholders all resolve to the side's
    submitter identity.
    """
    out = []
    for part in parts:
        if isinstance(part, str):
            out.append(part)
        elif part.kind == SymKind.CREATOR:
            out.append(creator)
        elif part.kind == SymKind.NONCE:
            out.append(f"nonce{side}")
        else:  # ARG / UNKNOWN: any value, independently per occurrence
            out.append(draw_value())
    return "".join(out)


@given(a=_PARTS, b=_PARTS, same_creator=st.booleans())
def test_may_collide_is_symmetric(a, b, same_creator):
    pa, pb = make_pattern(a), make_pattern(b)
    assert may_collide(pa, pb, same_creator) == may_collide(pb, pa, same_creator)


@given(a=_PARTS, b=_PARTS, same_creator=st.booleans(), data=st.data())
@settings(max_examples=400)
def test_may_collide_over_approximates_concrete_equality(
    a, b, same_creator, data
):
    pa, pb = make_pattern(a), make_pattern(b)
    creators = ("cr", "cr") if same_creator else ("cr", "cs")
    key_a = _instantiate(
        a, "A", creators[0], lambda: data.draw(_VALUES, label="value_a")
    )
    key_b = _instantiate(
        b, "B", creators[1], lambda: data.draw(_VALUES, label="value_b")
    )
    if key_a == key_b:
        assert may_collide(pa, pb, same_creator), (
            f"patterns {pa} / {pb} both expand to {key_a!r} "
            f"(same_creator={same_creator}) but may_collide said False"
        )


@given(parts=_PARTS, data=st.data())
def test_pattern_covers_its_own_expansions(parts, data):
    pattern = make_pattern(parts)
    key = _instantiate(
        parts, "A", "cr", lambda: data.draw(_VALUES, label="value")
    )
    assert pattern.covers(key)


@given(a=_PARTS, b=_PARTS)
def test_same_creator_widens_the_verdict(a, b):
    # same_creator=True merges the creator equivalence classes, so it can
    # only ever ADD collisions relative to distinct creators.
    pa, pb = make_pattern(a), make_pattern(b)
    if may_collide(pa, pb, same_creator=False):
        assert may_collide(pa, pb, same_creator=True)
