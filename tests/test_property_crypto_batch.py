"""Property-based tests: the one signature check.

:meth:`PublicKey.verify` is the only place a verdict is remembered, in
a process-wide cache keyed by content ``(n, e, message, signature)``.
Its contract: a cold call, a warm call and :meth:`PublicKey.verify_uncached`
agree for every mix of valid, corrupted and structurally-bogus
signatures, and a warm honest verdict never answers for a corrupted
copy.  :func:`repro.blockchain.verify_batch` stays importable as the
loop over it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain import generate_keypair, verify_batch
from repro.blockchain.crypto import _VERIFY_CACHE

# Small keys keep the modexps fast; generate_keypair memoises per
# (seed, bits), so each distinct seed pays the prime search only once
# across the whole Hypothesis run.
KEY_BITS = 256
N_KEYS = 4

keypairs = [generate_keypair(f"batch-prop-{i}", KEY_BITS) for i in range(N_KEYS)]

messages = st.text(max_size=32)


@st.composite
def signed_batches(draw):
    """A batch of (key, message, signature) triples: a random mix of
    honestly signed items, bit-corrupted signatures, cross-key replays,
    and structural junk."""
    n = draw(st.integers(min_value=0, max_value=12))
    items = []
    for _ in range(n):
        pair = keypairs[draw(st.integers(0, N_KEYS - 1))]
        message = draw(messages)
        kind = draw(st.sampled_from(["ok", "corrupt", "wrong-key", "junk"]))
        if kind == "ok":
            sig = pair.sign(message)
        elif kind == "corrupt":
            sig = pair.sign(message) ^ (1 << draw(st.integers(0, KEY_BITS - 2)))
        elif kind == "wrong-key":
            other = keypairs[draw(st.integers(0, N_KEYS - 1))]
            sig = other.sign(message)
        else:
            sig = draw(
                st.one_of(
                    st.just(0),
                    st.just(-5),
                    st.integers(min_value=1, max_value=1 << KEY_BITS),
                    st.just("not-an-int"),
                )
            )
        items.append((pair.public, message, sig))
    return items


def _loop_verdicts(items):
    return [key.verify(message, sig) for key, message, sig in items]


def _uncached_verdicts(items):
    return [key.verify_uncached(message, sig) for key, message, sig in items]


class TestBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(signed_batches())
    def test_batch_equals_loop(self, items):
        assert verify_batch(items) == _loop_verdicts(items)

    @settings(max_examples=30, deadline=None)
    @given(signed_batches())
    def test_cold_and_warm_cache_agree(self, items):
        _VERIFY_CACHE.clear()
        cold = _loop_verdicts(items)
        # The warm pass is served from the verdict cache.
        assert _loop_verdicts(items) == cold
        assert _uncached_verdicts(items) == cold


class TestCorruptionAttribution:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.data(),
    )
    def test_minority_corruption_attributed_exactly(self, n, data):
        """With every honest verdict already cached, corrupting a strict
        minority of the signatures flags exactly the corrupted indices:
        a verdict is remembered for its content, never for a copy."""
        pair = keypairs[0]
        msgs = [f"msg-{i}" for i in range(n)]
        items = [(pair.public, m, pair.sign(m)) for m in msgs]
        assert all(_loop_verdicts(items))
        n_bad = data.draw(st.integers(1, max(1, n // 2)))
        bad = sorted(
            data.draw(
                st.sets(st.integers(0, n - 1), min_size=n_bad, max_size=n_bad)
            )
        )
        for i in bad:
            key, m, sig = items[i]
            items[i] = (key, m, sig ^ (1 << data.draw(st.integers(0, KEY_BITS - 2))))
        # A corrupted signature is invalid with overwhelming probability;
        # equality both ways pins exact attribution.
        for verdicts in (_loop_verdicts(items), _uncached_verdicts(items)):
            assert [i for i, ok in enumerate(verdicts) if not ok] == bad

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_single_valid_item_batches(self, data):
        pair = keypairs[data.draw(st.integers(0, N_KEYS - 1))]
        message = data.draw(messages)
        sig = pair.sign(message)
        assert verify_batch([(pair.public, message, sig)]) == [True]
        assert pair.public.verify_uncached(message, sig)

    def test_empty_batch(self):
        assert verify_batch([]) == []
