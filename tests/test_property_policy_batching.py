"""Property-based tests: consensus policy and the batching model."""

from hypothesis import given
from hypothesis import strategies as st

from repro.blockchain import ConsensusPolicy
from repro.core import count_delays
from repro.game import EventType, GameEvent

policies = st.sampled_from(
    ["majority", "all", "any", "atleast(2)", "atleast(5)",
     "majority and any", "all or atleast(3)", "not all",
     "(majority or atleast(4)) and any"]
)


@st.composite
def electorates(draw):
    total = draw(st.integers(1, 12))
    names = [f"p{i}" for i in range(total)]
    votes = {
        name: draw(st.booleans())
        for name in names
        if draw(st.booleans())  # each voter may not have voted yet
    }
    return names, votes


@st.composite
def electorates_with_strangers(draw):
    """An electorate's partial votes plus votes from non-electors."""
    names, votes = draw(electorates())
    for i in range(draw(st.integers(1, 4))):
        votes[f"x{i}"] = draw(st.booleans())
    return names, votes


class TestPolicyProperties:
    @given(electorates_with_strangers())
    def test_majority_decides_like_its_compound_twin(self, electorate):
        """``majority`` has no path of its own: on any vote set, votes
        from non-electors included, it decides like ``majority and
        majority``."""
        names, votes = electorate
        plain = ConsensusPolicy("majority")
        twin = ConsensusPolicy("majority and majority")
        assert plain.decided(votes, len(names), all_voters=names) == twin.decided(
            votes, len(names), all_voters=names
        )

    @given(policies, electorates())
    def test_decided_is_sound(self, expression, electorate):
        """If decided() returns a verdict on partial votes, then *every*
        completion of the missing votes evaluates to that verdict."""
        names, votes = electorate
        policy = ConsensusPolicy(expression)
        verdict = policy.decided(votes, len(names), all_voters=names)
        if verdict is None:
            return
        missing = [n for n in names if n not in votes]
        # Exhaustive over completions (≤ 2^12 worst case, but hypothesis
        # keeps electorates small).
        for mask in range(2 ** len(missing)):
            completed = dict(votes)
            for bit, name in enumerate(missing):
                completed[name] = bool((mask >> bit) & 1)
            assert policy.evaluate(completed, len(names)) == verdict

    @given(policies, electorates())
    def test_full_votes_always_decided(self, expression, electorate):
        names, votes = electorate
        complete = {name: votes.get(name, False) for name in names}
        policy = ConsensusPolicy(expression)
        verdict = policy.decided(complete, len(names), all_voters=names)
        assert verdict == policy.evaluate(complete, len(names))

    @given(policies)
    def test_describe_reparses_equivalently(self, expression):
        policy = ConsensusPolicy(expression)
        again = ConsensusPolicy(policy.describe())
        votes = {"p0": True, "p1": False, "p2": True}
        for total in (3, 5):
            assert policy.evaluate(votes, total) == again.evaluate(votes, total)


@st.composite
def event_streams(draw):
    """Time-ordered per-player event streams with contiguous seqs."""
    n = draw(st.integers(0, 80))
    etypes = st.sampled_from(
        [EventType.LOCATION, EventType.SHOOT, EventType.DAMAGE,
         EventType.WEAPON_CHANGE]
    )
    t = 0.0
    events = []
    for seq in range(1, n + 1):
        t += draw(st.floats(0.0, 60.0))
        events.append(GameEvent(t, "p1", draw(etypes), {"count": 1}, seq))
    return events


class TestBatchingModelProperties:
    @given(event_streams(), st.floats(1.0, 500.0))
    def test_every_event_dispatched_exactly_once(self, events, window):
        report = count_delays(events, window, batching=True)
        assert report.events_received == len(events)
        # Dispatched batches cover every event: singles + batched events.
        singles = report.txs_dispatched - report.batches_dispatched
        assert singles + report.batched_events == len(events)

    @given(event_streams(), st.floats(1.0, 500.0))
    def test_batching_never_increases_delays(self, events, window):
        with_b = count_delays(events, window, batching=True)
        without = count_delays(events, window, batching=False)
        assert with_b.delayed_events <= without.delayed_events

    @given(event_streams(), st.floats(1.0, 500.0))
    def test_batching_never_increases_txs(self, events, window):
        with_b = count_delays(events, window, batching=True)
        without = count_delays(events, window, batching=False)
        assert with_b.txs_dispatched <= without.txs_dispatched
        assert without.txs_dispatched == len(events)

    @given(event_streams(), st.floats(1.0, 200.0), st.floats(1.5, 4.0))
    def test_wider_window_never_reduces_delays_without_batching(
        self, events, window, factor
    ):
        narrow = count_delays(events, window, batching=False)
        wide = count_delays(events, window * factor, batching=False)
        assert wide.delayed_events >= narrow.delayed_events

    @given(event_streams(), st.floats(1.0, 500.0), st.integers(1, 8))
    def test_max_batch_bound_respected(self, events, window, max_batch):
        report = count_delays(events, window, batching=True, max_batch=max_batch)
        assert report.max_batch_size <= max(max_batch, 1)

    @given(event_streams())
    def test_delays_zero_when_window_tiny(self, events):
        """With a near-zero window and strictly increasing timestamps
        the lane is always free on arrival: nothing queues, every event
        dispatches alone, nothing is delayed."""
        spaced = [
            type(e)(float(i), e.player, e.etype, e.payload, e.seq)
            for i, e in enumerate(events)
        ]
        report = count_delays(spaced, window_ms=1e-9, batching=True)
        assert report.delayed_events == 0
        assert report.txs_dispatched == len(events)
