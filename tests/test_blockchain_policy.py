"""Unit tests for the consensus-policy mini-language."""

import pytest

from repro.blockchain import ConsensusPolicy, PolicyError, parse_policy


def votes(yes, no=0, prefix="p"):
    out = {}
    for i in range(yes):
        out[f"{prefix}{i}"] = True
    for i in range(no):
        out[f"{prefix}{yes + i}"] = False
    return out


class TestEvaluate:
    def test_majority_boundary(self):
        policy = ConsensusPolicy("majority")
        assert policy.evaluate(votes(3, 2), total=5)
        assert not policy.evaluate(votes(2, 2), total=4)  # tie is not majority
        assert policy.evaluate(votes(3, 1), total=4)

    def test_all(self):
        policy = ConsensusPolicy("all")
        assert policy.evaluate(votes(4), total=4)
        assert not policy.evaluate(votes(3, 1), total=4)

    def test_any(self):
        policy = ConsensusPolicy("any")
        assert policy.evaluate(votes(1, 3), total=4)
        assert not policy.evaluate(votes(0, 4), total=4)

    def test_atleast(self):
        policy = ConsensusPolicy("atleast(3)")
        assert policy.evaluate(votes(3, 5), total=8)
        assert not policy.evaluate(votes(2, 6), total=8)

    def test_peer_vote(self):
        policy = ConsensusPolicy("peer(referee)")
        assert policy.evaluate({"referee": True}, total=3)
        assert not policy.evaluate({"referee": False, "p0": True}, total=3)
        assert not policy.evaluate({"p0": True}, total=3)

    def test_and_or_composition(self):
        policy = ConsensusPolicy("majority and peer(referee)")
        v = votes(3, 1)
        v["referee"] = True
        assert policy.evaluate(v, total=5)
        v["referee"] = False
        assert not policy.evaluate(v, total=5)

    def test_or_composition(self):
        policy = ConsensusPolicy("all or atleast(2)")
        assert policy.evaluate(votes(2, 4), total=6)

    def test_not(self):
        policy = ConsensusPolicy("not any")
        assert policy.evaluate(votes(0, 3), total=3)
        assert not policy.evaluate(votes(1, 2), total=3)

    def test_parentheses(self):
        policy = ConsensusPolicy("(majority or all) and any")
        assert policy.evaluate(votes(3, 1), total=4)

    def test_total_must_be_positive(self):
        with pytest.raises(PolicyError):
            ConsensusPolicy("majority").evaluate({}, total=0)


class TestParseErrors:
    @pytest.mark.parametrize(
        "expr",
        ["", "majority and", "atleast()", "atleast(0)", "((majority)",
         "bogus", "majority or or all", "peer()"],
    )
    def test_malformed(self, expr):
        with pytest.raises(PolicyError):
            ConsensusPolicy(expr)

    def test_describe_roundtrips_semantics(self):
        policy = parse_policy("majority and (peer(a) or atleast(2))")
        again = parse_policy(policy.describe())
        v = {"a": True, "b": True, "c": False}
        assert policy.evaluate(v, 3) == again.evaluate(v, 3)


class TestDecided:
    def test_undecided_with_few_votes(self):
        policy = ConsensusPolicy("majority")
        assert policy.decided(votes(1), total=5) is None

    def test_decided_true_once_majority_reached(self):
        policy = ConsensusPolicy("majority")
        assert policy.decided(votes(3), total=5) is True

    def test_decided_false_once_impossible(self):
        policy = ConsensusPolicy("majority")
        assert policy.decided(votes(0, 3), total=5) is False

    def test_non_elector_votes_are_not_votes_cast(self):
        """A vote from outside the electorate neither counts nor stands
        in for a missing elector: two electors are still to vote."""
        electorate = ["a", "b", "c"]
        votes = {"a": False, "x": False}
        for expression in ("majority", "majority and majority"):
            policy = ConsensusPolicy(expression)
            assert policy.decided(votes, 3, all_voters=electorate) is None

    def test_decided_with_explicit_electorate(self):
        policy = ConsensusPolicy("peer(p3)")
        electorate = [f"p{i}" for i in range(4)]
        assert policy.decided({"p0": True}, 4, all_voters=electorate) is None
        assert policy.decided({"p3": False}, 4, all_voters=electorate) is False
        assert policy.decided({"p3": True}, 4, all_voters=electorate) is True

    def test_decided_progresses_with_absent_peers(self):
        """With 37.5% of peers down, majority consensus still decides —
        the basis of the paper's DDoS robustness claim (§7.2.4(3))."""
        policy = ConsensusPolicy("majority")
        total = 16
        up = votes(9)  # 9 of 16 honest votes arrive, 6 peers are down
        assert policy.decided(up, total) is True

    def test_all_policy_never_decides_with_down_peer(self):
        policy = ConsensusPolicy("all")
        assert policy.decided(votes(15), total=16) is None
