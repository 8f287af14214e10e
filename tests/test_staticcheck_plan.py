"""ConflictPlanner: DAG/lane unit behaviour and the soundness of its
lanes against the runtime RWSets (the planner is an offline analysis;
nothing in the engine consumes a plan)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain.identity import CertificateAuthority
from repro.blockchain.transaction import Proposal, Transaction
from repro.core import DoomContract
from repro.staticcheck import ConflictPlanner
from repro.staticcheck.fuzz import _doom_case, _monopoly_case, fuzz_case

_CA = CertificateAuthority(name="plan-test-ca")
_IDENTITIES = {}


def make_tx(function, creator, contract="doom", n=[0]):
    if creator not in _IDENTITIES:
        _IDENTITIES[creator] = _CA.enroll(creator)
    identity = _IDENTITIES[creator]
    n[0] += 1
    proposal = Proposal(
        tx_id=f"pt{n[0]}",
        contract=contract,
        function=function,
        args=({},),
        nonce=f"n{n[0]}",
        creator=creator,
        timestamp=float(n[0]),
    )
    return Transaction(
        proposal=proposal,
        certificate=identity.certificate,
        signature=identity.sign(proposal.digest()),
    )


@pytest.fixture(scope="module")
def planner():
    return ConflictPlanner.for_contract(DoomContract)


class TestMayConflict:
    def test_same_player_conflict_needs_same_creator(self, planner):
        a = make_tx("location", "alice")
        b = make_tx("location", "bob")
        c = make_tx("location", "alice")
        assert not planner.may_conflict(a, b)
        assert planner.may_conflict(a, c)

    def test_disjoint_functions_are_independent(self, planner):
        # location only touches POSITION; shoot touches weapon/ammo.
        a = make_tx("location", "alice")
        b = make_tx("shoot", "alice")
        assert not planner.may_conflict(a, b)

    def test_always_conflicts_cross_players(self, planner):
        # addPlayer writes the shared roster key.
        a = make_tx("addPlayer", "alice")
        b = make_tx("addPlayer", "bob")
        assert planner.may_conflict(a, b)

    def test_unknown_function_is_conservative(self, planner):
        a = make_tx("location", "alice")
        b = make_tx("mystery_fn", "bob")
        assert planner.may_conflict(a, b)

    def test_foreign_contract_is_conservative(self, planner):
        a = make_tx("location", "alice")
        b = make_tx("location", "bob", contract="other")
        assert planner.may_conflict(a, b)


class TestPlanBlock:
    def test_lanes_partition_preserving_block_order(self, planner):
        txs = [
            make_tx("location", "alice"),
            make_tx("location", "bob"),
            make_tx("shoot", "alice"),
            make_tx("location", "carol"),
        ]
        plan = planner.plan_block(txs)
        flat = sorted(i for lane in plan.lanes for i in lane)
        assert flat == [0, 1, 2, 3]
        assert all(lane == sorted(lane) for lane in plan.lanes)
        assert plan.parallelism == 4  # all pairwise independent
        assert plan.edges == []

    def test_edges_connect_lanes(self, planner):
        txs = [
            make_tx("location", "alice"),
            make_tx("location", "alice"),  # same creator: edge
            make_tx("location", "bob"),
        ]
        plan = planner.plan_block(txs)
        assert (0, 1) in plan.edges
        assert plan.lane_of(0) == plan.lane_of(1)
        assert plan.lane_of(2) != plan.lane_of(0)

    def test_to_json_roundtrips_to_plain_data(self, planner):
        plan = planner.plan_block([make_tx("location", "alice")])
        payload = json.loads(json.dumps(plan.to_json()))
        assert payload["lanes"] == [[0]]
        assert payload["tx_ids"] == plan.tx_ids

    def test_empty_block(self, planner):
        plan = planner.plan_block([])
        assert plan.lanes == [] and plan.edges == [] and plan.tx_ids == []


# ----------------------------------------------------------------------
# property: cross-lane transactions never interact at runtime.  The fuzz
# harness executes real traces through the real ledger and records a
# "lanes" violation whenever two transactions from different lanes touch
# a common key — so plan soundness reduces to "no lane violations at any
# seed".


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_lane_partition_matches_runtime_rwsets_doom(seed):
    outcome = fuzz_case(_doom_case(), n_events=30, seed=seed)
    lanes = [v for v in outcome.violations if v.kind == "lanes"]
    independence = [v for v in outcome.violations if v.kind == "independence"]
    assert not lanes, lanes
    assert not independence, independence


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_lane_partition_matches_runtime_rwsets_monopoly(seed):
    outcome = fuzz_case(_monopoly_case(), n_events=30, seed=seed)
    lanes = [v for v in outcome.violations if v.kind == "lanes"]
    assert not lanes, lanes

