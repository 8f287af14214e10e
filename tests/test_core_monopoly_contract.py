"""Tests for the Monopoly contract + distributed dice (§7.3 ii)."""

import pytest

from repro.blockchain import TxValidationCode
from repro.core import MonopolyContract, player_key, property_key
from repro.rng import DistributedDice

from conftest import ContractHarness

VALID = TxValidationCode.VALID
REJECTED = TxValidationCode.CONTRACT_REJECTED


@pytest.fixture()
def harness():
    h = ContractHarness(MonopolyContract())
    h.ok("addPlayer", creator="alice")
    h.ok("addPlayer", creator="bob")
    h.ok("startGame", creator="alice")
    return h


def move_to(harness, player, square, round_id):
    """Force a player onto a square for test setup."""
    from repro.blockchain import Version

    state = dict(harness.state.get(player_key(player)))
    state["location"] = square
    harness.state.put(player_key(player), state, Version(98, 0))


class TestLifecycle:
    def test_two_players_required(self):
        h = ContractHarness(MonopolyContract())
        h.ok("addPlayer", creator="alice")
        code, _ = h.call("startGame", creator="alice")
        assert code == REJECTED

    def test_players_start_with_1500(self, harness):
        assert harness.state.get(player_key("alice"))["currency"] == 1500


class TestRolls:
    def test_roll_moves_player(self, harness):
        harness.ok("roll", {"dice": [3, 4], "round": 1}, creator="alice")
        assert harness.state.get(player_key("alice"))["location"] == 7

    def test_impossible_dice_rejected(self, harness):
        code, _ = harness.call("roll", {"dice": [0, 9], "round": 1}, creator="alice")
        assert code == REJECTED

    def test_round_cannot_be_consumed_twice(self, harness):
        """Non-repudiation: one RNG round, one move — a player cannot
        claim two different outcomes for the same round."""
        harness.ok("roll", {"dice": [3, 4], "round": 1}, creator="alice")
        code, _ = harness.call("roll", {"dice": [6, 6], "round": 1}, creator="alice")
        assert code == REJECTED

    def test_roll_without_round_rejected(self, harness):
        code, _ = harness.call("roll", {"dice": [3, 4]}, creator="alice")
        assert code == REJECTED

    def test_roll_logged_for_audit(self, harness):
        harness.ok("roll", {"dice": [2, 5], "round": 1}, creator="alice")
        log = harness.state.get("mp/roll/alice/1")
        assert log["dice"] == [2, 5]

    def test_distributed_dice_feed_valid_rolls(self, harness):
        dice = DistributedDice(["alice", "bob"], seed=4)
        for round_id in range(1, 6):
            harness.ok(
                "roll", {"dice": list(dice.roll()), "round": round_id},
                creator="alice",
            )

    @pytest.mark.parametrize(
        "payload",
        [{"dice": 5, "round": 1}, [1, 2], {"dice": [1, "x"], "round": 2}],
        ids=["int-dice", "list-payload", "str-face"],
    )
    def test_malformed_roll_rejected_not_raised(self, harness, payload):
        code, _ = harness.call("roll", payload, creator="alice")
        assert code == REJECTED
        harness.ok("roll", {"dice": [3, 4], "round": 3}, creator="alice")


class TestPurchasesAndRent:
    def test_buy_on_unowned_property(self, harness):
        move_to(harness, "alice", 39, 1)
        harness.ok("buy", creator="alice")
        assert harness.state.get(property_key(39))["owner"] == "alice"
        assert harness.state.get(player_key("alice"))["currency"] == 1100

    def test_buy_owned_property_rejected(self, harness):
        move_to(harness, "alice", 39, 1)
        harness.ok("buy", creator="alice")
        move_to(harness, "bob", 39, 1)
        code, _ = harness.call("buy", creator="bob")
        assert code == REJECTED

    def test_buy_non_property_square_rejected(self, harness):
        move_to(harness, "alice", 0, 1)  # GO
        code, _ = harness.call("buy", creator="alice")
        assert code == REJECTED

    def test_rent_transfers_currency(self, harness):
        move_to(harness, "alice", 39, 1)
        harness.ok("buy", creator="alice")
        move_to(harness, "bob", 39, 2)
        harness.ok("payRent", creator="bob")
        assert harness.state.get(player_key("bob"))["currency"] == 1450
        assert harness.state.get(player_key("alice"))["currency"] == 1150

    def test_no_rent_on_own_property(self, harness):
        move_to(harness, "alice", 39, 1)
        harness.ok("buy", creator="alice")
        code, _ = harness.call("payRent", creator="alice")
        assert code == REJECTED

    def test_no_rent_on_unowned(self, harness):
        move_to(harness, "bob", 39, 1)
        code, _ = harness.call("payRent", creator="bob")
        assert code == REJECTED


class TestEndToEndOnChain:
    def test_monopoly_session_on_blockchain(self):
        """Full pipeline: Monopoly over the blockchain with distributed
        dice; all peers agree on the final state."""
        from repro.blockchain import BlockchainNetwork
        from repro.simnet import LAN_1GBPS

        chain = BlockchainNetwork(n_peers=4, profile=LAN_1GBPS, seed=6)
        chain.install_contract(MonopolyContract)
        alice = chain.create_client("alice")
        bob = chain.create_client("bob")

        results = []
        track = lambda r, l: results.append(r.code)  # noqa: E731
        for client in (alice, bob):
            client.invoke("monopoly", "addPlayer", ({},), ("mp/roster",), track)
            chain.run_until_idle()
        alice.invoke("monopoly", "startGame", ({},), ("mp/started",), track)
        chain.run_until_idle()

        dice = DistributedDice(["alice", "bob"], seed=9)
        for round_id in (1, 2):
            alice.invoke(
                "monopoly", "roll",
                ({"dice": list(dice.roll()), "round": round_id},),
                (player_key("alice"),), track,
            )
            chain.run_until_idle()
        assert all(code == VALID for code in results)
        hashes = {p.ledger.state_hash() for p in chain.peers}
        assert len(hashes) == 1
