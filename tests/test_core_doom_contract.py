"""Tests for the hand-written Doom contract (developer logic layer)."""

import pytest

from repro.blockchain import CertificateAuthority, Proposal, Transaction, TxValidationCode
from repro.blockchain.block import make_block, make_genesis_block
from repro.blockchain.contracts import execute_transaction
from repro.blockchain.ledger import Ledger, TxExecution
from repro.core import DoomContract
from repro.game import AssetId, DoomMap, EventType, WeaponId, asset_key

from conftest import ContractHarness

VALID = TxValidationCode.VALID
REJECTED = TxValidationCode.CONTRACT_REJECTED


@pytest.fixture()
def game_map():
    return DoomMap.default_map()


@pytest.fixture()
def harness(game_map):
    h = ContractHarness(DoomContract(game_map=game_map))
    h.ok("addPlayer", creator="p1")
    h.ok("addPlayer", creator="p2")
    h.ok("startGame", creator="p1")
    return h


def player_asset(harness, player, aid):
    return harness.state.get(asset_key(player, aid))


def place_player_at(harness, player, x, y, t=0.0):
    """Teleport a player for test setup (writes state directly)."""
    from repro.blockchain import Version

    harness.state.put(
        asset_key(player, AssetId.POSITION), {"x": x, "y": y, "t": t}, Version(99, 0)
    )


class TestLifecycle:
    def test_add_player_assigns_spawn_by_roster_position(self, harness, game_map):
        p1 = player_asset(harness, "p1", AssetId.POSITION)
        p2 = player_asset(harness, "p2", AssetId.POSITION)
        assert (p1["x"], p1["y"]) == game_map.spawn_points[0]
        assert (p2["x"], p2["y"]) == game_map.spawn_points[1]

    def test_fifth_player_rejected(self, harness):
        harness.ok("addPlayer", creator="p3")
        harness.ok("addPlayer", creator="p4")
        code, _ = harness.call("addPlayer", creator="p5")
        assert code == REJECTED

    def test_event_before_start_rejected(self, game_map):
        h = ContractHarness(DoomContract(game_map=game_map))
        h.ok("addPlayer", creator="p1")
        code, _ = h.call(EventType.SHOOT, {"count": 1}, creator="p1")
        assert code == REJECTED


class TestShootAndWeapons:
    def test_shoot_spends_ammo(self, harness):
        harness.ok(EventType.SHOOT, {"count": 3}, creator="p1")
        assert player_asset(harness, "p1", AssetId.AMMUNITION) == 47

    def test_batched_shoot_spends_total(self, harness):
        harness.ok(EventType.SHOOT, {"count": 50}, creator="p1")
        code, _ = harness.call(EventType.SHOOT, {"count": 1}, creator="p1")
        assert code == REJECTED

    def test_weapon_change_to_unowned_rejected(self, harness):
        code, _ = harness.call(
            EventType.WEAPON_CHANGE, {"wid": WeaponId.BFG9000}, creator="p1"
        )
        assert code == REJECTED

    def test_weapon_change_to_owned(self, harness):
        harness.ok(EventType.WEAPON_CHANGE, {"wid": WeaponId.FIST}, creator="p1")
        assert player_asset(harness, "p1", AssetId.WEAPON)["current"] == WeaponId.FIST


class TestDamage:
    def test_self_reported_damage(self, harness):
        harness.ok(EventType.DAMAGE, {"amount": 30, "t": 10.0}, creator="p1")
        assert player_asset(harness, "p1", AssetId.HEALTH)["hp"] == 70

    def test_damage_to_target(self, harness):
        harness.ok(
            EventType.DAMAGE, {"amount": 20, "target": "p2", "t": 10.0}, creator="p1"
        )
        assert player_asset(harness, "p2", AssetId.HEALTH)["hp"] == 80

    def test_damage_to_stranger_rejected(self, harness):
        code, _ = harness.call(
            EventType.DAMAGE, {"amount": 20, "target": "mallory"}, creator="p1"
        )
        assert code == REJECTED

    def test_negative_damage_rejected(self, harness):
        code, _ = harness.call(EventType.DAMAGE, {"amount": -5}, creator="p1")
        assert code == REJECTED


class TestMovement:
    def test_legal_move_updates_position(self, harness, game_map):
        spawn = game_map.spawn_points[0]
        harness.ok(
            EventType.LOCATION,
            {"x": spawn[0] + 20.0, "y": spawn[1], "t": 28.6},
            creator="p1",
        )
        assert player_asset(harness, "p1", AssetId.POSITION)["x"] == spawn[0] + 20.0

    def test_teleport_rejected(self, harness, game_map):
        spawn = game_map.spawn_points[0]
        code, _ = harness.call(
            EventType.LOCATION,
            {"x": spawn[0] + 2000.0, "y": spawn[1], "t": 28.6},
            creator="p1",
        )
        assert code == REJECTED


class TestPickups:
    def test_pickup_requires_item_binding_when_strict(self, harness):
        code, _ = harness.call(EventType.PICKUP_CLIP, {"t": 1.0}, creator="p1")
        assert code == REJECTED

    def test_lenient_mode_allows_unbound_pickup(self, game_map):
        h = ContractHarness(DoomContract(game_map=game_map, strict_pickups=False))
        h.ok("addPlayer", creator="p1")
        h.ok("startGame", creator="p1")
        h.ok(EventType.PICKUP_CLIP, {"t": 1.0}, creator="p1")
        assert h.state.get(asset_key("p1", AssetId.AMMUNITION)) == 60

    def test_nearby_pickup_accepted(self, harness, game_map):
        item = game_map.items_of_kind("medkit")[0]
        place_player_at(harness, "p1", item.x + 5.0, item.y, t=100.0)
        harness.ok(EventType.DAMAGE, {"amount": 50, "t": 100.0}, creator="p1")
        harness.ok(
            EventType.PICKUP_MEDKIT, {"item_id": item.item_id, "t": 100.0},
            creator="p1",
        )
        assert player_asset(harness, "p1", AssetId.HEALTH)["hp"] == 75

    def test_far_pickup_rejected(self, harness, game_map):
        item = max(
            game_map.items_of_kind("medkit"),
            key=lambda i: abs(i.x - game_map.spawn_points[0][0])
            + abs(i.y - game_map.spawn_points[0][1]),
        )
        code, _ = harness.call(
            EventType.PICKUP_MEDKIT, {"item_id": item.item_id, "t": 10.0},
            creator="p1",
        )
        assert code == REJECTED

    def test_wrong_item_kind_rejected(self, harness, game_map):
        item = game_map.items_of_kind("clip")[0]
        place_player_at(harness, "p1", item.x, item.y, t=5.0)
        code, _ = harness.call(
            EventType.PICKUP_MEDKIT, {"item_id": item.item_id, "t": 5.0},
            creator="p1",
        )
        assert code == REJECTED

    def test_respawn_window_enforced(self, harness, game_map):
        item = game_map.items_of_kind("clip")[0]
        place_player_at(harness, "p1", item.x, item.y, t=5.0)
        harness.ok(
            EventType.PICKUP_CLIP, {"item_id": item.item_id, "t": 5.0}, creator="p1"
        )
        code, _ = harness.call(
            EventType.PICKUP_CLIP, {"item_id": item.item_id, "t": 10_000.0},
            creator="p1",
        )
        assert code == REJECTED
        harness.ok(
            EventType.PICKUP_CLIP,
            {"item_id": item.item_id, "t": 5.0 + 31_000.0},
            creator="p1",
        )

    def test_weapon_pickup_grants_weapon_and_ammo(self, harness, game_map):
        item = game_map.items_of_kind(f"weapon:{WeaponId.SHOTGUN}")[0]
        place_player_at(harness, "p1", item.x, item.y, t=5.0)
        harness.ok(
            EventType.PICKUP_WEAPON,
            {"wid": WeaponId.SHOTGUN, "item_id": item.item_id, "t": 5.0},
            creator="p1",
        )
        weapon = player_asset(harness, "p1", AssetId.WEAPON)
        assert weapon["current"] == WeaponId.SHOTGUN
        assert player_asset(harness, "p1", AssetId.AMMUNITION) == 70

    def test_invuln_pickup_blocks_subsequent_damage(self, harness, game_map):
        item = game_map.items_of_kind("invuln")[0]
        place_player_at(harness, "p1", item.x, item.y, t=5.0)
        harness.ok(
            EventType.PICKUP_INVULN, {"item_id": item.item_id, "t": 5.0},
            creator="p1",
        )
        harness.ok(EventType.DAMAGE, {"amount": 90, "t": 100.0}, creator="p1")
        assert player_asset(harness, "p1", AssetId.HEALTH)["hp"] == 100

    def test_berserk_heals(self, harness, game_map):
        item = game_map.items_of_kind("berserk")[0]
        harness.ok(EventType.DAMAGE, {"amount": 60, "t": 1.0}, creator="p1")
        place_player_at(harness, "p1", item.x, item.y, t=5.0)
        harness.ok(
            EventType.PICKUP_BERSERK, {"item_id": item.item_id, "t": 5.0},
            creator="p1",
        )
        assert player_asset(harness, "p1", AssetId.HEALTH)["hp"] == 100
        assert player_asset(harness, "p1", AssetId.BERSERK) > 0


class TestMonolithicLayout:
    def test_monolithic_layout_equivalent_logic(self, game_map):
        h = ContractHarness(DoomContract(game_map=game_map, split_kvs=False))
        h.ok("addPlayer", creator="p1")
        h.ok("startGame", creator="p1")
        h.ok(EventType.SHOOT, {"count": 5}, creator="p1")
        record = h.state.get("player/p1")
        assert record[str(AssetId.AMMUNITION)] == 45


# ----------------------------------------------------------------------
# two invocations batched into one block: the ledger's MVCC outcomes


class LedgerPairRunner:
    """Executes two invocations against a prepared game state, batches
    them into ONE block, and returns the ledger's validation codes."""

    def __init__(self):
        self.ca = CertificateAuthority(name="conflict-ca")
        self._identities = {}
        self._nonce = 0

    def _identity(self, name):
        if name not in self._identities:
            self._identities[name] = self.ca.enroll(name)
        return self._identities[name]

    def _tx(self, contract, function, payload, creator, t=1000.0):
        self._nonce += 1
        identity = self._identity(creator)
        proposal = Proposal(
            tx_id=f"c{self._nonce}",
            contract=contract.name,
            function=function,
            args=(payload,),
            nonce=f"cn{self._nonce}",
            creator=creator,
            timestamp=t,
        )
        return Transaction(
            proposal=proposal,
            certificate=identity.certificate,
            signature=identity.sign(proposal.digest()),
        )

    def run_pair(self, call_a, call_b, players=("p1", "p2")):
        """Each call is (function, payload, creator).  Returns the two
        validation codes after committing both txs in one block."""
        contract = DoomContract(strict_pickups=False)
        ledger = Ledger(make_genesis_block({"peers": ["p0"]}))

        # Setup: join + start, one block per tx (no artificial conflicts).
        for function, payload, creator in (
            [("addPlayer", {}, p) for p in players] + [("startGame", {}, players[0])]
        ):
            tx = self._tx(contract, function, payload, creator)
            execution = execute_transaction(contract, tx, ledger.state)
            codes = ledger.append(
                make_block(ledger.height, ledger.last_hash, [tx], 0.0),
                [TxExecution(rwset=execution.rwset, code=execution.code)],
            )
            assert codes == ["VALID"], f"setup {function} failed: {codes}"

        # The pair under test: both executed against the SAME snapshot,
        # then ordered into the same block — exactly the §6 scenario.
        txs, execs = [], []
        for function, payload, creator in (call_a, call_b):
            tx = self._tx(contract, function, payload, creator)
            execution = execute_transaction(contract, tx, ledger.state)
            assert execution.code == "VALID"
            txs.append(tx)
            execs.append(TxExecution(rwset=execution.rwset, code=execution.code))
        return ledger.append(
            make_block(ledger.height, ledger.last_hash, txs, 1000.0), execs
        )


@pytest.fixture()
def runner():
    return LedgerPairRunner()


SHOOT = (EventType.SHOOT, {"count": 1, "t": 1000.0})


def move_payload(creator):
    """A legal location update: step back onto the player's own spawn."""
    spawns = DoomMap.default_map().spawn_points
    spawn = spawns[0] if creator == "p1" else spawns[1 % len(spawns)]
    return {"x": spawn[0], "y": spawn[1], "t": 1000.0}


class TestLedgerAgreement:
    def test_same_player_shoots_conflict(self, runner):
        # Two shots write the shooter's own ammo key: the paper's §6
        # "two successive bullets" example.
        codes = runner.run_pair(
            (SHOOT[0], SHOOT[1], "p1"), (SHOOT[0], SHOOT[1], "p1")
        )
        assert codes == ["VALID", "MVCC_READ_CONFLICT"]

    def test_shoots_by_different_players_commit(self, runner):
        # Distinct players write distinct asset/{player}/2 keys.
        codes = runner.run_pair(
            (SHOOT[0], SHOOT[1], "p1"), (SHOOT[0], SHOOT[1], "p2")
        )
        assert codes == ["VALID", "VALID"]

    def test_location_and_shoot_commit_together(self, runner):
        # position (aid 6) vs weapon/ammo (aids 3, 2): disjoint keys.
        for creators in (("p1", "p1"), ("p1", "p2")):
            codes = runner.run_pair(
                (EventType.LOCATION, move_payload(creators[0]), creators[0]),
                (SHOOT[0], SHOOT[1], creators[1]),
            )
            assert codes == ["VALID", "VALID"], creators

    def test_damage_on_one_victim_conflicts_across_players(self, runner):
        # Two players damaging the same victim collide on the victim's
        # health key even though the creators differ.
        codes = runner.run_pair(
            (EventType.DAMAGE, {"amount": 5, "target": "p1", "t": 1000.0}, "p1"),
            (EventType.DAMAGE, {"amount": 5, "target": "p1", "t": 1000.0}, "p2"),
        )
        assert codes == ["VALID", "MVCC_READ_CONFLICT"]

    def test_disjoint_key_pairs_never_conflict(self, runner):
        """Every pair of the cheap-to-stage handlers (shoot, location,
        weapon_change) whose footprints share no key commits together,
        whether one player or two submit it."""
        def stage(etype, creator):
            if etype == EventType.LOCATION:
                return move_payload(creator)
            return {
                EventType.SHOOT: {"count": 1, "t": 1000.0},
                EventType.WEAPON_CHANGE: {"wid": 0, "t": 1000.0},
            }[etype]

        disjoint = [
            (EventType.LOCATION, EventType.SHOOT),
            (EventType.LOCATION, EventType.WEAPON_CHANGE),
        ]
        for a, b in disjoint:
            for creators in (("p1", "p1"), ("p1", "p2")):
                codes = runner.run_pair(
                    (a, stage(a, creators[0]), creators[0]),
                    (b, stage(b, creators[1]), creators[1]),
                )
                assert codes == ["VALID", "VALID"], (a, b, creators)
