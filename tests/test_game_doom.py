"""Unit tests for Doom rules, assets and the default map."""

import pytest

from repro.game import (
    ASSETS,
    AssetId,
    DoomMap,
    DoomRules,
    RuleViolation,
    WeaponId,
    asset_key,
    initial_assets,
)


@pytest.fixture()
def game_map():
    return DoomMap.default_map()


class TestAssets:
    def test_nine_assets_defined(self):
        assert len(ASSETS) == 9
        assert set(ASSETS) == set(AssetId.ALL)

    def test_asset_key_per_player_per_asset(self):
        assert asset_key("p1", AssetId.HEALTH) != asset_key("p1", AssetId.ARMOR)
        assert asset_key("p1", AssetId.HEALTH) != asset_key("p2", AssetId.HEALTH)

    def test_bounds(self):
        health = ASSETS[AssetId.HEALTH]
        assert health.in_bounds(100)
        assert not health.in_bounds(-1)
        assert not health.in_bounds(201)

    def test_bounds_match_the_spec(self):
        from repro.core import doom_spec

        spec = doom_spec().assets
        bounded = [aid for aid, asset in ASSETS.items() if asset.minimum is not None]
        assert len(bounded) == 6
        for aid in bounded:
            asset = ASSETS[aid]
            assert (asset.minimum, asset.maximum) == (spec[aid].minimum, spec[aid].maximum)

    def test_initial_assets_complete(self):
        init = initial_assets()
        assert set(init) == set(AssetId.ALL)
        assert init[AssetId.HEALTH]["hp"] == 100
        assert init[AssetId.AMMUNITION] == 50
        assert WeaponId.PISTOL in init[AssetId.WEAPON]["owned"]


class TestMovement:
    def test_normal_move_accepted(self, game_map):
        pos = {"x": 500.0, "y": 500.0, "t": 0.0}
        new = DoomRules.validate_move(pos, 520.0, 500.0, 28.6, game_map)
        assert new == {"x": 520.0, "y": 500.0, "t": 28.6}

    def test_teleport_rejected(self, game_map):
        pos = {"x": 500.0, "y": 500.0, "t": 0.0}
        with pytest.raises(RuleViolation):
            DoomRules.validate_move(pos, 3000.0, 3000.0, 28.6, game_map)

    def test_out_of_bounds_rejected(self, game_map):
        pos = {"x": 500.0, "y": 500.0, "t": 0.0}
        with pytest.raises(RuleViolation):
            DoomRules.validate_move(pos, -10.0, 500.0, 28.6, game_map)

    def test_time_travel_rejected(self, game_map):
        pos = {"x": 500.0, "y": 500.0, "t": 100.0}
        with pytest.raises(RuleViolation):
            DoomRules.validate_move(pos, 501.0, 500.0, 50.0, game_map)

    def test_long_pause_allows_proportional_distance(self, game_map):
        pos = {"x": 500.0, "y": 500.0, "t": 0.0}
        new = DoomRules.validate_move(pos, 1500.0, 500.0, 1000.0, game_map)
        assert new["x"] == 1500.0


class TestShooting:
    def test_shoot_consumes_ammo(self):
        weapon = {"current": WeaponId.PISTOL, "owned": [WeaponId.PISTOL]}
        assert DoomRules.validate_shoot(weapon, 50, 3) == 47

    def test_shoot_without_ammo_rejected(self):
        weapon = {"current": WeaponId.PISTOL, "owned": [WeaponId.PISTOL]}
        with pytest.raises(RuleViolation):
            DoomRules.validate_shoot(weapon, 0, 1)

    def test_batched_shots_all_accounted(self):
        weapon = {"current": WeaponId.PISTOL, "owned": [WeaponId.PISTOL]}
        assert DoomRules.validate_shoot(weapon, 5, 5) == 0
        with pytest.raises(RuleViolation):
            DoomRules.validate_shoot(weapon, 5, 6)

    def test_melee_needs_no_ammo(self):
        weapon = {"current": WeaponId.CHAINSAW, "owned": [WeaponId.CHAINSAW]}
        assert DoomRules.validate_shoot(weapon, 0, 4) == 0

    def test_bfg_costs_40(self):
        weapon = {"current": WeaponId.BFG9000, "owned": [WeaponId.BFG9000]}
        assert DoomRules.validate_shoot(weapon, 80, 2) == 0
        with pytest.raises(RuleViolation):
            DoomRules.validate_shoot(weapon, 39, 1)

    def test_nonpositive_count_rejected(self):
        weapon = {"current": WeaponId.PISTOL, "owned": [WeaponId.PISTOL]}
        with pytest.raises(RuleViolation):
            DoomRules.validate_shoot(weapon, 50, 0)

    def test_weapon_change_requires_ownership(self):
        weapon = {"current": WeaponId.PISTOL, "owned": [WeaponId.PISTOL]}
        with pytest.raises(RuleViolation):
            DoomRules.validate_weapon_change(weapon, WeaponId.BFG9000)
        new = DoomRules.validate_weapon_change(
            {"current": 2, "owned": [2, 3]}, 3
        )
        assert new["current"] == 3


class TestDamage:
    def test_plain_damage_reduces_health(self):
        health, armor, absorbed = DoomRules.apply_damage(
            {"hp": 100, "invuln_until": 0.0}, 0, 30, t_ms=0.0
        )
        assert health["hp"] == 70 and armor == 0 and not absorbed

    def test_armor_absorbs_a_third(self):
        health, armor, absorbed = DoomRules.apply_damage(
            {"hp": 100, "invuln_until": 0.0}, 50, 30, t_ms=0.0
        )
        assert health["hp"] == 80 and armor == 40 and absorbed

    def test_armor_cannot_go_negative(self):
        health, armor, _ = DoomRules.apply_damage(
            {"hp": 100, "invuln_until": 0.0}, 2, 30, t_ms=0.0
        )
        assert armor == 0
        assert health["hp"] == 72

    def test_health_floors_at_zero(self):
        health, _, _ = DoomRules.apply_damage(
            {"hp": 10, "invuln_until": 0.0}, 0, 100, t_ms=0.0
        )
        assert health["hp"] == 0

    def test_invulnerability_blocks_damage(self):
        health, armor, _ = DoomRules.apply_damage(
            {"hp": 100, "invuln_until": 5000.0}, 10, 50, t_ms=1000.0
        )
        assert health["hp"] == 100 and armor == 10

    def test_invulnerability_expires(self):
        health, _, _ = DoomRules.apply_damage(
            {"hp": 100, "invuln_until": 5000.0}, 0, 50, t_ms=6000.0
        )
        assert health["hp"] == 50

    def test_negative_damage_rejected(self):
        with pytest.raises(RuleViolation):
            DoomRules.apply_damage({"hp": 100, "invuln_until": 0.0}, 0, -5, 0.0)


class TestPickups:
    def test_pickup_in_range_accepted(self, game_map):
        item = game_map.items_of_kind("medkit")[0]
        pos = {"x": item.x + 10.0, "y": item.y, "t": 0.0}
        DoomRules.validate_pickup(item, None, pos, t_ms=0.0)  # no raise

    def test_pickup_out_of_range_rejected(self, game_map):
        item = game_map.items_of_kind("medkit")[0]
        pos = {"x": item.x + 500.0, "y": item.y, "t": 0.0}
        with pytest.raises(RuleViolation):
            DoomRules.validate_pickup(item, None, pos, t_ms=0.0)

    def test_pickup_before_respawn_rejected(self, game_map):
        item = game_map.items_of_kind("medkit")[0]
        pos = {"x": item.x, "y": item.y, "t": 0.0}
        with pytest.raises(RuleViolation):
            DoomRules.validate_pickup(item, {"taken_at": 0.0}, pos, t_ms=10_000.0)
        DoomRules.validate_pickup(item, {"taken_at": 0.0}, pos, t_ms=31_000.0)

    def test_missing_item_rejected(self):
        with pytest.raises(RuleViolation):
            DoomRules.validate_pickup(None, None, {"x": 0, "y": 0, "t": 0}, 0.0)

    def test_heal_caps_at_100(self):
        healed = DoomRules.heal({"hp": 90, "invuln_until": 0.0}, 25)
        assert healed["hp"] == 100

    def test_ammo_caps_at_maximum(self):
        assert DoomRules.add_ammo(395, 10) == 400


class TestMap:
    def test_default_map_deterministic(self):
        a, b = DoomMap.default_map(), DoomMap.default_map()
        assert [(i.kind, i.x, i.y) for i in a.items] == [
            (i.kind, i.x, i.y) for i in b.items
        ]

    def test_contains_chainsaw_for_idchoppers(self, game_map):
        assert game_map.items_of_kind(f"weapon:{WeaponId.CHAINSAW}")

    def test_item_lookup(self, game_map):
        first = game_map.items[0]
        assert game_map.item(first.item_id) is first
        assert game_map.item("nope") is None

    def test_all_items_in_bounds(self, game_map):
        assert all(game_map.in_bounds(i.x, i.y) for i in game_map.items)

    def test_four_spawn_points(self, game_map):
        assert len(game_map.spawn_points) == 4
