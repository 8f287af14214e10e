"""Tests for client-side prediction and server reconciliation."""

import pytest

from repro.game import AssetId, DoomClient, EventType, GameEvent, WeaponId


def loc(client, seq, x, y, t):
    return GameEvent(t, client.player, EventType.LOCATION, {"x": x, "y": y}, seq)


@pytest.fixture()
def client():
    return DoomClient("p1")


class TestPrediction:
    def test_prediction_applies_immediately(self, client):
        shoot = GameEvent(0.0, "p1", EventType.SHOOT, {"count": 2}, 1)
        client.apply_event(shoot)
        assert client.predicted[AssetId.AMMUNITION] == 48
        assert client.confirmed[AssetId.AMMUNITION] == 50

    def test_ack_confirms(self, client):
        shoot = GameEvent(0.0, "p1", EventType.SHOOT, {"count": 2}, 1)
        client.apply_event(shoot)
        client.acknowledge(1, accepted=True)
        assert client.confirmed[AssetId.AMMUNITION] == 48
        assert client.stats.confirmed == 1
        assert client.stats.misprediction_rate == 0.0

    def test_rejection_rolls_back(self, client):
        shoot = GameEvent(0.0, "p1", EventType.SHOOT, {"count": 2}, 1)
        client.apply_event(shoot)
        client.acknowledge(1, accepted=False)
        assert client.predicted[AssetId.AMMUNITION] == 50
        assert client.stats.rolled_back == 1

    def test_rollback_replays_surviving_inflight_events(self, client):
        client.apply_event(GameEvent(0.0, "p1", EventType.SHOOT, {"count": 1}, 1))
        client.apply_event(GameEvent(30.0, "p1", EventType.SHOOT, {"count": 1}, 2))
        client.apply_event(GameEvent(60.0, "p1", EventType.SHOOT, {"count": 1}, 3))
        assert client.predicted[AssetId.AMMUNITION] == 47
        # Reject the first; the other two remain predicted.
        client.acknowledge(1, accepted=False)
        assert client.predicted[AssetId.AMMUNITION] == 48
        client.acknowledge(2, accepted=True)
        client.acknowledge(3, accepted=True)
        assert client.confirmed[AssetId.AMMUNITION] == 48

    def test_unknown_ack_ignored(self, client):
        client.acknowledge(99, accepted=True)
        assert client.stats.confirmed == 0

    def test_wrong_player_event_rejected(self, client):
        with pytest.raises(ValueError):
            client.apply_event(GameEvent(0.0, "p2", EventType.SHOOT, {}, 1))


class TestTransitions:
    def test_movement_updates_position(self, client):
        start = dict(client.predicted[AssetId.POSITION])
        client.apply_event(loc(client, 1, start["x"] + 20.0, start["y"], 28.6))
        assert client.predicted[AssetId.POSITION]["x"] == start["x"] + 20.0

    def test_illegal_prediction_not_applied(self, client):
        start = dict(client.predicted[AssetId.POSITION])
        client.apply_event(loc(client, 1, start["x"] + 4000.0, start["y"], 28.6))
        assert client.predicted[AssetId.POSITION]["x"] == start["x"]

    def test_weapon_pickup_grants_and_selects(self, client):
        client.apply_event(
            GameEvent(0.0, "p1", EventType.PICKUP_WEAPON, {"wid": WeaponId.SHOTGUN}, 1)
        )
        weapon = client.predicted[AssetId.WEAPON]
        assert weapon["current"] == WeaponId.SHOTGUN
        assert WeaponId.SHOTGUN in weapon["owned"]
        assert client.predicted[AssetId.AMMUNITION] == 70

    def test_damage_and_medkit_cycle(self, client):
        client.apply_event(GameEvent(0.0, "p1", EventType.DAMAGE, {"amount": 40}, 1))
        assert client.predicted[AssetId.HEALTH]["hp"] == 60
        client.apply_event(GameEvent(10.0, "p1", EventType.PICKUP_MEDKIT, {}, 2))
        assert client.predicted[AssetId.HEALTH]["hp"] == 85

    def test_invulnerability_prevents_predicted_damage(self, client):
        client.apply_event(GameEvent(0.0, "p1", EventType.PICKUP_INVULN, {}, 1))
        client.apply_event(GameEvent(10.0, "p1", EventType.DAMAGE, {"amount": 50}, 2))
        assert client.predicted[AssetId.HEALTH]["hp"] == 100

    def test_berserk_heals_and_arms(self, client):
        client.apply_event(GameEvent(0.0, "p1", EventType.DAMAGE, {"amount": 60}, 1))
        client.apply_event(GameEvent(10.0, "p1", EventType.PICKUP_BERSERK, {}, 2))
        assert client.predicted[AssetId.HEALTH]["hp"] == 100
        assert client.predicted[AssetId.BERSERK] > 0

    def test_powerup_timers_set(self, client):
        client.apply_event(GameEvent(100.0, "p1", EventType.PICKUP_RADSUIT, {}, 1))
        client.apply_event(GameEvent(100.0, "p1", EventType.PICKUP_INVIS, {}, 2))
        assert client.predicted[AssetId.RADIATION_SUIT] == pytest.approx(30_100.0)
        assert client.predicted[AssetId.INVISIBILITY] == pytest.approx(30_100.0)

    def test_confirmed_state_isolated_from_prediction(self, client):
        client.apply_event(GameEvent(0.0, "p1", EventType.DAMAGE, {"amount": 40}, 1))
        assert client.confirmed[AssetId.HEALTH]["hp"] == 100

    def test_damage_to_a_player_not_in_the_game_is_not_predicted(self, client):
        client.apply_event(GameEvent(
            0.0, "p1", EventType.DAMAGE, {"target": "p2", "amount": 20}, 1
        ))
        assert client.predicted[AssetId.HEALTH]["hp"] == 100

    def test_pickup_of_unknown_weapon_is_not_predicted(self, client):
        client.apply_event(
            GameEvent(0.0, "p1", EventType.PICKUP_WEAPON, {"wid": 999}, 1)
        )
        weapon = client.predicted[AssetId.WEAPON]
        assert weapon["current"] == WeaponId.PISTOL
        assert 999 not in weapon["owned"]
        assert client.predicted[AssetId.AMMUNITION] == 50
