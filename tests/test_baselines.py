"""Tests for the C/S, lockstep and RACS baselines + the Table 3 matrix."""

import pytest

from repro.baselines import (
    CSClient,
    GameServer,
    LockstepGame,
    LockstepPlayer,
    MECHANISMS,
    NOT_APPLICABLE,
    NOT_PREVENTED,
    PAPER_TABLE3,
    PREVENTED,
    RacsPeer,
    Referee,
    matrix_lookup,
    our_approach_matches_cs,
)
from repro.game import AssetId, EventType, GameEvent, asset_key, generate_session
from repro.simnet import (
    INTERNET_US,
    LAN_1GBPS,
    Network,
    Region,
    TakedownAttack,
)


def make_cs(profile=LAN_1GBPS, game_map=None):
    net = Network(profile=profile, seed=0)
    server = net.register(GameServer(game_map=game_map))
    server.add_player("p1")
    client = net.register(CSClient("c1", server.region, server))
    return net, server, client


def shoot(seq, count=1, player="p1", t=0.0):
    return GameEvent(t, player, EventType.SHOOT, {"count": count}, seq)


class TestClientServer:
    def test_valid_event_acked(self):
        net, server, client = make_cs()
        client.send_event(shoot(1))
        net.run_until_idle()
        assert client.accepted == 1
        assert client.avg_latency_ms > 0

    def test_cheat_rejected_same_rules_as_contract(self):
        net, server, client = make_cs()
        client.send_event(shoot(1, count=500))
        net.run_until_idle()
        assert client.rejected == 1
        assert "ammo" in client.rejection_reasons[0]

    def test_cs_and_contract_agree_on_full_replay(self):
        """§4's parity claim, checked mechanically: the trusted server
        and the smart contract accept/reject the same event stream."""
        demo = generate_session("parity", duration_ms=20_000.0, seed=13)
        net, server, client = make_cs(game_map=demo.game_map)
        for event in demo.events:
            server.validate_and_apply(event)  # direct, order-preserving
        assert server.events_rejected == 0
        assert server.events_validated == len(demo)

    def test_server_under_ddos_stops_acking(self):
        """One takedown target suffices against C/S (§5, DDoS)."""
        net, server, client = make_cs()
        client.send_event(shoot(1))
        net.run_until_idle()
        TakedownAttack([server.name]).apply(net)
        client.send_event(shoot(2))
        net.run_until_idle()
        assert client.accepted == 1
        assert client.pending() == 1  # never answered

    def test_room_capacity(self):
        net, server, client = make_cs()
        for i in range(2, 5):
            server.add_player(f"p{i}")
        with pytest.raises(ValueError):
            server.add_player("p5")

    def test_duplicate_player(self):
        net, server, _ = make_cs()
        with pytest.raises(ValueError):
            server.add_player("p1")

    def test_unknown_player_rejected(self):
        net, server, client = make_cs()
        client.send_event(shoot(1, player="ghost"))
        net.run_until_idle()
        assert client.rejected == 1

    @staticmethod
    def stand_on(server, item_id, t):
        """Walk p1 onto a map item in one legal (slow enough) move."""
        item = server.contract.map.item(item_id)
        event = GameEvent(t, "p1", EventType.LOCATION, {"x": item.x, "y": item.y}, 1)
        assert server.validate_and_apply(event) == (True, "")

    def test_medkit_pickup_must_name_a_medkit(self):
        """item5 on the default map is a clip: standing on it does not
        make a medkit pickup legal, and the player is not healed."""
        _net, server, _client = make_cs()
        self.stand_on(server, "item5", t=3_000.0)
        hurt = GameEvent(3_000.0, "p1", EventType.DAMAGE, {"amount": 50}, 2)
        assert server.validate_and_apply(hurt) == (True, "")
        medkit = GameEvent(3_000.0, "p1", EventType.PICKUP_MEDKIT,
                           {"item_id": "item5"}, 3)
        assert server.validate_and_apply(medkit) == (
            False, "item item5 is a clip, not a medkit"
        )
        assert server.state.get(asset_key("p1", AssetId.HEALTH))["hp"] == 50

    def test_rejected_weapon_pickup_leaves_the_item_on_the_map(self):
        """A pickup rejected for an unknown weapon id consumes nothing:
        the same item can still be picked up legally right after."""
        _net, server, _client = make_cs()
        self.stand_on(server, "item3", t=3_000.0)  # weapon:6
        bogus = GameEvent(3_000.0, "p1", EventType.PICKUP_WEAPON,
                          {"wid": 999, "item_id": "item3"}, 2)
        assert server.validate_and_apply(bogus) == (False, "no such weapon 999")
        legal = GameEvent(3_000.0, "p1", EventType.PICKUP_WEAPON,
                          {"wid": 6, "item_id": "item3"}, 3)
        assert server.validate_and_apply(legal) == (True, "")


class TestLockstep:
    def make_game(self, n_players=4, rounds=3, liar=None, profile=INTERNET_US):
        net = Network(profile=profile, seed=1)
        players = []
        regions = [Region.DALLAS, Region.SAN_JOSE, Region.TORONTO]
        for i in range(n_players):
            player = LockstepPlayer(
                f"lp{i}", regions[i % 3], lie=(liar == i)
            )
            net.register(player)
            players.append(player)
        game = LockstepGame(players, rounds=rounds)
        return net, game

    def test_honest_game_agrees(self):
        net, game = self.make_game()
        game.run(net)
        assert game.all_agree()
        assert all(len(p.completed_rounds) == 3 for p in game.players)

    def test_round_latency_at_least_two_rtts(self):
        net, game = self.make_game(rounds=2)
        game.run(net)
        # Two message phases across WAN: > 2 * max one-way (~31 ms).
        assert game.avg_round_latency_ms() > 60.0

    def test_reveal_mismatch_detected(self):
        net, game = self.make_game(liar=0)
        game.run(net)
        honest = game.players[1]
        assert any(cheater == "lp0" for _, cheater in honest.cheaters_detected)
        # The liar's move is excluded from the agreed set.
        assert "lp0" not in honest.completed_rounds[1]

    def test_lockstep_stalls_when_player_down(self):
        """Lockstep's pathology: one unreachable player halts the round
        for everyone (the blockchain approach just outvotes it)."""
        net, game = self.make_game(rounds=2)
        TakedownAttack(["lp3"]).apply(net)
        for player in game.players:
            player.start_round()
        net.run(until=10_000.0)
        assert all(1 not in p.completed_rounds for p in game.players[:3])

    def test_rounds_validation(self):
        net, game = self.make_game()
        with pytest.raises(ValueError):
            LockstepGame(game.players, rounds=0)


class TestRacs:
    def test_referee_arbitrates_and_peers_render_optimistically(self):
        net = Network(profile=LAN_1GBPS, seed=2)
        referee = net.register(Referee())
        referee.add_player("r1")
        referee.add_player("r2")
        peers = [net.register(RacsPeer(f"r{i}", Region.LAN, referee)) for i in (1, 2)]
        for peer in peers:
            peer.connect(peers)

        peers[0].send_event(shoot(1, player="r1"))
        net.run_until_idle()
        assert peers[1].peer_updates[0].seq == 1  # rendered P2P
        assert peers[0].verdicts[1] is True  # referee verdict arrived

    def test_referee_squelches_cheat(self):
        net = Network(profile=LAN_1GBPS, seed=2)
        referee = net.register(Referee())
        referee.add_player("r1")
        referee.add_player("r2")
        peers = [net.register(RacsPeer(f"r{i}", Region.LAN, referee)) for i in (1, 2)]
        for peer in peers:
            peer.connect(peers)
        peers[0].send_event(shoot(1, player="r1", count=500))
        net.run_until_idle()
        assert peers[0].verdicts[1] is False
        # ...but the victim already rendered it — RACS's optimism window.
        assert len(peers[1].peer_updates) == 1


class TestTable3Matrix:
    def test_matrix_covers_all_rows_and_columns(self):
        assert len(PAPER_TABLE3) == 11
        assert all(len(v) == len(MECHANISMS) for v in PAPER_TABLE3.values())

    def test_lookup(self):
        assert matrix_lookup("collusion", "our-approach") == NOT_PREVENTED
        assert matrix_lookup("undo", "our-approach") == PREVENTED
        assert matrix_lookup("undo", "c/s") == NOT_APPLICABLE
        assert matrix_lookup("bots", "pb/vac") == PREVENTED

    def test_lookup_errors(self):
        with pytest.raises(KeyError):
            matrix_lookup("teleport", "c/s")
        with pytest.raises(KeyError):
            matrix_lookup("bug", "magic")

    def test_no_mechanism_beats_collusion_or_proxies(self):
        """The paper: collusion and infrastructure reflex enhancers are
        open problems for every mechanism."""
        assert all(v == NOT_PREVENTED for v in PAPER_TABLE3["collusion"])
        assert all(v == NOT_PREVENTED for v in PAPER_TABLE3["proxy"])

    def test_our_approach_no_worse_than_cs(self):
        assert our_approach_matches_cs()
