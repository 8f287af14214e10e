"""Additional shim and session edge cases."""

import pytest

from repro.blockchain import FabricConfig, TxValidationCode
from repro.core import GameSession, SessionError, ShimConfig
from repro.game import AssetId, EventType, GameEvent, asset_key
from repro.simnet import LAN_1GBPS, TakedownAttack


def make_session(**kwargs):
    session = GameSession(n_peers=4, profile=LAN_1GBPS, n_players=1, **kwargs)
    session.setup()
    return session


def shoot(session, seq, count=1):
    return GameEvent(session.now, session.shims[0].player, EventType.SHOOT,
                     {"count": count}, seq)


class TestMonolithicShim:
    def test_monolithic_keys_declared(self):
        from repro.core import DoomContract
        from repro.game import DoomMap

        game_map = DoomMap.default_map()
        session = GameSession(
            n_peers=4, profile=LAN_1GBPS, n_players=1,
            shim_config=ShimConfig(split_kvs=False),
            game_map=game_map,
            contract_factory=lambda: DoomContract(game_map=game_map,
                                                  split_kvs=False),
        )
        session.setup()
        shim = session.shims[0]
        keys = shim._touched_keys(EventType.SHOOT, {"count": 1})
        assert keys == (f"player/{shim.player}",)
        session.inject_event(shoot(session, 1))
        session.run_until_idle()
        assert session.stats().accepted_events == 1
        record = session.chain.peers[0].ledger.state.get(f"player/{shim.player}")
        assert record[str(AssetId.AMMUNITION)] == 49


class TestShimAccounting:
    def test_stats_cover_every_event(self):
        session = make_session()
        shim = session.shims[0]
        for seq in range(1, 11):
            shim.on_game_event(shoot(session, seq))
        session.run_until_idle()
        stats = shim.stats
        assert stats.events_received == 10
        assert stats.events_acked == 10
        assert len(stats.latencies_ms) == 10
        assert shim.pending_events() == 0

    def test_throughput_metrics_positive(self):
        session = make_session()
        shim = session.shims[0]
        for seq in range(1, 6):
            shim.on_game_event(shoot(session, seq))
        session.run_until_idle()
        assert shim.stats.throughput_tx_per_s > 0
        assert shim.stats.throughput_events_per_s > 0

    def test_empty_stats_safe(self):
        session = make_session()
        stats = session.stats()
        assert stats.avg_latency_ms == 0.0
        assert stats.avg_batch_size == 0.0
        assert stats.throughput_tx_per_s == 0.0

    def test_shim_for_lookup(self):
        session = make_session()
        player = session.shims[0].player
        assert session.shim_for(player) is session.shims[0]
        with pytest.raises(SessionError):
            session.shim_for("nobody")


class TestOrderingFairness:
    def test_conflicting_txs_eventually_dispatch(self):
        """Mutually-exclusive block cutting must not starve conflicting
        transactions: they go out in subsequent blocks."""
        config = FabricConfig(
            max_block_txs=3, batch_timeout_ms=5.0, mutually_exclusive_blocks=True
        )
        session = make_session(fabric_config=config,
                               shim_config=ShimConfig(batching=False))
        shim = session.shims[0]
        # Ten shoot events: all touch the same ammo key, so each must
        # travel in its own block — but every one must complete.
        for seq in range(1, 11):
            shim.on_game_event(shoot(session, seq))
        session.run_until_idle()
        assert shim.stats.events_acked == 10
        assert shim.stats.rejected_events == 0
        state = session.chain.peers[0].ledger.state
        assert state.get(asset_key(shim.player, AssetId.AMMUNITION)) == 40


class TestTimeoutPath:
    def test_dead_orderer_times_out_cleanly(self):
        """If the ordering service disappears, pending events resolve as
        TIMEOUT rather than hanging the session."""
        session = make_session()
        shim = session.shims[0]
        shim.poll_timeout_ms = 2_000.0
        TakedownAttack([session.chain.orderer.name]).apply(session.chain.net)
        acks = []
        shim.on_ack = lambda e, ok, code, lat: acks.append(code)
        shim.on_game_event(shoot(session, 1))
        session.run_until_idle()
        assert acks == [TxValidationCode.TIMEOUT]
        assert shim.stats.rejections_by_code[TxValidationCode.TIMEOUT] == 1

    def test_timeout_with_a_batch_queued_behind_it(self):
        """The timeout's callback dispatches the queued batch, which
        submits from inside the poll tick; that batch then times out in
        turn, and polling stops once nothing is open."""
        session = make_session()
        shim = session.shims[0]
        shim.poll_timeout_ms = 2_000.0
        TakedownAttack([session.chain.orderer.name]).apply(session.chain.net)
        acks = []
        shim.on_ack = lambda e, ok, code, lat: acks.append((e.seq, code))
        start = session.now
        for seq in (1, 2, 3):
            shim.on_game_event(shoot(session, seq))
        assert shim.pending_count() == 1 and shim.pending_events() == 3
        session.run_until_idle()
        assert acks == [(seq, TxValidationCode.TIMEOUT) for seq in (1, 2, 3)]
        assert shim.stats.txs_dispatched == 2
        assert shim.completed_count == shim.submitted_count
        assert shim.pending_count() == 0 and shim.pending_events() == 0
        assert shim._poll_timer is None
        # Two timeouts back to back, then one idle tick at most.
        assert 4_000.0 < session.now - start < 4_000.0 + 3 * shim.poll_interval_ms
