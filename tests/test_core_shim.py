"""Tests for the shim: lanes, batching, feedback loop, delay accounting,
and equivalence between the live shim and the offline windowed model."""

import pytest

from repro.blockchain import FabricConfig, TxResult, TxValidationCode
from repro.core import GameSession, ShimConfig, count_delays
from repro.game import EventType, GameEvent, generate_session
from repro.simnet import LAN_1GBPS


def make_session(shim_config=None, fabric=None, n_peers=4, **kwargs):
    session = GameSession(
        n_peers=n_peers,
        profile=LAN_1GBPS,
        fabric_config=fabric,
        shim_config=shim_config,
        n_players=1,
        **kwargs,
    )
    session.setup()
    return session


def ev(session, seq, etype=EventType.SHOOT, **payload):
    payload.setdefault("count", 1)
    return GameEvent(
        t_ms=session.now, player=session.shims[0].player, etype=etype,
        payload=payload, seq=seq,
    )


class TestFeedbackLoop:
    def test_event_is_acked(self):
        acks = []
        session = make_session()
        session.shims[0].on_ack = lambda e, ok, code, lat: acks.append((e.seq, ok, code))
        session.inject_event(ev(session, 1))
        session.run_until_idle()
        assert acks == [(1, True, TxValidationCode.VALID)]

    def test_rejection_propagates_to_ack(self):
        acks = []
        session = make_session()
        session.shims[0].on_ack = lambda e, ok, code, lat: acks.append((ok, code))
        session.inject_event(ev(session, 1, count=500))  # more than the magazine
        session.run_until_idle()
        assert acks == [(False, TxValidationCode.CONTRACT_REJECTED)]

    def test_latency_recorded_per_event(self):
        session = make_session()
        session.inject_event(ev(session, 1))
        session.run_until_idle()
        stats = session.stats()
        assert len(stats.latencies_ms) == 1
        assert stats.latencies_ms[0] > 0

    def test_closed_shim_rejects_events(self):
        session = make_session()
        session.teardown()
        with pytest.raises(RuntimeError):
            session.shims[0].on_game_event(ev(session, 1))


class TestBatching:
    def test_consecutive_shoots_merge(self):
        """Five SHOOTs in flight-shadow become one decrement-by-five
        query object (§4.2.5's worked example)."""
        session = make_session()
        shim = session.shims[0]
        for seq in range(1, 6):
            shim.on_game_event(ev(session, seq))
        session.run_until_idle()
        stats = shim.stats
        assert stats.accepted_events == 5
        # First event dispatched alone; the other four merged into one tx.
        assert stats.txs_dispatched == 2
        assert stats.max_batch_size == 4
        # All four landed in the head-of-queue batch: none missed the
        # current validation window, so none count as delayed.
        assert stats.delayed_events == 0

    def test_interleaved_event_splits_batches(self):
        """A damage event between shoots consumes a sequence number and
        must close the open shoot batch (order preservation, §4.2.5)."""
        session = make_session()
        shim = session.shims[0]
        shim.on_game_event(ev(session, 1))
        shim.on_game_event(ev(session, 2))
        shim.on_game_event(ev(session, 3))
        shim.on_game_event(
            ev(session, 4, etype=EventType.DAMAGE, amount=10, t=session.now)
        )
        shim.on_game_event(ev(session, 5))
        shim.on_game_event(ev(session, 6))
        session.run_until_idle()
        # Shoot batches: [1](immediate) [2,3] [5,6]; seq 4 went to the
        # health lane.  5 cannot merge with [2,3] because 4 intervened.
        assert shim.stats.accepted_events == 6
        shoot_txs = shim.stats.txs_dispatched - 1  # minus the damage tx
        assert shoot_txs == 3

    def test_batching_disabled_queues_individually(self):
        session = make_session(shim_config=ShimConfig(batching=False))
        shim = session.shims[0]
        for seq in range(1, 6):
            shim.on_game_event(ev(session, seq))
        session.run_until_idle()
        assert shim.stats.txs_dispatched == 5
        # Events 3..5 queue behind event 2, missing the current window.
        assert shim.stats.delayed_events == 3

    def test_max_batch_bound(self):
        session = make_session(shim_config=ShimConfig(max_batch=3))
        shim = session.shims[0]
        for seq in range(1, 9):
            shim.on_game_event(ev(session, seq))
        session.run_until_idle()
        assert shim.stats.max_batch_size <= 3
        assert shim.stats.accepted_events == 8

    def test_location_batch_applies_latest(self):
        session = make_session()
        shim = session.shims[0]
        spawn = session.network.game_map.spawn_points[0]
        t0 = session.now
        for i in range(1, 5):
            shim.on_game_event(GameEvent(
                t_ms=t0, player=shim.player, etype=EventType.LOCATION,
                payload={"x": spawn[0] + 2.0 * i, "y": spawn[1], "t": t0 + 28.6 * i},
                seq=i,
            ))
        session.run_until_idle()
        from repro.game import AssetId, asset_key

        pos = session.chain.peers[0].ledger.state.get(
            asset_key(shim.player, AssetId.POSITION)
        )
        assert pos["x"] == spawn[0] + 8.0
        assert shim.stats.accepted_events == 4


class TestLanes:
    def test_multithreaded_lanes_run_concurrently(self):
        """Different asset types dispatch in parallel: a shoot does not
        wait behind an in-flight location update."""
        session = make_session()
        shim = session.shims[0]
        spawn = session.network.game_map.spawn_points[0]
        t0 = session.now
        shim.on_game_event(GameEvent(
            t_ms=t0, player=shim.player, etype=EventType.LOCATION,
            payload={"x": spawn[0] + 1.0, "y": spawn[1], "t": t0}, seq=1,
        ))
        shim.on_game_event(ev(session, 2))
        assert shim.stats.delayed_events == 0
        session.run_until_idle()
        assert shim.stats.accepted_events == 2

    def test_single_threaded_serialises_all_assets(self):
        session = make_session(shim_config=ShimConfig(multithreaded=False))
        shim = session.shims[0]
        spawn = session.network.game_map.spawn_points[0]
        t0 = session.now
        shim.on_game_event(GameEvent(
            t_ms=t0, player=shim.player, etype=EventType.LOCATION,
            payload={"x": spawn[0] + 1.0, "y": spawn[1], "t": t0}, seq=1,
        ))
        shim.on_game_event(ev(session, 2))
        # One lane only: the shoot waits behind the location update.
        assert len(shim._dispatcher.lanes) == 1
        assert shim.pending_events() == 2
        session.run_until_idle()
        assert shim.stats.accepted_events == 2


@pytest.fixture(scope="module")
def modelcheck():
    return generate_session("modelcheck", duration_ms=120_000.0, seed=5)


class TestReplayEndToEnd:
    def test_clean_demo_replay_no_rejections(self):
        demo = generate_session("shimtest", duration_ms=30_000.0, seed=11)
        session = GameSession(
            n_peers=4, profile=LAN_1GBPS,
            fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
            game_map=demo.game_map, player_names=[demo.player], n_players=1,
        )
        session.setup()
        session.play_demo(demo)
        session.run_until_idle()
        stats = session.stats()
        assert stats.events_received == len(demo)
        assert stats.rejected_events == 0
        assert stats.events_acked == len(demo)
        assert session.ledgers_agree()

    def test_offline_model_matches_live_shim_delays(self):
        """The windowed model used for the large-scale batching figures
        must agree with the live shim when the window matches the real
        per-batch validation time."""
        demo = generate_session("modelcheck", duration_ms=30_000.0, seed=5)
        fabric = FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True)
        session = GameSession(
            n_peers=4, profile=LAN_1GBPS, fabric_config=fabric,
            game_map=demo.game_map, player_names=[demo.player], n_players=1,
        )
        session.setup()
        session.play_demo(demo)
        session.run_until_idle()
        live = session.stats()

        window = live.avg_latency_ms
        model = count_delays(demo.events, window_ms=window, batching=True)
        assert model.events_received == live.events_received
        # The live pipeline's latency varies per batch while the model
        # uses a fixed window, so allow a coarse tolerance.
        assert model.delayed_events == pytest.approx(live.delayed_events, rel=0.5)

    @pytest.mark.parametrize("window,n_events", [  # 2010 events: the whole trace
        (29.0, 1000), (83.0, 2010), (143.0, 500), (143.0, 2010),
    ])
    @pytest.mark.parametrize("shim_config", [
        ShimConfig(),
        ShimConfig(batching=False),
        ShimConfig(multithreaded=False),
        ShimConfig(max_batch=3),
    ], ids=["default", "no-batching", "single-lane", "max-batch-3"])
    def test_model_equals_shim_with_a_fixed_window_validator(
        self, modelcheck, shim_config, window, n_events
    ):
        """With a validator that answers every batch VALID exactly
        ``window`` after dispatch, the live shim and the offline model
        fill the same dispatch and delay counters."""
        session = make_session(shim_config=shim_config)
        shim, scheduler = session.shims[0], session.scheduler
        completions = []

        def validate(contract, function, args, touched_keys=(), on_complete=None):
            done = scheduler.now + window
            completions.append(done)
            result = TxResult(tx_id=f"stub-{len(completions)}",
                              code=TxValidationCode.VALID)
            scheduler.call_at(done, on_complete, result, window)
            return result.tx_id

        shim.invoke = validate
        offset = session.now
        events = [
            GameEvent(offset + e.t_ms, e.player, e.etype, e.payload, e.seq)
            for e in modelcheck.events[:n_events]
        ]
        for event in events:
            scheduler.call_at(event.t_ms, shim.on_game_event, event)
        session.run_until_idle()
        # Ties between an arrival and a completion are ordered by the
        # scheduler, not by the policy; the prefixes here have none.
        assert not {e.t_ms for e in events} & set(completions)

        model = count_delays(
            events, window, batching=shim_config.batching,
            multithreaded=shim_config.multithreaded,
            max_batch=shim_config.max_batch,
        )
        for counter in (
            "events_received", "txs_dispatched", "batches_dispatched",
            "batched_events", "max_batch_size", "delayed_events",
            "accepted_events", "first_event_at", "last_ack_at",
        ):
            assert getattr(shim.stats, counter) == getattr(model, counter), counter

    def test_model_batching_reduces_delays_by_orders_of_magnitude(self):
        demo = generate_session("modelcheck2", duration_ms=120_000.0, seed=6)
        with_b = count_delays(demo.events, window_ms=147.0, batching=True)
        without = count_delays(demo.events, window_ms=147.0, batching=False)
        assert without.delayed_events >= 10 * max(with_b.delayed_events, 1)

    def test_model_rejects_bad_window(self):
        with pytest.raises(ValueError):
            count_delays([], window_ms=0.0)
