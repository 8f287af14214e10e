"""The cross-shard swap protocol: prepare/commit/abort state machines.

Every test ends with :func:`check_conservation_summaries` because that
is the protocol's whole contract: whatever the interleaving — happy
path, rejection, timeout, coordinator death on either side of the point
of no return — the asset exists exactly once and no lock survives
quiescence.

The coordinator-crash cases run on both placements of the engine
(``procs=1`` in-process worlds, ``procs=2`` worker processes): recovery
reads committed state through the bridge's ``get`` frame, so the
``recover()`` action lists must be identical.
"""

from repro.blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
from repro.blockchain.swaps import (
    OUTCOME_ABORTED,
    OUTCOME_COMMITTED,
    OUTCOME_TIMED_OUT,
    SwapCoordinator,
    SwapState,
    asset_key,
    check_conservation_summaries,
    lock_key,
)
from repro.simnet import LAN_1GBPS

PLACEMENTS = (1, 2)


def make_engine(procs=1, n_shards=2, seed=9):
    return BridgedShardEngine(
        n_peers=4 * n_shards, n_shards=n_shards, profile=LAN_1GBPS, seed=seed,
        procs=procs,
    )


def mint(engine, shard, asset_id="gem", owner="alice", value=7):
    codes = []
    engine.submit_invoke(
        shard, "mint", (asset_id, owner, value),
        touched_keys=(asset_key(asset_id),),
        on_complete=lambda r, _l: codes.append(r.code),
        client_prefix="minter",
    )
    engine.run()
    assert codes == ["VALID"]
    return {asset_id: value}


def conservation(engine, minted, quiescent):
    return check_conservation_summaries(
        engine.collect_summaries(), minted, quiescent=quiescent
    )


class TestHappyPath:
    def test_commit_moves_asset_exactly_once(self):
        with make_engine() as engine:
            minted = mint(engine, 0)
            coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
            swap = coordinator.start_swap("sw1", "gem", 0, 1, "bob", 7)
            engine.run()
            assert swap.state is SwapState.COMMITTED
            assert swap.outcome == OUTCOME_COMMITTED
            assert engine.committed_state_get(0, asset_key("gem")) is None
            record = engine.committed_state_get(1, asset_key("gem"))
            assert record == {"owner": "bob", "value": 7}
            for shard in (0, 1):
                assert engine.committed_state_get(shard, lock_key("gem")) is None
            assert conservation(engine, minted, quiescent=True) == []

    def test_same_shard_swap_degenerates_to_transfer(self):
        with make_engine() as engine:
            minted = mint(engine, 0)
            coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
            swap = coordinator.start_swap("sw1", "gem", 0, 0, "bob", 7)
            engine.run()
            assert swap.outcome == OUTCOME_COMMITTED
            record = engine.committed_state_get(0, asset_key("gem"))
            assert record == {"owner": "bob", "value": 7}
            assert conservation(engine, minted, quiescent=True) == []

    def test_outcomes_tally(self):
        with make_engine() as engine:
            minted = mint(engine, 0)
            coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
            coordinator.start_swap("sw1", "gem", 0, 1, "bob", 7)
            coordinator.start_swap("sw2", "ghost", 0, 1, "bob", 1)  # no such asset
            engine.run()
            assert coordinator.outcomes() == {"aborted": 1, "committed": 1}
            assert coordinator.unresolved() == []
            assert conservation(engine, minted, quiescent=True) == []


class TestAborts:
    def test_missing_asset_rejects_prepare_and_aborts(self):
        with make_engine() as engine:
            coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
            swap = coordinator.start_swap("sw1", "nosuch", 0, 1, "bob", 1)
            engine.run()
            assert swap.state is SwapState.ABORTED
            assert swap.outcome == OUTCOME_ABORTED
            assert conservation(engine, {}, quiescent=True) == []

    def test_destination_refusal_releases_source_lock(self):
        with make_engine() as engine:
            mint(engine, 0)
            # The destination already holds a same-id asset, so prepare_in
            # must reject and the source lock must be rolled back.
            mint(engine, 1, owner="eve")
            coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
            swap = coordinator.start_swap("sw1", "gem", 0, 1, "bob", 7)
            engine.run()
            assert swap.state is SwapState.ABORTED
            assert swap.outcome == OUTCOME_ABORTED
            # Source copy untouched, still owned by alice, lock released.
            record = engine.committed_state_get(0, asset_key("gem"))
            assert record == {"owner": "alice", "value": 7}
            assert engine.committed_state_get(0, lock_key("gem")) is None

    def test_timeout_aborts_and_releases_locks(self):
        with make_engine() as engine:
            minted = mint(engine, 0)
            # Timer far shorter than a commit round-trip: it fires while the
            # prepare is still in flight, and the late VALID prepare's lock
            # must be released by its own completion callback.
            coordinator = SwapCoordinator(
                port=BridgeSwapPort(engine), timeout_ms=1.0
            )
            swap = coordinator.start_swap("sw1", "gem", 0, 1, "bob", 7)
            engine.run()
            assert swap.state is SwapState.ABORTED
            assert swap.outcome == OUTCOME_TIMED_OUT
            for shard in (0, 1):
                assert engine.committed_state_get(shard, lock_key("gem")) is None
            record = engine.committed_state_get(0, asset_key("gem"))
            assert record == {"owner": "alice", "value": 7}
            assert conservation(engine, minted, quiescent=True) == []


class TestCoordinatorCrash:
    def test_crash_between_prepare_and_commit_presumes_abort(self):
        def scenario(procs):
            with make_engine(procs) as engine:
                minted = mint(engine, 0)
                coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
                # Die at the exact point of maximum danger: both locks
                # committed, commit_out not yet submitted.
                coordinator._begin_commit = lambda swap: coordinator.crash()
                swap = coordinator.start_swap("sw1", "gem", 0, 1, "bob", 7)
                engine.run()
                assert coordinator.crashed
                assert swap.state is SwapState.PREPARED
                assert engine.committed_state_get(0, lock_key("gem")) is not None
                assert engine.committed_state_get(1, lock_key("gem")) is not None
                # Mid-crash the asset still exists exactly once (on the source).
                assert conservation(engine, minted, quiescent=False) == []

                coordinator.restart()
                del coordinator.__dict__["_begin_commit"]
                actions = coordinator.recover()
                engine.run()
                assert swap.state is SwapState.ABORTED
                record = engine.committed_state_get(0, asset_key("gem"))
                assert record == {"owner": "alice", "value": 7}
                assert conservation(engine, minted, quiescent=True) == []
                return actions

        for procs in PLACEMENTS:
            assert scenario(procs) == [("sw1", "presumed-abort")], procs

    def test_crash_after_commit_out_rolls_forward(self):
        def scenario(procs):
            with make_engine(procs) as engine:
                minted = mint(engine, 0)
                coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
                # Die just past the point of no return: the source tombstone
                # is committed, the value lives only in the destination lock.
                coordinator._submit_commit_in = (
                    lambda swap, retries: coordinator.crash()
                )
                swap = coordinator.start_swap("sw1", "gem", 0, 1, "bob", 7)
                engine.run()
                assert coordinator.crashed
                assert engine.committed_state_get(0, asset_key("gem")) is None
                assert engine.committed_state_get(1, lock_key("gem")) is not None
                # The in-flight lock still carries the asset — not destroyed.
                assert conservation(engine, minted, quiescent=False) == []

                coordinator.restart()
                del coordinator.__dict__["_submit_commit_in"]
                actions = coordinator.recover()
                engine.run()
                assert swap.state is SwapState.COMMITTED
                assert swap.outcome == OUTCOME_COMMITTED
                record = engine.committed_state_get(1, asset_key("gem"))
                assert record == {"owner": "bob", "value": 7}
                assert conservation(engine, minted, quiescent=True) == []
                return actions

        for procs in PLACEMENTS:
            assert scenario(procs) == [("sw1", "roll-forward")], procs

    def test_recovery_before_late_prepare_needs_lock_sweep(self):
        def scenario(procs):
            with make_engine(procs) as engine:
                minted = mint(engine, 0)
                coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
                actions = []

                def recover():
                    coordinator.restart()
                    # The prepare is still in flight: no lock is visible yet,
                    # so recovery presumes the swap fully aborted...
                    actions.extend(coordinator.recover())

                start = engine.now
                engine.call_at(start + 0.5, coordinator.start_swap,
                               "sw1", "gem", 0, 1, "bob", 7)
                engine.call_at(start + 1.0, coordinator.crash)
                engine.call_at(start + 1.5, recover)
                engine.run()
                # ... but the orphaned prepare then commits, leaking a lock no
                # live state machine owns.
                assert engine.committed_state_get(0, lock_key("gem")) is not None
                problems = conservation(engine, minted, quiescent=True)
                assert any("leaked lock" in p for p in problems)
                # The janitor releases it; the asset itself was never at risk.
                assert coordinator.sweep_stale_locks() == 1
                engine.run()
                assert coordinator.sweep_stale_locks() == 0
                assert engine.committed_state_get(0, lock_key("gem")) is None
                assert conservation(engine, minted, quiescent=True) == []
                return actions

        for procs in PLACEMENTS:
            assert scenario(procs) == [("sw1", "already-aborted")], procs
