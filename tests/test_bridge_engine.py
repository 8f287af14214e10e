"""The conservative-lookahead time bridge and the bridged shard engine.

Unit layer: :class:`~repro.simnet.bridge.TimeBridge` epoch mechanics
against a scripted in-test shard world — horizon advance, fast-forward
over idle stretches, command/lookahead invariants, callback dispatch.

Integration layer: :class:`~repro.blockchain.shardworker.BridgedShardEngine`
running the sharded replay workload with shard worlds in-process
(``procs=1``) and across spawned worker processes (``procs=2``) —
``sim_metrics`` (ledgers, state hashes, swap outcomes, scheduler event
counts) must be *bit-identical*, the tentpole guarantee of DESIGN.md §13.
"""

from __future__ import annotations

import multiprocessing
from types import SimpleNamespace

import pytest

from repro.blockchain.codec import encode
from repro.blockchain.shardworker import (
    BridgedShardEngine,
    BridgeSwapPort,
    LocalShardGroupPort,
    ProcessShardGroupPort,
    shard_specs,
)
from repro.blockchain.swaps import SwapCoordinator, check_conservation_summaries
from repro.core.shim import ShardRouter
from repro.simnet.bridge import (
    DEFAULT_LOOKAHEAD_MS,
    BridgeError,
    ShardGroupPort,
    TimeBridge,
)
from repro.simnet.clock import Scheduler

# ---------------------------------------------------------------------
# a scripted shard world for unit-testing the bridge


class ScriptedPort(ShardGroupPort):
    """One fake shard: executes ``invoke`` commands at their effect time
    and immediately emits a completion event carrying the payload."""

    def __init__(self, index: int):
        self.shard_indices = (index,)
        self.index = index
        self.scheduler = Scheduler()
        self.executed = []  # (time, payload)
        self._events = []
        self._seq = 0
        self._stats = None

    def _execute(self, payload):
        self.executed.append((self.scheduler.now, payload))
        self._seq += 1
        self._events.append(
            (self.scheduler.now, self.index, self._seq, "complete", payload)
        )

    def begin_epoch(self, until, commands):
        for command in commands.get(self.index, ()):
            _seq, effect_time, _op, payload = command
            self.scheduler.call_at(effect_time, self._execute, payload)
        self.scheduler.run(until=until)
        events, self._events = self._events, []
        self._stats = (
            events,
            {
                self.index: {
                    "pending": self.scheduler.pending,
                    "next_when": self.scheduler.next_when(),
                }
            },
        )

    def finish_epoch(self):
        stats, self._stats = self._stats, None
        return stats

    def collect_summaries(self):
        return {self.index: {"executed": len(self.executed)}}

    def close(self):
        pass


def test_lookahead_must_be_positive():
    with pytest.raises(BridgeError):
        TimeBridge([ScriptedPort(0)], lookahead_ms=0.0)


def test_duplicate_shard_rejected():
    with pytest.raises(BridgeError):
        TimeBridge([ScriptedPort(0), ScriptedPort(0)])


def test_submit_unknown_shard_rejected():
    bridge = TimeBridge([ScriptedPort(0)])
    with pytest.raises(BridgeError):
        bridge.submit(3, "invoke", {})


def test_reactive_submit_pays_one_lookahead_window():
    bridge = TimeBridge([ScriptedPort(0)], lookahead_ms=7.0)
    assert bridge.submit(0, "invoke", (1, "cb", None, 0.0)) == 7.0


def test_commands_execute_at_their_effect_times():
    port = ScriptedPort(0)
    bridge = TimeBridge([port], lookahead_ms=5.0)
    for t in (12.0, 3.0, 40.0):
        bridge.submit(0, "invoke", (None, f"p{t}"), effect_time=t)
    bridge.run()
    assert [(t, p[1]) for t, p in port.executed] == [
        (3.0, "p3.0"), (12.0, "p12.0"), (40.0, "p40.0")
    ]
    assert bridge.horizon >= 40.0
    assert bridge.quiescent()


def test_fast_forward_skips_idle_stretches():
    """One far-future command must not cost thousands of 5ms epochs."""
    port = ScriptedPort(0)
    bridge = TimeBridge([port], lookahead_ms=5.0)
    bridge.submit(0, "invoke", (None, "late"), effect_time=100_000.0)
    bridge.run()
    assert port.executed[0][0] == 100_000.0
    assert bridge.rounds <= 3


def test_effect_before_horizon_rejected_at_horizon_allowed():
    port = ScriptedPort(0)
    bridge = TimeBridge([port], lookahead_ms=5.0)
    bridge.submit(0, "invoke", (None, "a"), effect_time=10.0)
    bridge.run()
    horizon = bridge.horizon
    with pytest.raises(BridgeError):
        bridge.submit(0, "invoke", (None, "too-late"), effect_time=horizon - 0.001)
    # the boundary itself is schedulable: shard clocks sit exactly at
    # the horizon between rounds
    bridge.submit(0, "invoke", (None, "boundary"), effect_time=horizon)
    bridge.run()
    assert [p[1] for _t, p in port.executed] == ["a", "boundary"]


def test_completion_callbacks_dispatch_once_on_control_clock():
    port = ScriptedPort(0)
    bridge = TimeBridge([port], lookahead_ms=5.0)
    seen = []
    cb = bridge.register_callback(lambda *args: seen.append((bridge.now, args)))
    bridge.submit(0, "invoke", (cb, "result", 1.5), effect_time=20.0)
    bridge.run()
    assert seen == [(20.0, ("result", 1.5))]
    assert cb not in bridge._callbacks  # one-shot


def test_merge_order_is_placement_independent():
    """Events from different shards at equal times merge by shard index."""
    ports = [ScriptedPort(0), ScriptedPort(1)]
    bridge = TimeBridge(ports, lookahead_ms=5.0)
    order = []
    for shard in (1, 0):  # submit in reverse shard order on purpose
        cb = bridge.register_callback(
            lambda *args, s=shard: order.append(s)
        )
        bridge.submit(shard, "invoke", (cb, "x", 0.0), effect_time=30.0)
    bridge.run()
    assert order == [0, 1]


def test_reactive_resubmission_from_callback_lands_next_round():
    """A callback that submits reactively must not violate the horizon."""
    port = ScriptedPort(0)
    bridge = TimeBridge([port], lookahead_ms=5.0)
    done = []

    def chain(*_args):
        cb2 = bridge.register_callback(lambda *a: done.append(bridge.now))
        bridge.submit(0, "invoke", (cb2, "second", 0.0))  # reactive

    cb1 = bridge.register_callback(chain)
    bridge.submit(0, "invoke", (cb1, "first", 0.0), effect_time=10.0)
    bridge.run()
    assert done == [15.0]  # 10.0 + one lookahead window
    assert bridge.quiescent()


# ---------------------------------------------------------------------
# engine facade + placement bit-identity


ENGINE_KW = dict(n_peers=4, n_shards=2, seed=11)


def test_shard_specs_mirror_deployment_sizing():
    from repro.blockchain.config import FabricConfig

    specs = shard_specs(10, 3, FabricConfig(), seed=5)
    assert [s["n_peers"] for s in specs] == [4, 3, 3]
    assert [s["seed"] for s in specs] == [5, 6, 7]
    assert all(s["ca_seed"] == 5 for s in specs)
    assert [s["name_prefix"] for s in specs] == ["s0-", "s1-", "s2-"]


def test_engine_routes_and_completes():
    with BridgedShardEngine(**ENGINE_KW) as engine:
        shard = engine.shard_index_for_session("g00000")
        results = []
        engine.submit_invoke(
            shard, "mint", ("a1", "g00000", 5),
            touched_keys=("asset/a1",),
            on_complete=lambda res, lat: results.append((res.code, lat)),
            effect_time=0.0,
        )
        engine.run()
        assert results and results[0][0] == "VALID"
        summaries = engine.collect_summaries()
        assert sorted(summaries) == [0, 1]
        assert summaries[shard]["assets"]["a1"]["owner"] == "g00000"


def test_router_submits_through_engine():
    with BridgedShardEngine(**ENGINE_KW) as engine:
        router = ShardRouter(engine)
        results = []
        router.submit(
            "g00000", "mint", ("a2", "g00000", 7),
            touched_keys=("asset/a2",),
            on_complete=lambda res, lat: results.append(res.code),
            effect_time=0.0,
        )
        engine.run()
        assert results == ["VALID"]


def test_summaries_follow_the_bridge():
    """A collection made mid-run must not be served again later."""
    with BridgedShardEngine(**ENGINE_KW) as engine:
        engine.submit_invoke(
            0, "mint", ("a1", "alice", 5), touched_keys=("asset/a1",),
            effect_time=50.0,
        )
        engine.call_at(1.0, engine.collect_summaries)
        engine.run()
        assert engine.collect_summaries()[0]["assets"] == {
            "a1": {"owner": "alice", "value": 5}
        }
        assert engine.committed_heights() == [1, 0]


def test_worlds_is_the_local_placement_only():
    with BridgedShardEngine(**ENGINE_KW) as engine:
        assert [world.index for world in engine.worlds] == [0, 1]
    with BridgedShardEngine(procs=2, **ENGINE_KW) as engine:
        with pytest.raises(RuntimeError, match="procs=1"):
            engine.worlds


def test_killed_worker_surfaces_as_bridge_error():
    engine = BridgedShardEngine(procs=2, **ENGINE_KW)
    try:
        port = engine.bridge.ports[1]
        port._process.kill()
        engine.submit_invoke(0, "mint", ("a1", "alice", 5), effect_time=0.0)
        with pytest.raises(BridgeError) as caught:
            engine.run()
        message = str(caught.value)
        assert port._process.name in message
        assert "shards [1]" in message
        assert "exit code -9" in message
    finally:
        engine.close()
    assert not any(p._process.is_alive() for p in engine.bridge.ports)


class _FakeConn:
    """A pipe end that hands out one canned reply."""

    def __init__(self, data: bytes):
        self.data = data

    def recv_bytes(self) -> bytes:
        return self.data


def _port_replying(data: bytes) -> ProcessShardGroupPort:
    port = ProcessShardGroupPort.__new__(ProcessShardGroupPort)
    port.shard_indices = (0, 2)
    port._conn = _FakeConn(data)
    port._process = SimpleNamespace(name="shardworker-0-2")
    return port


@pytest.mark.parametrize(
    "data",
    [
        encode(("events", [], {0: {"pending": 0}}))[:-1],
        encode(5),
        encode(()),
        encode(("value", None)),
    ],
    ids=["truncated", "not-a-tuple", "empty-tuple", "wrong-kind"],
)
def test_malformed_worker_reply_names_the_worker(data):
    with pytest.raises(BridgeError) as caught:
        _port_replying(data).finish_epoch()
    assert "worker shardworker-0-2 hosting shards [0, 2]" in str(caught.value)


def test_aggregate_telemetry_matches_worker_summaries():
    from repro.telemetry import Telemetry

    with BridgedShardEngine(procs=2, **ENGINE_KW) as engine:
        for shard in (0, 1):
            engine.submit_invoke(
                shard, "mint", (f"a{shard}", "alice", 5),
                touched_keys=(f"asset/a{shard}",), effect_time=0.0,
            )
        engine.run()
        telemetry = Telemetry()
        engine.aggregate_telemetry(telemetry)
        summaries = engine.collect_summaries()
    checked = 0
    for shard, summary in summaries.items():
        for name, value in summary["counters"].items():
            counter = telemetry.registry.get(
                f"repro_shard_{name}_total", shard=str(shard)
            )
            assert (counter.value if counter is not None else 0) == value
            checked += value > 0
    assert checked == 2 * 3  # both shards submitted, completed, committed


def test_failed_sharded_replay_leaves_no_worker_alive(monkeypatch):
    from repro.perf.workloads import sharded_replay

    def explode(*_args, **_kwargs):
        raise RuntimeError("swap start failed")

    monkeypatch.setattr(SwapCoordinator, "start_swap", explode)
    with pytest.raises(RuntimeError, match="swap start failed"):
        sharded_replay(procs=2, **SMALL_REPLAY)
    assert multiprocessing.active_children() == []


def _darken(world, keep=0):
    """Take the world's peers down, all but the first ``keep``."""
    for peer in world.chain.peers[keep:]:
        world.chain.net.condition(peer.name).down = True


def test_dark_shard_is_unobservable_not_destroyed():
    with BridgedShardEngine(**ENGINE_KW) as engine:
        minted = {}
        for shard, aid in ((0, "a0"), (1, "a1")):
            minted[aid] = 5
            engine.submit_invoke(
                shard, "mint", (aid, "alice", 5),
                touched_keys=(f"asset/{aid}",), effect_time=0.0,
            )
        engine.run()
        world = engine.worlds[1]
        # One reachable peer is enough to read the shard...
        _darken(world, keep=1)
        assert world._reference_peer() is world.chain.peers[0]
        assert engine.committed_state_get(1, "asset/a1")["value"] == 5
        # ...with none, the shard answers but shows nothing.
        _darken(world)
        summary = engine.collect_summaries()[1]
        assert summary["readable"] is False
        assert summary["assets"] == {} and summary["locks"] == {}
        assert summary["committed_height"] == 1
        assert engine.committed_state_get(1, "asset/a1") is None
        for quiescent in (False, True):
            assert check_conservation_summaries(
                engine.collect_summaries(), minted, quiescent=quiescent
            ) == []
        # Positive evidence is still judged: a0's value is observable.
        problems = check_conservation_summaries(
            engine.collect_summaries(), dict(minted, a0=6), quiescent=False
        )
        assert problems == ["asset a0 value changed: 5 != minted 6"]


def test_swap_commits_across_shards():
    with BridgedShardEngine(**ENGINE_KW) as engine:
        src = engine.shard_index_for_session("g00000")
        dst = next(
            engine.shard_index_for_session(f"g{i:05d}")
            for i in range(1, 50)
            if engine.shard_index_for_session(f"g{i:05d}") != src
        )
        owner = "g00000"
        engine.submit_invoke(
            src, "mint", ("swapme", owner, 42),
            touched_keys=("asset/swapme",), effect_time=0.0,
        )
        engine.run()
        coordinator = SwapCoordinator(port=BridgeSwapPort(engine))
        assert coordinator.timeout_ms == engine.config.swap_timeout_ms
        engine.call_at(
            engine.now, coordinator.start_swap,
            "s1", "swapme", src, dst, "g00099", 42,
        )
        engine.run()
        assert coordinator.outcomes() == {"committed": 1}
        summaries = engine.collect_summaries()
        assert "swapme" in summaries[dst]["assets"]
        assert "swapme" not in summaries[src]["assets"]
        assert summaries[dst]["locks"] == {} and summaries[src]["locks"] == {}


def test_local_port_roundtrips_frames_through_codec():
    """The in-process placement must exercise the same wire format."""
    from repro.blockchain.config import FabricConfig

    specs = shard_specs(2, 1, FabricConfig(verify_signatures=False), seed=3)
    port = LocalShardGroupPort(specs)
    port.begin_epoch(50.0, {})
    events, stats = port.finish_epoch()
    assert events == []
    assert stats[0]["pending"] == 0
    summaries = port.collect_summaries()
    assert summaries[0]["committed_height"] == 0
    port.close()


SMALL_REPLAY = dict(
    n_shards=2, n_peers=4, n_sessions=8, players_per_session=4,
    n_events=60, swap_fraction=0.05, seed=11,
)


def _replay_metrics(procs: int):
    from repro.perf.workloads import sharded_replay

    return sharded_replay(procs=procs, **SMALL_REPLAY).sim_metrics


def test_procs_placements_are_bit_identical():
    """The tentpole: worker-process execution changes wall time only."""
    serial = _replay_metrics(procs=1)
    parallel = _replay_metrics(procs=2)
    assert serial == parallel
    # and the run did real work end to end
    assert serial["accepted"] == SMALL_REPLAY["n_events"]
    assert serial["swap_outcomes"] == {"committed": 3}
    assert serial["conservation_problems"] == []
    assert all(serial["ledgers_agree"])
    assert len(serial["state_hashes"]) == SMALL_REPLAY["n_shards"]
    assert serial["bridge_rounds"] > 0
