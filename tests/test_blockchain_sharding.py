"""Tests for the sharded deployment (§8(5) future-work extension).

The deployment is :class:`BridgedShardEngine`: one chain per shard, each
on its own clock.  The earlier shared-clock deployment class is gone,
and the claim it made — "1 shard ≡ the unsharded chain, bit-identical" —
went with it; the 16-peers-in-2-shards latency comparison is kept here
on the engine.
"""

import pytest

from repro.blockchain import TxValidationCode
from repro.blockchain.shardworker import BridgedShardEngine
from repro.simnet import INTERNET_US, LAN_1GBPS

COUNTER = "conftest:CounterContract"  # tests/ is on pythonpath


def make_sharded(n_peers=8, n_shards=2, **kwargs):
    kwargs.setdefault("profile", LAN_1GBPS)
    kwargs.setdefault("seed", 1)
    return BridgedShardEngine(
        n_peers=n_peers, n_shards=n_shards, contract=COUNTER, **kwargs
    )


class TestConstruction:
    def test_peers_partitioned_across_shards(self):
        engine = make_sharded(10, 3)
        sizes = [len(world.chain.peers) for world in engine.worlds]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_peer_names_globally_unique(self):
        engine = make_sharded(8, 2)
        names = [p.name for world in engine.worlds for p in world.chain.peers]
        assert len(names) == len(set(names))

    def test_validation(self):
        with pytest.raises(ValueError):
            BridgedShardEngine(n_peers=4, n_shards=0)
        with pytest.raises(ValueError):
            BridgedShardEngine(n_peers=2, n_shards=3)

    def test_key_routing_stable_and_total(self):
        engine = make_sharded(8, 2)
        for key in ("ctr/a", "ctr/b", "asset/p1/6", "asset/p2/1"):
            index = engine.shard_index_for_key(key)
            assert index == engine.shard_index_for_key(key)
            assert 0 <= index < engine.n_shards


class TestOperation:
    def test_shards_commit_independently(self):
        engine = make_sharded(8, 2)
        results = []
        for i in range(engine.n_shards):
            engine.submit_invoke(
                i, "init", (f"c{i}",), (f"ctr/c{i}",),
                on_complete=lambda r, l: results.append(r.code),
                client_prefix=f"client{i}",
            )
        engine.run()
        assert results == [TxValidationCode.VALID] * 2
        # Each shard holds only its own keys.
        assert engine.committed_state_get(0, "ctr/c0") == 0
        assert engine.committed_state_get(0, "ctr/c1") is None
        assert engine.committed_state_get(1, "ctr/c1") == 0
        for summary in engine.collect_summaries().values():
            assert summary["synced_heights"] == [summary["committed_height"]]

    def test_one_clock_per_shard_in_step(self):
        """Every shard has its own network and clock; between runs they
        all sit at the bridge's horizon."""
        engine = make_sharded(8, 2)
        first, second = engine.worlds
        assert first.chain.net is not second.chain.net
        assert first.scheduler is not second.scheduler
        engine.submit_invoke(0, "init", ("c",), ("ctr/c",))
        engine.run()
        assert engine.bridge.horizon > 0
        assert first.scheduler.now == second.scheduler.now == engine.bridge.horizon

    def test_shard_latency_tracks_shard_size_not_room_size(self):
        """The point of sharding: a 16-peer room in 2 shards validates
        like an 8-peer room."""
        def avg_latency(engine):
            latencies = []

            def invoke(function, args):
                engine.submit_invoke(
                    0, function, args, ("ctr/m",),
                    on_complete=lambda r, l: latencies.append(l),
                    client_prefix="probe", poll_interval_ms=1000.0 / 35.0,
                )
                engine.run()

            invoke("init", ("m",))
            for _ in range(5):
                invoke("add", ("m", 1))
            return sum(latencies) / len(latencies)

        sharded = make_sharded(16, 2, profile=INTERNET_US, seed=2)
        whole = make_sharded(16, 1, profile=INTERNET_US, seed=2)
        assert avg_latency(sharded) < avg_latency(whole)
