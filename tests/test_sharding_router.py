"""Routing properties: stable crc32 sharding and the session router.

The router is the only thing standing between "session events go to the
right shard" and silent cross-shard state corruption, so its mapping
must be (a) deterministic across runs/platforms (crc32, never salted
``hash()``), (b) reasonably uniform so no shard becomes the hot spot,
and (c) session-colocating: every key of one session lands on one shard.
"""

import zlib

from repro.blockchain import TxValidationCode
from repro.blockchain.sharding import session_shard_key, shard_index_for_key
from repro.blockchain.shardworker import BridgedShardEngine
from repro.blockchain.swaps import session_key
from repro.core import ShardRouter
from repro.simnet import LAN_1GBPS


class TestShardIndexForKey:
    def test_matches_crc32_exactly(self):
        # Pin the function, not just its distribution: routing must be
        # crc32 (RFC 1950) so every platform and run agrees.
        for key in ("sess/g00042", "asset/sword", "", "üñí☃", "a" * 500):
            for n in (1, 2, 7, 64):
                expected = zlib.crc32(key.encode("utf-8")) % n
                assert shard_index_for_key(key, n) == expected

    def test_deterministic_across_calls(self):
        keys = [f"sess/g{i:05d}" for i in range(200)]
        first = [shard_index_for_key(k, 8) for k in keys]
        second = [shard_index_for_key(k, 8) for k in keys]
        assert first == second

    def test_uniformity_within_20_percent(self):
        # 10k synthetic session keys over 8 shards: each bucket within
        # ±20% of the ideal 1250.
        n_keys, n_shards = 10_000, 8
        counts = [0] * n_shards
        for i in range(n_keys):
            counts[shard_index_for_key(session_shard_key(f"g{i:05d}"), n_shards)] += 1
        ideal = n_keys / n_shards
        for shard, count in enumerate(counts):
            assert abs(count - ideal) <= 0.2 * ideal, (
                f"shard {shard} got {count}, ideal {ideal}"
            )

    def test_rejects_zero_shards(self):
        import pytest

        with pytest.raises(ValueError):
            shard_index_for_key("k", 0)


class TestSessionColocation:
    def test_all_keys_of_a_session_share_a_shard(self):
        engine = BridgedShardEngine(8, 4, profile=LAN_1GBPS, seed=3)
        for sid in (f"g{i:04d}" for i in range(50)):
            home = engine.shard_index_for_session(sid)
            for pid in ("p0", "p1", "p99"):
                key = session_key(sid, pid)
                # Player keys share the session prefix, so prefix-routing
                # must put them on the session's shard.
                assert key.startswith(session_shard_key(sid) + "/")
                assert engine.shard_index_for_key(session_shard_key(sid)) == home


class TestShardRouter:
    def make(self, n_shards=2):
        engine = BridgedShardEngine(
            n_peers=4 * n_shards, n_shards=n_shards, profile=LAN_1GBPS, seed=5
        )
        return engine, ShardRouter(engine)

    def test_routes_to_owning_shard_and_commits(self):
        engine, router = self.make()
        codes = []
        targets = []
        for i in range(12):
            sid = f"g{i:02d}"
            shard_index = router.submit_session_event(
                sid, "p0", 1, on_complete=lambda r, _l: codes.append(r.code)
            )
            assert shard_index == engine.shard_index_for_session(sid)
            targets.append((sid, shard_index))
        engine.run()
        assert codes == [TxValidationCode.VALID] * 12
        for sid, shard_index in targets:
            # The event's write is on its shard, and only there.
            key = session_key(sid, "p0")
            assert engine.committed_state_get(shard_index, key) == 1
            for other in range(engine.n_shards):
                if other != shard_index:
                    assert engine.committed_state_get(other, key) is None

    def test_per_shard_submission_counters(self):
        engine, router = self.make(n_shards=3)
        for i in range(30):
            router.submit_session_event(f"g{i:02d}", "p0", 1)
        assert sum(router.submitted_by_shard) == 30
        expected = [0, 0, 0]
        for i in range(30):
            expected[engine.shard_index_for_session(f"g{i:02d}")] += 1
        assert router.submitted_by_shard == expected
