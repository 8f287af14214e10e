"""Shard routing — the one home of "which shard owns this key".

The paper's §8(5) names sharding as the way past its validation-latency
wall: partition the room into independent chains so consensus, vote
traffic and ledger sync scale with the *shard* size instead of the room
size.  The deployment itself is
:class:`~repro.blockchain.shardworker.BridgedShardEngine`; this module
holds only the mapping it, the router and the session pool share.
Sessions and state-key prefixes map to shards by an explicit crc32 hash,
never by anything interpreter- or process-dependent.
"""

from __future__ import annotations

import zlib

__all__ = ["shard_index_for_key", "session_shard_key"]


def shard_index_for_key(key: str, n_shards: int) -> int:
    """Stable shard routing: crc32 of the key's UTF-8 bytes, mod shards.

    crc32 is part of the zlib format (RFC 1950) and returns the same
    value on every platform, interpreter and run — unlike ``hash()``,
    which is salted per process.  The same polynomial already buckets
    keys inside :meth:`~repro.blockchain.state.WorldState.state_hash`,
    so routing and state hashing share one well-understood function.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    return zlib.crc32(key.encode("utf-8")) % n_shards


def session_shard_key(session_id: str) -> str:
    """The routing key of a whole game session.

    Every state key of a session shares the ``sess/<id>`` prefix, so
    hashing the *prefix* (not the full key) colocates a session's entire
    key space on one shard — the zone/session partitioning move of the
    MMOG scaling literature.
    """
    return f"sess/{session_id}"
