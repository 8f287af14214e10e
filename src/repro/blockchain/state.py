"""Versioned world-state key-value store with MVCC semantics.

Fabric v1.0 validates transactions against the *versions* of the keys
they read: a transaction whose read set mentions a key at version ``v``
is invalidated if the committed version has moved past ``v`` — including
when an earlier transaction *in the same block* wrote the key ("Fabric
acquires a block-level read/write lock on the KVS", §6).  This is the
mechanism the paper's per-player-per-asset KVS split (§6 optimisation i)
exists to sidestep, so we implement it exactly.

Two host-performance properties of this module matter at scale (they do
not change any *simulated* result):

* ``state_hash()`` is **incremental**: every entry carries a digest
  binding ``(key, value, version)``, entries are spread over a fixed set
  of buckets by key hash, and only buckets dirtied since the last call
  are re-hashed.  A sync round after a 5-transaction block therefore
  costs O(written keys), not O(total state) — the difference between 64
  peers re-serialising a 30 000-key state per block and not.
* ``copy()`` is **copy-on-write**: the clone shares the backing dicts
  with the original until either side first mutates, and
  :meth:`overlay` gives an O(1) transactional view for speculative
  execution that never duplicates the KVS at all.

Stored values are treated as immutable: mutate-in-place without a
``put()`` is undefined behaviour (the contract determinism linter
enforces the copy-before-mutate discipline at the source level).

A committed entry is built once, by :func:`prepare_entry`: the key, a
frozen :class:`VersionedValue`, its bucket and its digest.  ``put`` goes
through it, and the ledger inserts the entry that the shared ``RWSet``
already prepared (:meth:`~repro.blockchain.transaction.RWSet.entries`),
so the peers of one process hold one ``VersionedValue`` and one digest
string per committed write, not one each.  Only immutable objects are
shared this way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .crypto import canonical_digest, sha256_hex

__all__ = [
    "PreparedEntry",
    "Version",
    "VersionedValue",
    "WorldState",
    "WorldStateOverlay",
    "prepare_entry",
]

#: Number of hash buckets the incremental state digest spreads keys over.
#: Fixed scheme-wide: two states are equal iff their roots are equal, so
#: every peer must bucket identically.
STATE_HASH_BUCKETS = 64


@dataclass(frozen=True, order=True)
class Version:
    """Height of the last write to a key: (block number, tx index)."""

    block: int
    tx: int

    def to_tuple(self) -> Tuple[int, int]:
        return (self.block, self.tx)


#: Version assigned to keys written by the genesis configuration.
GENESIS_VERSION = Version(0, 0)


@dataclass(frozen=True)
class VersionedValue:
    value: Any
    version: Version


#: ``(key, entry, bucket index, entry digest)`` — one committed write,
#: ready for :meth:`WorldState.insert`.
PreparedEntry = Tuple[str, VersionedValue, int, str]


def _bucket_of(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) % STATE_HASH_BUCKETS


def _entry_digest(key: str, entry: VersionedValue) -> str:
    version = entry.version.to_tuple() if entry.version is not None else None
    return canonical_digest([key, entry.value, version])


def prepare_entry(key: str, value: Any, version: Version) -> PreparedEntry:
    """The one way to build a committed entry: its digest binds
    ``(key, value, version)``."""
    entry = VersionedValue(value=value, version=version)
    return (key, entry, _bucket_of(key), _entry_digest(key, entry))


class WorldState:
    """The world state: a key → (value, version) map.

    Keys are plain strings; the smart-contract layer builds composite keys
    such as ``"asset/<player>/<assetId>"`` (per-player per-asset split) or
    ``"player/<player>"`` (the conflict-prone monolithic layout).
    """

    __slots__ = ("_data", "_buckets", "_bucket_digest", "_dirty", "_root", "_shared")

    def __init__(self) -> None:
        self._data: Dict[str, VersionedValue] = {}
        #: bucket index -> {key: entry digest}
        self._buckets: List[Dict[str, str]] = [
            {} for _ in range(STATE_HASH_BUCKETS)
        ]
        self._bucket_digest: List[Optional[str]] = [None] * STATE_HASH_BUCKETS
        self._dirty: Set[int] = set(range(STATE_HASH_BUCKETS))
        self._root: Optional[str] = None
        #: True while the backing dicts may be shared with a COW clone.
        self._shared = False

    # ------------------------------------------------------------------
    # reads

    def get(self, key: str) -> Optional[Any]:
        entry = self._data.get(key)
        return entry.value if entry is not None else None

    def get_versioned(self, key: str) -> Optional[VersionedValue]:
        return self._data.get(key)

    def version_of(self, key: str) -> Optional[Version]:
        entry = self._data.get(key)
        return entry.version if entry is not None else None

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        return iter(self._data.items())

    def snapshot(self) -> Dict[str, Any]:
        """Plain value snapshot (for assertions and state transfer)."""
        return {k: v.value for k, v in self._data.items()}

    # ------------------------------------------------------------------
    # writes

    def _ensure_private(self) -> None:
        """Detach from any copy-on-write siblings before mutating."""
        if self._shared:
            self._data = dict(self._data)
            self._buckets = [dict(b) for b in self._buckets]
            self._bucket_digest = list(self._bucket_digest)
            self._dirty = set(self._dirty)
            self._shared = False

    def put(self, key: str, value: Any, version: Version) -> None:
        self.insert(prepare_entry(key, value, version))

    def insert(self, prepared: PreparedEntry) -> None:
        """Store an entry from :func:`prepare_entry`.  The entry and its
        digest are immutable, so states may share them."""
        self._ensure_private()
        key, entry, bucket, digest = prepared
        self._data[key] = entry
        self._buckets[bucket][key] = digest
        self._dirty.add(bucket)
        self._root = None

    def delete(self, key: str) -> None:
        self._ensure_private()
        if self._data.pop(key, None) is not None:
            bucket = _bucket_of(key)
            self._buckets[bucket].pop(key, None)
            self._dirty.add(bucket)
            self._root = None

    # ------------------------------------------------------------------
    # hashing

    def state_hash(self) -> str:
        """Deterministic digest of the full state, used by the ledger-sync
        round: peers agree a block is synchronised when their state hashes
        match.

        Incrementally maintained: per-entry digests are combined into
        per-bucket digests (entries sorted by key), the root is the hash
        of the bucket digest vector, and only dirty buckets are
        recomputed.  Values are scheme-specific (they changed when this
        scheme replaced the full sorted-JSON re-hash) but the only
        operation the platform ever performs on them is *equality*, which
        is preserved: equal states hash equally, diverged states differ.
        """
        if self._root is not None and not self._dirty:
            return self._root
        for index in self._dirty:
            bucket = self._buckets[index]
            if bucket:
                digest = sha256_hex(
                    "\x00".join(bucket[key] for key in sorted(bucket))
                )
            else:
                digest = ""
            self._bucket_digest[index] = digest
        self._dirty.clear()
        self._root = sha256_hex("\x01".join(d or "" for d in self._bucket_digest))
        return self._root

    # ------------------------------------------------------------------
    # copies and views

    def copy(self) -> "WorldState":
        """A fully independent clone, copy-on-write: O(1) now, the first
        mutation on either side pays one flat dict copy."""
        clone = WorldState.__new__(WorldState)
        self._shared = True
        clone._data = self._data
        clone._buckets = self._buckets
        clone._bucket_digest = self._bucket_digest
        clone._dirty = self._dirty
        clone._root = self._root
        clone._shared = True
        return clone

    def overlay(self) -> "WorldStateOverlay":
        """An O(1) transactional view over this state (see
        :class:`WorldStateOverlay`)."""
        return WorldStateOverlay(self)


class WorldStateOverlay:
    """A copy-on-write view over a base :class:`WorldState`.

    Reads fall through to the base; writes and deletes stay local until
    :meth:`commit_to_base`.  This is what speculative execution uses
    while a block's transactions run in order against a consistent
    prefix (the base is the last committed state; earlier in-block
    writes live in the overlay), and what the chaos monitor's shadow
    MVCC replay uses instead of cloning a whole KVS per peer.

    :meth:`put_speculative` records a value *without* bumping its
    version: readers observe the overlaid value at the base's committed
    version, which is exactly Fabric's execution-stage semantics — the
    read set must witness committed versions, and an in-block read-after
    -write is surfaced as a block-level KVS conflict, not hidden by a
    speculative version bump.
    """

    __slots__ = ("_base", "_entries", "_deleted")

    def __init__(self, base: WorldState):
        self._base = base
        self._entries: Dict[str, VersionedValue] = {}
        self._deleted: Set[str] = set()

    # ------------------------------------------------------------------
    # reads (fall through)

    def get(self, key: str) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is not None:
            return entry.value
        if key in self._deleted:
            return None
        return self._base.get(key)

    def get_versioned(self, key: str) -> Optional[VersionedValue]:
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        if key in self._deleted:
            return None
        return self._base.get_versioned(key)

    def version_of(self, key: str) -> Optional[Version]:
        entry = self.get_versioned(key)
        return entry.version if entry is not None else None

    def __contains__(self, key: str) -> bool:
        if key in self._entries:
            return True
        if key in self._deleted:
            return False
        return key in self._base

    def __len__(self) -> int:
        extra = sum(1 for k in self._entries if k not in self._base)
        return len(self._base) - len(self._deleted) + extra

    def keys(self) -> Iterator[str]:
        for key in self._base.keys():
            if key not in self._deleted:
                yield key
        for key in self._entries:
            if key not in self._base:
                yield key

    def items(self) -> Iterator[Tuple[str, VersionedValue]]:
        for key in self.keys():
            yield key, self.get_versioned(key)

    def snapshot(self) -> Dict[str, Any]:
        return {k: v.value for k, v in self.items()}

    # ------------------------------------------------------------------
    # local writes

    def put(self, key: str, value: Any, version: Version) -> None:
        self._deleted.discard(key)
        self._entries[key] = VersionedValue(value=value, version=version)

    def put_speculative(self, key: str, value: Any) -> None:
        """Overlay ``value`` while keeping the base's committed version
        (None for a fresh key) — the execution-stage read semantics."""
        self._deleted.discard(key)
        base = self._base.get_versioned(key)
        version = base.version if base is not None else None
        self._entries[key] = VersionedValue(value=value, version=version)

    def delete(self, key: str) -> None:
        self._entries.pop(key, None)
        if key in self._base:
            self._deleted.add(key)

    def has_local(self, key: str) -> bool:
        """True iff this overlay wrote or deleted ``key``."""
        return key in self._entries or key in self._deleted

    # ------------------------------------------------------------------
    # folding

    def commit_to_base(self) -> WorldState:
        """Apply local writes/deletes to the base and reset the overlay."""
        for key in self._deleted:
            self._base.delete(key)
        for key, entry in self._entries.items():
            if entry.version is None:
                raise ValueError(
                    f"speculative write to {key!r} cannot be committed without "
                    "a version; use put(key, value, version)"
                )
            self._base.put(key, entry.value, entry.version)
        self._entries.clear()
        self._deleted.clear()
        return self._base

    def discard(self) -> None:
        """Drop all local writes (abandon the speculation)."""
        self._entries.clear()
        self._deleted.clear()
