"""Block validation: one in-order loop, shared results.

Every peer validates a delivered block the same way — there is no
strategy to select and no flag to set:

**One loop.**  The transactions run in block order over one speculative
overlay, each through ``Peer._execute_one`` (certificate, signature,
contract): a valid transaction's writes become visible to the ones after
it, and a transaction touching a key an earlier valid one wrote is voted
a conflict (the ledger re-checks at commit).

**Cross-peer result sharing.**  Execution is a pure function of (block
content, basis state, contracts, MSP roots) — the determinism the whole
consensus scheme rests on — so N honest peers re-deriving identical
executions is pure host-side waste.  A bounded
process-wide cache lets the first executing peer share its results; every
other peer gets fresh per-peer :class:`TxExecution` wrappers (codes are
mutated downstream by consensus downgrades) over the shared immutable
RWSets.  An entry is spent, and leaves the cache, once every other
elector of the executing peer's chain has taken it; the size bound is
the backstop for entries a diverged or patched peer never takes.  The
key is *content*: the block's header digest, the Merkle
root over the transactions it actually carries, their signatures and
certificates (``Block.credentials()`` — no digest covers those), and the
basis ``state_hash()``.  Both digests are ones ``Ledger.append`` needs at
commit anyway and are memoised on the block.  A copy decoded from a socket
hits like the simulator's shared object does; a copy with other
transactions, a flipped signature or a swapped certificate is another key
and gets its own verdicts (and the ledger's data-hash check still refuses
a transaction list the header does not commit to).  Peers whose
execution path is instance-patched (chaos buggy fixtures, and the
uncached reference the differential tests compare against) bypass the
cache in both directions.  Simulated costs are charged by
``Peer._compute`` regardless, so sharing changes wall-clock only, never
a simulated result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Set

from .ledger import TxExecution
from .transaction import Transaction, TxValidationCode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .block import Block
    from .peer import Peer

__all__ = [
    "ValidationExecutor",
    "execution_stats",
    "reset_execution_stats",
    "clear_execution_cache",
    "shared_value",
]


# ----------------------------------------------------------------------
# host-side telemetry counters (never part of simulated results)

_STATS: Dict[str, int] = {}


def reset_execution_stats() -> None:
    _STATS.update(
        cache_hits=0,
        cache_misses=0,
        cache_bypasses=0,
    )


reset_execution_stats()


def execution_stats() -> Dict[str, int]:
    """A snapshot of the executor's host-side counters."""
    return dict(_STATS)


# ----------------------------------------------------------------------
# cross-peer block-execution cache

#: key ``(block digest, data digest, credentials, basis state hash)`` →
#: ``[msp, contract names, contract classes, [(rwset, code)...], left]``.
#: The MSP and the contract classes are not content-addressable, so the
#: entry retains them and every hit re-checks their identity.  ``left``
#: counts the hits still due: one per other elector.
_EXEC_CACHE: Dict[tuple, list] = {}
_EXEC_CACHE_MAX = 4096

#: Equal own attestation values (state roots, ballots) → one object.
_SHARED: Dict[Any, Any] = {}
_SHARED_MAX = 4096


def clear_execution_cache() -> None:
    """Drop all shared execution results and attestation values (tests
    and benchmarks)."""
    _EXEC_CACHE.clear()
    _SHARED.clear()


def shared_value(value: Any) -> Any:
    """The process's one object equal to the immutable ``value``.

    Every honest peer computes its own copy of the same state root and
    the same ballot per block and keeps it to answer retries; handing
    them all the first copy keeps one per process.  Not ``sys.intern``:
    interned strings are immortal on CPython 3.12."""
    got = _SHARED.get(value)
    if got is None:
        if len(_SHARED) >= _SHARED_MAX:
            _SHARED.clear()
        got = _SHARED[value] = value
    return got


def _is_patched(peer: "Peer") -> bool:
    """True when the peer's execution path was instance- or subclass-
    patched (chaos buggy fixtures): its results may differ from the pure
    function of (block, state), so it must neither read nor populate the
    shared cache."""
    if "_execute_one" in peer.__dict__:
        return True
    cls = type(peer)
    baseline = getattr(cls, "_baseline_execute_one", None)
    return baseline is None or cls._execute_one is not baseline


class ValidationExecutor:
    """Executes one block's transactions for a peer.

    :meth:`execute_block` owns the cross-peer result cache and the
    patched-peer detection; :meth:`_execute` is the one loop.
    """

    def execute_block(self, peer: "Peer", block: "Block") -> List[TxExecution]:
        if _is_patched(peer):
            _STATS["cache_bypasses"] += 1
            return self._execute(peer, block.transactions)
        names = tuple(sorted(peer.contracts))
        classes = tuple(type(peer.contracts[name]) for name in names)
        key = (
            block.digest(),
            block.data_digest(),
            block.credentials(),
            peer.ledger.state_hash(),
        )
        entry = _EXEC_CACHE.get(key)
        if (
            entry is not None
            and entry[0] is peer.msp
            and entry[1] == names
            and entry[2] == classes
        ):
            _STATS["cache_hits"] += 1
            entry[4] -= 1
            if entry[4] <= 0:
                del _EXEC_CACHE[key]  # spent: every other elector took it
            return [TxExecution(rwset=rwset, code=code) for rwset, code in entry[3]]
        _STATS["cache_misses"] += 1
        executions = self._execute(peer, block.transactions)
        takers = len(peer._electorate) - 1
        if takers > 0:
            if len(_EXEC_CACHE) >= _EXEC_CACHE_MAX:
                _EXEC_CACHE.clear()
            _EXEC_CACHE[key] = [
                peer.msp,
                names,
                classes,
                [(e.rwset, e.code) for e in executions],
                takers,
            ]
        return executions

    def _execute(
        self, peer: "Peer", transactions: Sequence[Transaction]
    ) -> List[TxExecution]:
        """Every transaction in block order over one speculative overlay."""
        overlay = peer.ledger.state.overlay()
        written: Set[str] = set()
        executions: List[TxExecution] = []
        for tx in transactions:
            execution = peer._execute_one(tx, overlay, written)
            executions.append(execution)
            if execution.code == TxValidationCode.VALID:
                for key, value in execution.rwset.writes:
                    overlay.put_speculative(key, value)
                    written.add(key)
        return executions
