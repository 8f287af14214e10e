"""The append-only ledger: hash-chained blocks plus versioned world state.

Commit-time validation implements Fabric v1.0's two rules exactly:

* **MVCC read check** — a transaction is invalid if any key it read has a
  committed version different from the version it observed at execution.
* **Block-level KVS conflict** — a transaction is invalid if any key it
  touches was already written by an earlier valid transaction *in the
  same block* ("if a player shoots two successive bullets and the two
  events spawn two transactions within the same block, Fabric will
  reject the latter transaction", §6).

These rules are what make the paper's per-player-per-asset KVS split and
mutually-exclusive-block optimisations measurable rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .block import Block
from .state import Version, WorldState
from .transaction import RWSet, TxValidationCode

__all__ = ["TxExecution", "Ledger", "LedgerError"]


class LedgerError(RuntimeError):
    """Raised on invalid ledger operations (bad chain linkage etc.)."""


@dataclass
class TxExecution:
    """Outcome of executing one transaction's contract call locally.

    ``code`` is :data:`TxValidationCode.VALID` when the contract accepted
    the update; otherwise the contract-level failure
    (``CONTRACT_REJECTED``, ``DUPLICATE_NONCE``, ...).  The ledger may
    still downgrade a VALID execution to an MVCC conflict at commit.
    """

    rwset: RWSet
    code: str = TxValidationCode.VALID


class Ledger:
    """One peer's copy of the chain and world state.

    What it keeps per committed block: the block (shared with the other
    peers of a process), its verdict tuple (``_codes``, one object per
    distinct tuple), the block number of each tx id, and the state
    entries of the VALID writes.  Those entries come prepared from the
    transaction's ``RWSet`` (:meth:`RWSet.entries`), so peers that share
    an execution also share the frozen entries and their digests.
    """

    def __init__(self, genesis: Block):
        if genesis.number != 0:
            raise LedgerError("genesis block must have number 0")
        self._blocks: List[Block] = [genesis]
        #: This ledger's verdicts per block (peers of one process share
        #: block objects, whose ``validation_codes`` the last appender
        #: set), each distinct verdict tuple stored once.
        self._codes: List[Tuple[str, ...]] = [()]
        self._distinct_codes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self.state = WorldState()
        #: tx_id -> number of the last block that carries it; the code is
        #: read from ``_codes`` (see :meth:`tx_status`).
        self._tx_index: Dict[str, int] = {}
        #: Observer called after every successful append with
        #: ``(block, executions, codes)`` — the chaos invariant monitor
        #: hooks here to re-check MVCC and cross-peer consistency.
        self.on_append = None

    # ------------------------------------------------------------------
    # chain accessors

    @property
    def height(self) -> int:
        """Number of blocks in the chain (genesis included)."""
        return len(self._blocks)

    @property
    def last_hash(self) -> str:
        return self._blocks[-1].digest()

    def block(self, number: int) -> Block:
        return self._blocks[number]

    def blocks(self) -> List[Block]:
        return list(self._blocks)

    @property
    def genesis(self) -> Block:
        return self._blocks[0]

    # ------------------------------------------------------------------
    # commit

    def append(self, block: Block, executions: List[TxExecution]) -> List[str]:
        """Validate and commit ``block``; returns final per-tx codes.

        ``executions`` must align 1:1 with ``block.transactions``.
        """
        if block.number != self.height:
            raise LedgerError(
                f"expected block {self.height}, got {block.number}"
            )
        if block.header.previous_hash != self.last_hash:
            raise LedgerError("previous-hash mismatch: chain fork or tampering")
        if block.data_digest() != block.header.data_hash:
            raise LedgerError("block data hash does not match transactions")
        if len(executions) != len(block.transactions):
            raise LedgerError("one execution result required per transaction")

        codes: List[str] = []
        written_this_block: Set[str] = set()
        for idx, (tx, execution) in enumerate(zip(block.transactions, executions)):
            code = execution.code
            if code == TxValidationCode.VALID:
                code = self._mvcc_check(execution.rwset, written_this_block)
            if code == TxValidationCode.VALID:
                for prepared in execution.rwset.entries(Version(block.number, idx)):
                    self.state.insert(prepared)
                    written_this_block.add(prepared[0])
            codes.append(code)
            self._tx_index[tx.tx_id] = block.number

        block.validation_codes = codes
        self._blocks.append(block)
        verdicts = tuple(codes)
        self._codes.append(self._distinct_codes.setdefault(verdicts, verdicts))
        if self.on_append is not None:
            self.on_append(block, executions, codes)
        return codes

    def _mvcc_check(self, rwset: RWSet, written_this_block: Set[str]) -> str:
        for key, observed in rwset.reads:
            if key in written_this_block:
                return TxValidationCode.MVCC_READ_CONFLICT
            current = self.state.version_of(key)
            current_tuple = current.to_tuple() if current is not None else None
            if current_tuple != observed:
                return TxValidationCode.MVCC_READ_CONFLICT
        for key, _ in rwset.writes:
            if key in written_this_block:
                return TxValidationCode.MVCC_READ_CONFLICT
        return TxValidationCode.VALID

    # ------------------------------------------------------------------
    # queries

    def tx_status(self, tx_id: str) -> Tuple[str, Optional[int]]:
        """(validation code, block number) for a transaction, or
        (PENDING, None) when not yet committed.  A tx id carried more than
        once reports its last occurrence: the last block, and the last
        position within that block."""
        number = self._tx_index.get(tx_id)
        if number is None:
            return (TxValidationCode.PENDING, None)
        transactions = self._blocks[number].transactions
        for idx in range(len(transactions) - 1, -1, -1):
            if transactions[idx].tx_id == tx_id:
                return (self._codes[number][idx], number)
        raise LedgerError(f"block {number} no longer carries tx {tx_id!r}")

    def validation_codes(self, number: int) -> List[str]:
        """This ledger's per-transaction codes for block ``number``."""
        return list(self._codes[number])

    def committed_tx_ids(self) -> List[str]:
        return list(self._tx_index)

    def state_hash(self) -> str:
        return self.state.state_hash()

    # ------------------------------------------------------------------
    # integrity

    def validate_chain(self) -> bool:
        """Recompute every hash link; False if any block was tampered with.

        Uses the ``fresh`` (non-memoised) digest paths throughout: the
        whole point of this walk is to detect objects mutated in place
        after their digests were first computed, so cached digests must
        not be trusted here.
        """
        for i in range(1, len(self._blocks)):
            block = self._blocks[i]
            if block.header.previous_hash != self._blocks[i - 1].digest(fresh=True):
                return False
            if block.data_digest(fresh=True) != block.header.data_hash:
                return False
        return True
