"""Blocks: ordered transaction batches chained by hash.

Each block carries "the creation timestamp, the hash of the previous
block in the chain" (§3.1) plus a Merkle root over its transactions, so
any retroactive modification breaks the chain (tested in
``tests/test_blockchain_ledger.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .crypto import canonical_digest, merkle_root
from .transaction import Transaction

__all__ = ["BlockHeader", "Block", "make_genesis_block"]


@dataclass(frozen=True)
class BlockHeader:
    number: int
    previous_hash: str
    data_hash: str
    timestamp: float

    def digest(self, fresh: bool = False) -> str:
        """Block hash; memoised on the frozen header (``fresh=True``
        recomputes — the path integrity audits rely on)."""
        if not fresh:
            cached = getattr(self, "_digest_memo", None)
            if cached is not None:
                return cached
        digest = canonical_digest(
            {
                "number": self.number,
                "previous_hash": self.previous_hash,
                "data_hash": self.data_hash,
                "timestamp": self.timestamp,
            }
        )
        if not fresh:
            object.__setattr__(self, "_digest_memo", digest)
        return digest


@dataclass
class Block:
    header: BlockHeader
    transactions: List[Transaction]
    #: Per-transaction validation codes, filled in at commit time
    #: (Fabric stores these in block metadata).
    validation_codes: List[str] = field(default_factory=list)
    #: Genesis configuration payload (None for ordinary blocks).
    config: Optional[Dict] = None

    @property
    def number(self) -> int:
        return self.header.number

    def digest(self, fresh: bool = False) -> str:
        return self.header.digest(fresh=fresh)

    def data_digest(self, fresh: bool = False) -> str:
        """Merkle root over the block's transaction digests.

        Memoised: every peer receiving the same gossiped block would
        otherwise recompute the identical Merkle tree.  ``fresh=True``
        recomputes from the live transaction list (chain audits).
        """
        if not fresh:
            cached = getattr(self, "_data_digest_memo", None)
            if cached is not None:
                return cached
        digest = merkle_root([tx.digest(fresh=fresh) for tx in self.transactions])
        if not fresh:
            self._data_digest_memo = digest
        return digest

    def credentials(self) -> tuple:
        """Per transaction: the endorsement signature, and the certificate
        as its to-be-signed digest plus the CA signature over it.

        ``Transaction.digest()`` covers the proposal and the certificate's
        *subject* only, so two blocks with equal header and data digests
        can still differ here (a flipped signature, a swapped certificate
        body).  Not memoised: it is a tuple of fields already in hand
        (``tbs()`` is memoised on the frozen certificate).
        """
        return tuple(
            (tx.signature, tx.certificate.tbs(), tx.certificate.signature)
            for tx in self.transactions
        )

    def size_bytes(self, tx_bytes: int, overhead_bytes: int) -> int:
        """Wire size estimate used by the simulated transport."""
        return overhead_bytes + tx_bytes * len(self.transactions)


def make_block(
    number: int, previous_hash: str, transactions: List[Transaction], timestamp: float
) -> Block:
    """Assemble a block, computing its data hash from the transactions."""
    data_hash = merkle_root([tx.digest() for tx in transactions])
    header = BlockHeader(
        number=number,
        previous_hash=previous_hash,
        data_hash=data_hash,
        timestamp=timestamp,
    )
    block = Block(header=header, transactions=transactions)
    block._data_digest_memo = data_hash  # just computed it
    return block


def make_genesis_block(config: Dict) -> Block:
    """Create the genesis block from a network configuration.

    The initiator shim "creates and distributes a genesis block to all
    peers signifying the start of the common distributed ledger"
    (§4.2.2).  ``config`` is the parsed ``configtx``-style description:
    peer names, certificates, consensus policy and ordering parameters.
    """
    data_hash = canonical_digest(config)
    header = BlockHeader(
        number=0, previous_hash="0" * 64, data_hash=data_hash, timestamp=0.0
    )
    return Block(header=header, transactions=[], config=dict(config))
