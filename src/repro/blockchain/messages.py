"""Wire messages exchanged between blockchain nodes.

Kept deliberately small: the simulated transport carries Python objects,
and message identity (not encoding) is what the protocols care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .block import Block
from .transaction import Transaction

__all__ = [
    "SubmitTx",
    "DeliverBlock",
    "VoteMsg",
    "SyncHashMsg",
    "RequestBlocks",
    "QueryTxStatus",
    "TxStatusReply",
]


@dataclass(frozen=True)
class SubmitTx:
    """Shim → ordering service: a new transaction for ordering."""

    tx: Transaction


@dataclass(frozen=True)
class DeliverBlock:
    """Ordering service → peer: a freshly cut block."""

    block: Block


@dataclass(frozen=True)
class VoteMsg:
    """Peer → peers: per-transaction validity votes for one block.

    ``votes[i]`` is the sender's verdict on the i-th transaction of
    block ``block_number`` after executing it locally.
    """

    block_number: int
    voter: str
    votes: Tuple[bool, ...]
    #: True on the anti-entropy *answer* to a re-broadcast vote; a reply
    #: must never be answered in turn or two peers ping-pong forever.
    is_reply: bool = False
    #: True on an anti-entropy *re-broadcast* (``Peer._anti_entropy``).
    #: Only a retry solicits a reply: a first broadcast that merely
    #: arrives after the receiver's quorum was late, not lost.
    is_retry: bool = False


@dataclass(frozen=True)
class SyncHashMsg:
    """Peer → peers: post-commit state hash for the ledger-sync stage."""

    block_number: int
    sender: str
    state_hash: str
    #: see :attr:`VoteMsg.is_reply`
    is_reply: bool = False
    #: see :attr:`VoteMsg.is_retry`
    is_retry: bool = False


@dataclass(frozen=True)
class RequestBlocks:
    """Peer → ordering service: retransmit a block range.

    Sent when a peer detects a gap in delivery (it was unreachable —
    e.g. DDoSed — while blocks were cut) so it can catch up and rejoin
    consensus.
    """

    from_number: int
    to_number: int


@dataclass(frozen=True)
class QueryTxStatus:
    """Shim → peer: poll the commit status of a transaction."""

    tx_id: str


@dataclass(frozen=True)
class TxStatusReply:
    """Peer → shim: current status of a polled transaction.

    ``code`` is PENDING until the enclosing block has both committed and
    completed ledger synchronisation — the paper counts both stages in
    the event-validation latency (§6, Optimizations).
    """

    tx_id: str
    code: str
    block: Optional[int]
