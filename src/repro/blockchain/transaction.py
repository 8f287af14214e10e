"""Transactions, read/write sets and validation codes.

A shim wraps each game event in a *query object* — the contract function
to invoke, its arguments, a nonce against replay, and the creator's
certificate — signs it, and submits it as a transaction (§4, workflow).
Peers execute the contract locally in block order and vote on validity;
the per-transaction validation code records why a transaction was
accepted or rejected (a rejected asset update *is* a prevented cheat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .crypto import canonical_digest
from .identity import Certificate
from .state import PreparedEntry, Version, prepare_entry

__all__ = [
    "TxValidationCode",
    "Proposal",
    "ReadSet",
    "WriteSet",
    "RWSet",
    "Transaction",
    "TxResult",
]


class TxValidationCode:
    """Why a transaction committed as valid or invalid (Fabric-style)."""

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    PHANTOM_READ_CONFLICT = "PHANTOM_READ_CONFLICT"
    CONTRACT_REJECTED = "CONTRACT_REJECTED"  # illegal state transition: a cheat
    DUPLICATE_NONCE = "DUPLICATE_NONCE"  # replay attack
    BAD_SIGNATURE = "BAD_SIGNATURE"
    BAD_CERTIFICATE = "BAD_CERTIFICATE"
    CONSENSUS_NOT_REACHED = "CONSENSUS_NOT_REACHED"
    UNKNOWN_CONTRACT = "UNKNOWN_CONTRACT"
    PENDING = "PENDING"
    #: The client gave up polling: the network never finalised the
    #: transaction (e.g. consensus liveness lost to a Byzantine majority
    #: or a partition).
    TIMEOUT = "TIMEOUT"

    #: Codes that mean the event was refused — i.e. a prevented cheat or
    #: a technical conflict the shim must retry.
    REJECTED = frozenset(
        {
            MVCC_READ_CONFLICT,
            PHANTOM_READ_CONFLICT,
            CONTRACT_REJECTED,
            DUPLICATE_NONCE,
            BAD_SIGNATURE,
            BAD_CERTIFICATE,
            CONSENSUS_NOT_REACHED,
            UNKNOWN_CONTRACT,
            TIMEOUT,
        }
    )


@dataclass(frozen=True)
class Proposal:
    """The signed invocation request assembled by the shim.

    ``touched_keys`` declares which world-state keys the invocation will
    operate on.  The shim derives it from the constraint specification
    (player × affected assets); the ordering service uses it for the
    paper's "mutually exclusive KVS per block" optimisation (§6 ii).
    """

    tx_id: str
    contract: str
    function: str
    args: Tuple[Any, ...]
    nonce: str
    creator: str
    timestamp: float
    touched_keys: Tuple[str, ...] = ()

    def digest(self, fresh: bool = False) -> str:
        """Canonical digest of the proposal.

        Memoised on the (frozen) object: in-process, every peer receives
        the *same* gossiped proposal object and the digest is pure, so N
        peers pay the JSON+SHA cost once.  Integrity auditing passes
        ``fresh=True`` to recompute from the current field values (the
        path that catches a tampered-in-place object).
        """
        if not fresh:
            cached = getattr(self, "_digest_memo", None)
            if cached is not None:
                return cached
        digest = canonical_digest(
            {
                "tx_id": self.tx_id,
                "contract": self.contract,
                "function": self.function,
                "args": list(self.args),
                "nonce": self.nonce,
                "creator": self.creator,
                "timestamp": self.timestamp,
            }
        )
        if not fresh:
            object.__setattr__(self, "_digest_memo", digest)
        return digest


ReadSet = List[Tuple[str, Optional[Tuple[int, int]]]]
WriteSet = List[Tuple[str, Any]]


@dataclass
class RWSet:
    """Keys read (with observed versions) and written by an execution."""

    reads: ReadSet = field(default_factory=list)
    writes: WriteSet = field(default_factory=list)

    def read_keys(self) -> List[str]:
        return [k for k, _ in self.reads]

    def write_keys(self) -> List[str]:
        return [k for k, _ in self.writes]

    def touched(self) -> List[str]:
        seen: Dict[str, None] = {}
        for k in self.read_keys() + self.write_keys():
            seen.setdefault(k)
        return list(seen)

    def entries(self, version: Version) -> Tuple[PreparedEntry, ...]:
        """The writes as committed state entries at ``version``, built
        once and remembered: the execution cache hands one RWSet to every
        peer of a process, so those peers commit the same entry objects."""
        memo = getattr(self, "_entries_memo", None)
        if memo is None or memo[0] != version:
            memo = (
                version,
                tuple(prepare_entry(k, v, version) for k, v in self.writes),
            )
            self._entries_memo = memo
        return memo[1]


@dataclass
class Transaction:
    """A proposal plus the creator's certificate and signature."""

    proposal: Proposal
    certificate: Certificate
    signature: int

    @property
    def tx_id(self) -> str:
        return self.proposal.tx_id

    def digest(self, fresh: bool = False) -> str:
        if not fresh:
            cached = getattr(self, "_digest_memo", None)
            if cached is not None:
                return cached
        digest = canonical_digest(
            {
                "proposal": self.proposal.digest(fresh=fresh),
                "creator": self.certificate.subject,
            }
        )
        if not fresh:
            self._digest_memo = digest
        return digest

    def verify_signature(self) -> bool:
        """True iff the creator's signature covers the proposal.

        The verdict is remembered only by content, in the process-wide
        cache of :meth:`~repro.blockchain.crypto.PublicKey.verify`: all
        peers validating the same gossiped transaction pay the modexp
        once, and a signature changed in place is checked afresh.
        """
        return self.certificate.public_key.verify(
            self.proposal.digest(), self.signature
        )


@dataclass
class TxResult:
    """Final, consensus-backed status of a transaction as seen by a peer."""

    tx_id: str
    code: str
    block: Optional[int] = None
    votes_for: int = 0
    votes_against: int = 0
    detail: str = ""

    @property
    def committed(self) -> bool:
        return self.code == TxValidationCode.VALID

    @property
    def rejected(self) -> bool:
        return self.code in TxValidationCode.REJECTED
