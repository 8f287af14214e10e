"""Ledger auditing: the non-repudiation pay-off of the design.

"We apply our approach to C/S-based Monopoly, a full information
multi-player game where all claims can be verified through the
blockchain's event log" (§7.3 ii) — and the same holds for Doom: every
accepted and every *rejected* (cheating) asset update is durably
recorded with its verdict.  :func:`audit_ledger` extracts that record;
:func:`cross_audit` checks that a set of peers hold bit-identical
histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from ..blockchain.ledger import Ledger
from ..blockchain.transaction import TxValidationCode

__all__ = ["AuditReport", "audit_ledger", "cross_audit"]


@dataclass
class AuditReport:
    """What one peer's ledger attests to."""

    chain_valid: bool
    height: int
    total_transactions: int
    by_code: Dict[str, int] = field(default_factory=dict)
    by_creator: Dict[str, int] = field(default_factory=dict)
    by_function: Dict[str, int] = field(default_factory=dict)
    #: (creator, function, code, block) for every non-VALID transaction:
    #: the durable record of attempted cheats.
    rejections: List[Tuple[str, str, str, int]] = field(default_factory=list)
    state_hash: str = ""

    @property
    def accepted(self) -> int:
        return self.by_code.get(TxValidationCode.VALID, 0)

    @property
    def rejected(self) -> int:
        return self.total_transactions - self.accepted

    def rejections_by(self, creator: str) -> List[Tuple[str, str, str, int]]:
        return [r for r in self.rejections if r[0] == creator]


def audit_ledger(ledger: Ledger) -> AuditReport:
    """Walk the chain and account for every transaction."""
    report = AuditReport(
        chain_valid=ledger.validate_chain(),
        height=ledger.height,
        total_transactions=0,
        state_hash=ledger.state_hash(),
    )
    for number in range(1, ledger.height):
        block = ledger.block(number)
        for tx, code in zip(block.transactions, ledger.validation_codes(number)):
            report.total_transactions += 1
            creator = tx.proposal.creator
            function = tx.proposal.function
            report.by_code[code] = report.by_code.get(code, 0) + 1
            report.by_creator[creator] = report.by_creator.get(creator, 0) + 1
            report.by_function[function] = report.by_function.get(function, 0) + 1
            if code != TxValidationCode.VALID:
                report.rejections.append((creator, function, code, number))
    return report


def cross_audit(ledgers: Iterable[Ledger]) -> bool:
    """True iff every ledger is internally valid and all agree on both
    the chain head and the world state."""
    ledgers = list(ledgers)
    if not ledgers:
        raise ValueError("nothing to audit")
    if not all(ledger.validate_chain() for ledger in ledgers):
        return False
    heads = {ledger.last_hash for ledger in ledgers}
    states = {ledger.state_hash() for ledger in ledgers}
    return len(heads) == 1 and len(states) == 1
