"""Intentionally-buggy peer fixtures.

These install realistic *platform regressions* on live peers so the
chaos tests can prove the :class:`~repro.chaos.invariants.InvariantMonitor`
actually catches broken implementations — a monitor that never fires is
indistinguishable from one that checks nothing.

The fixtures patch object instances (never the classes), so a buggy
peer lives next to honest ones in the same deployment.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..blockchain.transaction import TxValidationCode

__all__ = ["BUGGY_FIXTURES", "install_mvcc_bypass", "install_catchup_corruption"]


def install_mvcc_bypass(peer) -> None:
    """Break the peer's commit-time MVCC validation *and* its block-level
    conflict vote: stale reads and intra-block conflicts sail through.

    Installed on a whole deployment this models a platform regression
    (every peer commits the conflicting pair and the monitor's shadow
    MVCC check fires); installed on a minority it models a faulty node
    that diverges from consensus.
    """
    peer.ledger._mvcc_check = (
        lambda rwset, written_this_block: TxValidationCode.VALID
    )
    original_execute_one = peer._execute_one

    def execute_one(tx, overlay, written):
        execution = original_execute_one(tx, overlay, written)
        if execution.code == TxValidationCode.MVCC_READ_CONFLICT:
            execution.code = TxValidationCode.VALID
        return execution

    peer._execute_one = execute_one


def install_catchup_corruption(peer) -> None:
    """Corrupt the peer's gap-recovery path only: blocks replayed during
    catch-up apply *every* write, including transactions the rest of the
    network rejected.

    The bug is invisible until a fault forces the peer through catch-up
    — which is exactly what schedule shrinking should isolate: the
    minimal failing prefix ends at the fault that knocked the peer out.
    """
    real_append = peer.ledger.append
    real_mvcc = peer.ledger._mvcc_check

    def corrupted_append(block, executions):
        if block.number < peer._catch_up_below:
            for execution in executions:
                execution.code = TxValidationCode.VALID
            peer.ledger._mvcc_check = (
                lambda rwset, written_this_block: TxValidationCode.VALID
            )
            try:
                return real_append(block, executions)
            finally:
                peer.ledger._mvcc_check = real_mvcc
        return real_append(block, executions)

    peer.ledger.append = corrupted_append


#: Named intentionally-buggy deployments: fixture name -> installer that
#: receives a freshly built chain.
BUGGY_FIXTURES: Dict[str, Callable[..., None]] = {
    # A platform-wide MVCC regression: every peer skips conflict checks.
    "mvcc-bypass": lambda chain: [
        install_mvcc_bypass(peer) for peer in chain.peers
    ],
    # One peer whose gap-recovery path re-applies rejected writes; only
    # observable once a fault forces it through catch-up.
    "catchup-corruption": lambda chain: install_catchup_corruption(chain.peers[1]),
}
