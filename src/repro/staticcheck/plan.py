"""Conflict-DAG planner: from the static conflict matrix to a concrete
validation schedule.

ROADMAP item 3 asks for "static-analysis-guided MVCC: use
``repro.staticcheck``'s conflict matrix at ordering time to pre-partition
non-conflicting txs".  The matrix answers the *per-function* question
("may SHOOT conflict with DAMAGE?"); this module lowers it onto a
*concrete batch* — each transaction carries its function and creator, so
a SAME_PLAYER verdict resolves to a real edge only when the two creators
match.  The result is a dependency DAG over the block:

* **edges** connect pairs that may touch a common key (in block order,
  earlier → later), i.e. exactly the pairs the ledger's MVCC check might
  invalidate;
* **lanes** are the connected components, each keeping its internal
  block order.  Two transactions in different lanes provably touch
  disjoint keys (the matrix over-approximates the runtime RWSets — see
  the fuzz-differential harness), so no commit outcome of one lane can
  depend on another.

The planner is an *offline* analysis: nothing in the engine calls it.
Block validation is one in-order loop (:mod:`repro.blockchain.execution`,
DESIGN.md §12), and the fuzz-differential harness
(:mod:`repro.staticcheck.fuzz`) checks the lanes against the runtime
RWSets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from .conflicts import ConflictLevel, ConflictMatrix, predict_conflicts
from .rwset import infer_footprints

__all__ = ["ConflictPlan", "ConflictPlanner"]


@dataclass
class ConflictPlan:
    """The dependency structure of one concrete transaction batch."""

    tx_ids: List[str]
    #: (i, j) index pairs with i < j that may touch a common key.
    edges: List[Tuple[int, int]]
    #: Provably-independent groups of indices, each in block order.
    lanes: List[List[int]]

    @property
    def parallelism(self) -> int:
        return len(self.lanes)

    def lane_of(self, index: int) -> int:
        for lane_no, lane in enumerate(self.lanes):
            if index in lane:
                return lane_no
        raise IndexError(f"tx index {index} not in plan")

    def to_json(self) -> Dict[str, Any]:
        return {
            "tx_ids": list(self.tx_ids),
            "edges": [list(e) for e in self.edges],
            "lanes": [list(lane) for lane in self.lanes],
        }


class ConflictPlanner:
    """Plans provably-independent validation lanes for transaction batches.

    Built from a contract's static :class:`ConflictMatrix`; unknown
    functions (not discovered by the analyzer) are conservatively
    treated as conflicting with everything, so a plan can never be
    *less* safe than the matrix.
    """

    def __init__(self, matrix: ConflictMatrix, contract: Optional[str] = None):
        self.matrix = matrix
        #: Contract name the matrix describes; transactions addressed to a
        #: different contract are conservatively treated as conflicting.
        self.contract = contract
        self._known: Set[str] = set(matrix.events)

    @classmethod
    def for_contract(
        cls,
        target: Union[str, type],
        class_name: Optional[str] = None,
    ) -> "ConflictPlanner":
        """Build a planner from a contract class or source text."""
        contract = getattr(target, "name", None) if isinstance(target, type) else None
        return cls(
            predict_conflicts(infer_footprints(target, class_name)),
            contract=contract if isinstance(contract, str) else None,
        )

    # ------------------------------------------------------------------

    def may_conflict(self, tx_a, tx_b) -> bool:
        """May the two transactions touch a common key?

        Resolves the matrix's SAME_PLAYER verdict against the concrete
        creators.  Sound direction: ``False`` is a proof of disjointness
        (modulo the matrix's own soundness, which the fuzz-differential
        harness checks); ``True`` is merely "cannot rule it out".
        """
        if self.contract is not None and (
            tx_a.proposal.contract != self.contract
            or tx_b.proposal.contract != self.contract
        ):
            return True
        fa = tx_a.proposal.function
        fb = tx_b.proposal.function
        if fa not in self._known or fb not in self._known:
            return True
        level = self.matrix.level(fa, fb)
        if level == ConflictLevel.ALWAYS:
            return True
        if level == ConflictLevel.SAME_PLAYER:
            return tx_a.proposal.creator == tx_b.proposal.creator
        return False

    def plan_block(self, transactions: Sequence) -> ConflictPlan:
        """Lower the matrix onto a concrete batch (in block order)."""
        n = len(transactions)
        edges: List[Tuple[int, int]] = []
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if self.may_conflict(transactions[i], transactions[j]):
                    edges.append((i, j))
                    parent[find(i)] = find(j)

        lanes_by_root: Dict[int, List[int]] = {}
        for i in range(n):
            lanes_by_root.setdefault(find(i), []).append(i)
        # Deterministic lane order: by first (earliest) member index.
        lanes = sorted(lanes_by_root.values(), key=lambda lane: lane[0])
        return ConflictPlan(
            tx_ids=[tx.proposal.tx_id for tx in transactions],
            edges=edges,
            lanes=lanes,
        )
