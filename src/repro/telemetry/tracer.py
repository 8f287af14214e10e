"""Per-transaction lifecycle tracing over the deterministic sim clock.

A *span* is one stage of one transaction's (or block's) life, with start
and end in **simulated milliseconds**: because the sim clock is
deterministic, the trace of a pinned-seed run is itself deterministic —
two runs of the same seed produce byte-identical trace dumps, so traces
can be diffed the same way timeline digests are.

Stage names are fixed vocabulary (:data:`STAGES`), mirroring the paper's
execute-order-validate decomposition (§4, §6):

========== =====================================================
``submit``      shim/client submission → arrival at the orderer
``ordering``    orderer enqueue → block cut
``gossip``      block cut → block delivery at a peer
``endorsement`` contract execution (+ signature checks) at a peer
``validation``  execution done → per-tx consensus decided
``commit``      commit CPU work for a tx that ended VALID
``validation-abort`` commit CPU work for a tx consensus rejected
``sync``        ledger commit → state-hash sync quorum (block level)
``e2e``         game-event arrival at the shim → acknowledgement
========== =====================================================

A committed transaction therefore carries the chain
``submit → ordering → gossip → endorsement → validation → commit`` and
an aborted one the same chain ending in ``validation-abort``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "STAGES", "TX_CHAIN_STAGES"]

#: Canonical stage order within one transaction's lifecycle.
STAGES = (
    "submit", "ordering", "gossip", "endorsement",
    "validation", "commit", "validation-abort", "sync", "e2e",
)

#: The span chain every *committed* transaction must carry (the
#: span-completeness property the telemetry tests assert).
TX_CHAIN_STAGES = ("submit", "ordering", "gossip", "endorsement", "validation")

_STAGE_ORDER = {stage: index for index, stage in enumerate(STAGES)}


@dataclass
class Span:
    """One completed lifecycle stage."""

    trace_id: str
    stage: str
    host: str
    t_start: float
    t_end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.t_end - self.t_start

    def as_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "stage": self.stage,
            "host": self.host,
            "t_start": round(self.t_start, 6),
            "t_end": round(self.t_end, 6),
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class Tracer:
    """Append-only store of completed spans and point events."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        self._by_trace: Dict[str, List[Span]] = {}

    # ------------------------------------------------------------------
    # recording

    def add_span(
        self,
        trace_id: str,
        stage: str,
        host: str,
        t_start: float,
        t_end: float,
        **attrs: Any,
    ) -> Span:
        span = Span(trace_id, stage, host, t_start, t_end, attrs)
        self.spans.append(span)
        self._by_trace.setdefault(trace_id, []).append(span)
        return span

    def add_event(self, name: str, t: float, **attrs: Any) -> None:
        """A point event (fault injection, partition, heal, ...)."""
        event: Dict[str, Any] = {"event": name, "t": round(t, 6)}
        if attrs:
            event.update(attrs)
        self.events.append(event)

    # ------------------------------------------------------------------
    # queries

    def spans_for(self, trace_id: str) -> List[Span]:
        """Spans of one trace, ordered by (start time, stage order)."""
        spans = self._by_trace.get(trace_id, [])
        return sorted(
            spans,
            key=lambda s: (s.t_start, _STAGE_ORDER.get(s.stage, len(STAGES))),
        )

    def stage_chain(self, trace_id: str, host: Optional[str] = None) -> List[str]:
        """The ordered stage names of one trace (optionally one host's view).

        Stages recorded at peers (gossip onwards) are filtered to ``host``
        when given, so an N-peer deployment still yields one linear chain.
        """
        chain: List[str] = []
        for span in self.spans_for(trace_id):
            if host is not None and span.host != host and span.stage not in (
                "submit", "ordering", "e2e",
            ):
                continue
            chain.append(span.stage)
        return chain

    def by_stage(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.stage, []).append(span)
        return out

    def __len__(self) -> int:
        return len(self.spans)
