"""Offline windowed-batching model over event traces.

The paper's batching study (Figs. 3d/3e, Table 4) counts events that
"could not be batched in the current time window and thus experienced a
delay", where the window corresponds to "the average validation latency
for the setup".  :func:`count_delays` is the fixed-window replay of a
trace through the shim's own :class:`~repro.core.shim.Dispatcher` (the
same lanes, batches and delay rule): an O(n) model that analyses the
full 25-session dataset at every peer configuration without simulating
millions of blockchain messages.  A live shim whose validator answers
every batch exactly ``window_ms`` after dispatch fills the same
counters (``tests/test_core_shim.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..game.events import GameEvent
from .shim import Batch, Dispatcher, ShimConfig, ShimStats

__all__ = ["count_delays"]


def count_delays(
    events: Iterable[GameEvent],
    window_ms: float,
    batching: bool = True,
    multithreaded: bool = True,
    max_batch: int = 64,
) -> ShimStats:
    """Replay ``events`` through the shim's dispatcher.

    ``window_ms`` is the per-batch validation time (the measured average
    event-validation latency of the peer setup under study).  Each
    lane's batch in flight completes, VALID, at its start plus the
    window; queued batches start back to back; and a lane finishes every
    batch that completes at or before an arrival on it before that
    arrival is offered.  Returns the :class:`ShimStats` the live shim
    would fill, with every event acknowledged.
    """
    if window_ms <= 0:
        raise ValueError("window_ms must be positive")
    stats = ShimStats()
    dispatcher = Dispatcher(
        ShimConfig(multithreaded=multithreaded, batching=batching, max_batch=max_batch),
        stats,
    )
    #: lane -> (completion time, batch) of the batch in flight
    inflight: Dict[object, Tuple[float, Batch]] = {}

    def complete(lane: object) -> None:
        done, batch = inflight.pop(lane)
        stats.accepted_events += len(batch.events)
        if stats.last_ack_at is None or done > stats.last_ack_at:
            stats.last_ack_at = done
        following = dispatcher.finish(batch)
        if following is not None:
            inflight[lane] = (done + window_ms, following)

    for event in events:
        t = event.t_ms
        if stats.first_event_at is None:
            stats.first_event_at = t
        lane = dispatcher.lane(event.etype)
        while lane in inflight and inflight[lane][0] <= t:
            complete(lane)
        batch = dispatcher.offer(event)
        if batch is not None:
            inflight[lane] = (t + window_ms, batch)

    for lane in list(inflight):
        while lane in inflight:
            complete(lane)
    return stats
