"""Deterministic discrete-event scheduler.

All latency figures in this reproduction are *simulated* milliseconds
produced by this scheduler.  The paper measured wall-clock latencies on an
Internet-wide SoftLayer deployment; we substitute a deterministic
discrete-event simulation (see DESIGN.md §2) so every figure is exactly
reproducible from a seed.

Time is a ``float`` number of milliseconds since the start of the
simulation.  Events scheduled for the same instant fire in the order they
were scheduled (FIFO tie-break via a monotonically increasing sequence
number), which keeps runs deterministic.

The queue stores ``(when, seq, timer)`` tuples rather than timer objects:
``seq`` is unique, so heap ordering is decided entirely inside the
C-level tuple comparison and no Python-level ``__lt__`` is ever called
(at 32 peers those calls were the single largest profile line).
Cancelled timers are removed lazily on pop, with a live counter making
:attr:`ClockCore.pending` O(1) and a compaction pass rebuilding the heap
whenever cancelled entries outnumber live ones (retry timers are almost
always cancelled, so an un-compacted queue grows without bound).

That heap is :class:`ClockCore`.  :class:`Scheduler` adds simulated time
to it and :class:`repro.realnet.clock.WallClock` wall time; the core's
public surface is the clock contract the rest of the code is written to.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple, Union

__all__ = ["ClockCore", "Scheduler", "Timer", "SimulationError"]

#: Compaction only kicks in above this queue size: tiny queues drain
#: quickly anyway and rebuilding them would cost more than it saves.
_COMPACT_MIN_QUEUE = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduler operations (e.g. scheduling in the past)."""


class Timer:
    """Handle to a scheduled event; supports cancellation.

    Returned by :meth:`ClockCore.call_at` and :meth:`ClockCore.call_after`.
    Cancelling an already-fired or already-cancelled timer is a no-op.
    """

    __slots__ = ("when", "seq", "_fn", "_args", "_cancelled", "_fired", "_sched")

    def __init__(
        self, when: float, seq: int, fn: Callable[..., Any], args: tuple, sched: "ClockCore"
    ):
        self.when = when
        self.seq = seq
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._fired = False
        self._sched = sched

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        self._sched._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self._fired or self._cancelled)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        self._fn(*self._args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<Timer t={self.when:.3f} seq={self.seq} {state}>"


#: Heap entries: ``(when, seq, timer)`` for cancellable events,
#: ``(when, seq, fn, args)`` for anonymous ones.  ``seq`` is unique, so
#: tuple comparison never reaches the third element and the two shapes
#: can share one heap.
_Entry = Union[Tuple[float, int, Timer], Tuple[float, int, Callable, tuple]]


class ClockCore:
    """The timer heap and its bookkeeping — and, through its public
    surface, the contract both clocks keep: ``now`` in milliseconds,
    :meth:`call_at` / :meth:`call_after` / :meth:`call_at_anon` firing in
    ``(when, seq)`` order off one sequence counter, :attr:`pending`,
    :attr:`events_processed`, :meth:`next_when`, and the ``run`` /
    ``run_until_idle`` loops each clock supplies.
    """

    #: A deadline before ``_now`` is refused.  ``Scheduler`` keeps simulated
    #: time here; on a clock whose time moves by itself a deadline can be
    #: stale the instant it is computed, so ``WallClock`` never sets it
    #: and takes them all.
    _now = float("-inf")

    def __init__(self) -> None:
        self._seq = 0
        self._queue: List[_Entry] = []
        self._events_processed = 0
        self._live = 0  # active (un-cancelled, un-fired) entries in queue
        self._cancelled_in_queue = 0

    @property
    def now(self) -> float:
        """Current clock time in milliseconds (monotone)."""
        raise NotImplementedError

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Fire events until ``now`` reaches ``until`` or ``max_events``
        have fired; with no ``until``, until nothing is left to do."""
        raise NotImplementedError

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Fire events until nothing is left to do; ``max_events`` firing
        first is a :class:`SimulationError`."""
        raise NotImplementedError

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still in the queue (O(1))."""
        return self._live

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute clock time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule at t={when:.3f}, before now={self._now:.3f}")
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(when, seq, fn, args, self)
        heapq.heappush(self._queue, (when, seq, timer))
        self._live += 1
        return timer

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:.3f}")
        return self.call_at(self.now + delay, fn, *args)

    def call_at_anon(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``when`` with no cancellation handle.

        The hot paths (message delivery, CPU-completion events) schedule
        millions of events and never cancel them; skipping the
        :class:`Timer` allocation is a measurable share of a large
        replay.  Ordering is identical to :meth:`call_at` — the entry
        consumes a sequence number from the same counter.
        """
        if when < self._now:
            raise SimulationError(f"cannot schedule at t={when:.3f}, before now={self._now:.3f}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, fn, args))
        self._live += 1

    def _on_cancel(self) -> None:
        """A queued timer was cancelled: adjust counters, maybe compact."""
        self._live -= 1
        self._cancelled_in_queue += 1
        if (
            len(self._queue) >= _COMPACT_MIN_QUEUE
            and self._cancelled_in_queue * 2 > len(self._queue)
        ):
            # In-place (slice) rebuild: the run loops hold a local
            # reference to the queue list across callbacks.
            self._queue[:] = [
                e for e in self._queue if len(e) == 4 or not e[2]._cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled_in_queue = 0

    def next_when(self) -> Optional[float]:
        """Fire time of the next live event (``None`` when there is
        none), discarding cancelled heads."""
        queue = self._queue
        while queue:
            head = queue[0]
            if len(head) == 3 and head[2]._cancelled:
                heapq.heappop(queue)
                self._cancelled_in_queue -= 1
                continue
            return head[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} now={self.now:.3f} pending={self.pending}>"


class Scheduler(ClockCore):
    """A minimal, deterministic discrete-event scheduler.

    Usage::

        sched = Scheduler()
        sched.call_after(10.0, print, "ten ms in")
        sched.run()
        assert sched.now == 10.0
    """

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        return self._fire(math.inf, 1)[0] > 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so ``now`` is predictable.
        """
        _, capped = self._fire(
            math.inf if until is None else until,
            math.inf if max_events is None else max_events,
        )
        if not capped and until is not None and self._now < until:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (bounded by ``max_events`` as a backstop)."""
        fired, _ = self._fire(math.inf, max_events)
        if fired >= max_events:
            raise SimulationError(f"simulation did not quiesce within {max_events} events")

    def _fire(self, until: float, max_events: float) -> Tuple[int, bool]:
        """Fire live events in ``(when, seq)`` order while the next is due
        at or before ``until``, at most ``max_events`` of them.  Returns
        how many fired and whether the cap stopped it with one still due.

        The one firing loop, behind :meth:`step`, :meth:`run` and
        :meth:`run_until_idle`: it makes no Python call per event but
        the callback's, since one call per event is seconds over a
        multi-million-event replay.
        """
        fired = 0
        queue = self._queue  # compaction rebuilds this list in place
        pop = heapq.heappop
        while queue:
            entry = queue[0]
            if len(entry) == 3 and entry[2]._cancelled:
                pop(queue)
                self._cancelled_in_queue -= 1
                continue
            if entry[0] > until:
                break
            if fired >= max_events:
                return fired, True
            pop(queue)
            self._live -= 1
            self._now = entry[0]
            if len(entry) == 4:  # anonymous (never-cancelled) entry
                entry[2](*entry[3])
            else:
                entry[2]._fire()
            self._events_processed += 1
            fired += 1
        return fired, False
