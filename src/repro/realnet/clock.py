"""Wall-clock scheduler: the simnet clock contract on real time.

:class:`WallClock` is the realnet backend's clock: ``now`` is real
milliseconds since construction (monotonic — ``time.monotonic`` based,
immune to NTP steps), and scheduled callbacks fire from an asyncio
event loop so socket I/O interleaves with timer work in one thread.
The timer heap, its counters and the scheduling calls are
:class:`~repro.simnet.clock.ClockCore`'s, shared with the deterministic
``Scheduler``; this module adds wall time and the pump.

Contract differences from the deterministic ``Scheduler``, both forced
by wall time (DESIGN.md §15):

* ``call_at`` with a ``when`` in the past is *allowed* and fires
  promptly (wall time has already moved on by the time a callback runs;
  rejecting stale deadlines would make every timer a race);
* ``run_until_idle`` treats "idle" as: no live queue entries, no
  transport-reported in-flight work (see :meth:`add_busy_check`), held
  for a grace window — frames sitting in kernel socket buffers are
  invisible to the queue, and the grace window covers their flight.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import Any, Callable, List, Optional

from ..simnet.clock import ClockCore, SimulationError, Timer

__all__ = ["WallClock"]


class WallClock(ClockCore):
    """Scheduler-compatible wall clock on a private asyncio loop.

    Usage mirrors :class:`~repro.simnet.clock.Scheduler`::

        clock = WallClock()
        clock.call_after(10.0, print, "ten real ms later")
        clock.run_until_idle()
    """

    #: Longest the pump sleeps with nothing due: a safety net against a
    #: missed wake-up (all known wake sources call :meth:`kick`).
    max_sleep_ms = 50.0
    #: ``run_until_idle``: how long queue-empty + transport-quiet must
    #: hold before the run is declared idle.  Localhost frames cross the
    #: kernel in microseconds; 150 ms covers scheduler hiccups too.
    idle_grace_ms = 150.0

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        super().__init__()
        self._loop = loop if loop is not None else asyncio.new_event_loop()
        self._owns_loop = loop is None
        self._origin = time.monotonic()
        self._wake: Optional[asyncio.Event] = None
        self._busy_checks: List[Callable[[], bool]] = []
        self._running = False
        self._closed = False

    @property
    def now(self) -> float:
        """Wall milliseconds since construction (monotone)."""
        return (time.monotonic() - self._origin) * 1000.0

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The asyncio loop timers and transport I/O share."""
        return self._loop

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> Timer:
        """As on any clock, except that a ``when`` in the past is taken
        (it fires on the next pump pass) — and a sleeping pump is woken."""
        timer = super().call_at(when, fn, *args)
        self.kick()
        return timer

    def call_at_anon(self, when: float, fn: Callable[..., Any], *args: Any) -> None:
        super().call_at_anon(when, fn, *args)
        self.kick()

    # ------------------------------------------------------------------
    # realnet extensions

    def rebase(self) -> None:
        """Reset ``now`` to zero.

        Deployment construction (client RSA key derivation, socket
        binds) burns real time before a workload's first scheduled tick;
        rebasing afterwards makes schedules anchored at clock time 0
        start *now* instead of firing their early ticks as one stale
        burst.  Queued entries keep their absolute deadlines — on the
        rebased clock they are simply further in the future.
        """
        self._origin = time.monotonic()

    def add_busy_check(self, fn: Callable[[], bool]) -> None:
        """Register a transport in-flight probe for ``run_until_idle``.

        The queue cannot see a frame that has been written to a socket
        but not yet read back; the transport reports that window here.
        """
        self._busy_checks.append(fn)

    def kick(self) -> None:
        """Wake the pump: new work arrived from an I/O callback."""
        wake = self._wake
        if wake is not None and not wake.is_set():
            wake.set()

    def close(self) -> None:
        """Close the owned event loop.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._owns_loop and not self._loop.is_closed():
            self._loop.close()

    # ------------------------------------------------------------------
    # running

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until wall time ``until`` (ms on this clock), or — with no
        ``until`` — until the system quiesces (same as
        :meth:`run_until_idle`).  ``max_events`` bounds callbacks fired.
        """
        self._drive(until=until, max_events=max_events, raise_on_cap=False)

    def run_until_idle(
        self,
        max_events: int = 10_000_000,
        max_wall_ms: Optional[float] = None,
    ) -> None:
        """Run until the queue drains and the transport reports quiet for
        :attr:`idle_grace_ms`.  Raises :class:`SimulationError` if
        ``max_events`` fire first or ``max_wall_ms`` elapses first — the
        wall-clock analogue of "the simulation did not quiesce".
        """
        self._drive(
            until=None, max_events=max_events,
            raise_on_cap=True, max_wall_ms=max_wall_ms,
        )

    def _drive(
        self,
        until: Optional[float],
        max_events: Optional[int],
        raise_on_cap: bool,
        max_wall_ms: Optional[float] = None,
    ) -> None:
        if self._running:
            raise SimulationError("clock is already running")
        self._running = True
        try:
            self._loop.run_until_complete(
                self._pump(until, max_events, raise_on_cap, max_wall_ms)
            )
        finally:
            self._running = False

    def _fire_due(self, limit: Optional[int]) -> int:
        """Fire the entries whose ``when`` has passed, ``limit`` of them
        at most (``None``: all); returns the count."""
        fired = 0
        while fired != limit:
            when = self.next_when()
            if when is None or when > self.now:
                break
            entry = heapq.heappop(self._queue)
            self._live -= 1
            if len(entry) == 4:
                entry[2](*entry[3])
            else:
                entry[2]._fire()
            self._events_processed += 1
            fired += 1
        return fired

    async def _pump(
        self,
        until: Optional[float],
        max_events: Optional[int],
        raise_on_cap: bool,
        max_wall_ms: Optional[float],
    ) -> None:
        self._wake = asyncio.Event()
        started = self.now
        left = max_events  # callbacks this run may still fire (None: no cap)
        idle_since: Optional[float] = None
        drain = until is None
        try:
            while True:
                fired = self._fire_due(left)
                # Pushes made by the callbacks just fired need no
                # wake-up: the sleep below is computed from the heap
                # head.  Only an I/O callback has to end the wait.
                self._wake.clear()
                if left is not None:
                    left -= fired
                    if left <= 0:
                        if raise_on_cap:
                            raise SimulationError(
                                f"run did not quiesce within {max_events} events"
                            )
                        return
                now = self.now
                if until is not None and now >= until:
                    return
                if max_wall_ms is not None and now - started >= max_wall_ms:
                    raise SimulationError(
                        f"run did not quiesce within {max_wall_ms:.0f} ms wall"
                    )
                if drain:
                    busy = self._live > 0 or any(c() for c in self._busy_checks)
                    if busy:
                        idle_since = None
                    elif idle_since is None:
                        idle_since = now
                    elif now - idle_since >= self.idle_grace_ms:
                        return

                delay_ms = self.max_sleep_ms
                nxt = self.next_when()
                if nxt is not None and nxt - now < delay_ms:
                    delay_ms = nxt - now
                if until is not None and until - now < delay_ms:
                    delay_ms = until - now
                if drain and idle_since is not None:
                    remaining = self.idle_grace_ms - (now - idle_since)
                    if remaining < delay_ms:
                        delay_ms = remaining
                if delay_ms <= 0:
                    # Something is already due: yield one loop pass so
                    # socket callbacks interleave, then fire it.
                    await asyncio.sleep(0)
                    continue
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), timeout=delay_ms / 1000.0
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            self._wake = None
