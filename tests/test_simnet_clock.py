"""Unit tests for the clocks.

The cases taking the ``clock`` fixture are the contract of
``repro.simnet.clock.ClockCore`` and run on both clocks that inherit
it — the discrete-event ``Scheduler`` and the realnet ``WallClock``
(whose own cases are in ``test_realnet_clock.py``).  The rest pin what
only the simulated clock does: it refuses a deadline in its past and
``run(until=...)`` sets ``now``.
"""

import pytest

from repro.realnet.clock import WallClock
from repro.simnet import Scheduler, SimulationError


@pytest.fixture(params=[Scheduler, WallClock], ids=lambda cls: cls.__name__)
def clock(request):
    made = request.param()
    if request.param is WallClock:
        # Nothing but timers here: no frame in a socket buffer to wait out.
        made.idle_grace_ms = 5.0
    yield made
    if request.param is WallClock:
        made.close()


def drain(clock):
    clock.run_until_idle(max_events=10_000)


def test_starts_at_zero():
    assert Scheduler().now == 0.0


def test_call_after_advances_clock():
    sched = Scheduler()
    fired = []
    sched.call_after(10.0, fired.append, "a")
    sched.run()
    assert fired == ["a"]
    assert sched.now == 10.0


def test_events_fire_in_time_order(clock):
    fired = []
    clock.call_after(15.0, fired.append, 3)
    clock.call_after(5.0, fired.append, 1)
    clock.call_after(10.0, fired.append, 2)
    drain(clock)
    assert fired == [1, 2, 3]


def test_same_time_events_fire_fifo(clock):
    fired = []
    when = clock.now + 5.0
    for i in range(10):
        clock.call_at(when, fired.append, i)
    drain(clock)
    assert fired == list(range(10))


def test_call_at_anon_from_a_callback_shares_the_sequence(clock):
    """Anonymous entries pushed while an event fires (message delivery,
    CPU completion) order by ``(when, seq)`` with everything else, off
    the counter ``call_at`` uses."""
    fired = []

    def first():
        fired.append("first")
        when = clock.now + 5.0
        clock.call_at_anon(when, fired.append, "anon-a")
        clock.call_at(when, fired.append, "timer")
        clock.call_at_anon(when, fired.append, "anon-b")
        clock.call_at_anon(when - 2.0, fired.append, "earlier")

    clock.call_after(1.0, first)
    drain(clock)
    assert fired == ["first", "earlier", "anon-a", "timer", "anon-b"]
    assert clock.events_processed == 5


def test_cancel_prevents_firing(clock):
    fired = []
    keep = clock.call_after(5.0, fired.append, "keep")
    drop = clock.call_after(5.0, fired.append, "drop")
    drop.cancel()
    drain(clock)
    assert fired == ["keep"]
    assert keep.fired and not keep.cancelled
    assert drop.cancelled and not drop.fired
    assert clock.pending == 0


def test_cancel_is_idempotent(clock):
    timer = clock.call_after(5.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert timer.cancelled
    assert clock.pending == 0


def test_pending_excludes_cancelled(clock):
    t1 = clock.call_after(1.0, lambda: None)
    clock.call_after(2.0, lambda: None)
    t1.cancel()
    assert clock.pending == 1


def test_cancelled_timers_compact(clock):
    timers = [clock.call_after(60_000.0, lambda: None) for _ in range(200)]
    for t in timers:
        t.cancel()
    # Compaction keeps the heap from accumulating dead entries.
    assert len(clock._queue) < 200
    assert clock.pending == 0


def test_negative_delay_rejected(clock):
    with pytest.raises(SimulationError):
        clock.call_after(-1.0, lambda: None)


def test_events_processed_counter(clock):
    for _ in range(5):
        clock.call_after(1.0, lambda: None)
    clock.call_after(1.0, lambda: None).cancel()
    drain(clock)
    assert clock.events_processed == 5


def test_run_stops_at_max_events(clock):
    """The cap holds inside one pass over the due entries, not only
    between passes."""
    fired = []
    for i in range(10):
        clock.call_after(0.0, fired.append, i)
    clock.run(until=clock.now + 5.0, max_events=3)
    assert fired == [0, 1, 2]
    assert clock.pending == 7


def test_callback_exception_propagates(clock):
    def boom():
        raise RuntimeError("scheduled failure")

    clock.call_after(1.0, boom)
    with pytest.raises(RuntimeError, match="scheduled failure"):
        drain(clock)


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.call_after(10.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.call_at(5.0, lambda: None)
    with pytest.raises(SimulationError):
        sched.call_at_anon(5.0, lambda: None)


def test_run_until_stops_before_later_events():
    sched = Scheduler()
    fired = []
    sched.call_after(10.0, fired.append, "early")
    sched.call_after(100.0, fired.append, "late")
    sched.run(until=50.0)
    assert fired == ["early"]
    assert sched.now == 50.0
    sched.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    sched = Scheduler()
    sched.run(until=42.0)
    assert sched.now == 42.0


def test_events_scheduled_during_run_are_processed():
    sched = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sched.call_after(1.0, chain, n + 1)

    sched.call_after(1.0, chain, 0)
    sched.run()
    assert fired == [0, 1, 2, 3]
    assert sched.now == 4.0


def test_step_returns_false_on_empty_queue():
    assert Scheduler().step() is False


def test_run_until_idle_backstop():
    sched = Scheduler()

    def forever():
        sched.call_after(1.0, forever)

    sched.call_after(1.0, forever)
    with pytest.raises(SimulationError):
        sched.run_until_idle(max_events=100)


def test_timer_active_lifecycle():
    sched = Scheduler()
    timer = sched.call_after(1.0, lambda: None)
    assert timer.active
    sched.run()
    assert timer.fired and not timer.active
