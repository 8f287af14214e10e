"""Wall-clock scheduler (`repro.realnet.clock.WallClock`) unit tests.

What the clock shares with the deterministic simnet Scheduler —
ordering, FIFO tie-break, cancellation, compaction, the ``max_events``
cap — is ``ClockCore``'s contract and is tested on both clocks in
``test_simnet_clock.py``.  Here is what only wall time does: ``call_at``
in the past fires promptly instead of raising, ``until`` is a wall
deadline, the wall cap, ``rebase``.
"""

from __future__ import annotations

import pytest

from repro.realnet.clock import WallClock
from repro.simnet.clock import SimulationError


@pytest.fixture
def clock():
    c = WallClock()
    yield c
    c.close()


def test_call_at_in_the_past_fires_promptly(clock):
    fired = []
    clock.call_at(clock.now - 500.0, fired.append, "stale")
    clock.call_after(5.0, fired.append, "fresh")
    clock.run_until_idle(max_wall_ms=5_000)
    assert fired == ["stale", "fresh"]


def test_run_until_wall_deadline(clock):
    fired = []
    clock.call_after(10.0, fired.append, "in-window")
    clock.call_after(60_000.0, fired.append, "beyond")
    clock.run(until=clock.now + 100.0)
    assert fired == ["in-window"]
    assert clock.pending == 1


def test_run_until_idle_raises_on_event_cap(clock):
    def reschedule():
        clock.call_after(0.1, reschedule)

    clock.call_after(0.1, reschedule)
    with pytest.raises(SimulationError):
        clock.run_until_idle(max_events=25)


def test_run_until_idle_raises_on_wall_cap(clock):
    def reschedule():
        clock.call_after(1.0, reschedule)

    clock.call_after(1.0, reschedule)
    with pytest.raises(SimulationError):
        clock.run_until_idle(max_wall_ms=250.0)


def test_now_is_monotone_nondecreasing(clock):
    samples = [clock.now for _ in range(100)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))
    assert clock.now >= samples[-1]


def test_rebase_resets_origin(clock):
    clock.run(until=clock.now + 20.0)
    assert clock.now >= 20.0
    clock.rebase()
    assert clock.now < 20.0
