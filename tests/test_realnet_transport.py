"""RealNetwork behaviour tests: delivery, crash and restart, ingress
conditions and connect retry/backoff — all over real localhost sockets
driven by the wall clock.  Partitions, the fault injector's accounting
and down-host drops are ``NetworkCore``'s and are tested on both
backends in ``test_transport_faults.py``."""

from __future__ import annotations

import pytest

from repro.realnet import RealNetwork
from repro.simnet.topology import Host


class Sink(Host):
    """Records every payload it receives."""

    def __init__(self, name: str):
        super().__init__(name)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((src.name, payload))


@pytest.fixture
def net():
    network = RealNetwork(seed=1)
    yield network
    network.close()


def _drain(net, max_wall_ms=10_000):
    net.run_until_idle(max_wall_ms=max_wall_ms)


def test_basic_delivery_and_stats(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, {"op": "hello", "n": 1}, size_bytes=64)
    a.send(b, ("tuple", 2), size_bytes=64)
    _drain(net)
    assert b.received == [("a", {"op": "hello", "n": 1}), ("a", ["tuple", 2])] or \
        b.received == [("a", {"op": "hello", "n": 1}), ("a", ("tuple", 2))]
    stats = net.stats.as_dict()
    assert stats["messages_sent"] == 2
    assert stats["messages_delivered"] == 2
    assert net.connects >= 1


def test_broadcast_send_many(net):
    a = net.register(Sink("a"))
    sinks = [net.register(Sink(f"s{i}")) for i in range(3)]
    net.start()
    a.send_many(sinks, "fanout")
    _drain(net)
    assert all(s.received == [("a", "fanout")] for s in sinks)


def test_down_host_drops_and_restart_revives(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    net.condition("b").down = True
    a.send(b, "lost")
    _drain(net)
    assert b.received == []
    assert net.stats.messages_dropped >= 1

    net.condition("b").down = False
    a.send(b, "after-restart")
    _drain(net)
    assert b.received == [("a", "after-restart")]


def test_ingress_condition_drop_and_delay(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    net.condition("b").ingress_drop_rate = 1.0
    a.send(b, "eaten")
    _drain(net)
    assert b.received == []

    net.condition("b").ingress_drop_rate = 0.0
    net.condition("b").extra_ingress_ms = 20.0
    before = net.now
    a.send(b, "slow")
    _drain(net)
    assert b.received == [("a", "slow")]
    assert net.now - before >= 20.0


def test_connect_retry_backoff_refused_then_listening(net):
    """A peer whose listener is down refuses connections; the channel
    retries with exponential backoff and delivers once it is back."""
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    net.suspend_listener("b")
    a.send(b, "patience")
    # Let a few refused connects and backoff sleeps happen.
    net.run(until=net.now + 60.0)
    channel = net._channels[("a", "b")]
    assert channel.connect_attempts > 0
    assert channel.last_backoff_ms >= net.retry_base_ms
    assert b.received == []

    net.resume_listener("b")
    _drain(net)
    assert b.received == [("a", "patience")]


def test_connect_gives_up_after_max_attempts(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    net.suspend_listener("b")
    a.send(b, "doomed")
    # Worst case: sum of capped backoffs, then the queue is dropped.
    _drain(net, max_wall_ms=30_000)
    channel = net._channels[("a", "b")]
    assert channel.connect_attempts >= net.max_connect_attempts
    assert net.stats.messages_dropped >= 1
    assert b.received == []


def test_late_registration_gets_listener(net):
    a = net.register(Sink("a"))
    net.start()
    b = net.register(Sink("late"))
    a.send(b, "hi")
    _drain(net)
    assert b.received == [("a", "hi")]


def test_handler_exception_surfaces_from_run(net):
    a = net.register(Sink("a"))

    class Bomb(Host):
        def handle_message(self, src, payload):
            raise RuntimeError("handler blew up")

    b = net.register(Bomb("b"))
    net.start()
    a.send(b, "trigger")
    with pytest.raises(RuntimeError, match="handler blew up"):
        _drain(net)


def test_crash_via_peer_condition_closes_listener(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    port_before = net.port_of("b")
    assert port_before is not None
    net.condition("b").down = True
    assert net.port_of("b") is None
    net.condition("b").down = False
    assert net.port_of("b") is not None
    a.send(b, "again")
    _drain(net)
    assert b.received == [("a", "again")]
