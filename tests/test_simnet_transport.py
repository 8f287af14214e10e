"""Unit tests for network transport, latency profiles and topology."""

import random
from dataclasses import replace

import pytest

from repro.simnet import (
    INTERNET_US,
    LAN_1GBPS,
    Host,
    LatencyProfile,
    Network,
    Region,
    place_random,
    place_round_robin,
)


class Recorder(Host):
    """A host that records every delivered payload with its arrival time."""

    def __init__(self, name, region=Region.LAN):
        super().__init__(name, region)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((self.network.now, src.name, payload))


def make_pair(profile=LAN_1GBPS, regions=(Region.LAN, Region.LAN), seed=0):
    net = Network(profile=profile, seed=seed)
    a = net.register(Recorder("a", regions[0]))
    b = net.register(Recorder("b", regions[1]))
    return net, a, b


def test_message_delivered_with_positive_delay():
    net, a, b = make_pair()
    a.send(b, "hello")
    net.run_until_idle()
    assert len(b.received) == 1
    t, src, payload = b.received[0]
    assert src == "a" and payload == "hello"
    assert t > 0.0


def test_wan_slower_than_lan():
    lan_net, a1, b1 = make_pair(LAN_1GBPS)
    wan_net, a2, b2 = make_pair(
        INTERNET_US, regions=(Region.DALLAS, Region.SAN_JOSE)
    )
    a1.send(b1, "x")
    a2.send(b2, "x")
    lan_net.run_until_idle()
    wan_net.run_until_idle()
    assert b2.received[0][0] > b1.received[0][0]
    assert b2.received[0][0] >= 20.0  # one-way Dallas<->San Jose


def test_fifo_ordering_same_destination():
    net, a, b = make_pair()
    for i in range(20):
        a.send(b, i)
    net.run_until_idle()
    assert [p for (_, _, p) in b.received] == list(range(20))


def test_egress_serialization_linear_in_fanout():
    """Sending a large block to N receivers serialises at the sender NIC,
    so the last receiver gets it ~linearly later — the physical cause of
    the paper's latency growth with peer count."""
    profile = LAN_1GBPS
    net = Network(profile=profile, seed=1)
    src = net.register(Recorder("src"))
    sinks = [net.register(Recorder(f"s{i}")) for i in range(16)]
    block_bytes = 500_000  # 4 ms serialisation at 1 Gbps
    for s in sinks:
        src.send(s, "block", size_bytes=block_bytes)
    net.run_until_idle()
    arrivals = sorted(s.received[0][0] for s in sinks)
    per_send = profile.serialization(block_bytes)
    spread = arrivals[-1] - arrivals[0]
    assert spread == pytest.approx(15 * per_send, rel=0.2)


def test_down_host_drops_messages():
    net, a, b = make_pair()
    net.condition("b").down = True
    a.send(b, "lost")
    net.run_until_idle()
    assert b.received == []
    assert net.stats.messages_dropped == 1


def test_host_down_mid_flight_drops():
    net, a, b = make_pair()
    a.send(b, "in-flight")
    net.condition("b").down = True
    net.run_until_idle()
    assert b.received == []


def test_extra_ingress_latency_applied():
    net, a, b = make_pair()
    a.send(b, "fast")
    net.run_until_idle()
    base = b.received[0][0]

    net2, a2, b2 = make_pair()
    net2.condition("b").extra_ingress_ms = 500.0
    a2.send(b2, "slow")
    net2.run_until_idle()
    assert b2.received[0][0] == pytest.approx(base + 500.0, abs=0.5)


def test_ingress_drop_rate_drops_fraction():
    net, a, b = make_pair(seed=7)
    net.condition("b").ingress_drop_rate = 0.5
    for i in range(400):
        a.send(b, i)
    net.run_until_idle()
    assert 120 < len(b.received) < 280


def test_loss_rate_profile():
    lossy = LatencyProfile(
        name="lossy",
        propagation_ms={},
        intra_region_ms=0.1,
        jitter_ms=0.0,
        bandwidth_mbps=1000.0,
        loss_rate=1.0,
    )
    net, a, b = make_pair(lossy)
    a.send(b, "never")
    net.run_until_idle()
    assert b.received == []


def test_unregistered_host_cannot_send():
    host = Recorder("lonely")
    other = Recorder("other")
    with pytest.raises(RuntimeError):
        host.send(other, "x")


def test_duplicate_host_name_rejected():
    net = Network()
    net.register(Recorder("a"))
    with pytest.raises(ValueError):
        net.register(Recorder("a"))


def test_stats_track_sends():
    net, a, b = make_pair()
    a.send(b, "one", size_bytes=100)
    a.send(b, "two", size_bytes=200)
    net.run_until_idle()
    assert net.stats.messages_sent == 2
    assert net.stats.messages_delivered == 2
    assert net.stats.bytes_sent == 300


def test_determinism_same_seed():
    def arrivals(seed):
        net, a, b = make_pair(INTERNET_US, (Region.DALLAS, Region.TORONTO), seed)
        for i in range(10):
            a.send(b, i)
        net.run_until_idle()
        return [t for (t, _, _) in b.received]

    assert arrivals(3) == arrivals(3)
    assert arrivals(3) != arrivals(4)


def test_profile_symmetric_propagation():
    assert INTERNET_US.propagation(Region.DALLAS, Region.TORONTO) == \
        INTERNET_US.propagation(Region.TORONTO, Region.DALLAS)


def test_profile_default_propagation_for_unknown_pair():
    assert INTERNET_US.propagation("mars", Region.DALLAS) == \
        INTERNET_US.default_propagation_ms


def test_serialization_zero_for_empty_message():
    assert INTERNET_US.serialization(0) == 0.0


def test_one_way_delay_includes_jitter_bounds():
    rng = random.Random(0)
    base = INTERNET_US.propagation(Region.DALLAS, Region.SAN_JOSE)
    for _ in range(100):
        d = INTERNET_US.one_way_delay(Region.DALLAS, Region.SAN_JOSE, 0, rng)
        assert base <= d <= base + INTERNET_US.jitter_ms + INTERNET_US.overhead_ms + 0.001


def test_place_round_robin_cycles_regions():
    placement = place_round_robin(7, Region.US)
    assert placement[0] == placement[3] == placement[6] == Region.US[0]
    assert len(placement) == 7


def test_place_random_deterministic_by_seed():
    assert place_random(10, seed=1) == place_random(10, seed=1)
    assert all(r in Region.US for r in place_random(10, seed=2))


def test_topology_region_lookup():
    net = Network()
    net.register(Recorder("d1", Region.DALLAS))
    net.register(Recorder("d2", Region.DALLAS))
    net.register(Recorder("t1", Region.TORONTO))
    assert {h.name for h in net.topology.in_region(Region.DALLAS)} == {"d1", "d2"}
    assert len(net.topology) == 3


def _interleaved_run(single_sends: bool, injector: bool):
    """One scripted traffic pattern over a jittery, lossy WAN with a
    slow receiver, a dropping receiver and a mid-run partition.  With
    ``single_sends`` every one-destination message and every other
    broadcast goes through ``send``; otherwise everything goes through
    ``send_many``."""
    profile = replace(INTERNET_US, loss_rate=0.1)
    net = Network(profile=profile, seed=5)
    regions = [Region.DALLAS, Region.SAN_JOSE, Region.DALLAS, Region.LAN, Region.SAN_JOSE]
    hosts = [net.register(Recorder(f"h{i}", r)) for i, r in enumerate(regions)]
    net.condition("h3").extra_ingress_ms = 7.5
    net.condition("h4").ingress_drop_rate = 0.3
    if injector:
        def inject(msg, at):
            # Deterministic in the message: drop, duplicate or delay some.
            kind = msg.payload[1] % 4
            if kind == 0:
                return []
            if kind == 1:
                return [at, at + 3.0]
            return [at + kind]

        net.fault_injector = inject
    script = random.Random(17)
    for step in range(60):
        src = hosts[script.randrange(len(hosts))]
        dsts = [h for h in hosts if h is not src and script.random() < 0.6]
        payload = (src.name, step)
        size = script.choice((0, 128, 2500))
        if single_sends and (len(dsts) == 1 or step % 2):
            for dst in dsts:
                net.send(src, dst, payload, size)
        else:
            net.send_many(src, dsts, payload, size)
        if step == 20:
            net.partition(["h0", "h1"], ["h2", "h3", "h4"])
        if step == 40:
            net.heal()
        if step % 7 == 0:
            net.run(until=net.now + script.uniform(0.0, 15.0))
    net.run_until_idle()
    return [h.received for h in hosts], net.stats.as_dict()


@pytest.mark.parametrize("injector", [False, True], ids=["plain", "injected"])
def test_send_and_send_many_interleave_bit_identically(injector):
    """``send`` is ``send_many`` to one destination: a run mixing the two
    equals a twin run that only broadcasts — same deliveries at the
    same times in the same order, same statistics."""
    mixed = _interleaved_run(single_sends=True, injector=injector)
    broadcast_only = _interleaved_run(single_sends=False, injector=injector)
    assert mixed == broadcast_only
    received, stats = mixed
    assert sum(map(len, received)) == stats["messages_delivered"] > 0
    assert stats["messages_dropped"] > stats["messages_dropped_partition"] > 0
