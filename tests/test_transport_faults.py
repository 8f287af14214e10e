"""Transport-level fault hooks: injector callback, stats counters,
partition/heal stats events and down-host drops.

The cases taking the ``net`` fixture are what
``repro.simnet.transport.NetworkCore`` owns, so they run on both
backends that inherit it — the simulated ``Network`` and ``RealNetwork``
over loopback sockets (whose socket-level cases are in
``test_realnet_transport.py``).  Reorder counting is the simulated
network's alone: a frame carries no send time.
"""

from types import SimpleNamespace

import pytest

from repro.chaos import FaultInjector, FaultSchedule
from repro.realnet import RealNetwork
from repro.simnet import LAN_1GBPS, Host, Network, Region


class Recorder(Host):
    def __init__(self, name, region=Region.LAN):
        super().__init__(name, region)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((self.network.now, src.name, payload))


def make_net(n=3, seed=0, backend=Network):
    net = backend(profile=LAN_1GBPS, seed=seed)
    hosts = [net.register(Recorder(f"h{i}")) for i in range(n)]
    return net, hosts


@pytest.fixture(params=[Network, RealNetwork], ids=lambda cls: cls.__name__)
def net(request):
    """A three-host network (``h0``..``h2``) of either backend."""
    network, _hosts = make_net(backend=request.param)
    if request.param is RealNetwork:
        network.scheduler.idle_grace_ms = 50.0  # loopback: no frame flies that long
        network.start()
    yield network
    if request.param is RealNetwork:
        network.close()


def hosts_of(net):
    return [net.host(f"h{i}") for i in range(3)]


def drain(net):
    net.run_until_idle(max_events=100_000)


class TestFaultInjectorHook:
    def test_empty_times_drops_message(self, net):
        a, b, _ = hosts_of(net)
        net.fault_injector = lambda msg, deliver_at: []
        a.send(b, "gone")
        drain(net)
        assert b.received == []
        assert net.stats.messages_dropped_fault == 1
        assert net.stats.messages_dropped == 1

    def test_multiple_times_duplicate_message(self, net):
        a, b, _ = hosts_of(net)
        net.fault_injector = lambda msg, deliver_at: [deliver_at, deliver_at + 5.0]
        a.send(b, "twice")
        drain(net)
        assert [p for (_, _, p) in b.received] == ["twice", "twice"]
        assert net.stats.messages_duplicated == 1
        assert net.stats.messages_delivered == 2

    def test_later_time_delays_message(self, net):
        a, b, _ = hosts_of(net)
        natural = []

        def delay(msg, deliver_at):
            natural.append(deliver_at)
            return [deliver_at + 50.0]

        net.fault_injector = delay
        a.send(b, "late")
        drain(net)
        assert b.received[0][0] >= natural[0] + 50.0
        assert net.stats.messages_delayed_fault == 1
        assert net.stats.messages_duplicated == 0

    def test_injected_delay_counts_reorder(self):
        net, (a, b, _) = make_net()
        first = [True]

        def delay_first(msg, deliver_at):
            if first[0]:
                first[0] = False
                return [deliver_at + 50.0]
            return [deliver_at]

        net.fault_injector = delay_first
        a.send(b, "one")  # delayed past "two"
        net.run(until=1.0)  # "two" is sent strictly later than "one"
        a.send(b, "two")
        net.run_until_idle()
        assert [p for (_, _, p) in b.received] == ["two", "one"]
        assert net.stats.messages_reordered == 1

    def test_fault_injectors_sharing_a_transport_chain(self):
        # Sessions on one transport each install an injector: the first
        # applies first, each time it answers flows through the second,
        # and what it drops never reaches the second.
        net, (a, b, c) = make_net()
        session = SimpleNamespace(net=net, peers=[])
        first = FaultInjector(
            session,
            FaultSchedule().duplicate(0.0, ["h1"], 1e6, 1.0).drop(0.0, ["h2"], 1e6, 1.0),
        )
        second = FaultInjector(
            session, FaultSchedule().delay(0.0, ["h1", "h2"], 1e6, 1.0, 50.0)
        )
        seen = []
        delay = second._filter
        second._filter = lambda msg, at: seen.append(msg.dst) or delay(msg, at)
        first.install()
        second.install()
        net.run(until=1.0)  # the windows open at t=0
        a.send(b, "to-b")
        a.send(c, "to-c")
        net.run_until_idle()
        assert [p for (_, _, p) in b.received] == ["to-b", "to-b"]
        assert min(t for (t, _, _) in b.received) >= 51.0
        assert c.received == []
        assert seen == ["h1", "h1"]

    def test_no_injector_means_no_fault_counters(self):
        net, (a, b, _) = make_net()
        a.send(b, "clean")
        net.run_until_idle()
        assert net.stats.messages_dropped_fault == 0
        assert net.stats.messages_duplicated == 0
        assert net.stats.messages_delayed_fault == 0


class TestPartitionStats:
    def test_partition_and_heal_emit_stats_events(self, net):
        events = []
        net.on_stats_event = lambda kind, detail: events.append((kind, detail))
        net.partition(["h0"], ["h1", "h2"])
        assert net.partitioned
        net.heal()
        net.heal()  # no partition left: neither counted nor reported
        assert not net.partitioned
        kinds = [k for k, _ in events]
        assert kinds == ["partition", "heal"]
        assert events[0][1]["groups"] == [["h0"], ["h1", "h2"]]
        assert net.stats.partitions_started == 1
        assert net.stats.partitions_healed == 1

    def test_cross_partition_sends_counted_as_partition_drops(self, net):
        a, b, c = hosts_of(net)
        net.partition(["h0"], ["h1", "h2"])
        a.send(b, "blocked")
        b.send(c, "same-side")
        drain(net)
        assert b.received == []
        assert len(c.received) == 1
        assert net.stats.messages_dropped_partition == 1
        net.heal()
        a.send(b, "open-again")
        drain(net)
        assert len(b.received) == 1
        assert net.stats.messages_dropped_partition == 1

    def test_down_host_drops_at_the_sender(self, net):
        a, b, c = hosts_of(net)
        net.condition("h1").down = True
        a.send(b, "to-the-dead")
        b.send(c, "from-the-dead")
        a.send_many([b, c], "fanout")
        drain(net)
        assert b.received == []
        assert [p for (_, _, p) in c.received] == ["fanout"]
        assert net.stats.messages_sent == 4
        assert net.stats.messages_dropped == 3
        assert net.stats.messages_dropped_partition == 0
        assert net.stats.messages_dropped_fault == 0

    def test_stats_as_dict_has_all_counters(self):
        net, (a, b, _) = make_net()
        a.send(b, "x")
        net.run_until_idle()
        d = net.stats.as_dict()
        for key in (
            "messages_sent",
            "messages_delivered",
            "messages_dropped",
            "messages_dropped_partition",
            "messages_dropped_fault",
            "messages_duplicated",
            "messages_delayed_fault",
            "messages_reordered",
            "partitions_started",
            "partitions_healed",
        ):
            assert key in d
        assert d["messages_sent"] == 1
