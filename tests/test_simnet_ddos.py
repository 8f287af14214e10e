"""Unit tests for attack models."""

import pytest

from repro.simnet import (
    FloodAttack,
    Host,
    LatencyInjectionAttack,
    LAN_1GBPS,
    Network,
    TakedownAttack,
    select_victims,
)


class Sink(Host):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append(payload)


def make_net(n=4):
    net = Network(profile=LAN_1GBPS, seed=0)
    hosts = [net.register(Sink(f"h{i}")) for i in range(n)]
    return net, hosts


def test_takedown_blocks_and_lift_restores():
    net, (a, b, *_rest) = make_net()
    attack = TakedownAttack(["h1"])
    attack.apply(net)
    a.send(b, "during")
    net.run_until_idle()
    assert b.received == []
    attack.lift(net)
    a.send(b, "after")
    net.run_until_idle()
    assert b.received == ["after"]


def test_attack_cannot_apply_twice():
    net, _ = make_net()
    attack = TakedownAttack(["h0"])
    attack.apply(net)
    with pytest.raises(RuntimeError):
        attack.apply(net)


def test_attack_cannot_lift_inactive():
    net, _ = make_net()
    with pytest.raises(RuntimeError):
        TakedownAttack(["h0"]).lift(net)


def test_latency_injection_adds_and_removes_delay():
    net, (a, b, *_rest) = make_net()
    attack = LatencyInjectionAttack(["h1"], extra_ms=500.0)
    attack.apply(net)
    assert net.condition("h1").extra_ingress_ms == 500.0
    attack.lift(net)
    assert net.condition("h1").extra_ingress_ms == 0.0


def test_latency_injection_stacks():
    net, _ = make_net()
    a1 = LatencyInjectionAttack(["h1"], extra_ms=100.0)
    a2 = LatencyInjectionAttack(["h1"], extra_ms=200.0)
    a1.apply(net)
    a2.apply(net)
    assert net.condition("h1").extra_ingress_ms == 300.0
    a1.lift(net)
    assert net.condition("h1").extra_ingress_ms == 200.0


def test_flood_attack_drops_most_traffic():
    net, (a, b, *_rest) = make_net()
    FloodAttack(["h1"], drop_rate=1.0).apply(net)
    for i in range(50):
        a.send(b, i)
    net.run_until_idle()
    assert b.received == []


def test_flood_rejects_bad_rate():
    with pytest.raises(ValueError):
        FloodAttack(["x"], drop_rate=1.5)


def test_latency_injection_rejects_negative():
    with pytest.raises(ValueError):
        LatencyInjectionAttack(["x"], extra_ms=-1.0)


def test_select_victims_fraction():
    names = [f"p{i}" for i in range(16)]
    assert len(select_victims(names, 0.125)) == 2
    assert len(select_victims(names, 0.25)) == 4
    assert len(select_victims(names, 0.375)) == 6
    assert select_victims(names, 0.0) == []


def test_select_victims_deterministic():
    names = [f"p{i}" for i in range(8)]
    assert select_victims(names, 0.5, seed=1) == select_victims(names, 0.5, seed=1)


def test_select_victims_rejects_bad_fraction():
    with pytest.raises(ValueError):
        select_victims(["a"], 2.0)


class TestPartition:
    def test_partition_blocks_cross_group_traffic(self):
        from repro.simnet import PartitionAttack

        net, (a, b, c, d) = make_net()
        attack = PartitionAttack(["h0", "h1"], ["h2", "h3"])
        attack.apply(net)
        a.send(b, "same-side")
        a.send(c, "cross")
        net.run_until_idle()
        assert b.received == ["same-side"]
        assert c.received == []
        attack.lift(net)
        a.send(c, "after-heal")
        net.run_until_idle()
        assert c.received == ["after-heal"]

    def test_ungrouped_hosts_form_implicit_group(self):
        from repro.simnet import PartitionAttack

        net, (a, b, c, d) = make_net()
        PartitionAttack(["h0"]).apply(net)
        b.send(c, "both-ungrouped")
        b.send(a, "to-isolated")
        net.run_until_idle()
        assert c.received == ["both-ungrouped"]
        assert a.received == []


class TestSplitBrain:
    def test_majority_partition_progresses_and_reconverges(self):
        """Split-brain on the blockchain: the majority side keeps
        validating, the minority stalls; healing triggers catch-up and
        all ledgers reconverge."""
        import sys

        sys.path.insert(0, "tests")
        from conftest import CounterContract

        from repro.blockchain import BlockchainNetwork, TxValidationCode
        from repro.simnet import LAN_1GBPS, PartitionAttack

        chain = BlockchainNetwork(n_peers=5, profile=LAN_1GBPS, seed=1)
        chain.install_contract(CounterContract)
        client = chain.create_client("c0", anchor=chain.peers[0])
        results = []
        client.invoke("counter", "init", ("m",), ("ctr/m",),
                      on_complete=lambda r, l: results.append(r.code))
        chain.run_until_idle()

        # Orderer + client + 3 peers on one side; 2 peers isolated.
        majority = ["orderer", "c0", "peer0", "peer1", "peer2"]
        attack = PartitionAttack(majority, ["peer3", "peer4"])
        attack.apply(chain.net)
        client.invoke("counter", "add", ("m", 1), ("ctr/m",),
                      on_complete=lambda r, l: results.append(r.code))
        chain.run_until_idle()
        assert results == [TxValidationCode.VALID] * 2
        assert chain.peers[0].ledger.state.get("ctr/m") == 1
        assert chain.peers[3].ledger.state.get("ctr/m") == 0  # stalled side

        attack.lift(chain.net)
        client.invoke("counter", "add", ("m", 1), ("ctr/m",),
                      on_complete=lambda r, l: results.append(r.code))
        chain.run_until_idle()
        assert results[-1] == TxValidationCode.VALID
        hashes = {p.ledger.state_hash() for p in chain.peers}
        assert len(hashes) == 1
        assert chain.peers[3].ledger.state.get("ctr/m") == 2
