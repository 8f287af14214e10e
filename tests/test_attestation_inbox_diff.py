"""Differential test of the attestation inbox (DESIGN.md §16).

``Peer`` gives a vote or sync hash a scheduler event of its own only
when it is a retry or could complete a quorum; everything else waits in
the inbox for the next reader of the tallies.  The *reference peer*
below arms every attestation — one event per message at the instant the
CPU is done with it, which is what the engine did before the inbox
existed.  It is installed the way the chaos buggy-peer fixtures are
(instance patches on live peers, no product switch), and one scripted
session is run against both: the commit and sync timelines, client
latencies and codes, final state and every transport counter must be
identical, while the product must have scheduled far fewer events.

The sessions are built to hit what the arming predicate must get right:
odd and even electorates, blocks that mix accepted and rejected
transactions (a rejection is decided one vote before an acceptance),
blocks of rejections only, a drop window and a partition that force
anti-entropy retries and their replies, and a crash that lands while
the victim's inbox is not empty.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blockchain import BlockchainNetwork, FabricConfig
from repro.blockchain.messages import SyncHashMsg, VoteMsg
from repro.chaos.workload import ChaosCounterContract

COUNTERS = ("a", "b", "c", "d")
KEY = ChaosCounterContract.key

#: One fault: ``(at_ms, kind, argument)``.
Fault = Tuple[float, str, Any]


def arm_every_attestation(peer) -> None:
    """Turn ``peer`` into the reference: every attestation is armed."""
    peer._arms = lambda stage, msg: True


class Session:
    """A counter session with bursts of conflicting updates, driven
    under a fault schedule, recording everything an observer can see."""

    def __init__(self, n_peers: int, seed: int, reference: bool,
                 policy: str = "majority", **config):
        self.chain = BlockchainNetwork(
            n_peers,
            config=FabricConfig(
                max_block_txs=5, anti_entropy_ms=120.0, **config
            ),
            policy=policy,
            seed=seed,
        )
        self.chain.install_contract(ChaosCounterContract)
        if reference:
            for peer in self.chain.peers:
                arm_every_attestation(peer)
        # Clients anchor at peers the schedules below never crash.
        self.clients = [
            self.chain.create_client(f"c{i}", anchor=self.chain.peers[i])
            for i in range(2)
        ]
        self.commits: List[Tuple[float, str, int, Tuple[str, ...]]] = []
        self.syncs: List[Tuple[float, str, int]] = []
        self.acks: List[Tuple[str, str, float]] = []
        #: ``(queued before, queued after)`` per crash.
        self.inbox_at_crash: List[Tuple[int, int]] = []
        self.drop_rng = random.Random(seed)
        self.drop_rate = 0.0
        for peer in self.chain.peers:
            peer.ledger.on_append = self._on_append(peer)
            peer.on_block_synced = self._on_synced(peer)
        self.chain.net.fault_injector = self._inject

    # observation ------------------------------------------------------

    def _on_append(self, peer):
        def record(block, _executions, codes):
            self.commits.append(
                (self.chain.now, peer.name, block.number, tuple(codes))
            )
        return record

    def _on_synced(self, peer):
        def record(number, _block):
            self.syncs.append((self.chain.now, peer.name, number))
        return record

    def _on_ack(self, result, latency_ms):
        self.acks.append((result.tx_id, result.code, latency_ms))

    # faults -----------------------------------------------------------

    def _inject(self, msg, deliver_at):
        if self.drop_rate and type(msg.payload) in (VoteMsg, SyncHashMsg):
            if self.drop_rng.random() < self.drop_rate:
                return []
        return [deliver_at]

    def _apply(self, kind: str, arg) -> None:
        peers = self.chain.peers
        net = self.chain.net
        if kind == "drop":
            self.drop_rate = arg
        elif kind == "crash":
            if not net.condition(peers[arg].name).down:
                queued = len(peers[arg]._inbox)
                peers[arg].crash()
                self.inbox_at_crash.append((queued, len(peers[arg]._inbox)))
        elif kind == "restart":
            if net.condition(peers[arg].name).down:
                peers[arg].restart()
        elif kind == "partition":
            names = [p.name for p in peers]
            self.chain.net.partition(names[:-arg], names[-arg:])
        elif kind == "heal":
            self.chain.net.heal()
        else:
            raise ValueError(kind)

    # workload ---------------------------------------------------------

    def _submit(self, client_index: int, function: str, counter: str, delta: int):
        args = (counter,) if function == "init" else (counter, delta)
        self.clients[client_index].invoke(
            ChaosCounterContract.name, function, args,
            touched_keys=(KEY(counter),), on_complete=self._on_ack,
        )

    def _burst(self, index: int) -> None:
        """Alternating block shapes: a same-key pair (the second loses
        the block-level lock) next to independent updates and an
        overdraft; then a block of nothing but rejections."""
        if index % 3 == 2:
            self._submit(0, "sub", "d", 10_000)
            return
        self._submit(0, "add", "a", 1 + index)
        self._submit(0, "add", "a", 2)          # conflicts with the line above
        self._submit(0, "add", "b", 3)
        self._submit(0, "sub", "c", 10_000)     # contract rejects
        self._submit(1, "add", "d", 1)

    def run(self, n_bursts: int, faults: Sequence[Fault],
            spacing_ms: float = 90.0) -> Dict[str, Any]:
        sched = self.chain.scheduler
        for counter in COUNTERS:
            self._submit(0, "init", counter, 0)
        self.chain.run_until_idle()
        start = self.chain.now
        for index in range(n_bursts):
            sched.call_at(start + index * spacing_ms, self._burst, index)
        for at_ms, kind, arg in faults:
            sched.call_at(start + at_ms, self._apply, kind, arg)
        self.chain.run_until_idle()
        peers = self.chain.peers
        return {
            "commits": self.commits,
            "syncs": self.syncs,
            "acks": self.acks,
            "state_hashes": [p.ledger.state_hash() for p in peers],
            "heights": [(p.committed_height, p.synced_height) for p in peers],
            "diverged": [p.diverged for p in peers],
            "net": self.chain.net.stats.as_dict(),
        }


def run_pair(n_peers: int, seed: int, n_bursts: int, faults: Sequence[Fault],
             **kwargs) -> Tuple[Session, Session]:
    """The same session on ``Peer`` and on the reference peer, asserted
    identical in everything an observer can see.  (Not compared: the
    number of scheduler events, and the clock reading at quiescence —
    the reference's last event may be one that does nothing.)"""
    product = Session(n_peers, seed, reference=False, **kwargs)
    reference = Session(n_peers, seed, reference=True, **kwargs)
    got = product.run(n_bursts, faults)
    want = reference.run(n_bursts, faults)
    for key in want:
        assert got[key] == want[key], f"{key} differs from the reference peer"
    return product, reference


def armed(session: Session) -> int:
    return sum(p.attestations_armed for p in session.chain.peers)


#: Drop window (forces retries), a crash timed into a vote burst, a
#: late restart (catch-up), then a minority partition and its heal.
SCRIPTED_FAULTS: List[Fault] = [
    (100.0, "drop", 0.35),
    (400.0, "drop", 0.0),
    (640.0, "crash", -1),
    (1000.0, "restart", -1),
    (1200.0, "partition", 2),
    (1600.0, "heal", None),
]


@pytest.mark.parametrize("n_peers", [5, 8, 9])
def test_scripted_faults_match_the_reference_peer(n_peers):
    product, reference = run_pair(
        n_peers, seed=3, n_bursts=24, faults=SCRIPTED_FAULTS
    )
    # The session exercised what it claims to.
    codes = {code for _tx, code, _lat in product.acks}
    assert {"VALID", "MVCC_READ_CONFLICT", "CONTRACT_REJECTED"} <= codes
    assert any(len(set(c[3])) > 1 for c in product.commits), "no mixed block"
    assert any(set(c[3]) == {"CONTRACT_REJECTED"} for c in product.commits)
    stats = product.chain.net.stats
    assert stats.messages_dropped_fault > 0
    assert stats.messages_dropped_partition > 0
    heights = {p.committed_height for p in product.chain.peers}
    assert len(heights) == 1, "a peer never caught up"
    # The crash must find queued attestations at 8 and 9 peers, or the
    # crash()-clears-the-inbox path is not under test.
    (queued, left), = product.inbox_at_crash
    assert left == 0 and (queued > 0 or n_peers == 5)
    # ... and the product did it with a fraction of the events.
    assert reference.chain.scheduler.events_processed > (
        product.chain.scheduler.events_processed
    )
    assert armed(product) * 2 < armed(reference)


def test_partition_between_commit_and_sync():
    """The minority is cut off after committing a block and before its
    sync quorum, and misses deliveries meanwhile: after the heal the gap
    detection itself must finish that sync.  (Left to "the next sync
    hash that arrives", an unarmed hash would finish it on the reference
    peer and not on ``Peer``.)"""
    faults = [(480.0, "partition", 2), (880.0, "heal", None)]
    product, _reference = run_pair(8, seed=3, n_bursts=12, faults=faults)
    assert product.chain.net.stats.messages_dropped_partition > 0
    assert len({p.synced_height for p in product.chain.peers}) == 1


def count_anti_entropy(session: Session) -> Dict[str, int]:
    """Count retries and replies as the transport sees them."""
    seen = {"retries": 0, "replies": 0}
    inner = session.chain.net.fault_injector

    def inject(msg, at):
        payload = msg.payload
        if type(payload) in (VoteMsg, SyncHashMsg):
            seen["retries"] += payload.is_retry
            seen["replies"] += payload.is_reply
        return inner(msg, at)

    session.chain.net.fault_injector = inject
    return seen


def test_retries_and_replies_flow_through_the_inbox():
    """A drop window alone: retries are armed on arrival and answered,
    on both peers alike."""
    faults = [(50.0, "drop", 0.5), (500.0, "drop", 0.0)]
    product = Session(8, seed=5, reference=False)
    reference = Session(8, seed=5, reference=True)
    product_seen = count_anti_entropy(product)
    reference_seen = count_anti_entropy(reference)
    assert product.run(12, faults) == reference.run(12, faults)
    assert product_seen == reference_seen
    assert product_seen["retries"] > 0 and product_seen["replies"] > 0


@pytest.mark.parametrize("kwargs", [
    {"policy": "atleast(3)"},
    {"policy": "majority and peer(peer0)"},
    {"vote_verify_ms": 0.0},
    {"sync_verify_ms": 0.0},
])
def test_uncountable_quorums_arm_every_attestation(kwargs):
    """Where counting votes does not bound the decision, or verification
    is free, the predicate's threshold is zero: same path, every live
    attestation armed — and still identical to the reference."""
    product, reference = run_pair(
        5, seed=2, n_bursts=6, faults=[(80.0, "drop", 0.3), (250.0, "drop", 0.0)],
        **kwargs,
    )
    peer = product.chain.peers[0]
    if "sync_verify_ms" in kwargs:
        assert peer._sync_stage.arm_at == 0 and peer._vote_stage.arm_at > 0
    else:
        assert peer._vote_stage.arm_at == 0 and peer._sync_stage.arm_at > 0
    assert 0 < armed(product) <= armed(reference)


fault_schedules = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), st.sampled_from([0.0, 0.2, 0.5])),
        st.tuples(st.just("crash"), st.sampled_from([-1, -2])),
        st.tuples(st.just("restart"), st.sampled_from([-1, -2])),
        st.tuples(st.just("partition"), st.sampled_from([1, 2])),
        st.tuples(st.just("heal"), st.none()),
    ),
    max_size=8,
)


@given(
    n_peers=st.sampled_from([5, 8, 9]),
    seed=st.integers(min_value=0, max_value=50),
    gaps=st.lists(
        st.floats(min_value=5.0, max_value=300.0, allow_nan=False), min_size=8,
        max_size=8,
    ),
    faults=fault_schedules,
)
@settings(
    max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_drawn_fault_schedules_match_the_reference_peer(n_peers, seed, gaps, faults):
    at = 0.0
    schedule: List[Fault] = []
    for gap, (kind, arg) in zip(gaps, faults):
        at += gap
        schedule.append((at, kind, arg))
    # Lift every fault at the end so both runs settle.
    schedule += [
        (at + 400.0, "drop", 0.0), (at + 400.0, "heal", None),
        (at + 400.0, "restart", -1), (at + 400.0, "restart", -2),
    ]
    run_pair(n_peers, seed, n_bursts=10, faults=schedule)
