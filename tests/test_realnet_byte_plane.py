"""The realnet byte path: frame splitter, encode-once framing, the
decode-once receive path, direct writes, and what a crash does to bytes
already handed to a socket.

The splitter tests drive :class:`_FrameSplitter` through the
``get_buffer`` / ``buffer_updated`` pair asyncio uses, without sockets,
so every way a TCP stream can be cut is tried deterministically.  The
rest run over real loopback connections.
"""

from __future__ import annotations

import asyncio
import itertools
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.codec import decode, encode
from repro.blockchain.crypto import PublicKey, crypto_cache_sizes, reset_crypto_caches
from repro.blockchain.identity import Certificate
from repro.blockchain.messages import DeliverBlock, SubmitTx, SyncHashMsg, VoteMsg
from repro.blockchain.transaction import Proposal, Transaction
from repro.realnet import RealNetwork
from repro.realnet import transport as transport_module
from repro.realnet.transport import _FrameSplitter
from repro.simnet.topology import Host

_LEN = struct.Struct(">I")


class Sink(Host):
    def __init__(self, name: str):
        super().__init__(name)
        self.received = []

    def handle_message(self, src, payload):
        self.received.append((src.name, payload))


@pytest.fixture
def net():
    network = RealNetwork(seed=5)
    yield network
    network.close()


def _drain(net, max_wall_ms=10_000):
    net.run_until_idle(max_wall_ms=max_wall_ms)


def _frame(obj) -> bytes:
    data = encode(obj)
    return _LEN.pack(len(data)) + data


# ---------------------------------------------------------------------
# the splitter, fed by hand

class FakeTransport:
    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1

    def abort(self):  # what the network's own teardown calls
        pass


def _connect(net, name="victim"):
    """A new inbound connection to ``name``, fed by hand."""
    proto = _FrameSplitter(net, net._endpoints[name])
    transport = FakeTransport()
    proto.connection_made(transport)
    return proto, transport


def _splitter(net):
    victim = net.register(Sink("victim"))
    return _connect(net) + (victim,)


def _feed(proto, data: bytes) -> int:
    """Hand ``data`` over as one socket read would (or as several, when
    it outgrows the buffer); returns the number of reads."""
    reads = 0
    while data:
        buffer = proto.get_buffer(-1)
        n = min(len(buffer), len(data))
        assert n > 0
        buffer[:n] = data[:n]
        proto.buffer_updated(n)
        data = data[n:]
        reads += 1
    return reads


#: Small frames, an empty payload, and one that outgrows the initial
#: read buffer (so the buffer has to grow mid-stream and keep going).
PAYLOADS = [
    "hello",
    {"op": "add", "n": 2**70},
    "",
    b"\x01" * (3 * RealNetwork.recv_buffer_bytes),
    [1, 2.5, None, ("nested", True)],
    "tail",
]
STREAM_FRAMES = [_frame(("peer", "victim", payload)) for payload in PAYLOADS]
STREAM = b"".join(STREAM_FRAMES)
EXPECTED = [("peer", payload) for payload in PAYLOADS]


def _cut_points():
    cuts = set()
    for boundary in itertools.accumulate(len(frame) for frame in STREAM_FRAMES):
        # Around the boundary: inside the previous body, on the edge,
        # and at every byte of the next length prefix.
        for delta in range(-3, _LEN.size + 3):
            if 0 < boundary + delta < len(STREAM):
                cuts.add(boundary + delta)
    return sorted(cuts)


def test_splitter_one_byte_at_a_time(net):
    proto, transport, victim = _splitter(net)
    for i in range(len(STREAM)):
        _feed(proto, STREAM[i:i + 1])
    assert victim.received == EXPECTED
    assert net.frame_errors == 0 and transport.closed == 0


def test_splitter_whole_stream_at_once(net):
    proto, transport, victim = _splitter(net)
    _feed(proto, STREAM)
    assert victim.received == EXPECTED
    assert net.frame_errors == 0 and transport.closed == 0


@pytest.mark.parametrize("cut", _cut_points())
def test_splitter_cut_at_every_offset_of_a_frame_boundary(net, cut):
    proto, _transport, victim = _splitter(net)
    _feed(proto, STREAM[:cut])
    _feed(proto, STREAM[cut:])
    assert victim.received == EXPECTED


def test_splitter_kicks_the_clock_once_per_read(net, monkeypatch):
    proto, _transport, victim = _splitter(net)
    kicks = []
    monkeypatch.setattr(net.scheduler, "kick", lambda: kicks.append(1))
    small = b"".join(_frame(("peer", "victim", i)) for i in range(20))
    reads = _feed(proto, small)
    assert reads == 1 and len(kicks) == 1
    assert [payload for _src, payload in victim.received] == list(range(20))


@pytest.mark.parametrize("poison", [
    _LEN.pack(RealNetwork.max_frame_bytes + 1),       # oversized prefix
    _LEN.pack(6) + b"\xde\xad\xbe\xef!!",             # undecodable body
    _frame(("only", "two")),                          # wrong shape
    _LEN.pack(4) + b"\x05\x02\xff\xfe",               # a string that is not UTF-8
])
def test_splitter_poison_mid_buffer_delivers_what_came_before(net, poison):
    proto, transport, victim = _splitter(net)
    good = [_frame(("peer", "victim", i)) for i in range(3)]
    _feed(proto, b"".join(good) + poison + _frame(("peer", "victim", "after")))
    assert victim.received == [("peer", 0), ("peer", 1), ("peer", 2)]
    assert net.frame_errors == 1
    assert transport.closed == 1


def test_malformed_vote_body_is_counted_every_time_and_never_stored(net):
    bad = bytearray(_frame(("peer", "victim", VoteMsg(block_number=1, voter="p", votes=(True,)))))
    bad[-1] |= 4  # an unknown attestation flag
    good = _frame(("peer", "victim", "fine"))
    victim = net.register(Sink("victim"))
    reset_crypto_caches()
    for attempt in range(1, 4):
        proto, transport = _connect(net)  # the bad frame closes each one
        _feed(proto, good + bytes(bad) + good)
        assert net.frame_errors == attempt
        assert transport.closed == 1
        assert crypto_cache_sizes()["decoded"] == 0
    assert [p for _src, p in victim.received] == ["fine"] * 3


_text = st.text(max_size=8)
_big = st.integers(min_value=0, max_value=2**512)
_doubles = st.floats(allow_nan=False, width=64)
_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _doubles, _text, st.binary(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_text, children, max_size=3),
    ),
    max_leaves=8,
)
_transactions = st.builds(
    Transaction,
    proposal=st.builds(
        Proposal, tx_id=_text, contract=_text, function=_text,
        args=st.lists(st.integers(), max_size=2).map(tuple), nonce=_text,
        creator=_text, timestamp=_doubles,
        touched_keys=st.lists(_text, max_size=2).map(tuple),
    ),
    certificate=st.builds(
        Certificate, subject=st.sampled_from(["alice", "bob"]),
        public_key=st.just(PublicKey(n=2**511 + 1, e=65537)),
        issuer=st.just("ca"), serial=st.integers(0, 3), signature=_big,
    ),
    signature=_big,
)
_payloads = st.one_of(
    _values,
    st.builds(
        VoteMsg, block_number=st.integers(0, 10**6), voter=_text,
        votes=st.lists(st.booleans(), max_size=12).map(tuple),
        is_reply=st.booleans(), is_retry=st.booleans(),
    ),
    st.builds(
        SyncHashMsg, block_number=st.integers(0, 10**6), sender=_text,
        state_hash=_text, is_reply=st.booleans(), is_retry=st.booleans(),
    ),
    st.builds(
        Block,
        header=st.builds(
            BlockHeader, number=st.integers(0, 10**6), previous_hash=_text,
            data_hash=_text, timestamp=_doubles,
        ),
        transactions=st.lists(_transactions, max_size=2),
        validation_codes=st.lists(_text, max_size=2),
        config=st.none(),
    ).map(DeliverBlock),
    _transactions.map(SubmitTx),
)


@pytest.fixture(scope="module")
def receivers():
    network = RealNetwork(seed=9)
    sinks = [network.register(Sink(name)) for name in ("victim", "victim2")]
    yield network, sinks
    network.close()


@given(
    frames=st.lists(
        st.tuples(st.sampled_from(["peer", "peer-b", "p"]),
                  st.sampled_from(["victim", "victim2"]), _payloads),
        min_size=1, max_size=5,
    ),
    reads=st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8),
)
@example(frames=[("peer", "victim", 0), ("p", "victim2", 1), ("peer", "victim", 2)], reads=[7])
@settings(max_examples=150, deadline=None)
def test_receive_path_yields_what_decode_yields(receivers, frames, reads):
    """Whatever the payloads, addresses and read boundaries, every sink
    receives exactly ``decode(frame)``'s sender and payload, in order —
    also when one connection's frames switch address, and when a body
    repeats and comes from the shared memo."""
    net, sinks = receivers
    for sink in sinks:
        sink.received.clear()
    wire = [encode(frame) for frame in frames * 2]
    stream = b"".join(_LEN.pack(len(data)) + data for data in wire)
    proto, transport = _connect(net)
    for size in itertools.cycle(reads):
        if not stream:
            break
        buffer = proto.get_buffer(-1)
        n = min(size, len(buffer), len(stream))
        buffer[:n] = stream[:n]
        proto.buffer_updated(n)
        stream = stream[n:]
    assert transport.closed == 0
    expected = [decode(data) for data in wire]
    for sink in sinks:
        got = [(src, encode(payload)) for src, payload in sink.received]
        assert got == [(src, encode(payload)) for src, dst, payload in expected
                       if dst == sink.name]


def test_splitter_tracks_its_transport_in_the_endpoint(net):
    proto, transport, _victim = _splitter(net)
    inbound = net._endpoints["victim"].inbound
    assert inbound == {transport}
    proto.connection_lost(None)
    assert inbound == set()


# ---------------------------------------------------------------------
# what the sender puts on the wire

class RawListener:
    """A bare TCP listener on the clock's loop that keeps the bytes of
    every connection — what any non-Python peer would see."""

    def __init__(self, net):
        self.streams = []
        self.transports = []
        loop = net.scheduler.loop

        listener = self

        class Capture(asyncio.Protocol):
            def connection_made(self, transport):
                self.stream = bytearray()
                listener.streams.append(self.stream)
                listener.transports.append(transport)

            def data_received(self, data):
                self.stream += data

        self.server = loop.run_until_complete(
            loop.create_server(Capture, host="127.0.0.1", port=0)
        )
        self.port = self.server.sockets[0].getsockname()[1]

    def close(self):
        self.server.close()
        for transport in self.transports:
            transport.abort()


def test_broadcast_bytes_are_length_prefix_plus_encoded_triple(net):
    a = net.register(Sink("a"))
    sink = net.register(Sink("s"))
    net.start()
    raws = [RawListener(net) for _ in range(2)]
    try:
        for i, raw in enumerate(raws):
            net.add_remote(f"raw{i}", "127.0.0.1", raw.port)
        payloads = [{"vote": 1, "sig": 2**511 + 7}, ("second", None, 2.5)]
        for payload in payloads:
            a.send_many([Host("raw0"), sink, Host("raw1")], payload)
        _drain(net)
        for i, raw in enumerate(raws):
            expected = b"".join(_frame(("a", f"raw{i}", p)) for p in payloads)
            assert [bytes(s) for s in raw.streams] == [expected]
        assert [p for _src, p in sink.received] == [payloads[0], payloads[1]]
        assert net.frames_sent == 6
        assert net.socket_writes == 6
        assert net.wire_bytes_sent == sum(
            len(_frame(("a", dst, p))) for dst in ("raw0", "s", "raw1") for p in payloads
        )
    finally:
        for raw in raws:
            raw.close()


def test_receivers_of_one_broadcast_share_attestations_and_blocks(net):
    a = net.register(Sink("a"))
    sinks = [net.register(Sink(f"s{i}")) for i in range(3)]
    net.start()
    tx = Transaction(
        proposal=Proposal(
            tx_id="t1", contract="c", function="f", args=(1,), nonce="n",
            creator="alice", timestamp=1.5, touched_keys=("k",),
        ),
        certificate=Certificate("alice", PublicKey(n=2**511 + 1, e=65537), "ca", 1, 7),
        signature=2**500 + 9,
    )
    shared = [
        VoteMsg(block_number=1, voter="a", votes=(True,)),
        SyncHashMsg(block_number=1, sender="a", state_hash="ab" * 32),
        DeliverBlock(block=Block(BlockHeader(1, "p" * 64, "d" * 64, 2.5), [tx])),
    ]
    fresh = [{"plain": [1, 2]}, SubmitTx(tx=tx)]
    for payload in shared + fresh:
        a.send_many(sinks, payload)
    _drain(net)
    for i, payload in enumerate(shared + fresh):
        copies = [sink.received[i][1] for sink in sinks]
        assert copies == [payload] * len(sinks)
        distinct = len({id(copy) for copy in copies})
        assert distinct == (1 if payload in shared else len(sinks)), payload


def _count_encodes(monkeypatch):
    calls = []
    real = transport_module.encode

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(transport_module, "encode", counting)
    return calls


def test_broadcast_encodes_its_payload_once(net, monkeypatch):
    a = net.register(Sink("a"))
    sinks = [net.register(Sink(f"s{i}")) for i in range(7)]
    net.start()
    a.send_many(sinks, "warm-up")  # creates the channels (one prefix encode each)
    _drain(net)
    calls = _count_encodes(monkeypatch)
    a.send_many(sinks, {"payload": 1})
    assert calls == [{"payload": 1}]
    a.send(sinks[0], "unicast")
    assert calls == [{"payload": 1}, "unicast"]
    _drain(net)
    assert all(s.received[-1] == ("a", {"payload": 1}) for s in sinks[1:])
    assert sinks[0].received[-2:] == [("a", {"payload": 1}), ("a", "unicast")]


def test_injector_rewrite_and_drops_are_honoured_by_the_shared_encoding(net, monkeypatch):
    a = net.register(Sink("a"))
    sinks = [net.register(Sink(f"s{i}")) for i in range(7)]
    net.start()
    a.send_many(sinks, "warm-up")
    _drain(net)
    dropped = {"s1", "s4", "s6"}

    def injector(msg, deliver_at):
        if msg.payload == "warm-up":
            return [deliver_at]
        if msg.dst in dropped:
            return []
        if msg.dst == "s3":
            msg.payload = "rewritten for s3"
        return [deliver_at]

    net.fault_injector = injector
    calls = _count_encodes(monkeypatch)
    a.send_many(sinks, "original")
    _drain(net)
    for sink in sinks:
        got = [p for _src, p in sink.received if p != "warm-up"]
        if sink.name in dropped:
            assert got == []
        elif sink.name == "s3":
            assert got == ["rewritten for s3"]
        else:
            assert got == ["original"]
    assert net.stats.messages_dropped_fault == 3
    # One shared encoding, plus one for the payload the injector swapped in.
    assert calls == ["original", "rewritten for s3"]


# ---------------------------------------------------------------------
# the connected path: one write, no task

def test_connected_channel_writes_directly_without_a_task(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, "connect")
    _drain(net)
    channel = net._channels[("a", "b")]
    first_task = channel.task
    assert first_task is not None and first_task.done()
    writes_before = net.socket_writes

    created = []
    loop = net.scheduler.loop
    real_create_task = loop.create_task

    def spying_create_task(coro, **kwargs):
        created.append(coro)
        return real_create_task(coro, **kwargs)

    loop.create_task = spying_create_task
    try:
        for i in range(50):
            a.send(b, i)
            # Written, not queued: nothing is in flight inside the transport.
            assert net._inflight == 0 and not channel.queue
    finally:
        del loop.create_task
    assert created == []
    assert channel.task is first_task
    assert net.socket_writes == writes_before + 50
    assert net.frames_sent == net.socket_writes
    _drain(net)
    assert [p for _src, p in b.received] == ["connect"] + list(range(50))


def test_back_pressure_queues_behind_the_big_frame_and_keeps_order(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, "connect")
    _drain(net)
    channel = net._channels[("a", "b")]
    big = b"\x07" * (8 * 1024 * 1024)
    a.send(b, big)
    # The kernel took part of it; the rest sits in asyncio's buffer,
    # above the high-water mark, so the channel is paused ...
    assert channel.transport.get_write_buffer_size() > 0
    assert channel.protocol.paused is not None
    a.send(b, "behind")
    a.send(b, "further behind")
    # ... and later frames wait their turn in the queue.
    assert len(channel.queue) == 2 and net._inflight == 2
    _drain(net, max_wall_ms=30_000)
    assert [p for _src, p in b.received] == ["connect", big, "behind", "further behind"]
    assert net._inflight == 0
    assert channel.protocol.paused is None


# ---------------------------------------------------------------------
# crash semantics with buffered writes

def test_crash_aborts_what_the_write_buffer_still_holds(net):
    """``down = True`` on the sender must not flush: a frame partly in
    asyncio's buffer when its host crashes never arrives afterwards."""
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, "connect")
    _drain(net)
    channel = net._channels[("a", "b")]
    a.send(b, b"\x09" * (8 * 1024 * 1024))
    assert channel.transport.get_write_buffer_size() > 0
    net.condition("a").down = True
    assert channel.transport is None
    _drain(net)
    assert b.received == [("a", "connect")]
    assert net.frame_errors == 0  # a truncated frame is teardown, not a protocol error
    net.condition("a").down = False
    a.send(b, "after restart")
    _drain(net)
    assert b.received == [("a", "connect"), ("a", "after restart")]


def test_frame_written_just_before_receiver_crash_is_never_delivered(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, "connect")
    _drain(net)
    a.send(b, "in the kernel")  # written straight to the socket
    assert net._inflight == 0
    net.condition("b").down = True
    _drain(net)
    net.condition("b").down = False
    a.send(b, "after restart")
    _drain(net)
    assert b.received == [("a", "connect"), ("a", "after restart")]
    assert net._inflight == 0


def test_crash_drops_queued_frames_and_balances_the_books(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    net.suspend_listener("b")
    for i in range(5):
        a.send(b, i)
    assert net._inflight == 5
    net.run(until=net.now + 40.0)  # a refused connect or two
    dropped_before = net.stats.messages_dropped
    net.condition("b").down = True
    assert net._inflight == 0
    assert net.stats.messages_dropped == dropped_before + 5
    _drain(net)
    assert b.received == []
    assert net.frames_sent == 5 and net.socket_writes == 0


def test_peer_reset_falls_back_to_drain_reconnects_and_keeps_fifo(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, 0)
    _drain(net)
    channel = net._channels[("a", "b")]
    assert net.connects == 1
    # b's side resets the connection and stops listening for a while.
    net.suspend_listener("b")
    net.run(until=net.now + 30.0)
    assert channel.transport.is_closing()
    for i in range(1, 6):
        a.send(b, i)
    # The dead connection takes no direct write: everything queues.
    assert len(channel.queue) == 5
    net.run(until=net.now + 60.0)
    assert channel.connect_attempts > 0
    assert channel.last_backoff_ms >= net.retry_base_ms
    assert b.received == [("a", 0)]
    net.resume_listener("b")
    for i in range(6, 9):
        a.send(b, i)
    _drain(net)
    assert [p for _src, p in b.received] == list(range(9))
    assert net.connects == 2
    assert net._inflight == 0
    # Back on the direct path.
    task = channel.task
    a.send(b, 9)
    assert channel.task is task and not channel.queue
    _drain(net)
    assert b.received[-1] == ("a", 9)


def test_transport_counters_are_exported(net):
    a, b = net.register(Sink("a")), net.register(Sink("b"))
    net.start()
    a.send(b, "x")
    _drain(net)
    counters = net.transport_counters()
    assert counters == {
        "connects": 1, "frame_errors": 0, "frames_sent": 1, "socket_writes": 1,
        "wire_bytes_sent": len(_frame(("a", "b", "x"))),
    }
