"""The realnet byte path: frame splitter, encode-once framing, direct
writes, and what a crash does to bytes already handed to a socket.

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

from repro.blockchain.codec import encode
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


def _splitter(net):
    victim = net.register(Sink("victim"))
    proto = _FrameSplitter(net, net._endpoints["victim"])
    transport = FakeTransport()
    proto.connection_made(transport)
    return proto, transport, victim


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
