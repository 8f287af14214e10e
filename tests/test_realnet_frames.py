"""Frame-layer fuzz tests: malformed wire input must error cleanly.

A realnet listener reads length-prefixed codec frames from anyone who
connects.  Truncated, oversized, garbage and wrong-shape frames must
close the offending connection (counting ``frame_errors`` for protocol
violations), never hang a reader, and never take the network down for
well-behaved peers.
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.blockchain.codec import encode
from repro.realnet import RealNetwork
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
    network = RealNetwork(seed=3)
    network.register(Sink("victim"))
    network.start()
    yield network
    network.close()


def _inject(net, raw: bytes, run_ms: float = 300.0) -> None:
    """Open a raw connection to the victim's port, write ``raw``, close,
    and give the reader a slice of wall time to chew on it."""
    port = net.port_of("victim")
    assert port is not None

    async def go():
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        writer.close()

    net.scheduler.call_at(net.scheduler.now, lambda: net.scheduler.loop.create_task(go()))
    net.run(until=net.scheduler.now + run_ms)


def _frame(payload_obj) -> bytes:
    data = encode(payload_obj)
    return _LEN.pack(len(data)) + data


def test_garbage_bytes_counted_and_survived(net):
    _inject(net, _LEN.pack(12) + b"\xde\xad\xbe\xef not-codec")
    assert net.frame_errors == 1
    assert net.host("victim").received == []


def test_oversized_length_prefix_rejected(net):
    _inject(net, _LEN.pack(net.max_frame_bytes + 1))
    assert net.frame_errors == 1


def test_truncated_frame_closes_without_error(net):
    # Header promises 100 bytes; the connection dies after 10.  That is
    # an EOF mid-frame — connection teardown, not a protocol error.
    _inject(net, _LEN.pack(100) + b"0123456789")
    assert net.frame_errors == 0
    assert net.host("victim").received == []


def test_wrong_shape_frame_rejected(net):
    _inject(net, _frame({"not": "a triple"}))
    _inject(net, _frame(("src", "dst")))
    assert net.frame_errors == 2


def test_non_string_addresses_rejected(net):
    _inject(net, _frame((1, 2, "payload")))
    assert net.frame_errors == 1


def test_unknown_destination_dropped_not_fatal(net):
    dropped_before = net.stats.messages_dropped
    _inject(net, _frame(("ghost-src", "ghost-dst", "hello")))
    assert net.frame_errors == 0
    assert net.stats.messages_dropped == dropped_before + 1


def test_random_fuzz_never_hangs_reader(net):
    rng = random.Random(0)
    blob = b""
    for _ in range(20):
        blob += rng.randbytes(rng.randrange(1, 40))
    _inject(net, blob, run_ms=500.0)
    # Whatever the bytes decoded to, the loop is alive and the listener
    # still serves well-formed frames from a fresh connection.
    _inject(net, _frame(("fuzzer", "victim", {"ok": True})))
    assert net.host("victim").received == [("fuzzer", {"ok": True})]


#: 10 KB of nested one-item lists, and 3 KB of ``TxResult`` /
#: ``TxStatusReply`` each holding the next in its ``block`` field.
NESTING_BOMB = b"\x07\x01" * 5000 + b"\x00"
RESULT_BOMB = b"\x25\x00\x00" * 1000 + b"\x00"
STATUS_BOMB = b"\x36\x00\x00" * 1000 + b"\x00"
ENVELOPE = encode(("fuzzer", "victim", None))[:-1]
#: The list bomb as a whole frame, and every bomb as the payload of a
#: well-formed envelope.
BOMB_FRAMES = [NESTING_BOMB] + [ENVELOPE + b for b in (NESTING_BOMB, RESULT_BOMB, STATUS_BOMB)]


def test_nesting_bombs_are_counted_and_close_only_their_connections(net):
    port = net.port_of("victim")
    closed = []

    async def bomb(body):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_LEN.pack(len(body)) + body + _frame(("fuzzer", "victim", "same")))
        await writer.drain()
        try:
            await reader.read()  # EOF once the listener hangs up ...
        except ConnectionResetError:  # ... or a reset, with "same" unread
            pass
        closed.append(body)
        writer.close()

    async def go():
        await asyncio.gather(*(bomb(body) for body in BOMB_FRAMES))
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_frame(("fuzzer", "victim", "fresh connection")))
        await writer.drain()
        writer.close()

    # Held here: the loop keeps only a weak reference to a task.
    client = net.scheduler.loop.create_task(go())
    net.run(until=net.scheduler.now + 300.0)
    assert client.done() and client.exception() is None
    assert sorted(closed) == sorted(BOMB_FRAMES)
    assert net.frame_errors == len(BOMB_FRAMES)
    assert net.host("victim").received == [("fuzzer", "fresh connection")]


def test_valid_frame_after_poison_neighbour(net):
    """A malformed connection must not poison a concurrent good one."""
    _inject(net, _LEN.pack(7) + b"garbage")
    _inject(net, _frame(("peer", "victim", [1, 2, 3])))
    assert net.frame_errors == 1
    assert net.host("victim").received == [("peer", [1, 2, 3])]
