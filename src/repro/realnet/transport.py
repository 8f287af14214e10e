"""The simnet ``Network`` surface over real asyncio TCP sockets.

Wire format
    One TCP connection per ``(src, dst)`` channel (so per-channel FIFO
    holds exactly as it does on simnet, where it models Fabric's gRPC
    over TCP).  Each frame is a 4-byte big-endian length prefix followed
    by ``repro.blockchain.codec.encode((src_name, dst_name, payload))``
    — the closed-set binary codec, so only protocol messages can cross
    the wire.  The codec writes a tuple as its items back to back, so
    the sender builds those bytes as the channel's constant address
    prefix plus ``encode(payload)``, and a broadcast encodes its payload
    once for all destinations.  The receiver reads the two names with
    ``codec.decode_envelope``, and ``codec.decode_shared`` gives every
    receiver of one vote, sync hash or block the same object (DESIGN.md
    §17).  Oversized or undecodable frames close the connection and are
    counted; a frame cut short by EOF is discarded with its connection.

Sending
    A frame goes to the socket in one write.  On a connected channel
    with nothing queued and a write buffer below asyncio's high-water
    mark that write happens inside ``send``; everything else — connect,
    backoff, back-pressure, resend — belongs to the channel's drain
    task, which exists only while the channel's queue is non-empty.

Connection management
    Channels connect lazily on first send and reconnect with exponential
    backoff (``retry_base_ms`` doubling to ``retry_max_ms``, at most
    ``max_connect_attempts`` per delivery attempt).  Frames queued on a
    channel that exhausts its retries are dropped and counted — the same
    "application protocols own the timeouts" semantics simnet gives a
    down host.

Peer-crash semantics
    ``condition(name).down = True`` (what ``Peer.crash()`` and the chaos
    injector set) closes the host's listening socket and aborts every
    connection touching it — bytes still in a write buffer die with the
    host instead of being flushed after its crash; ``down = False``
    re-listens on a fresh port and the address book is updated, so
    reconnecting channels find the revived peer.
    :class:`RealHostCondition` carries that side effect on the ``down``
    setter, keeping the callers untouched.

Fault injection (netem-style shim)
    The ``fault_injector`` hook has the exact simnet contract — called
    ``(msg, deliver_at) -> [times]`` per otherwise-deliverable message;
    empty list drops, several times duplicate, later times delay — but
    runs at the *sender* before the socket write, like a ``tc netem``
    qdisc on the egress interface.  Partitions and ingress conditions
    (``extra_ingress_ms``, ``ingress_drop_rate``) are enforced around
    the socket ops the same way, so `repro.chaos` schedules run
    unmodified on real sockets.
"""

from __future__ import annotations

import asyncio
import struct
from collections import deque
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..blockchain.codec import CodecError, decode_envelope, decode_shared, encode
from ..simnet.latency import LatencyProfile
from ..simnet.topology import Host
from ..simnet.transport import Message, NetworkCore
from .clock import WallClock

__all__ = ["RealNetwork", "RealHostCondition", "FrameError"]

_LEN = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed frame arrived: bad length, bad codec, bad shape."""


class RealHostCondition:
    """Per-host fault state whose ``down`` flag actuates the sockets.

    Field-compatible with :class:`~repro.simnet.transport.HostCondition`
    (``down`` / ``extra_ingress_ms`` / ``ingress_drop_rate``), but
    ``down`` is a property: flipping it closes or re-opens the host's
    listener and connections, which is what "crash" *means* on a real
    transport.
    """

    __slots__ = ("_net", "_name", "_down", "extra_ingress_ms", "ingress_drop_rate")

    def __init__(self, net: "RealNetwork", name: str):
        self._net = net
        self._name = name
        self._down = False
        self.extra_ingress_ms = 0.0
        self.ingress_drop_rate = 0.0

    @property
    def down(self) -> bool:
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        value = bool(value)
        if value == self._down:
            return
        self._down = value
        self._net._on_down_changed(self._name, value)


class _Endpoint:
    """A registered host's listener state."""

    __slots__ = ("host", "server", "port", "inbound")

    def __init__(self, host: Host):
        self.host = host
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        #: Transports of accepted inbound connections (aborted on crash).
        self.inbound: Set[asyncio.BaseTransport] = set()


class _FrameSplitter(asyncio.BufferedProtocol):
    """Receiving side of one accepted connection: slices every complete
    frame out of what each socket read added to its buffer.

    The socket reads straight into that buffer (``recv_into``), which
    starts at :attr:`RealNetwork.recv_buffer_bytes` and grows only when
    a frame announces more than it holds.  Every exit is an explicit
    error or EOF — a malformed frame (bad length, bad codec, bad shape)
    closes the connection rather than leaving it parked mid-frame.
    """

    def __init__(self, net: "RealNetwork", ep: _Endpoint):
        self._net = net
        self._ep = ep
        self._transport: Optional[asyncio.BaseTransport] = None
        self._view = memoryview(bytearray(net.recv_buffer_bytes))
        #: Bytes of an incomplete frame held at the front of the buffer.
        self._have = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        self._ep.inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._ep.inbound.discard(self._transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._have:] if self._have else self._view

    def buffer_updated(self, nbytes: int) -> None:
        net = self._net
        view = self._view
        end = self._have + nbytes
        pos = 0
        need = 0
        try:
            while end - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(view, pos)
                if length > net.max_frame_bytes:
                    raise FrameError(f"frame length {length} exceeds cap")
                body = pos + _LEN.size
                if body + length > end:
                    need = _LEN.size + length
                    break
                pos = body + length
                frame = bytes(view[body:pos])
                src, dst, start = decode_envelope(frame)
                net._on_frame(src, dst, frame[start:])
        except (FrameError, CodecError):
            net.frame_errors += 1
            self._transport.close()
            pos = end
        except Exception as exc:
            # An application handler raised.  On simnet that exception
            # propagates out of ``run()``; re-raise it from the clock
            # queue so realnet keeps the same contract instead of the
            # error dying inside an asyncio callback.
            net._raise_in_run(exc)
            self._transport.close()
            pos = end
        rest = end - pos
        if need > len(view):
            grown = memoryview(bytearray(need))
            grown[:rest] = view[pos:end]
            self._view = grown
        elif rest and pos:
            view[:rest] = bytes(view[pos:end])
        self._have = rest
        net.scheduler.kick()


class _ChannelProtocol(asyncio.Protocol):
    """Sending side of one channel connection: back-pressure and loss.

    Nothing is ever sent back on a channel's connection, so inbound
    bytes are ignored; the peer closing its end closes ours, which is
    how the channel learns it must reconnect.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        #: Pending while the transport's write buffer is above its
        #: high-water mark; resolved when it drains or the connection
        #: is lost.  ``None`` while writes may proceed.
        self.paused: Optional[asyncio.Future] = None

    def pause_writing(self) -> None:
        self.paused = self._loop.create_future()

    def resume_writing(self) -> None:
        paused, self.paused = self.paused, None
        if paused is not None and not paused.done():
            paused.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.resume_writing()

    def eof_received(self) -> bool:
        return False


class _Channel:
    """One ordered (src, dst) frame channel: queue + connection."""

    __slots__ = (
        "src", "dst", "prefix", "queue", "transport", "protocol", "task",
        "connect_attempts", "last_backoff_ms",
    )

    def __init__(self, src: str, dst: str):
        self.src = src
        self.dst = dst
        #: ``encode((src, dst, payload)) == prefix + encode(payload)``:
        #: the codec writes a tuple's items back to back, and ``None``
        #: is one byte.
        self.prefix = encode((src, dst, None))[:-1]
        #: Whole frames waiting for the drain task, oldest first.
        self.queue: deque = deque()
        self.transport: Optional[asyncio.WriteTransport] = None
        self.protocol: Optional[_ChannelProtocol] = None
        self.task: Optional[asyncio.Task] = None
        #: Failed connect attempts over the channel's lifetime (tests and
        #: the soak record read this to see backoff at work).
        self.connect_attempts = 0
        self.last_backoff_ms = 0.0


class RealNetwork(NetworkCore):
    """Drop-in for :class:`~repro.simnet.transport.Network` over TCP.

    The latency ``profile`` is accepted for interface parity and used
    only for placement metadata (``profile.region_pool``): on realnet,
    latency comes from the actual kernel and wire, not a model.  Call
    :meth:`start` after registering all hosts and before :meth:`run`;
    hosts registered later (late clients) are brought up on the fly.
    """

    #: Frames above this are protocol errors, not allocations (16 MiB).
    max_frame_bytes = 16 * 1024 * 1024
    #: What an inbound connection's read buffer starts at.  A vote frame
    #: is ~100 bytes and a one-transaction block ~700, so one read holds
    #: a burst of them; a larger frame grows its connection's buffer.
    #: Kept small because a deployment has one per (src, dst) pair.
    recv_buffer_bytes = 4 * 1024
    retry_base_ms = 15.0
    retry_max_ms = 250.0
    max_connect_attempts = 8

    def __init__(
        self,
        clock: Optional[WallClock] = None,
        profile: Optional[LatencyProfile] = None,
        seed: int = 0,
        bind_host: str = "127.0.0.1",
    ) -> None:
        super().__init__(clock if clock is not None else WallClock(), profile, seed)
        self._bind_host = bind_host
        self._endpoints: Dict[str, _Endpoint] = {}
        #: name -> (host, port): where frames for that name connect to.
        #: Local listeners register themselves; :meth:`add_remote` adds
        #: peers living in other processes.
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._channels: Dict[Tuple[str, str], _Channel] = {}
        self._remote_stubs: Dict[str, Host] = {}
        #: Frames accepted for transmission but not yet written out (or
        #: dropped): the transport's contribution to "not idle yet".
        self._inflight = 0
        self.frame_errors = 0
        self.connects = 0
        #: Frames built for a channel, the ``transport.write`` calls made
        #: for them (one per frame; fewer when queued frames are dropped,
        #: more when a head frame is resent) and the bytes those carried
        #: (``stats.bytes_sent`` is the model's ``size_bytes``; this is
        #: what the sockets were given).
        self.frames_sent = 0
        self.socket_writes = 0
        self.wire_bytes_sent = 0
        self._started = False
        self._closed = False
        self.scheduler.add_busy_check(self._busy)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "RealNetwork":
        """Bind a listener for every registered (not-down) host."""
        self._started = True
        for name in list(self._endpoints):
            if not self._conditions[name]._down:
                self._call_async(self._open_endpoint(name))
        return self

    def close(self, close_clock: bool = True) -> None:
        """Tear down every socket (and, by default, the clock's loop)."""
        if self._closed:
            return
        self._closed = True
        self._call_async(self._shutdown())
        if close_clock:
            self.scheduler.close()

    async def _shutdown(self) -> None:
        for channel in self._channels.values():
            self._reset_channel(channel, drop_queue=True)
        for name in list(self._endpoints):
            await self._close_endpoint(name)
        # Reap the drain tasks (and whatever else still runs on the
        # loop) so it shuts down without pending-task warnings.
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks() if t is not current]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # One more pass: the aborted transports close their sockets in
        # a callback.
        await asyncio.sleep(0)

    def _call_async(self, coro) -> None:
        """Run ``coro`` now (loop idle) or hand it to the running loop."""
        loop = self.scheduler.loop
        if loop.is_running():
            loop.create_task(coro)
        elif not loop.is_closed():
            loop.run_until_complete(coro)

    # ------------------------------------------------------------------
    # registration

    def _new_condition(self, host_name: str) -> RealHostCondition:
        return RealHostCondition(self, host_name)

    def register(self, host: Host) -> Host:
        """Attach ``host``: condition, address-book entry and listener."""
        super().register(host)
        self._endpoints[host.name] = _Endpoint(host)
        if self._started:
            self._call_async(self._open_endpoint(host.name))
        return host

    def add_remote(self, name: str, host: str, port: int) -> None:
        """Route frames for ``name`` to another process's listener."""
        self._addresses[name] = (host, port)

    def transport_counters(self) -> Dict[str, int]:
        """The socket-level counters (each also an attribute of that
        name), beside the model-level ``stats``."""
        return {
            "connects": self.connects,
            "frame_errors": self.frame_errors,
            "frames_sent": self.frames_sent,
            "socket_writes": self.socket_writes,
            "wire_bytes_sent": self.wire_bytes_sent,
        }

    def port_of(self, name: str) -> Optional[int]:
        """The host's current listening port (None while down/unbound)."""
        addr = self._addresses.get(name)
        return addr[1] if addr is not None else None

    # ------------------------------------------------------------------
    # listeners

    async def _open_endpoint(self, name: str, port: int = 0) -> None:
        ep = self._endpoints.get(name)
        if ep is None or ep.server is not None or self._conditions[name]._down:
            return
        server = await self.scheduler.loop.create_server(
            lambda: _FrameSplitter(self, ep), host=self._bind_host, port=port,
        )
        ep.server = server
        ep.port = server.sockets[0].getsockname()[1]
        self._addresses[name] = (self._bind_host, ep.port)

    async def _close_endpoint(self, name: str, forget_address: bool = True) -> None:
        ep = self._endpoints.get(name)
        if ep is None:
            return
        if forget_address:
            self._addresses.pop(name, None)
        if ep.server is not None:
            ep.server.close()
            ep.server = None
        for transport in list(ep.inbound):
            transport.abort()
        ep.inbound.clear()

    def _on_down_changed(self, name: str, down: bool) -> None:
        """Crash/restart actuation: map the flag onto socket state."""
        if name not in self._endpoints:
            return
        if down:
            for channel in self._channels.values():
                if channel.src == name or channel.dst == name:
                    self._reset_channel(channel, drop_queue=True)
            self._call_async(self._close_endpoint(name))
        elif self._started and not self._closed:
            self._call_async(self._open_endpoint(name))

    def suspend_listener(self, name: str) -> None:
        """Close the host's listener but keep its address registered —
        connects get ECONNREFUSED and back off until
        :meth:`resume_listener` re-binds the same port.  The transport
        analogue of a paused (SIGSTOP'd) process, and the hook the
        retry/backoff tests drive.
        """
        ep = self._endpoints[name]
        self._call_async(self._close_endpoint(name, forget_address=False))
        self._addresses[name] = (self._bind_host, ep.port)

    def resume_listener(self, name: str) -> None:
        """Re-bind a suspended host's listener on its recorded port."""
        ep = self._endpoints[name]
        port = ep.port if ep.port is not None else 0
        self._call_async(self._open_endpoint(name, port=port))

    # ------------------------------------------------------------------
    # sending

    def send(
        self,
        src: Host,
        dst: Host,
        payload: Any,
        size_bytes: int = 256,
        body: Optional[bytes] = None,
    ) -> None:
        """Frame ``payload`` and hand it to the (src, dst) channel.

        The pre-wire checks mirror simnet ``Network.send`` exactly:
        down hosts and partitions drop at the sender, then the fault
        injector (if any) decides drop/duplicate/delay — all before the
        codec and the socket, netem-style.  ``body`` is
        ``encode(payload)`` when the caller already holds it
        (:meth:`send_many` does).
        """
        stats = self.stats
        src_name = src.name
        dst_name = dst.name
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        if self._is_down(src_name) or self._is_down(dst_name):
            stats.messages_dropped += 1
            return
        if self._partition_of is not None:
            if self._partition_of.get(src_name) != self._partition_of.get(dst_name):
                stats.messages_dropped += 1
                stats.messages_dropped_partition += 1
                return
        if self._fault_injector is not None:
            now = self.scheduler.now
            msg = Message(src_name, dst_name, payload, size_bytes, now)
            times = self._apply_injector(msg, now)
            if times and (body is None or msg.payload is not payload):
                body = encode(msg.payload)
            for when in times:
                if when <= now:
                    self._transmit(src_name, dst_name, body)
                else:
                    self.scheduler.call_at_anon(
                        when, self._transmit, src_name, dst_name, body
                    )
            return
        self._transmit(src_name, dst_name, encode(payload) if body is None else body)

    def send_many(
        self, src: Host, dsts: Sequence[Host], payload: Any, size_bytes: int = 256
    ) -> None:
        """Broadcast = per-destination sends of one encoding; TCP does
        the fan-out."""
        body = encode(payload)
        for dst in dsts:
            self.send(src, dst, payload, size_bytes, body)

    def _transmit(self, src_name: str, dst_name: str, body: bytes) -> None:
        """Put one frame on the (src, dst) channel: straight onto the
        socket when the channel can take it now, else behind its queue."""
        channel = self._channels.get((src_name, dst_name))
        if channel is None:
            channel = _Channel(src_name, dst_name)
            self._channels[(src_name, dst_name)] = channel
        prefix = channel.prefix
        frame = _LEN.pack(len(prefix) + len(body)) + prefix + body
        self.frames_sent += 1
        transport = channel.transport
        if (
            transport is not None
            and not channel.queue
            and channel.protocol.paused is None
            and not transport.is_closing()
        ):
            self._write(transport, frame)
            return
        channel.queue.append(frame)
        self._inflight += 1
        if channel.task is None or channel.task.done():
            loop = self.scheduler.loop
            if not loop.is_closed():
                channel.task = loop.create_task(self._drain_channel(channel))

    def _write(self, transport: asyncio.WriteTransport, frame: bytes) -> None:
        transport.write(frame)
        self.socket_writes += 1
        self.wire_bytes_sent += len(frame)

    async def _drain_channel(self, channel: _Channel) -> None:
        """Write the channel's queue out in order.

        The only owner of what a channel cannot do inside ``send``:
        connecting, backing off, waiting out back-pressure and resending
        after a lost connection.  A frame leaves the queue once its
        write took; one written to a connection that was lost before
        the write buffer drained is written again on the next connection
        (at-least-once for the head frame, never a reordering).
        """
        write_failures = 0
        while channel.queue:
            if self._is_down(channel.src) or self._is_down(channel.dst):
                # Also the connection, if a connect outlived the crash.
                self._reset_channel(channel, drop_queue=True)
                return
            transport = channel.transport
            if transport is None:
                if not await self._connect_channel(channel):
                    self._drop_channel_queue(channel)
                    return
                continue
            if not transport.is_closing():
                self._write(transport, channel.queue[0])
                paused = channel.protocol.paused
                if paused is not None:
                    await paused
            if transport.is_closing():
                if channel.transport is transport:
                    self._reset_channel(channel, drop_queue=False)
                write_failures += 1
                if write_failures > self.max_connect_attempts:
                    self._drop_channel_queue(channel)
                    return
                continue
            channel.queue.popleft()
            self._inflight -= 1

    async def _connect_channel(self, channel: _Channel) -> bool:
        """Exponential-backoff connect; False once retries are exhausted."""
        loop = self.scheduler.loop
        backoff = self.retry_base_ms
        for _attempt in range(self.max_connect_attempts):
            if self._is_down(channel.dst):
                return False
            addr = self._addresses.get(channel.dst)
            if addr is not None:
                try:
                    channel.transport, channel.protocol = await loop.create_connection(
                        lambda: _ChannelProtocol(loop), addr[0], addr[1]
                    )
                    self.connects += 1
                    return True
                except (ConnectionError, OSError):
                    pass
            channel.connect_attempts += 1
            channel.last_backoff_ms = backoff
            await asyncio.sleep(backoff / 1000.0)
            backoff = min(backoff * 2.0, self.retry_max_ms)
        return False

    def _reset_channel(self, channel: _Channel, drop_queue: bool) -> None:
        """Forget the channel's connection.  ``abort``, not ``close``:
        whatever asyncio still buffers for it must not be flushed on
        behalf of a host that has crashed or a connection that failed."""
        if channel.transport is not None:
            channel.transport.abort()
            channel.transport = None
            channel.protocol = None
        if drop_queue:
            self._drop_channel_queue(channel)

    def _drop_channel_queue(self, channel: _Channel) -> None:
        dropped = len(channel.queue)
        if dropped:
            channel.queue.clear()
            self._inflight -= dropped
            self.stats.messages_dropped += dropped

    def _busy(self) -> bool:
        return self._inflight > 0

    def _is_down(self, name: str) -> bool:
        """Crashed — a host of this process, that is: one that lives in
        another (see :meth:`add_remote`) has no condition here."""
        cond = self._conditions.get(name)
        return cond is not None and cond._down

    def _raise_in_run(self, exc: BaseException) -> None:
        """Schedule ``exc`` to re-raise inside the clock pump, so it
        surfaces from ``run()`` / ``run_until_idle()`` like a scheduler
        callback exception would on simnet."""
        def reraise() -> None:
            raise exc
        self.scheduler.call_at_anon(self.scheduler.now, reraise)

    # ------------------------------------------------------------------
    # receiving

    def _on_frame(self, src_name: str, dst_name: str, body: bytes) -> None:
        payload = decode_shared(body)
        cond = self._conditions.get(dst_name)
        if cond is not None:
            if cond._down:
                self.stats.messages_dropped += 1
                return
            if cond.ingress_drop_rate and self.rng.random() < cond.ingress_drop_rate:
                self.stats.messages_dropped += 1
                return
            if cond.extra_ingress_ms > 0.0:
                self.scheduler.call_at_anon(
                    self.scheduler.now + cond.extra_ingress_ms,
                    self._deliver, src_name, dst_name, payload,
                )
                return
        self._deliver(src_name, dst_name, payload)

    def _deliver(self, src_name: str, dst_name: str, payload: Any) -> None:
        if dst_name not in self.topology:
            self.stats.messages_dropped += 1
            return
        dst = self.topology.get(dst_name)
        if self._is_down(dst_name):
            self.stats.messages_dropped += 1
            return
        if src_name in self.topology:
            src: Host = self.topology.get(src_name)
        else:
            # A sender from another process: a stub carries its name so
            # replies route back through the address book.
            src = self._remote_stubs.get(src_name)  # type: ignore[assignment]
            if src is None:
                src = Host(src_name)
                src.network = self
                self._remote_stubs[src_name] = src
        self.stats.messages_delivered += 1
        dst.handle_message(src, payload)
