"""Message transport over the simulated network.

Delivery delay for a message is::

    egress queueing (sender NIC serialisation, FIFO per host)
    + one-way propagation between regions (+ jitter)
    + per-message overhead
    + attack-injected latency at the receiver (DDoS model)

Egress serialisation is what makes an orderer's block dissemination to
``N`` peers take time linear in ``N`` — the physical root of the paper's
observation that event-validation latency grows with peer count
(Fig. 3c) and "shoots up" past 32 peers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from .clock import ClockCore, Scheduler
from .latency import INTERNET_US, LatencyProfile
from .topology import Host, Topology

__all__ = ["Message", "HostCondition", "NetworkStats", "NetworkCore", "Network"]

#: The chaos hook: called with each otherwise-deliverable message and
#: its natural delivery time, it returns the delivery times to use — an
#: empty list drops the message, more than one duplicates it.
FaultInjector = Callable[["Message", float], List[float]]


class Message:
    """An in-flight message.  ``payload`` is any Python object (we simulate
    the network, not the encoding); ``size_bytes`` drives serialisation.

    A plain ``__slots__`` class rather than a (frozen) dataclass: one is
    allocated per send and the frozen-dataclass ``__init__`` (five
    ``object.__setattr__`` calls) is measurable at millions of messages.
    """

    __slots__ = ("src", "dst", "payload", "size_bytes", "sent_at")

    def __init__(self, src: str, dst: str, payload: Any, size_bytes: int, sent_at: float):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(src={self.src!r}, dst={self.dst!r}, payload={self.payload!r}, "
            f"size_bytes={self.size_bytes}, sent_at={self.sent_at})"
        )


@dataclass
class HostCondition:
    """Mutable per-host fault/attack state, manipulated by ``simnet.ddos``."""

    down: bool = False
    extra_ingress_ms: float = 0.0
    ingress_drop_rate: float = 0.0


@dataclass
class NetworkStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    #: Drops attributed to an active partition (subset of messages_dropped).
    messages_dropped_partition: int = 0
    #: Drops decided by an installed fault injector (subset of messages_dropped).
    messages_dropped_fault: int = 0
    #: Extra copies scheduled by a fault injector (duplicate fault).
    messages_duplicated: int = 0
    #: Messages whose delivery a fault injector moved past its natural time.
    messages_delayed_fault: int = 0
    #: Deliveries that overtook an older message on the same (src, dst)
    #: channel — only fault injection can break the per-channel FIFO.
    messages_reordered: int = 0
    partitions_started: int = 0
    partitions_healed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "messages_dropped_partition": self.messages_dropped_partition,
            "messages_dropped_fault": self.messages_dropped_fault,
            "messages_duplicated": self.messages_duplicated,
            "messages_delayed_fault": self.messages_delayed_fault,
            "messages_reordered": self.messages_reordered,
            "partitions_started": self.partitions_started,
            "partitions_healed": self.partitions_healed,
        }


class NetworkCore:
    """What every transport backend is, whatever carries its messages:
    the hosts, their fault conditions, partitions, the fault-injector
    hook with its accounting, the statistics and the clock.

    Its public surface plus ``send`` / ``send_many`` (which each backend
    supplies) is the network contract hosts and deployments are written
    against; :class:`Network` models the wire,
    :class:`repro.realnet.transport.RealNetwork` opens sockets.
    """

    def __init__(
        self, scheduler: ClockCore, profile: Optional[LatencyProfile], seed: int
    ) -> None:
        self.scheduler = scheduler
        self.profile = profile if profile is not None else INTERNET_US
        self.rng = random.Random(seed)
        self.topology = Topology()
        self.stats = NetworkStats()
        self._conditions: Dict[str, Any] = {}
        #: host -> partition group id; messages between different groups
        #: are dropped while a partition is active (None = no partition).
        self._partition_of: Optional[Dict[str, int]] = None
        self._fault_injector: Optional[FaultInjector] = None
        #: True from the first injector installed on: deliveries may be
        #: out of their natural order (``Network._deliver`` counts them).
        self._reorder_track = False
        #: Observer for fabric-level events ("partition", "heal"), called
        #: with the event name and a detail dict.  Chaos timelines and
        #: monitors subscribe here.
        self.on_stats_event: Optional[Callable[[str, Dict[str, Any]], None]] = None
        #: Optional :class:`repro.telemetry.Telemetry`.  Set by
        #: ``Telemetry.bind_network``, which exports :attr:`stats` as
        #: collect-time callback gauges and chains ``on_stats_event`` —
        #: the transport hot path itself carries no telemetry branches.
        self.telemetry = None

    # ------------------------------------------------------------------
    # registration

    def _new_condition(self, host_name: str) -> Any:
        """The fault condition a newly registered host gets."""
        return HostCondition()

    def register(self, host: Host) -> Host:
        """Attach ``host`` to this network."""
        self.topology.add(host)
        host.network = self
        cond = self._new_condition(host.name)
        self._conditions[host.name] = cond
        host._condition = cond
        return host

    def condition(self, host_name: str) -> Any:
        """The mutable fault condition for a host (used by attack models)."""
        return self._conditions[host_name]

    def host(self, name: str) -> Host:
        return self.topology.get(name)

    def send(self, src: Host, dst: Host, payload: Any, size_bytes: int = 256) -> None:
        """Send ``payload`` from ``src`` to ``dst``, asynchronously: it is
        handed to ``dst.handle_message`` later, or never if lost."""
        raise NotImplementedError

    def send_many(
        self, src: Host, dsts: Sequence[Host], payload: Any, size_bytes: int = 256
    ) -> None:
        """:meth:`send` to every host in ``dsts``, in order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # fault injection

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, fn: Optional[FaultInjector]) -> None:
        self._fault_injector = fn
        if fn is not None:
            # Once any injector has run, tampered messages may overtake
            # untampered ones; keep reorder tracking on for the rest of
            # the run (clearing the injector must not blind detection of
            # still-in-flight tampered deliveries).
            self._reorder_track = True

    def _apply_injector(self, msg: Message, natural_time: float) -> List[float]:
        """The installed injector's delivery times for ``msg``, with its
        verdict counted: none drops the message, several duplicate it,
        one past ``natural_time`` delays it.  The injector may also have
        replaced ``msg.payload``."""
        times = self._fault_injector(msg, natural_time)
        stats = self.stats
        if not times:
            stats.messages_dropped += 1
            stats.messages_dropped_fault += 1
            return times
        if len(times) > 1:
            stats.messages_duplicated += len(times) - 1
        if max(times) > natural_time:
            stats.messages_delayed_fault += 1
        return times

    # ------------------------------------------------------------------
    # partitions

    def partition(self, *groups) -> None:
        """Split the network: hosts in different groups cannot exchange
        messages.  Hosts not named in any group share an implicit extra
        group.  Call :meth:`heal` to reconnect."""
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                mapping[name] = index
        self._partition_of = mapping
        self.stats.partitions_started += 1
        self._emit("partition", {
            "t": self.scheduler.now,
            "groups": [sorted(group) for group in groups],
        })

    def heal(self) -> None:
        """Remove an active partition."""
        was_active = self._partition_of is not None
        self._partition_of = None
        if was_active:
            self.stats.partitions_healed += 1
            self._emit("heal", {"t": self.scheduler.now})

    def _emit(self, event: str, detail: Dict[str, Any]) -> None:
        if self.on_stats_event is not None:
            self.on_stats_event(event, detail)

    @property
    def partitioned(self) -> bool:
        return self._partition_of is not None

    # ------------------------------------------------------------------
    # convenience

    @property
    def now(self) -> float:
        return self.scheduler.now

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.scheduler.run(until=until, max_events=max_events)

    def run_until_idle(self, **caps: Any) -> None:
        """Run the clock until quiescent; ``caps`` are its
        ``run_until_idle`` limits (``max_events``, and ``max_wall_ms`` on
        a wall clock)."""
        self.scheduler.run_until_idle(**caps)


class Network(NetworkCore):
    """The simulated network fabric connecting all hosts.

    A single :class:`Network` owns the scheduler, the latency profile and
    the per-host fault conditions.  All sends are asynchronous: ``send``
    returns immediately and the payload is delivered via the recipient's
    :meth:`~repro.simnet.topology.Host.handle_message` at a later simulated
    time (or never, if lost).
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        profile: Optional[LatencyProfile] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            scheduler if scheduler is not None else Scheduler(), profile, seed
        )
        self._egress_free_at: Dict[str, float] = {}
        # Nested src -> dst -> time maps (not (src, dst)-tuple keys): the
        # lookups run per message and nested dict gets reuse the interned
        # string hashes instead of building and hashing a tuple each time.
        self._channel_clear_at: Dict[str, Dict[str, float]] = {}
        #: Reorder detection, kept only once ``_reorder_track`` is set:
        #: without tampering the per-channel FIFO clamp makes reordering
        #: impossible and the per-delivery bookkeeping pure overhead.
        self._channel_last_sent_at: Dict[str, Dict[str, float]] = {}

    def register(self, host: Host) -> Host:
        super().register(host)
        self._egress_free_at[host.name] = 0.0
        return host

    # ------------------------------------------------------------------
    # sending

    def send(self, src: Host, dst: Host, payload: Any, size_bytes: int = 256) -> None:
        """:meth:`send_many` to the one destination ``dst``."""
        self._send_each(src, (dst,), payload, size_bytes)

    def send_many(
        self, src: Host, dsts: Sequence[Host], payload: Any, size_bytes: int = 256
    ) -> None:
        """Send one ``payload`` from ``src`` to every host in ``dsts``.

        Exactly equivalent to calling :meth:`send` once per destination in
        order — same RNG draw sequence, same FIFO egress accumulation,
        same delivery times, same statistics — because both are
        :meth:`_send_each`.
        """
        self._send_each(src, dsts, payload, size_bytes)

    def _send_each(
        self, src: Host, dsts: Sequence[Host], payload: Any, size_bytes: int
    ) -> None:
        """The one per-destination send loop behind both public names
        (private, so a wrapper on either never wraps the other).

        Messages to or from a *down* host are silently dropped — the
        application-level protocols are responsible for timeouts, exactly
        as over a real network.  Every sender-side lookup is hoisted out
        of the loop: vote and state-hash broadcasts dominate a 32-peer
        replay's message count, so this is the hottest code in the
        transport.
        """
        stats = self.stats
        profile = self.profile
        src_name = src.name
        src_region = src.region
        now = self.scheduler.now
        src_down = src._condition.down
        partition_of = self._partition_of
        src_group = partition_of.get(src_name) if partition_of is not None else None
        rng_random = self.rng.random
        loss_rate = profile.loss_rate
        jitter_ms = profile.jitter_ms
        overhead_ms = profile.overhead_ms
        intra_region_ms = profile.intra_region_ms
        propagation_get = profile.propagation_ms.get
        default_propagation = profile.default_propagation_ms
        if size_bytes > 0:  # LatencyProfile.serialization, inlined
            egress_ser = size_bytes * 8.0 / (profile.bandwidth_mbps * 1000.0)
        else:
            egress_ser = 0.0
        egress_free = self._egress_free_at
        egress_cursor = egress_free[src_name]
        clear_by_dst = self._channel_clear_at.get(src_name)
        if clear_by_dst is None:
            clear_by_dst = self._channel_clear_at[src_name] = {}
        fault_injector = self._fault_injector
        call_at_anon = self.scheduler.call_at_anon
        deliver = self._deliver
        n_sent = 0
        n_dropped = 0

        for dst in dsts:
            dst_name = dst.name
            n_sent += 1
            dst_cond = dst._condition
            if src_down or dst_cond.down:
                n_dropped += 1
                continue
            if partition_of is not None:
                if src_group != partition_of.get(dst_name):
                    n_dropped += 1
                    stats.messages_dropped_partition += 1
                    continue
            if loss_rate and rng_random() < loss_rate:
                n_dropped += 1
                continue
            if dst_cond.ingress_drop_rate and rng_random() < dst_cond.ingress_drop_rate:
                n_dropped += 1
                continue

            # FIFO egress serialisation at the sender's NIC: the cursor is
            # the local image of _egress_free_at[src_name], written back
            # once after the loop (nothing else can observe it mid-loop —
            # no events fire while we iterate).
            if now > egress_cursor:
                egress_cursor = now
            egress_done = egress_cursor + egress_ser
            egress_cursor = egress_done

            # LatencyProfile.one_way_delay(src, dst, 0, rng), inlined: same
            # terms in the same order (one RNG draw, jitter last) so
            # delivery times are bit-identical, minus two calls a message.
            if jitter_ms > 0.0:
                jitter = jitter_ms * rng_random()
            else:
                jitter = 0.0
            dst_region = dst.region
            if src_region == dst_region:
                propagation = intra_region_ms
            else:
                propagation = propagation_get(
                    (src_region, dst_region), default_propagation
                )
            flight = propagation + overhead_ms + jitter
            deliver_at = egress_done + flight + dst_cond.extra_ingress_ms

            # Channels are FIFO per (src, dst) pair: Fabric's gRPC transport
            # runs over TCP, so jitter cannot reorder one connection.
            clear_at = clear_by_dst.get(dst_name, 0.0)
            if clear_at > deliver_at:
                deliver_at = clear_at
            clear_by_dst[dst_name] = deliver_at

            if fault_injector is not None:
                # The injector API takes a Message; allocate one only on
                # this (chaos) path and read the payload back afterwards
                # so a tampering injector's replacement is honoured.
                msg = Message(src_name, dst_name, payload, size_bytes, now)
                for when in self._apply_injector(msg, deliver_at):
                    call_at_anon(max(when, now), deliver, dst, src, msg.payload, now)
                continue
            call_at_anon(deliver_at, deliver, dst, src, payload, now)

        stats.messages_sent += n_sent
        stats.bytes_sent += size_bytes * n_sent
        stats.messages_dropped += n_dropped
        egress_free[src_name] = egress_cursor

    def _deliver(self, dst: Host, src: Host, payload: Any, sent_at: float) -> None:
        stats = self.stats
        # Re-check: host may have gone down while the message was in flight.
        if dst._condition.down:
            stats.messages_dropped += 1
            return
        if self._reorder_track:
            last_by_dst = self._channel_last_sent_at.get(src.name)
            if last_by_dst is None:
                last_by_dst = self._channel_last_sent_at[src.name] = {}
            last = last_by_dst.get(dst.name)
            if last is not None and sent_at < last:
                stats.messages_reordered += 1
            else:
                last_by_dst[dst.name] = sent_at
        stats.messages_delivered += 1
        dst.handle_message(src, payload)
