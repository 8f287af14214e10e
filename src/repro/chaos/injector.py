"""Wires a :class:`~repro.chaos.faults.FaultSchedule` into a live chain.

The injector never forks the hot paths it attacks: peers crash through
:meth:`repro.blockchain.peer.Peer.crash`, the fabric splits through
:meth:`repro.simnet.transport.Network.partition`, DDoS bursts reuse the
attack models of :mod:`repro.simnet.ddos`, and message tampering rides
the single ``Network.fault_injector`` hook — the transport calls it with
each deliverable message and the injector answers with the delivery
times to use (none = drop, several = duplicate, later = delay/reorder).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..simnet.ddos import Attack, FloodAttack, LatencyInjectionAttack
from ..simnet.transport import Message
from .faults import FaultEvent, FaultKind, FaultSchedule

__all__ = ["FaultInjector"]


@dataclass
class _Window:
    """An active message-tampering window."""

    kind: str
    targets: Tuple[str, ...]
    until: float
    rate: float
    extra_ms: float = 0.0

    def matches(self, msg: Message) -> bool:
        return "*" in self.targets or msg.dst in self.targets or msg.src in self.targets


class FaultInjector:
    """Replays a fault schedule against a :class:`BlockchainNetwork`.

    Args:
        chain: the deployment under test.
        schedule: the fault timeline to inject.
        on_fault: optional observer ``(sim_ms, kind, targets)`` — the
            scenario runner records the injection timeline through it.
    """

    def __init__(
        self,
        chain,
        schedule: FaultSchedule,
        on_fault: Optional[Callable[[float, str, Tuple[str, ...]], None]] = None,
    ):
        self.chain = chain
        self.net = chain.net
        self.schedule = schedule.sorted()
        self.on_fault = on_fault
        # Independent stream so injection randomness (probabilistic drops)
        # never perturbs the simulation's own jitter RNG.
        self.rng = random.Random(int(schedule.digest()[:16], 16))
        self._peers: Dict[str, object] = {p.name: p for p in chain.peers}
        self._crashed: set = set()
        self._windows: List[_Window] = []
        self._attacks: List[Attack] = []
        self._partition_active = False
        self.faults_applied = 0
        self._installed = False
        #: Optional :class:`repro.telemetry.Telemetry` (None = disabled).
        self.telemetry = None

    # ------------------------------------------------------------------
    # lifecycle

    def install(self) -> "FaultInjector":
        """Schedule every fault event and hook the transport.

        An injector already on the hook (another session sharing this
        transport) keeps applying first: each delivery time it answers
        flows through this injector's filter, and a message it drops
        never reaches this one.
        """
        if self._installed:
            raise RuntimeError("injector already installed")
        self._installed = True
        previous = self.net.fault_injector
        if previous is None:
            self.net.fault_injector = self._filter
        else:
            self.net.fault_injector = lambda msg, deliver_at: [
                t for first in previous(msg, deliver_at)
                for t in self._filter(msg, first)
            ]
        for event in self.schedule.events:
            self.net.scheduler.call_at(event.at_ms, self._apply, event)
        return self

    def lift_all(self) -> None:
        """Restore the network: restart crashed hosts, heal partitions,
        lift active attacks, expire tampering windows.  The runner calls
        this at the fault horizon so every run — including a shrunk
        prefix whose pairing event was cut off — ends with a heal phase
        the convergence invariant can be checked after."""
        for name in sorted(self._crashed):
            peer = self._peers.get(name)
            if peer is not None:
                peer.restart()
            else:  # the ordering service
                self.net.condition(name).down = False
        self._crashed.clear()
        if self._partition_active:
            self.net.heal()
            self._partition_active = False
        for attack in self._attacks:
            if attack.active:
                attack.lift(self.net)
        self._attacks.clear()
        self._windows.clear()
        self._log("lift-all", ())

    # ------------------------------------------------------------------
    # event application

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == FaultKind.PEER_CRASH:
            (name,) = event.targets
            if name not in self._crashed:
                self._peers[name].crash()
                self._crashed.add(name)
        elif kind == FaultKind.PEER_RESTART:
            (name,) = event.targets
            if name in self._crashed:
                self._peers[name].restart()
                self._crashed.discard(name)
        elif kind == FaultKind.ORDERER_CRASH:
            (name,) = event.targets
            if name not in self._crashed:
                self.net.condition(name).down = True
                self._crashed.add(name)
        elif kind == FaultKind.ORDERER_RESTART:
            (name,) = event.targets
            if name in self._crashed:
                self.net.condition(name).down = False
                self._crashed.discard(name)
        elif kind == FaultKind.PARTITION:
            self.net.partition(*[list(group) for group in event.params])
            self._partition_active = True
        elif kind == FaultKind.HEAL:
            if self._partition_active:
                self.net.heal()
                self._partition_active = False
        elif kind in (FaultKind.MSG_DROP, FaultKind.MSG_DUPLICATE, FaultKind.MSG_DELAY):
            duration, rate = event.params[0], event.params[1]
            extra = event.params[2] if len(event.params) > 2 else 5.0
            self._windows.append(
                _Window(
                    kind=kind,
                    targets=event.targets,
                    until=self.net.scheduler.now + duration,
                    rate=rate,
                    extra_ms=extra,
                )
            )
        elif kind == FaultKind.DDOS_LATENCY:
            duration, extra_ms = event.params
            self._launch(LatencyInjectionAttack(event.targets, extra_ms), duration)
        elif kind == FaultKind.DDOS_FLOOD:
            duration, rate = event.params
            self._launch(FloodAttack(event.targets, rate), duration)
        else:  # pragma: no cover - schedule.add validates kinds
            raise ValueError(f"unknown fault kind {kind!r}")
        self.faults_applied += 1
        self._log(kind, event.targets)

    def _launch(self, attack: Attack, duration_ms: float) -> None:
        attack.apply(self.net)
        self._attacks.append(attack)
        self.net.scheduler.call_after(duration_ms, self._expire, attack)

    def _expire(self, attack: Attack) -> None:
        if attack.active:
            attack.lift(self.net)
            self._log("ddos-end", tuple(attack.targets))

    def _log(self, kind: str, targets: Tuple[str, ...]) -> None:
        if self.telemetry is not None:
            self.telemetry.fault(kind, targets)
        if self.on_fault is not None:
            self.on_fault(self.net.scheduler.now, kind, targets)

    # ------------------------------------------------------------------
    # message tampering (Network.fault_injector hook)

    def _filter(self, msg: Message, deliver_at: float) -> List[float]:
        now = self.net.scheduler.now
        self._windows = [w for w in self._windows if w.until > now]
        times = [deliver_at]
        for window in self._windows:
            if not window.matches(msg):
                continue
            if window.kind == FaultKind.MSG_DROP:
                if self.rng.random() < window.rate:
                    return []
            elif window.kind == FaultKind.MSG_DUPLICATE:
                if self.rng.random() < window.rate:
                    times.append(deliver_at + self.rng.uniform(0.1, window.extra_ms))
            elif window.kind == FaultKind.MSG_DELAY:
                if self.rng.random() < window.rate:
                    times = [t + window.extra_ms for t in times]
        return times
