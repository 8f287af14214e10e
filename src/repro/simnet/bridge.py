"""Conservative-lookahead time bridge for multi-clock simulations.

Every shard of the sharded deployment runs on its *own*
:class:`Scheduler`, in the host process or in a worker.  The bridge
keeps those clocks in step by exploiting the deployment's structure:
shards never talk to each other directly — all cross-shard interaction
goes through the control plane (client submissions, swap 2PC steps),
and every control→shard injection carries a minimum modeled transit
latency ``lookahead_ms``.  That latency is the conservative lookahead
window of classic CMB-style parallel
discrete-event simulation: if the control plane has processed
everything up to time ``t``, no shard can receive a *new* reactive
injection earlier than ``t + lookahead_ms``, so every shard may safely
advance its local clock that far without waiting.

Execution proceeds in epoch rounds.  Round *k*:

1. The bridge picks the next horizon ``T_k = max(T_{k-1} + L, A)``
   where ``A`` is the earliest possible activity time anywhere (next
   control timer, next queued shard event, earliest buffered command).
   Any ``T <= T_{k-1} + L`` is safe because all activity is strictly
   after ``T_{k-1}``; ``T = A > T_{k-1} + L`` is safe because nothing
   at all can happen in ``(T_{k-1}, A)`` — this is the fast-forward
   that skips idle stretches in one jump.
2. All buffered commands are shipped to their shards (each tagged with
   a global sequence number and an absolute effect time) and every
   shard runs its local scheduler to ``T_k`` inclusive, emitting
   upward events (completions, telemetry) stamped with local time.
3. The bridge merges upward events from all shards in ``(time,
   shard, seq)`` order, schedules them on the control scheduler, and
   runs it to ``T_k`` inclusive.  Control handlers fire at times
   ``t > T_{k-1}``, so any reactive command they submit (effect
   ``t + L > T_{k-1} + L >= T_k``... and strictly ``> T_k`` whenever
   ``T_k <= T_{k-1} + L``) lands beyond the already-executed horizon
   and is delivered at the start of round *k+1* — never late.

Because horizons, command batches and event merges are pure functions
of the (deterministic) shard worlds and control logic, the execution
is bit-identical for any placement of shards onto workers, including
all-in-process.  :meth:`TimeBridge.submit` enforces the invariant at
runtime: a command whose effect time is not strictly beyond the
completed horizon raises :class:`BridgeError` instead of silently
reordering history.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .clock import Scheduler

__all__ = ["BridgeError", "ShardGroupPort", "TimeBridge", "DEFAULT_LOOKAHEAD_MS"]

#: Default control→shard transit latency (simulated ms).  This is a
#: modeled network hop — the control plane (clients, swap coordinator)
#: is "one bridge link away" from every shard — and doubles as the
#: conservative lookahead window.  Larger values mean fewer, fatter
#: epochs (less sync overhead) but coarser reaction latency for the
#: control plane; the value is part of the workload definition and is
#: pinned in perf baselines.
DEFAULT_LOOKAHEAD_MS = 5.0

#: Upward event: ``(time, shard_index, seq, kind, payload)``.
UpEvent = Tuple[float, int, int, str, Any]

#: Downward command: ``(seq, effect_time, op, payload)``.
Command = Tuple[int, float, str, Any]


class BridgeError(RuntimeError):
    """A lookahead/ordering invariant of the time bridge was violated."""


class ShardGroupPort:
    """Interface to one worker hosting one or more shard worlds.

    Implementations (in :mod:`repro.blockchain.shardworker`) run the
    worlds either in-process or in a spawned worker process; the bridge
    only sees this protocol.  ``begin_epoch``/``finish_epoch`` are
    split so the bridge can start every worker's epoch before blocking
    on any of them — that overlap *is* the parallelism.
    """

    #: Shard indices hosted by this port, ascending.
    shard_indices: Tuple[int, ...] = ()

    def begin_epoch(self, until: float, commands: Dict[int, List[Command]]) -> None:
        raise NotImplementedError

    def finish_epoch(self) -> Tuple[List[UpEvent], Dict[int, Dict[str, Any]]]:
        """Returns ``(events, stats)`` where ``stats[shard]`` has keys
        ``pending`` (live events left) and ``next_when`` (time of the
        earliest, or None)."""
        raise NotImplementedError

    def collect_summaries(self) -> Dict[int, Dict[str, Any]]:
        raise NotImplementedError

    def committed_state_get(self, shard: int, key: str) -> Any:
        """One key of a hosted shard's reference committed state; None
        when absent or when no peer of the shard is reachable."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class TimeBridge:
    """Epoch-barrier synchronizer across shard group ports.

    The control plane (client completion callbacks, the swap
    coordinator's timers) runs on :attr:`control`, a plain
    :class:`Scheduler`; shard-bound work is buffered through
    :meth:`submit` and shipped at epoch boundaries.
    """

    def __init__(self, ports: Sequence[ShardGroupPort], lookahead_ms: float = DEFAULT_LOOKAHEAD_MS):
        if lookahead_ms <= 0:
            raise BridgeError(f"lookahead must be positive, got {lookahead_ms}")
        self.control = Scheduler()
        self.lookahead_ms = float(lookahead_ms)
        self.ports: List[ShardGroupPort] = list(ports)
        self._shard_to_port: Dict[int, ShardGroupPort] = {}
        for port in self.ports:
            for index in port.shard_indices:
                if index in self._shard_to_port:
                    raise BridgeError(f"shard {index} hosted by two ports")
                self._shard_to_port[index] = port
        self._outbox: Dict[int, List[Command]] = {i: [] for i in self._shard_to_port}
        self._cmd_seq = 0
        self._cb_seq = 0
        self._callbacks: Dict[int, Callable[..., Any]] = {}
        #: Horizon through which every shard has already executed.
        self.horizon = 0.0
        #: Last known per-shard (pending, next_when), updated each epoch.
        self._shard_stats: Dict[int, Dict[str, Any]] = {
            i: {"pending": 0, "next_when": None} for i in self._shard_to_port
        }
        self.rounds = 0

    # -- control-plane clock ------------------------------------------

    @property
    def now(self) -> float:
        return self.control.now

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any):
        return self.control.call_at(when, fn, *args)

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any):
        return self.control.call_after(delay, fn, *args)

    # -- downward commands --------------------------------------------

    def register_callback(self, fn: Callable[..., Any]) -> int:
        """Register a one-shot completion callback; returns its id.

        Closures cannot cross a process boundary, so commands carry an
        integer callback id and workers send it back in the completion
        event; :meth:`_dispatch` pops and invokes the registered
        function on the control clock.
        """
        self._cb_seq += 1
        self._callbacks[self._cb_seq] = fn
        return self._cb_seq

    def submit(self, shard: int, op: str, payload: Any, effect_time: Optional[float] = None) -> float:
        """Buffer a command for ``shard`` taking effect at ``effect_time``.

        Reactive submissions (the default) take effect one lookahead
        window after control-plane "now" — that models the bridge
        transit latency and is precisely what makes conservative
        parallel execution sound.  Pre-planned open-loop streams (a
        benchmark's fixed injection schedule) may pass any explicit
        ``effect_time`` beyond the completed horizon.
        """
        if shard not in self._outbox:
            raise BridgeError(f"unknown shard {shard}")
        if effect_time is None:
            effect_time = self.control.now + self.lookahead_ms
        if effect_time < self.horizon:
            # Every shard clock sits exactly at the horizon between
            # rounds, so effect_time == horizon is still schedulable
            # (the event fires FIFO-after anything already executed at
            # that instant — identically for any shard placement);
            # anything earlier would rewrite executed history.
            raise BridgeError(
                f"command for shard {shard} takes effect at t={effect_time:.3f} "
                f"but shards already executed through t={self.horizon:.3f}"
            )
        self._cmd_seq += 1
        self._outbox[shard].append((self._cmd_seq, effect_time, op, payload))
        return effect_time

    # -- epoch loop ----------------------------------------------------

    def _earliest_activity(self) -> Optional[float]:
        candidates: List[float] = []
        control_next = self.control.next_when()
        if control_next is not None:
            candidates.append(control_next)
        for stats in self._shard_stats.values():
            next_when = stats.get("next_when")
            if next_when is not None:
                candidates.append(next_when)
        for commands in self._outbox.values():
            for _seq, effect, _op, _payload in commands:
                candidates.append(effect)
        return min(candidates) if candidates else None

    def quiescent(self) -> bool:
        return self._earliest_activity() is None and self.control.pending == 0

    def step(self) -> bool:
        """Run one epoch round; False when nothing was left to run."""
        earliest = self._earliest_activity()
        if earliest is None:
            return False
        until = max(self.horizon + self.lookahead_ms, earliest)
        shipped: Dict[ShardGroupPort, Dict[int, List[Command]]] = {}
        for index, commands in self._outbox.items():
            if commands:
                port = self._shard_to_port[index]
                shipped.setdefault(port, {})[index] = commands
        for index in self._outbox:
            self._outbox[index] = []
        # Start every worker's epoch before collecting any results:
        # process-backed ports execute concurrently in this window.
        for port in self.ports:
            port.begin_epoch(until, shipped.get(port, {}))
        merged: List[UpEvent] = []
        for port in self.ports:
            events, stats = port.finish_epoch()
            merged.extend(events)
            self._shard_stats.update(stats)
        self.horizon = until
        # Global order: time, then shard index, then the shard-local
        # emission sequence — a total order identical for any
        # shard→worker placement.
        merged.sort(key=lambda ev: (ev[0], ev[1], ev[2]))
        for event in merged:
            if event[0] > until:
                raise BridgeError(
                    f"shard {event[1]} emitted an event at t={event[0]:.3f} "
                    f"beyond the epoch horizon t={until:.3f}"
                )
            self.control.call_at(event[0], self._dispatch, event)
        self.control.run(until=until)
        self.rounds += 1
        return True

    def run(self, max_rounds: int = 10_000_000) -> None:
        """Run epoch rounds until globally quiescent."""
        for _ in range(max_rounds):
            if not self.step():
                return
        raise BridgeError(f"no quiescence within {max_rounds} epoch rounds")

    def _dispatch(self, event: UpEvent) -> None:
        _when, _shard, _seq, kind, payload = event
        if kind == "complete":
            callback_id = payload[0]
            fn = self._callbacks.pop(callback_id, None)
            if fn is not None:
                fn(*payload[1:])
        else:
            raise BridgeError(f"unknown upward event kind {kind!r}")

    def close(self) -> None:
        for port in self.ports:
            port.close()
