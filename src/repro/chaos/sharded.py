"""The sharded workload of the chaos catalog: swaps under fire,
conservation global.

:func:`repro.chaos.runner.run_scenario` runs a scenario with
``n_shards > 1`` over a :class:`~repro.blockchain.shardworker
.BridgedShardEngine` in its local placement — one chain per shard, each
on its own clock behind the time bridge — and drives it with
:class:`ShardedSwapWorkload`, which adds what single-chain chaos cannot
exercise: cross-shard asset swaps driven by a crashable
:class:`~repro.blockchain.swaps.SwapCoordinator` while peers churn,
partitions cut through in-flight prepares, and (per the scenario) the
coordinator itself dies between prepare and commit and must recover.

Monitors, injectors and buggy fixtures attach to each
``engine.worlds[i].chain`` through the shared run loop
(:mod:`repro.chaos.loop`); the workload, the conservation probes and the
coordinator's lifecycle are timers on the control clock, and
:meth:`ShardedSwapWorkload.finish_swaps` is the loop's post-drain tail.

Safety is judged at two levels:

* **per shard** — each shard gets its own
  :class:`~repro.chaos.invariants.InvariantMonitor` (prefix
  consistency, shadow-ledger MVCC, state-hash agreement, convergence),
  because block numbers and state hashes are per-chain quantities;
* **globally** — :func:`repro.blockchain.swaps.check_conservation_summaries`
  judges every shard's reference committed state on a fixed cadence and
  again at quiescence: no asset may ever be observed twice, and at the
  end each must exist exactly once with no surviving locks.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, List, Optional

from ..blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
from ..blockchain.swaps import (
    OUTCOME_COMMITTED,
    SwapCoordinator,
    asset_key,
    check_conservation_summaries,
)
from ..core.shim import ShardRouter
from .invariants import Violation
from .scenarios import Scenario

__all__ = ["ShardedSwapWorkload"]

#: Cadence of the mid-run global conservation probes.
_CONSERVATION_EVERY_MS = 2_500.0

#: Client-side poll timeout, matching the single-chain chaos workload:
#: long enough to ride out any healed fault, short enough that a tx
#: stranded by the fault horizon doesn't stall quiescence for the
#: default two simulated minutes.
_POLL_TIMEOUT_MS = 20_000.0


class ShardedSwapWorkload:
    """Session events on every shard plus periodic cross-shard swaps.

    Minting, the session-event cadence and the swap plan are all drawn
    from the seeded RNG before anything runs, so ``(scenario, seed)``
    replays the identical stream.  The workload tracks each asset's
    home shard from committed swap outcomes; a stale guess (possible
    while the coordinator is down) just yields a rejected prepare and an
    aborted swap — never an unsafe one.

    ``record(kind, t, *fields)`` receives the workload's timeline
    entries: swap outcomes, conservation probes, the coordinator's crash
    and recovery, lock sweeps.
    """

    def __init__(
        self,
        engine: BridgedShardEngine,
        scenario: Scenario,
        seed: int,
        telemetry=None,
        record: Callable[..., None] = lambda kind, t, *fields: None,
    ):
        self.engine = engine
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.telemetry = telemetry
        self.record = record
        self.codes: Counter = Counter()
        self.submitted = 0
        self.swaps_skipped_while_crashed = 0
        self.probe_codes: List[str] = []
        self.minted: Dict[str, int] = {}
        self._asset_home: Dict[str, int] = {}
        #: Global conservation breaches, mid-run and at quiescence.
        self.conservation_violations: List[Violation] = []
        self.router: Optional[ShardRouter] = None
        self.coordinator: Optional[SwapCoordinator] = None
        self._installed = False

    # ------------------------------------------------------------------

    def sessions(self) -> List[str]:
        return [f"g{k:02d}" for k in range(4 * self.engine.n_shards)]

    def install(self) -> "ShardedSwapWorkload":
        if self._installed:
            raise RuntimeError("workload already installed")
        self._installed = True
        engine = self.engine
        scenario = self.scenario
        self.router = ShardRouter(engine)
        port = BridgeSwapPort(engine)
        self.coordinator = SwapCoordinator(port=port, telemetry=self.telemetry)
        for world in engine.worlds:
            for prefix, poll_ms in (
                (self.router.client_prefix, self.router.poll_interval_ms),
                (port.client_name, engine.config.swap_poll_interval_ms),
            ):
                world.client(prefix, poll_ms).poll_timeout_ms = _POLL_TIMEOUT_MS

        # Mint every tradable asset up front, round-robin across shards
        # (explicitly placed — swaps move assets anywhere, so asset
        # residence is coordinator state, not key-hash routing).
        for j in range(scenario.n_assets):
            aid = f"asset{j:03d}"
            self.minted[aid] = 50 + j
            self._asset_home[aid] = j % engine.n_shards
            engine.call_at(1.0 + 2.0 * j, self._mint, aid)

        t = 50.0
        sessions = self.sessions()
        while t < scenario.duration_ms:
            session = self.rng.choice(sessions)
            player = f"p{self.rng.randrange(4)}"
            engine.call_at(t, self._session_event, session, player)
            t += scenario.workload_interval_ms

        index = 0
        t = 2_000.0
        while t < scenario.duration_ms * 0.9:
            engine.call_at(t, self._try_swap, index)
            index += 1
            t += scenario.swap_interval_ms

        t = _CONSERVATION_EVERY_MS
        while t < scenario.duration_ms:
            engine.call_at(t, self._probe_conservation)
            t += _CONSERVATION_EVERY_MS
        if scenario.coordinator_crash_ms > 0:
            engine.call_at(scenario.coordinator_crash_ms, self.crash_coordinator)
            engine.call_at(
                scenario.coordinator_crash_ms + scenario.coordinator_recover_ms,
                self.recover_coordinator,
            )
        return self

    # ------------------------------------------------------------------

    def _count(self, result, _latency) -> None:
        self.codes.update([result.code])

    def _mint(self, aid: str) -> None:
        assert self.router is not None
        self.submitted += 1
        self.engine.submit_invoke(
            self._asset_home[aid], "mint", (aid, "bank", self.minted[aid]),
            touched_keys=(asset_key(aid),), on_complete=self._count,
            client_prefix=self.router.client_prefix,
            poll_interval_ms=self.router.poll_interval_ms,
        )

    def _session_event(self, session: str, player: str) -> None:
        self.submitted += 1
        assert self.router is not None
        self.router.submit_session_event(
            session, player, 1, on_complete=self._count
        )

    def _try_swap(self, index: int) -> None:
        coordinator = self.coordinator
        assert coordinator is not None
        if coordinator.crashed:
            self.swaps_skipped_while_crashed += 1
            return
        aid = self.rng.choice(sorted(self._asset_home))
        src = self._asset_home[aid]
        others = [s for s in range(self.engine.n_shards) if s != src]
        dst = self.rng.choice(others)
        self.submitted += 1

        def on_done(swap):
            if swap.outcome == OUTCOME_COMMITTED:
                self._asset_home[aid] = dst
            self.record(
                "swap", self.engine.now,
                swap.swap_id, swap.outcome, swap.src_shard, swap.dst_shard,
            )

        coordinator.start_swap(
            f"cswap{index:03d}", aid, src, dst,
            f"owner{index}", self.minted[aid], on_done=on_done,
        )

    def judge_conservation(self, quiescent: bool) -> int:
        """Check global asset conservation now; returns the breach count."""
        problems = check_conservation_summaries(
            self.engine.collect_summaries(), self.minted, quiescent=quiescent
        )
        for problem in problems:
            self.conservation_violations.append(
                Violation(self.engine.now, "asset-conservation", "-", problem)
            )
        return len(problems)

    def _probe_conservation(self) -> None:
        self.record("conservation", self.engine.now, self.judge_conservation(False))

    # ------------------------------------------------------------------
    # coordinator lifecycle

    def crash_coordinator(self) -> None:
        assert self.coordinator is not None
        self.record("coordinator-crash", self.engine.now)
        self.coordinator.crash()

    def recover_coordinator(self) -> None:
        assert self.coordinator is not None
        self.record("coordinator-recover", self.engine.now)
        self.coordinator.restart()
        self.coordinator.recover()

    # ------------------------------------------------------------------
    # end-of-run

    def submit_probes(self, count: int = 3) -> None:
        """Post-heal liveness probes: one session event per shard-ish,
        each of which must commit VALID on its shard."""
        assert self.router is not None
        sessions = self.sessions()
        for i in range(count):
            self.router.submit_session_event(
                sessions[i % len(sessions)], "probe", 1,
                on_complete=lambda result, _lat: self.probe_codes.append(
                    result.code
                ),
            )

    def finish_swaps(self) -> List[Callable[[], None]]:
        """The post-drain tail, each step followed by a drain: restart a
        coordinator still down, resolve the swaps its crash orphaned,
        sweep stale locks (up to three rounds), then judge conservation
        at quiescence."""
        coordinator = self.coordinator
        assert coordinator is not None

        def recover_if_crashed() -> None:
            if coordinator.crashed:
                self.recover_coordinator()

        def resolve_orphans() -> None:
            if coordinator.unresolved():
                coordinator.recover()

        def sweep() -> None:
            # Once a sweep finds nothing, the ones after it find nothing.
            if coordinator.sweep_stale_locks():
                self.record("lock-sweep", self.engine.now)

        return [recover_if_crashed, resolve_orphans, sweep, sweep, sweep,
                lambda: self.judge_conservation(quiescent=True)]

    def summary(self) -> Dict[str, int]:
        out = dict(sorted(self.codes.items()))
        assert self.coordinator is not None
        for outcome, n in self.coordinator.outcomes().items():
            out[f"swap_{outcome}"] = n
        if self.swaps_skipped_while_crashed:
            out["swap_skipped_while_crashed"] = self.swaps_skipped_while_crashed
        return out
