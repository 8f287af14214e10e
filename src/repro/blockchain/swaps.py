"""Atomic cross-shard asset transfers: two-phase prepare/commit.

A sharded room (:class:`~repro.blockchain.shardworker.BridgedShardEngine`)
partitions the key space, so "player trades an item between sessions on
different shards" cannot be one transaction — no single shard's ledger
sees both sides.  This module implements the classic resolution:

1. **prepare** — lock the asset on the source shard
   (``swap_prepare_out``), then create a matching value-carrying lock on
   the destination shard (``swap_prepare_in``).  A lock names the swap
   that owns it; a locked asset rejects every other swap and transfer.
2. **commit** — tombstone the asset on the source shard
   (``swap_commit_out``), then materialise it from the carried lock on
   the destination (``swap_commit_in``).  The commit order is fixed:
   the destination record is only ever created *after* the source
   record is provably gone, so no consistent cut across shards can
   observe the asset twice.
3. **abort** — clear the locks (``swap_abort``); legal any time before
   ``swap_commit_out`` is submitted, after which the protocol is past
   its point of no return and must roll forward.

The :class:`SwapCoordinator` drives the sequence through ordinary
per-shard client submissions (routed by its port, the engine's
:class:`~repro.blockchain.shardworker.BridgeSwapPort`) and is itself a
crashable host-side state machine: :meth:`~
SwapCoordinator.crash` freezes it mid-protocol (locks stay on chain,
exactly like a real coordinator dying), and :meth:`~SwapCoordinator.
recover` re-derives each unresolved swap's fate from *committed chain
state only* — presumed abort when undecided, roll-forward when the
source tombstone proves the commit point was passed.  Timeouts abort
undecided swaps so locks are never leaked by a slow or dead
counterparty.

Conservation is checkable globally: :func:`check_conservation_summaries`
judges every shard's reference committed state (as shipped in the
engine's summaries) and verifies each asset exists exactly once — as a
live record, or carried by an in-flight destination lock — and never
twice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .contracts import Contract, ContractError, InvocationContext, check_args
from .transaction import TxResult, TxValidationCode

__all__ = [
    "ShardAssetContract",
    "SwapState",
    "CrossShardSwap",
    "SwapCoordinator",
    "check_conservation_summaries",
]

def asset_key(asset_id: str) -> str:
    return f"asset/{asset_id}"


def lock_key(asset_id: str) -> str:
    return f"swaplock/{asset_id}"


def session_key(session_id: str, player_id: str) -> str:
    return f"sess/{session_id}/p/{player_id}"


class ShardAssetContract(Contract):
    """Session state plus swappable assets, deployed on every shard.

    Assets are ``asset/<id>`` records ``{"owner", "value"}``; swap locks
    are ``swaplock/<id>`` records naming the owning swap.  Deleting a
    record writes ``None`` (the ledger applies write sets verbatim and
    the state view treats a ``None`` value as absent), so a committed
    ``swap_commit_out`` is a durable tombstone.
    """

    name = "shardasset"

    #: Function -> the types of its positional args, as the
    #: coordinator, the session router and the workloads send them.
    SIGNATURES = {
        "mint": (str, str, int),
        "transfer": (str, str),
        "session_event": (str, str, int),
        "swap_prepare_out": (str, str),
        "swap_prepare_in": (str, str, str, int),
        "swap_commit_out": (str, str),
        "swap_commit_in": (str, str),
        "swap_abort": (str, str),
    }

    def invoke(self, ctx: InvocationContext, function: str, args: Tuple) -> Any:
        signature = self.SIGNATURES.get(function)
        if signature is None:
            raise ContractError(f"unknown function {function!r}")
        check_args(signature, args)
        return getattr(self, f"_fn_{function}")(ctx, *args)

    def functions(self) -> List[str]:
        return list(self.SIGNATURES)

    # -- plain session / asset operations ------------------------------

    def _fn_mint(self, ctx, asset_id: str, owner: str, value: int):
        if ctx.view.get(asset_key(asset_id)) is not None:
            raise ContractError(f"asset {asset_id} already exists")
        ctx.view.put(asset_key(asset_id), {"owner": owner, "value": int(value)})

    def _fn_transfer(self, ctx, asset_id: str, new_owner: str):
        record = ctx.view.get(asset_key(asset_id))
        if record is None:
            raise ContractError(f"no such asset {asset_id}")
        if ctx.view.get(lock_key(asset_id)) is not None:
            raise ContractError(f"asset {asset_id} is locked by a swap")
        ctx.view.put(
            asset_key(asset_id), {"owner": new_owner, "value": record["value"]}
        )

    def _fn_session_event(self, ctx, session_id: str, player_id: str, delta: int):
        key = session_key(session_id, player_id)
        current = ctx.view.get(key)
        ctx.view.put(key, (current or 0) + int(delta))

    # -- two-phase swap ------------------------------------------------

    def _fn_swap_prepare_out(self, ctx, swap_id: str, asset_id: str):
        record = ctx.view.get(asset_key(asset_id))
        if record is None:
            raise ContractError(f"no such asset {asset_id}")
        if ctx.view.get(lock_key(asset_id)) is not None:
            raise ContractError(f"asset {asset_id} already locked")
        ctx.view.put(
            lock_key(asset_id),
            {"swap": swap_id, "direction": "out",
             "owner": record["owner"], "value": record["value"]},
        )

    def _fn_swap_prepare_in(self, ctx, swap_id: str, asset_id: str,
                            new_owner: str, value: int):
        if ctx.view.get(asset_key(asset_id)) is not None:
            raise ContractError(f"asset {asset_id} already present here")
        if ctx.view.get(lock_key(asset_id)) is not None:
            raise ContractError(f"asset {asset_id} already locked here")
        ctx.view.put(
            lock_key(asset_id),
            {"swap": swap_id, "direction": "in",
             "owner": new_owner, "value": int(value)},
        )

    def _require_lock(self, ctx, swap_id: str, asset_id: str) -> Dict[str, Any]:
        lock = ctx.view.get(lock_key(asset_id))
        if lock is None:
            raise ContractError(f"no swap lock on {asset_id}")
        if lock["swap"] != swap_id:
            raise ContractError(
                f"lock on {asset_id} belongs to swap {lock['swap']!r}"
            )
        return lock

    def _fn_swap_commit_out(self, ctx, swap_id: str, asset_id: str):
        self._require_lock(ctx, swap_id, asset_id)
        ctx.view.put(asset_key(asset_id), None)   # tombstone: the value
        ctx.view.put(lock_key(asset_id), None)    # now lives in the in-lock


    def _fn_swap_commit_in(self, ctx, swap_id: str, asset_id: str):
        lock = self._require_lock(ctx, swap_id, asset_id)
        ctx.view.put(
            asset_key(asset_id), {"owner": lock["owner"], "value": lock["value"]}
        )
        ctx.view.put(lock_key(asset_id), None)

    def _fn_swap_abort(self, ctx, swap_id: str, asset_id: str):
        self._require_lock(ctx, swap_id, asset_id)
        ctx.view.put(lock_key(asset_id), None)


# ----------------------------------------------------------------------
# coordinator state machine


class SwapState(enum.Enum):
    PREPARING = "preparing"
    PREPARED = "prepared"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTING = "aborting"
    ABORTED = "aborted"


#: Outcome labels — the telemetry counter's ``outcome`` label values.
OUTCOME_COMMITTED = "committed"
OUTCOME_ABORTED = "aborted"
OUTCOME_TIMED_OUT = "timed_out"


@dataclass
class CrossShardSwap:
    """One in-flight (or finished) cross-shard transfer."""

    swap_id: str
    asset_id: str
    src_shard: int
    dst_shard: int
    new_owner: str
    value: int
    state: SwapState = SwapState.PREPARING
    outcome: Optional[str] = None
    started_at: float = 0.0
    prepared_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: prepares whose VALID commit this coordinator has observed.
    prepared_out: bool = False
    prepared_in: bool = False
    history: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state in (SwapState.COMMITTED, SwapState.ABORTED)


class SwapCoordinator:
    """Drives cross-shard swaps through per-shard clients.

    One coordinator can run many swaps concurrently; each swap is an
    independent state machine.  ``crash()`` models coordinator death:
    every pending callback and timer of the old incarnation is
    abandoned (in-flight *transactions* still commit — the chain does
    not care that their submitter died), and ``recover()`` later
    resolves the orphaned swaps from committed chain state alone.
    """

    def __init__(
        self,
        port,
        contract: str = "shardasset",
        timeout_ms: Optional[float] = None,
        telemetry=None,
        name: str = "swapcoord",
        commit_retries: int = 3,
    ):
        """``port`` is everything the state machine needs from the
        outside world — ``now``, ``swap_timeout_ms``, ``call_after``,
        ``submit`` and ``committed_state_get``: the engine's
        :class:`~repro.blockchain.shardworker.BridgeSwapPort`."""
        self.port = port
        self.contract = contract
        self.timeout_ms = (
            timeout_ms if timeout_ms is not None else port.swap_timeout_ms
        )
        self.telemetry = telemetry
        self.name = name
        self.commit_retries = commit_retries
        self.swaps: Dict[str, CrossShardSwap] = {}
        self.crashed = False
        self._generation = 0
        self._timers: Dict[str, Any] = {}
        self._aborts_inflight: Dict[str, int] = {}
        self._on_done: Dict[str, Callable[[CrossShardSwap], None]] = {}

    # -- plumbing ------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.port.now

    def _submit(self, shard_index: int, function: str, args: Tuple,
                keys: Tuple[str, ...], handler: Callable[[TxResult], None]) -> None:
        generation = self._generation

        def on_complete(result: TxResult, _latency: float) -> None:
            if self.crashed or generation != self._generation:
                return
            handler(result)

        self.port.submit(
            shard_index, self.contract, function, args, keys, on_complete
        )

    def _mark(self, swap: CrossShardSwap, note: str) -> None:
        swap.history.append((round(self._now, 3), note))

    def _span(self, swap: CrossShardSwap, stage: str, start: float) -> None:
        if self.telemetry is not None:
            self.telemetry.swap_stage(swap.swap_id, stage, start, self._now)

    def _finish(self, swap: CrossShardSwap, state: SwapState, outcome: str) -> None:
        swap.state = state
        swap.outcome = outcome
        swap.finished_at = self._now
        self._mark(swap, outcome)
        timer = self._timers.pop(swap.swap_id, None)
        if timer is not None:
            timer.cancel()
        if self.telemetry is not None:
            self.telemetry.swap_outcome(outcome)
        callback = self._on_done.pop(swap.swap_id, None)
        if callback is not None:
            callback(swap)

    # -- lifecycle -----------------------------------------------------

    def crash(self) -> None:
        """Die mid-protocol: drop timers, ignore all pending callbacks."""
        self.crashed = True
        self._generation += 1
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._aborts_inflight.clear()

    def restart(self) -> None:
        self.crashed = False

    # -- the happy path ------------------------------------------------

    def start_swap(
        self,
        swap_id: str,
        asset_id: str,
        src_shard: int,
        dst_shard: int,
        new_owner: str,
        value: int,
        on_done: Optional[Callable[[CrossShardSwap], None]] = None,
    ) -> CrossShardSwap:
        if self.crashed:
            raise RuntimeError("coordinator crashed; call restart() first")
        if swap_id in self.swaps:
            raise ValueError(f"swap {swap_id!r} already started")
        swap = CrossShardSwap(
            swap_id=swap_id, asset_id=asset_id,
            src_shard=src_shard, dst_shard=dst_shard,
            new_owner=new_owner, value=value, started_at=self._now,
        )
        self.swaps[swap_id] = swap
        if on_done is not None:
            self._on_done[swap_id] = on_done
        self._mark(swap, "start")
        keys = (asset_key(asset_id), lock_key(asset_id))
        if src_shard == dst_shard:
            # Degenerate case: the router put both sessions on one shard,
            # so a plain single-shard transfer is already atomic.
            self._submit(
                src_shard, "transfer", (asset_id, new_owner), keys[:1],
                lambda result: self._on_local_transfer(swap, result),
            )
            return swap
        self._timers[swap_id] = self.port.call_after(
            self.timeout_ms, self._on_timeout, swap
        )
        self._submit(
            src_shard, "swap_prepare_out", (swap_id, asset_id), keys,
            lambda result: self._on_prepare_out(swap, result),
        )
        return swap

    def _on_local_transfer(self, swap: CrossShardSwap, result: TxResult) -> None:
        if result.code == TxValidationCode.VALID:
            self._span(swap, "commit", swap.started_at)
            self._finish(swap, SwapState.COMMITTED, OUTCOME_COMMITTED)
        else:
            self._finish(swap, SwapState.ABORTED, OUTCOME_ABORTED)

    def _on_prepare_out(self, swap: CrossShardSwap, result: TxResult) -> None:
        valid = result.code == TxValidationCode.VALID
        swap.prepared_out = valid
        self._mark(swap, f"prepare_out:{result.code}")
        if swap.state in (SwapState.ABORTING, SwapState.ABORTED):
            # Timed out while this prepare was in flight; if it made it
            # onto the chain after all, release its lock immediately.
            if valid:
                self._abort_side(swap, swap.src_shard)
            return
        if not valid:
            self._finish(swap, SwapState.ABORTED, OUTCOME_ABORTED)
            return
        self._submit(
            swap.dst_shard, "swap_prepare_in",
            (swap.swap_id, swap.asset_id, swap.new_owner, swap.value),
            (asset_key(swap.asset_id), lock_key(swap.asset_id)),
            lambda result: self._on_prepare_in(swap, result),
        )

    def _on_prepare_in(self, swap: CrossShardSwap, result: TxResult) -> None:
        valid = result.code == TxValidationCode.VALID
        swap.prepared_in = valid
        self._mark(swap, f"prepare_in:{result.code}")
        if swap.state in (SwapState.ABORTING, SwapState.ABORTED):
            if valid:
                self._abort_side(swap, swap.dst_shard)
            return
        if not valid:
            # Destination refused (asset materialised there, concurrent
            # lock, ...): roll back the source lock.
            swap.state = SwapState.ABORTING
            swap.outcome = OUTCOME_ABORTED
            self._abort_side(swap, swap.src_shard)
            return
        swap.state = SwapState.PREPARED
        swap.prepared_at = self._now
        self._span(swap, "prepare", swap.started_at)
        self._begin_commit(swap)

    def _begin_commit(self, swap: CrossShardSwap) -> None:
        # Point of no return: once swap_commit_out is submitted the
        # timeout can no longer abort — recovery must roll forward.
        swap.state = SwapState.COMMITTING
        timer = self._timers.pop(swap.swap_id, None)
        if timer is not None:
            timer.cancel()
        self._mark(swap, "commit_out")
        self._submit(
            swap.src_shard, "swap_commit_out", (swap.swap_id, swap.asset_id),
            (asset_key(swap.asset_id), lock_key(swap.asset_id)),
            lambda result: self._on_commit_out(swap, result),
        )

    def _on_commit_out(self, swap: CrossShardSwap, result: TxResult) -> None:
        self._mark(swap, f"commit_out:{result.code}")
        if result.code != TxValidationCode.VALID:
            # Nothing destroyed yet (the tombstone did not commit):
            # still safe to abort both sides.
            swap.state = SwapState.ABORTING
            swap.outcome = OUTCOME_ABORTED
            self._abort_side(swap, swap.src_shard)
            self._abort_side(swap, swap.dst_shard)
            return
        self._submit_commit_in(swap, self.commit_retries)

    def _submit_commit_in(self, swap: CrossShardSwap, retries: int) -> None:
        self._mark(swap, "commit_in")
        self._submit(
            swap.dst_shard, "swap_commit_in", (swap.swap_id, swap.asset_id),
            (asset_key(swap.asset_id), lock_key(swap.asset_id)),
            lambda result: self._on_commit_in(swap, result, retries),
        )

    def _on_commit_in(self, swap: CrossShardSwap, result: TxResult, retries: int) -> None:
        self._mark(swap, f"commit_in:{result.code}")
        if result.code == TxValidationCode.VALID:
            start = swap.prepared_at if swap.prepared_at is not None else swap.started_at
            self._span(swap, "commit", start)
            self._finish(swap, SwapState.COMMITTED, OUTCOME_COMMITTED)
            return
        # Past the point of no return: the source record is gone, the
        # destination lock still carries the value.  Roll forward.
        if retries > 0:
            self._submit_commit_in(swap, retries - 1)
        # else: leave COMMITTING for recover() to finish.

    # -- abort / timeout ----------------------------------------------

    def _abort_side(self, swap: CrossShardSwap, shard_index: int) -> None:
        self._aborts_inflight[swap.swap_id] = (
            self._aborts_inflight.get(swap.swap_id, 0) + 1
        )
        self._mark(swap, f"abort:s{shard_index}")
        self._submit(
            shard_index, "swap_abort", (swap.swap_id, swap.asset_id),
            (asset_key(swap.asset_id), lock_key(swap.asset_id)),
            lambda result: self._on_abort_done(swap, result),
        )

    def _on_abort_done(self, swap: CrossShardSwap, result: TxResult) -> None:
        # A rejected abort means the lock was already gone — same end
        # state, so both codes count as resolved.
        remaining = self._aborts_inflight.get(swap.swap_id, 1) - 1
        self._aborts_inflight[swap.swap_id] = remaining
        if remaining <= 0 and swap.state == SwapState.ABORTING:
            self._aborts_inflight.pop(swap.swap_id, None)
            self._span(swap, "abort", swap.started_at)
            self._finish(swap, SwapState.ABORTED, swap.outcome or OUTCOME_ABORTED)

    def _on_timeout(self, swap: CrossShardSwap) -> None:
        self._timers.pop(swap.swap_id, None)
        if swap.state not in (SwapState.PREPARING, SwapState.PREPARED):
            return
        swap.outcome = OUTCOME_TIMED_OUT
        swap.state = SwapState.ABORTING
        self._mark(swap, "timeout")
        aborted_any = False
        if swap.prepared_out:
            self._abort_side(swap, swap.src_shard)
            aborted_any = True
        if swap.prepared_in:
            self._abort_side(swap, swap.dst_shard)
            aborted_any = True
        if not aborted_any:
            # No confirmed lock anywhere; in-flight prepares (if any)
            # will be aborted by their completion callbacks.
            self._span(swap, "abort", swap.started_at)
            self._finish(swap, SwapState.ABORTED, OUTCOME_TIMED_OUT)

    # -- crash recovery ------------------------------------------------

    def recover(self) -> List[Tuple[str, str]]:
        """Resolve every unfinished swap from committed chain state.

        Call after a :meth:`restart`, once in-flight submissions have
        settled (the chain quiesced): reads each shard's reference
        committed state and either rolls the swap forward (the source
        tombstone proves ``swap_commit_out`` committed) or presumes
        abort.  Returns ``(swap_id, action)`` pairs for the log.
        """
        if self.crashed:
            raise RuntimeError("coordinator crashed; call restart() first")
        actions: List[Tuple[str, str]] = []
        for swap_id in sorted(self.swaps):
            swap = self.swaps[swap_id]
            if swap.done:
                continue
            actions.append((swap_id, self._recover_one(swap)))
        return actions

    def _lock_of(self, swap: CrossShardSwap, shard_index: int) -> Optional[Dict]:
        lock = self.port.committed_state_get(
            shard_index, lock_key(swap.asset_id)
        )
        if isinstance(lock, dict) and lock.get("swap") == swap.swap_id:
            return lock
        return None

    def _recover_one(self, swap: CrossShardSwap) -> str:
        port = self.port
        src_asset = port.committed_state_get(swap.src_shard, asset_key(swap.asset_id))
        if swap.src_shard == swap.dst_shard:
            if src_asset is not None and src_asset.get("owner") == swap.new_owner:
                self._finish(swap, SwapState.COMMITTED, OUTCOME_COMMITTED)
                return "local-committed"
            self._finish(swap, SwapState.ABORTED, OUTCOME_ABORTED)
            return "local-aborted"
        out_lock = self._lock_of(swap, swap.src_shard)
        in_lock = self._lock_of(swap, swap.dst_shard)
        dst_asset = port.committed_state_get(swap.dst_shard, asset_key(swap.asset_id))
        if out_lock is None and in_lock is None:
            # Fully settled one way or the other; the records tell which.
            if dst_asset is not None:
                self._finish(swap, SwapState.COMMITTED, OUTCOME_COMMITTED)
                return "already-committed"
            self._finish(swap, SwapState.ABORTED, swap.outcome or OUTCOME_ABORTED)
            return "already-aborted"
        if out_lock is not None:
            # Undecided (commit_out never committed): presumed abort.
            swap.state = SwapState.ABORTING
            swap.outcome = swap.outcome or OUTCOME_ABORTED
            self._abort_side(swap, swap.src_shard)
            if in_lock is not None:
                self._abort_side(swap, swap.dst_shard)
            return "presumed-abort"
        # in_lock only.  prepare_in is submitted strictly after
        # prepare_out commits, so the source side *did* prepare; its
        # lock being gone means either commit_out committed (asset
        # tombstoned → roll forward) or the source aborted first
        # (asset still there → abort the dangling destination lock).
        if src_asset is None:
            swap.state = SwapState.COMMITTING
            self._submit_commit_in(swap, self.commit_retries)
            return "roll-forward"
        swap.state = SwapState.ABORTING
        swap.outcome = swap.outcome or OUTCOME_ABORTED
        self._abort_side(swap, swap.dst_shard)
        return "abort-dangling-lock"

    def sweep_stale_locks(self) -> int:
        """Release locks owned by already-decided swaps; returns the
        number of ``swap_abort`` submissions made.

        A prepare delayed by a partition can commit *after* its swap was
        resolved (timeout, or crash recovery presuming abort on the
        lock's absence), leaving a lock no live state machine will ever
        clear.  Releasing it is always safe: a decided-aborted swap
        never submitted ``swap_commit_out``, so the asset record is
        intact and only the stale lock goes.  Run at quiescence until it
        returns 0.
        """
        if self.crashed:
            raise RuntimeError("coordinator crashed; call restart() first")
        submitted = 0
        for swap_id in sorted(self.swaps):
            swap = self.swaps[swap_id]
            if not swap.done:
                continue
            for shard in (swap.src_shard, swap.dst_shard):
                lock = self._lock_of(swap, shard)
                if lock is None:
                    continue
                if swap.state == SwapState.COMMITTED and lock["direction"] == "in":
                    # The committed path's own commit_in retries handle
                    # this lock; clearing it here would race them.
                    continue
                self._mark(swap, f"sweep:s{shard}")
                self._submit(
                    shard, "swap_abort", (swap_id, swap.asset_id),
                    (asset_key(swap.asset_id), lock_key(swap.asset_id)),
                    lambda result: None,
                )
                submitted += 1
        return submitted

    # -- bookkeeping ---------------------------------------------------

    def outcomes(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for swap_id in sorted(self.swaps):
            outcome = self.swaps[swap_id].outcome or "unresolved"
            tally[outcome] = tally.get(outcome, 0) + 1
        return dict(sorted(tally.items()))

    def unresolved(self) -> List[str]:
        return [sid for sid in sorted(self.swaps) if not self.swaps[sid].done]


# ----------------------------------------------------------------------
# global conservation


def check_conservation_summaries(
    summaries: Dict[int, Dict[str, Any]],
    minted: Dict[str, int],
    quiescent: bool = True,
) -> List[str]:
    """Global asset conservation across every shard; [] when it holds.

    Judged over the engine's per-shard summaries (each ships its
    reference peer's committed asset records and swap locks).  Mid-run
    (``quiescent=False``) an asset may legitimately live in an in-flight
    destination lock (between ``swap_commit_out`` and
    ``swap_commit_in``); it must still exist *somewhere*, exactly once,
    at its minted value.  At quiescence the rules tighten: exactly one
    live record per asset and no surviving locks at all.
    """
    readable = [summary["readable"] for summary in summaries.values()]
    if not any(readable):
        return []  # nothing observable to judge
    # With a whole shard dark, an asset living there is unobservable,
    # not destroyed — only positive evidence (duplicates, value drift)
    # can be judged until every shard is readable again.
    all_shards_readable = all(readable)
    problems: List[str] = []
    for asset_id in sorted(minted):
        records = [
            (index, summaries[index]["assets"][asset_id])
            for index in sorted(summaries)
            if asset_id in summaries[index]["assets"]
        ]
        locks = [
            (index, summaries[index]["locks"][asset_id])
            for index in sorted(summaries)
            if asset_id in summaries[index]["locks"]
        ]
        in_locks = [lock for _, lock in locks if lock.get("direction") == "in"]
        if len(records) > 1:
            shards = [shard for shard, _ in records]
            problems.append(f"asset {asset_id} duplicated on shards {shards}")
        elif not records and all_shards_readable:
            if quiescent or not in_locks:
                problems.append(f"asset {asset_id} destroyed (no record, "
                                f"{len(in_locks)} carrying lock(s))")
        for _shard, record in records:
            if record.get("value") != minted[asset_id]:
                problems.append(
                    f"asset {asset_id} value changed: "
                    f"{record.get('value')} != minted {minted[asset_id]}"
                )
        if quiescent and locks:
            shards = [shard for shard, _ in locks]
            problems.append(
                f"asset {asset_id} has leaked lock(s) on shards {shards}"
            )
    return problems
