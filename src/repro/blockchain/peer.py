"""Blockchain peers: execute, vote, commit, synchronise.

The paper's workflow (§4): the platform "(a) leverages an ordering
service to determine the order of transactions …, (b) generates a block
containing the ordered transactions, and (c) sends it to all peers for
validation.  The peers then execute these transactions in order locally
…, and vote for consensus on each event following which they update
their copy of the ledger."

Event validation therefore has two stages (§6, Optimizations):

1. **peer consensus** — execute the block, exchange per-transaction
   votes, commit once the consensus policy is decided for every
   transaction in the block;
2. **ledger synchronisation** — exchange post-commit state hashes; a
   transaction's status only becomes observable to clients once a
   majority of peers report the same state hash.

Both stages are one mechanism, :class:`_Stage`, used twice: every peer
collects one attestation per elector per block, counts them and
decides at a quorum.

Each peer serialises its CPU work (signature checks, contract
execution, vote and sync-hash processing) on a single simulated core.
Because every peer must process one vote and one sync hash from every
other peer per block, per-block CPU grows linearly with the peer count
— the mechanistic root of the paper's latency growth in Fig. 3c.

That CPU time is charged for every attestation on arrival, but only an
attestation that can *decide* something gets a scheduler event of its
own; the rest wait in a per-peer inbox and are absorbed by the next
reader of the counts (DESIGN.md §16 states the invariants).
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..simnet.topology import Host
from .block import Block
from .config import FabricConfig
from .contracts import Contract, execute_transaction
from .execution import ValidationExecutor, shared_value
from .identity import Identity, MembershipProvider
from .ledger import Ledger, TxExecution
from .messages import (
    DeliverBlock,
    QueryTxStatus,
    RequestBlocks,
    SyncHashMsg,
    TxStatusReply,
    VoteMsg,
)
from .policy import ConsensusPolicy
from .state import WorldStateOverlay
from .transaction import RWSet, Transaction, TxValidationCode

__all__ = ["Peer"]

Attestation = Union[VoteMsg, SyncHashMsg]


class _Stage:
    """One attestation stage: stage 1's per-transaction ballots or stage
    2's post-commit state hashes.

    ``height`` is the last block the stage has finished (committed, or
    synchronised); an attestation at or below it is stale.  ``decided``
    holds the blocks above it whose outcome is already fixed (a commit
    in flight).  For each undecided block the stage keeps each elector's
    latest attestation, a count for each distinct value, and the
    arrivals the arming rule counts; for each block this peer executed
    (votes) or committed (hashes), its own attestation, kept to answer
    retries.
    """

    __slots__ = (
        "msg_type", "fields", "cost_ms", "size_bytes", "decide", "arm_at",
        "height", "decided", "by_sender", "counts", "seen", "own",
    )

    def __init__(
        self,
        msg_type: Callable[..., Attestation],
        sender: str,
        value: str,
        cost_ms: float,
        size_bytes: int,
        decide: Callable[[int, Optional[Attestation]], None],
    ):
        #: Builds an attestation from the positional shape both message
        #: types share, ``(block_number, sender, value, is_reply,
        #: is_retry)``; :attr:`fields` reads it back.
        self.msg_type = msg_type
        self.fields = attrgetter("block_number", sender, value, "is_reply", "is_retry")
        self.cost_ms = cost_ms
        self.size_bytes = size_bytes
        #: The peer's reader of the counts, ``_try_commit`` / ``_try_sync``;
        #: an armed attestation's event calls it with the block and itself.
        self.decide = decide
        #: Arrivals from other peers at which one attestation could decide
        #: its block (see ``Peer._set_electorate``).
        self.arm_at = 0
        self.height = 0
        self.decided: Set[int] = set()
        self.by_sender: Dict[int, Dict[str, Any]] = {}
        self.counts: Dict[int, Dict[Any, int]] = {}
        self.seen: Dict[int, int] = {}
        self.own: Dict[int, Any] = {}

    def finish(self, number: int) -> None:
        """Block ``number`` is done: move past it, drop what it collected."""
        self.height = number
        self.decided.discard(number)
        self.by_sender.pop(number, None)
        self.counts.pop(number, None)
        self.seen.pop(number, None)

    def reset(self, durable: int) -> None:
        """A crash: every open block's attestations die with the process.
        Own attestations for blocks in the durable ledger are derived
        from it and survive."""
        self.decided.clear()
        self.by_sender.clear()
        self.counts.clear()
        self.seen.clear()
        self.own = {n: v for n, v in self.own.items() if n <= durable}


class Peer(Host):
    """One blockchain peer (a player's network entity, §4.2)."""

    def __init__(
        self,
        name: str,
        region: str,
        identity: Identity,
        msp: MembershipProvider,
        genesis: Block,
        policy: ConsensusPolicy,
        config: Optional[FabricConfig] = None,
    ):
        super().__init__(name, region)
        self.identity = identity
        self.msp = msp
        self.policy = policy
        self.config = config if config is not None else FabricConfig()
        self.ledger = Ledger(genesis)
        self.contracts: Dict[str, Contract] = {}
        #: Block validation; see :mod:`repro.blockchain.execution`.
        self.executor = ValidationExecutor()

        config = self.config
        #: Stage 1; its height is the committed height.
        self._vote_stage = _Stage(
            VoteMsg, "voter", "votes",
            config.vote_verify_ms, config.vote_msg_bytes, self._try_commit,
        )
        #: Stage 2; its height is the synchronised height.
        self._sync_stage = _Stage(
            SyncHashMsg, "sender", "state_hash",
            config.sync_verify_ms, config.sync_msg_bytes, self._try_sync,
        )
        self._stages = (self._vote_stage, self._sync_stage)
        self._stage_of = {VoteMsg: self._vote_stage, SyncHashMsg: self._sync_stage}

        self._peers: List[Host] = []
        self._set_electorate([name])
        self.orderer: Optional[Host] = None  # for gap-recovery requests

        self._pending_blocks: Dict[int, Block] = {}
        self._executions: Dict[int, List[TxExecution]] = {}
        #: Own state hash per committed block announced and not yet
        #: synchronised.
        self._own_hash: Dict[int, str] = {}
        #: Attestation inbox: votes and sync hashes whose CPU time is
        #: charged but which the counts have not absorbed yet, as
        #: ``(done, src, stage, msg)`` in arrival order (``done`` never
        #: falls: the CPU is serial).  See handle_message and _drain_inbox.
        self._inbox: Deque[Tuple[float, Host, _Stage, Attestation]] = deque()
        #: Attestations that got a scheduler event of their own.
        self.attestations_armed = 0

        self._executed_height = 0
        self._executing = False
        self._cpu_free_at = 0.0
        self._sync_free_at = 0.0
        # Process generation: bumped on crash so that callbacks scheduled
        # by the previous incarnation are dropped instead of resurrecting
        # state that died with the process.
        self._generation = 0
        # Anti-entropy retransmission state (see FabricConfig.anti_entropy_ms).
        self._retry_timer = None
        self._retry_attempts = 0
        self._retry_marker: Tuple[int, int, int] = (0, 0, 0)
        # Catch-up state: blocks below this height were finalised by the
        # rest of the network while we were unreachable; they commit from
        # local (deterministic) execution without a fresh vote round.
        self._catch_up_below = 0
        self._backfill_requested_to = 0

        #: Set when consensus contradicted this peer's own execution —
        #: either the peer is faulty or it is being equivocated against.
        self.diverged = False
        self.on_block_synced: Optional[Callable[[int, Block], None]] = None
        #: Optional :class:`repro.telemetry.Telemetry`; every hook site
        #: guards on ``is not None``, keeping disabled runs cost-free.
        self.telemetry = None

    # ------------------------------------------------------------------
    # setup

    def install_contract(self, contract: Contract) -> None:
        """Install a smart contract (done by the initiator shim, §4.2.2)."""
        self.contracts[contract.name] = contract

    def connect_peers(self, peers: List["Peer"]) -> None:
        """Declare the full electorate.  ``peers`` includes this peer."""
        self._set_electorate([p.name for p in peers])
        self._peers = [p for p in peers if p.name != self.name]

    def _set_electorate(self, names: List[str]) -> None:
        self._electorate: List[str] = names
        self._electors: FrozenSet[str] = frozenset(names)
        # The fewest attestations from *other* peers for one block, the
        # arriving one included, at which that one could decide it; the
        # own attestation counts as present (it will be by the time the
        # CPU is done with this one).  A rejection is decided at
        # cast*2 >= total, one vote before an acceptance, a sync quorum
        # at matching*2 > total.  Where counting does not bound the
        # decision — a policy other than plain majority — or where a
        # free verification would leave no CPU order to rely on, the
        # threshold is 0: every attestation arms.
        total = len(names)
        config = self.config
        counts_decide = self.policy.is_simple_majority and config.vote_verify_ms > 0
        self._vote_stage.arm_at = (total + 1) // 2 - 1 if counts_decide else 0
        self._sync_stage.arm_at = total // 2 if config.sync_verify_ms > 0 else 0

    @property
    def synced_height(self) -> int:
        return self._sync_stage.height

    @property
    def committed_height(self) -> int:
        return self._vote_stage.height

    # ------------------------------------------------------------------
    # crash / restart (chaos churn)

    def crash(self) -> None:
        """Simulated process crash: the host drops off the network and all
        volatile state — pending blocks, votes, sync hashes, in-flight CPU
        work — is lost.  The ledger survives (it is the on-disk part of a
        real peer).  Call :meth:`restart` to boot again."""
        self._generation += 1  # orphan every scheduled callback
        self._pending_blocks.clear()
        self._executions.clear()
        self._own_hash.clear()
        self._inbox.clear()
        durable = self.ledger.height - 1
        for stage in self._stages:
            stage.reset(durable)
        self._executing = False
        self._cpu_free_at = 0.0
        self._sync_free_at = 0.0
        self._catch_up_below = 0
        self._backfill_requested_to = 0
        self._retry_timer = None
        self._retry_attempts = 0
        if self.network is not None:
            self.network.condition(self.name).down = True

    def restart(self) -> None:
        """Boot after :meth:`crash`: volatile heights are recomputed from
        the durable ledger and the host rejoins the network.  Blocks the
        rest of the network finalised while we were down are recovered by
        gap detection on the next delivery."""
        committed = self.ledger.height - 1
        self._vote_stage.height = committed
        self._executed_height = committed
        # Sync attestations for committed-but-unsynced blocks died with
        # the process; the durable ledger is authoritative for them, the
        # same trust catch-up extends to blocks finalised network-wide.
        self._sync_stage.height = committed
        if self.network is not None:
            self.network.condition(self.name).down = False

    # ------------------------------------------------------------------
    # CPU model

    def _compute(self, cost_ms: float, fn: Callable, *args) -> None:
        """Run ``fn`` after ``cost_ms`` of serialised CPU time."""
        sched = self.network.scheduler
        start = sched.now
        if self._cpu_free_at > start:
            start = self._cpu_free_at
        done = start + cost_ms
        self._cpu_free_at = done
        sched.call_at_anon(done, self._run_if_alive, self._generation, fn, *args)

    def _run_if_alive(self, generation: int, fn: Callable, *args) -> None:
        """Drop callbacks scheduled before a crash: that work died with
        the process."""
        if generation == self._generation:
            fn(*args)

    # ------------------------------------------------------------------
    # message handling

    def handle_message(self, src: Host, payload) -> None:
        # The O(N²)-per-block attestation gossip goes first; deliveries
        # are O(N).
        kind = type(payload)
        stage = self._stage_of.get(kind)
        if stage is not None:
            # Every attestation pays its verification on the serial CPU
            # (_compute's arithmetic) and joins the inbox; only one that
            # is a retry or could complete a quorum also gets an event at
            # ``done``.  The others change nothing anyone can see before
            # the next reader of the counts drains them.
            sched = self.network.scheduler
            done = sched.now
            if self._cpu_free_at > done:
                done = self._cpu_free_at
            done += stage.cost_ms
            self._cpu_free_at = done
            if self._arms(stage, payload):
                self.attestations_armed += 1
                sched.call_at_anon(
                    done, self._run_if_alive, self._generation,
                    stage.decide, payload.block_number, payload,
                )
            self._inbox.append((done, src, stage, payload))
        elif kind is DeliverBlock:
            self._on_block(payload.block)
        elif kind is QueryTxStatus:
            self._on_query(src, payload)
        else:
            raise TypeError(f"peer cannot handle {type(payload).__name__}")

    # ------------------------------------------------------------------
    # attestations: arming, the inbox, recording

    def _arms(self, stage: _Stage, msg: Attestation) -> bool:
        """Whether ``msg`` needs a scheduler event of its own: it is a
        retry (the reply is due exactly when the CPU is done with it), or
        recording it could decide its block.  Conservative: it may say
        yes for an attestation that decides nothing, never no for one
        that does.
        """
        number = msg.block_number
        if number <= stage.height or number in stage.decided:
            return msg.is_retry  # decided: nothing is left for it to do
        seen = stage.seen.get(number, 0) + 1
        stage.seen[number] = seen
        return seen >= stage.arm_at or msg.is_retry

    def _drain_inbox(self, through: Optional[Attestation] = None) -> None:
        """Absorb every queued attestation the CPU finished before now.

        Each reader of the counts calls this first, so it sees what the
        one-event-per-attestation schedule would have recorded by now.
        An attestation finished *at* this instant belongs to an event
        that may be ordered after the caller's, so it stays queued —
        except in the armed event of ``through``, which drains up to and
        including its own message.
        """
        inbox = self._inbox
        now = self.network.scheduler.now
        record = self._record
        while inbox:
            done = inbox[0][0]
            if done > now or (done == now and through is None):
                return
            _, src, stage, msg = inbox.popleft()
            if msg is through:
                through = None
            # A stale attestation that is not a retry asks nothing of us.
            if msg.block_number > stage.height or msg.is_retry:
                record(stage, src, msg)

    def _record(self, stage: _Stage, src: Host, msg: Attestation) -> None:
        """Count ``msg`` towards its block's quorum in ``stage``.

        An attestation counts only for the host it came from (on real
        sockets, the one the frame's envelope names): one claiming
        another voter or sender is dropped, or one elector could cast
        ballots under its peers' names.

        A stale attestation is counted nowhere.  If it is a retry, its
        sender is behind: it re-broadcast because the quorum it waits
        for was lost in transit, so answer with our own attestation for
        that block and the quorum can re-form.  A first broadcast that
        arrives after our quorum was merely late and solicits nothing,
        and a reply is never answered, or two peers ping-pong forever.
        """
        number, sender, value, is_reply, is_retry = stage.fields(msg)
        if sender != src.name:
            return
        if number <= stage.height:
            if is_retry and not is_reply and sender != self.name:
                own = stage.own.get(number)
                if own is not None:
                    reply = stage.msg_type(number, self.name, own, True)
                    self.send(src, reply, size_bytes=stage.size_bytes)
            return
        if sender not in self._electors:
            return  # not part of this game session
        by_sender = stage.by_sender.get(number)
        if by_sender is None:
            by_sender = stage.by_sender[number] = {}
            counts = stage.counts[number] = {}
        else:
            counts = stage.counts[number]
        old = by_sender.get(sender)
        if old == value:
            return  # duplicate (anti-entropy re-broadcast): counts unchanged
        # Overwrite-aware: a sender attesting differently first backs out
        # its old value.
        by_sender[sender] = value
        if old is not None:
            counts[old] -= 1
        counts[value] = counts.get(value, 0) + 1

    def _attest(self, stage: _Stage, number: int, value: Any) -> None:
        """Record and broadcast this peer's own attestation."""
        msg = stage.msg_type(number, self.name, value)
        self._record(stage, self, msg)
        self.send_many(self._peers, msg, size_bytes=stage.size_bytes)

    # ------------------------------------------------------------------
    # stage 1: execute + vote

    def _on_block(self, block: Block) -> None:
        if block.number <= self._vote_stage.height:
            return  # duplicate delivery
        if self.telemetry is not None and block.number not in self._pending_blocks:
            self.telemetry.block_delivered(self.name, block)
        self._pending_blocks.setdefault(block.number, block)
        self._retry_attempts = 0  # fresh information restarts the retry budget
        self._detect_gap(block.number)
        self._maybe_execute()
        # A delivery can unblock the commit of an *older* executed block:
        # _detect_gap may have just raised _catch_up_below past it, turning
        # a vote quorum that will never arrive into a catch-up commit.
        self._try_commit(self._vote_stage.height + 1)
        # Likewise the *sync* of an older committed block: once it lies
        # below _catch_up_below its hash quorum is no longer needed.
        # Trying here means every state change that can finish a sync
        # (own announce, a recorded hash, this one) tries it at once,
        # rather than leaving it to whichever hash happens to arrive next.
        self._try_sync(self._sync_stage.height + 1)
        self._ensure_anti_entropy()

    def _detect_gap(self, delivered: int) -> None:
        """A delivery with *missing predecessors* means we missed
        deliveries while unreachable (e.g. DDoSed): request the range
        from the ordering service and mark it finalised-elsewhere.

        Ordinary pipelining — block n+1 arriving while block n is still
        executing or collecting votes — is NOT a gap: those blocks are
        buffered in ``_pending_blocks`` and commit normally.
        """
        if self._request_missing(delivered, again=False):
            self._catch_up_below = max(self._catch_up_below, delivered)

    def _request_missing(self, below: int, again: bool) -> bool:
        """Ask the ordering service for every block under ``below`` that
        this peer neither holds nor has executed; say whether any is.
        A range already asked for is asked ``again`` only by an
        anti-entropy round."""
        missing = [
            n
            for n in range(self._vote_stage.height + 1, below)
            if n not in self._pending_blocks and n > self._executed_height
        ]
        if missing and self.orderer is not None and (
            again or missing[-1] > self._backfill_requested_to
        ):
            self._backfill_requested_to = max(self._backfill_requested_to, missing[-1])
            self.send(
                self.orderer,
                RequestBlocks(from_number=missing[0], to_number=missing[-1]),
                size_bytes=self.config.query_msg_bytes,
            )
        return bool(missing)

    def _maybe_execute(self) -> None:
        nxt = self._executed_height + 1
        if self._executing or nxt not in self._pending_blocks:
            return
        if self._vote_stage.height < nxt - 1:
            return  # contract state basis for block n is block n-1's commit
        block = self._pending_blocks[nxt]
        self._executing = True
        cost = len(block.transactions) * (
            self.config.exec_ms_per_tx + self.config.sig_verify_ms
        )
        self._compute(cost, self._finish_execute, block, cost)

    def _finish_execute(self, block: Block, cost: float) -> None:
        # The in-order loop over one speculative overlay, or another
        # peer's identical results for the same block on the same basis
        # state — see :mod:`repro.blockchain.execution`.
        executions = self.executor.execute_block(self, block)
        self._executions[block.number] = executions
        self._executed_height = block.number
        self._executing = False
        if self.telemetry is not None:
            # Execution ends exactly now, after ``cost`` of serial CPU.
            self.telemetry.block_executed(self.name, block, cost)

        votes = shared_value(tuple(e.code == TxValidationCode.VALID for e in executions))
        self._vote_stage.own[block.number] = votes
        self._attest(self._vote_stage, block.number, votes)
        self._try_commit(block.number)
        self._ensure_anti_entropy()

    def _execute_one(
        self,
        tx: Transaction,
        overlay: "WorldStateOverlay",
        written: Set[str],
    ) -> TxExecution:
        # The creator's certificate, then the signature over the proposal
        # (§4.2: SPOOF).  The one place a transaction's credentials are
        # checked; verdicts are remembered only by content, in
        # ``PublicKey.verify``'s process-wide cache.
        if not self.msp.validate(tx.certificate):
            return TxExecution(rwset=RWSet(), code=TxValidationCode.BAD_CERTIFICATE)
        if not tx.verify_signature():
            return TxExecution(rwset=RWSet(), code=TxValidationCode.BAD_SIGNATURE)
        contract = self.contracts.get(tx.proposal.contract)
        if contract is None:
            return TxExecution(rwset=RWSet(), code=TxValidationCode.UNKNOWN_CONTRACT)
        execution = execute_transaction(contract, tx, self.ledger.state, overlay=overlay)
        if execution.code != TxValidationCode.VALID:
            return execution
        # Block-level KVS lock: conflict with an earlier tx in this block
        # invalidates this one (the ledger re-checks at commit; voting the
        # same verdict keeps honest peers unanimous).
        touched = set(execution.rwset.touched())
        if touched & written:
            return TxExecution(rwset=execution.rwset, code=TxValidationCode.MVCC_READ_CONFLICT)
        return execution

    #: The pristine execution hook, recorded at class-creation time so the
    #: executor layer can detect instance- or subclass-patched peers
    #: (chaos buggy fixtures) without a peer → execution import cycle;
    #: see ``execution._is_patched``.
    _baseline_execute_one = _execute_one

    # ------------------------------------------------------------------
    # stage 1b: vote decision + commit

    def _try_commit(self, block_number: int, through: Optional[Attestation] = None) -> None:
        if self._inbox:
            self._drain_inbox(through)
        stage = self._vote_stage
        nxt = stage.height + 1
        if block_number != nxt or self._executed_height < nxt:
            return
        if nxt in stage.decided:
            return
        block = self._pending_blocks.get(nxt)
        executions = self._executions.get(nxt)
        if block is None or executions is None:
            return

        n_txs = len(block.transactions)
        if nxt < self._catch_up_below:
            # Catch-up: the network finalised this block without us.
            # Deterministic re-execution yields the consensus outcome.
            decisions: List[Optional[bool]] = [
                e.code == TxValidationCode.VALID for e in executions
            ]
        elif self.policy.is_simple_majority:
            # Per-tx [yes, cast] from the counts of distinct ballots —
            # honest peers cast one ballot per block, so this is O(txs).
            # Voters were filtered to the electorate on record.
            yes = [0] * n_txs
            cast = [0] * n_txs
            for ballot, count in stage.counts.get(nxt, {}).items():
                for i, vote in enumerate(ballot[:n_txs]):
                    cast[i] += count
                    if vote:
                        yes[i] += count
            total = len(self._electorate)
            decide = self.policy.decided_counts
            decisions = [decide(y, c, total) for y, c in zip(yes, cast)]
        else:
            ballots = stage.by_sender.get(nxt, {})
            decisions = [
                self.policy.decided(
                    {voter: votes[i] for voter, votes in ballots.items() if i < len(votes)},
                    len(self._electorate),
                    all_voters=self._electorate,
                )
                for i in range(n_txs)
            ]
        if None in decisions:
            return  # consensus still open for some transaction

        for execution, decision in zip(executions, decisions):
            locally_valid = execution.code == TxValidationCode.VALID
            if decision and not locally_valid:
                self.diverged = True  # consensus accepted what we rejected
            elif not decision and locally_valid:
                execution.code = TxValidationCode.CONSENSUS_NOT_REACHED

        if self.telemetry is not None:
            self.telemetry.block_decided(self.name, block)
        stage.decided.add(nxt)
        cost = self.config.commit_ms_per_tx * n_txs
        self._compute(cost, self._finish_commit, block, executions)

    def _finish_commit(self, block: Block, executions: List[TxExecution]) -> None:
        if block.number != self._vote_stage.height + 1:
            return  # stale double-commit attempt
        codes = self.ledger.append(block, executions)
        self._vote_stage.finish(block.number)
        if self.telemetry is not None:
            self.telemetry.block_committed(self.name, block, codes)
        self._pending_blocks.pop(block.number, None)
        self._executions.pop(block.number, None)

        # stage 2: ledger synchronisation.  State transfer runs on the
        # gossip plane, separate from the CPU, but transfers one block at
        # a time — which is why the paper's block-size optimisation
        # "amortizes the cost of ledger synchronization across the
        # transactions in a block" (§6): five single-tx blocks queue for
        # five transfers, one five-tx block pays for one.
        state_hash = shared_value(self.ledger.state_hash())
        self._sync_stage.own[block.number] = state_hash
        transfer = (
            self.config.sync_base_ms
            + self.config.sync_per_peer_ms * len(self._electorate)
        )
        sched = self.network.scheduler
        start = max(sched.now, self._sync_free_at)
        done = start + transfer
        self._sync_free_at = done
        sched.call_at_anon(
            done, self._run_if_alive, self._generation,
            self._announce_sync, block.number, state_hash,
        )

        # Execution of the next block can now proceed.
        self._maybe_execute()

    # ------------------------------------------------------------------
    # stage 2: ledger synchronisation

    def _announce_sync(self, block_number: int, state_hash: str) -> None:
        self._own_hash[block_number] = state_hash
        self._attest(self._sync_stage, block_number, state_hash)
        self._try_sync(block_number)
        self._ensure_anti_entropy()

    def _try_sync(self, block_number: int, through: Optional[Attestation] = None) -> None:
        if self._inbox:
            self._drain_inbox(through)
        stage = self._sync_stage
        nxt = stage.height + 1
        while True:
            if nxt > self._vote_stage.height or nxt not in self._own_hash:
                return
            own = self._own_hash[nxt]
            counts = stage.counts.get(nxt)
            matching = counts.get(own, 0) if counts is not None else 0
            if matching * 2 <= len(self._electorate) and nxt >= self._catch_up_below:
                return  # (catch-up blocks were synchronised network-wide
                #          already; no fresh quorum will form for them)
            stage.finish(nxt)
            del self._own_hash[nxt]
            if self.telemetry is not None:
                self.telemetry.block_synced(self.name, nxt)
            synced_block = self.ledger.block(nxt)
            if self.on_block_synced is not None:
                self.on_block_synced(nxt, synced_block)
            nxt = stage.height + 1

    # ------------------------------------------------------------------
    # anti-entropy retransmission

    def _outstanding_work(self) -> bool:
        """True while consensus work is unfinished at this peer: a block
        awaiting votes, a sync hash awaiting quorum, or a delivery gap."""
        return bool(
            self._pending_blocks
            or self._own_hash
            or self._vote_stage.height + 1 < self._catch_up_below
        )

    def _ensure_anti_entropy(self) -> None:
        if self.config.anti_entropy_ms <= 0 or not self._outstanding_work():
            return
        if self._retry_timer is not None and self._retry_timer.active:
            return
        self._retry_timer = self.network.scheduler.call_after(
            self.config.anti_entropy_ms,
            self._run_if_alive, self._generation, self._anti_entropy,
        )

    def _anti_entropy(self) -> None:
        """Re-broadcast whatever this peer is still waiting on.

        Votes and sync hashes are sent exactly once on the happy path; a
        dropped copy would otherwise stall consensus forever.  Retries
        stop after ``anti_entropy_max_retries`` rounds without progress
        (committed/synced/executed heights all unchanged) so that a dead
        quorum still lets the simulation quiesce; any fresh delivery
        resets the budget.
        """
        self._retry_timer = None
        if not self._outstanding_work():
            self._retry_attempts = 0
            return
        marker = (
            self._vote_stage.height, self._sync_stage.height, self._executed_height
        )
        if marker != self._retry_marker:
            self._retry_marker = marker
            self._retry_attempts = 0
        if self._retry_attempts >= self.config.anti_entropy_max_retries:
            return
        self._retry_attempts += 1

        # Local re-attempts first: execution or commit may merely be
        # stalled (e.g. the commit path switched to catch-up after the
        # last _try_commit ran), needing no network round-trip at all.
        self._maybe_execute()
        self._try_commit(self._vote_stage.height + 1)

        # The own attestation each stage still waits on a quorum for.
        for stage in self._stages:
            number = stage.height + 1
            own = stage.by_sender.get(number, {}).get(self.name)
            if own is not None:
                retry = stage.msg_type(number, self.name, own, False, True)
                self.send_many(self._peers, retry, size_bytes=stage.size_bytes)
        self._request_missing(self._catch_up_below, again=True)
        self._ensure_anti_entropy()

    # ------------------------------------------------------------------
    # client queries

    def _on_query(self, src: Host, query: QueryTxStatus) -> None:
        code, block = self.ledger.tx_status(query.tx_id)
        if block is not None and block > self._sync_stage.height:
            code, block = TxValidationCode.PENDING, None
        reply = TxStatusReply(tx_id=query.tx_id, code=code, block=block)
        self.send(src, reply, size_bytes=self.config.query_msg_bytes)
