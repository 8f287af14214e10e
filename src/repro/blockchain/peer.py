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

Each peer serialises its CPU work (signature checks, contract
execution, vote and sync-hash processing) on a single simulated core.
Because every peer must process one vote and one sync hash from every
other peer per block, per-block CPU grows linearly with the peer count
— the mechanistic root of the paper's latency growth in Fig. 3c.

That CPU time is charged for every attestation on arrival, but only an
attestation that can *decide* something gets a scheduler event of its
own; the rest wait in a per-peer inbox and are absorbed by the next
reader of the tallies (DESIGN.md §16 states the invariants).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..simnet.topology import Host
from .block import Block
from .config import FabricConfig
from .contracts import Contract, execute_transaction
from .execution import ValidationExecutor
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

        self._peers: List[Host] = []
        self._set_electorate([name])
        self.orderer: Optional[Host] = None  # for gap-recovery requests

        self._pending_blocks: Dict[int, Block] = {}
        self._executions: Dict[int, List[TxExecution]] = {}
        self._votes: Dict[int, Dict[str, Tuple[bool, ...]]] = {}
        #: Incremental per-block tally: one ``[yes, cast]`` pair per tx
        #: index, maintained by _record_vote so _try_commit's majority
        #: fast path is O(txs) per call instead of O(txs × votes).
        self._vote_tally: Dict[int, List[List[int]]] = {}
        self._sync_hashes: Dict[int, Dict[str, str]] = {}
        #: Incremental per-block count of recorded sync hashes by value,
        #: mirroring _sync_hashes for O(1) quorum checks in _try_sync.
        self._sync_match: Dict[int, Dict[str, int]] = {}
        self._own_hash: Dict[int, str] = {}
        #: Attestation inbox: votes and sync hashes whose CPU time is
        #: charged but which the tallies above have not absorbed yet, as
        #: ``(done, src, msg)`` in arrival order (``done`` never falls:
        #: the CPU is serial).  See handle_message and _drain_inbox.
        self._inbox: Deque[Tuple[float, Host, Attestation]] = deque()
        #: Attestations received per undecided block, the arming
        #: predicates' upper bound on what the tallies can hold.
        self._votes_seen: Dict[int, int] = {}
        self._hashes_seen: Dict[int, int] = {}
        #: Attestations that got a scheduler event of their own.
        self.attestations_armed = 0

        self._executed_height = 0
        self._committed_height = 0
        self._synced_height = 0
        self._executing = False
        self._commit_scheduled: Set[int] = set()
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
        # Own per-block attestations, kept after commit so a lagging
        # peer's vote / sync-hash retries can be answered (the return
        # half of anti-entropy: re-broadcasting alone cannot rebuild a
        # quorum whose other attestations were dropped).
        self._vote_history: Dict[int, Tuple[bool, ...]] = {}
        self._state_hash_history: Dict[int, str] = {}

        #: Set when consensus contradicted this peer's own execution —
        #: either the peer is faulty or it is being equivocated against.
        self.diverged = False
        #: sim-time each block became synchronised (for latency metrics).
        self.block_synced_at: Dict[int, float] = {}
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
        self._vote_arm_at = (total + 1) // 2 - 1 if counts_decide else 0
        self._hash_arm_at = total // 2 if config.sync_verify_ms > 0 else 0

    @property
    def synced_height(self) -> int:
        return self._synced_height

    @property
    def committed_height(self) -> int:
        return self._committed_height

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
        self._votes.clear()
        self._vote_tally.clear()
        self._sync_hashes.clear()
        self._sync_match.clear()
        self._own_hash.clear()
        self._inbox.clear()
        self._votes_seen.clear()
        self._hashes_seen.clear()
        self._commit_scheduled.clear()
        self._executing = False
        self._cpu_free_at = 0.0
        self._sync_free_at = 0.0
        self._catch_up_below = 0
        self._backfill_requested_to = 0
        self._retry_timer = None
        self._retry_attempts = 0
        # Attestations for committed blocks are derived from the durable
        # ledger and survive; anything above it died with the process.
        durable = self.ledger.height - 1
        self._vote_history = {
            n: v for n, v in self._vote_history.items() if n <= durable
        }
        if self.network is not None:
            self.network.condition(self.name).down = True

    def restart(self) -> None:
        """Boot after :meth:`crash`: volatile heights are recomputed from
        the durable ledger and the host rejoins the network.  Blocks the
        rest of the network finalised while we were down are recovered by
        gap detection on the next delivery."""
        committed = self.ledger.height - 1
        self._committed_height = committed
        self._executed_height = committed
        # Sync attestations for committed-but-unsynced blocks died with
        # the process; the durable ledger is authoritative for them, the
        # same trust catch-up extends to blocks finalised network-wide.
        self._synced_height = committed
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
        # Exact-type dispatch ordered by frequency: at N peers the vote
        # and sync-hash gossip is O(N²) per block while deliveries are
        # O(N) — the two hot arms go first.
        kind = type(payload)
        if kind is VoteMsg or kind is SyncHashMsg:
            # Every attestation pays its verification on the serial CPU
            # and joins the inbox; only one that is a retry or could
            # complete a quorum also gets an event at ``done``.  The
            # others change nothing anyone can see before the next
            # reader of the tallies drains them.
            if kind is VoteMsg:
                cost = self.config.vote_verify_ms
                fn = self._on_vote
                armed = self._vote_arms(payload)
            else:
                cost = self.config.sync_verify_ms
                fn = self._on_sync_hash
                armed = self._sync_hash_arms(payload)
            if armed:
                self.attestations_armed += 1
                self._compute(cost, fn, src, payload)
                done = self._cpu_free_at
            else:
                # _compute's CPU arithmetic without its event.
                done = self.network.scheduler.now
                if self._cpu_free_at > done:
                    done = self._cpu_free_at
                done += cost
                self._cpu_free_at = done
            self._inbox.append((done, src, payload))
        elif kind is DeliverBlock:
            self._on_block(payload.block)
        elif kind is QueryTxStatus:
            self._on_query(src, payload)
        else:
            raise TypeError(f"peer cannot handle {type(payload).__name__}")

    # ------------------------------------------------------------------
    # attestation inbox

    def _vote_arms(self, msg: VoteMsg) -> bool:
        """Whether ``msg`` needs a scheduler event of its own: it is a
        retry (the reply is due exactly when the CPU is done with it), or
        recording it could decide its block.  Conservative: it may say
        yes for a vote that decides nothing, never no for one that does.
        """
        number = msg.block_number
        if number <= self._committed_height or number in self._commit_scheduled:
            return msg.is_retry  # decided: nothing is left for a vote to do
        seen = self._votes_seen.get(number, 0) + 1
        self._votes_seen[number] = seen
        return seen >= self._vote_arm_at or msg.is_retry

    def _sync_hash_arms(self, msg: SyncHashMsg) -> bool:
        """:meth:`_vote_arms` for the ledger-synchronisation stage."""
        number = msg.block_number
        if number <= self._synced_height:
            return msg.is_retry
        seen = self._hashes_seen.get(number, 0) + 1
        self._hashes_seen[number] = seen
        return seen >= self._hash_arm_at or msg.is_retry

    def _drain_inbox(self, through: Optional[Attestation] = None) -> None:
        """Absorb every queued attestation the CPU finished before now.

        Each reader of the tallies calls this first, so it sees what the
        one-event-per-attestation schedule would have recorded by now.
        An attestation finished *at* this instant belongs to an event
        that may be ordered after the caller's, so it stays queued —
        except in the armed event of ``through``, which drains up to and
        including its own message.
        """
        inbox = self._inbox
        now = self.network.scheduler.now
        while inbox:
            done = inbox[0][0]
            if done > now or (done == now and through is None):
                return
            _, src, msg = inbox.popleft()
            if msg is through:
                through = None
            # A stale attestation is recorded nowhere; if it is a retry
            # its sender is waiting for our half of the exchange.
            if type(msg) is VoteMsg:
                if msg.block_number > self._committed_height:
                    self._record_vote(msg)
                elif msg.is_retry:
                    self._answer_vote_retry(src, msg)
            elif msg.block_number > self._synced_height:
                self._record_sync_hash(msg)
            elif msg.is_retry:
                self._answer_sync_retry(src, msg)

    # ------------------------------------------------------------------
    # stage 1: execute + vote

    def _on_block(self, block: Block) -> None:
        if block.number <= self._committed_height:
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
        self._try_commit(self._committed_height + 1)
        # Likewise the *sync* of an older committed block: once it lies
        # below _catch_up_below its hash quorum is no longer needed.
        # Trying here means every state change that can finish a sync
        # (own announce, a recorded hash, this one) tries it at once,
        # rather than leaving it to whichever hash happens to arrive next.
        self._try_sync(self._synced_height + 1)
        self._ensure_anti_entropy()

    def _detect_gap(self, delivered: int) -> None:
        """A delivery with *missing predecessors* means we missed
        deliveries while unreachable (e.g. DDoSed): request the range
        from the ordering service and mark it finalised-elsewhere.

        Ordinary pipelining — block n+1 arriving while block n is still
        executing or collecting votes — is NOT a gap: those blocks are
        buffered in ``_pending_blocks`` and commit normally.
        """
        nxt = self._committed_height + 1
        missing = [
            n
            for n in range(nxt, delivered)
            if n not in self._pending_blocks and n > self._executed_height
        ]
        if not missing:
            return
        self._catch_up_below = max(self._catch_up_below, delivered)
        if self.orderer is None:
            return
        if max(missing) <= self._backfill_requested_to:
            return  # already asked
        self._backfill_requested_to = max(missing)
        self.send(
            self.orderer,
            RequestBlocks(from_number=min(missing), to_number=max(missing)),
            size_bytes=self.config.query_msg_bytes,
        )

    def _maybe_execute(self) -> None:
        nxt = self._executed_height + 1
        if self._executing or nxt not in self._pending_blocks:
            return
        if self._committed_height < nxt - 1:
            return  # contract state basis for block n is block n-1's commit
        block = self._pending_blocks[nxt]
        self._executing = True
        cost = len(block.transactions) * (
            self.config.exec_ms_per_tx + self.config.sig_verify_ms
        )
        self._compute(cost, self._finish_execute, block)

    def _finish_execute(self, block: Block) -> None:
        # The in-order loop over one speculative overlay, or another
        # peer's identical results for the same block on the same basis
        # state — see :mod:`repro.blockchain.execution`.
        executions = self.executor.execute_block(self, block)
        self._executions[block.number] = executions
        self._executed_height = block.number
        self._executing = False
        if self.telemetry is not None:
            # Execution ends exactly now; its serialised CPU cost is the
            # same figure _maybe_execute scheduled us with.
            cost = len(block.transactions) * (
                self.config.exec_ms_per_tx + self.config.sig_verify_ms
            )
            self.telemetry.block_executed(self.name, block, cost)

        votes = tuple(e.code == TxValidationCode.VALID for e in executions)
        self._vote_history[block.number] = votes
        msg = VoteMsg(block_number=block.number, voter=self.name, votes=votes)
        self._record_vote(msg)
        self.send_many(self._peers, msg, size_bytes=self.config.vote_msg_bytes)
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
    # stage 1b: vote collection + commit

    def _on_vote(self, src: Host, msg: VoteMsg) -> None:
        """The event of an armed vote, at the instant the CPU is done
        with it."""
        self._drain_inbox(through=msg)
        self._try_commit(msg.block_number)

    def _answer_vote_retry(self, src: Host, msg: VoteMsg) -> None:
        """A retry for a block we have committed: the sender is behind,
        it re-broadcast its vote because the quorum it is waiting for was
        lost in transit.  Answer with our recorded vote for that block so
        the quorum can re-form.  (A first broadcast that arrives after
        our quorum was merely late and solicits nothing.)"""
        own = self._vote_history.get(msg.block_number)
        if own is not None and not msg.is_reply and msg.voter != self.name:
            self.send(
                src,
                VoteMsg(
                    block_number=msg.block_number, voter=self.name,
                    votes=own, is_reply=True,
                ),
                size_bytes=self.config.vote_msg_bytes,
            )

    def _record_vote(self, msg: VoteMsg) -> None:
        if msg.voter not in self._electors:
            return  # not part of this game session
        if msg.block_number <= self._committed_height:
            return  # already committed; late vote
        by_peer = self._votes.get(msg.block_number)
        if by_peer is None:
            by_peer = self._votes[msg.block_number] = {}
        votes = msg.votes
        old = by_peer.get(msg.voter)
        if old == votes:
            return  # duplicate (anti-entropy re-broadcast): tally unchanged
        by_peer[msg.voter] = votes
        # Maintain the running per-tx [yes, cast] tally (overwrite-aware:
        # a voter re-voting differently first backs out its old ballot).
        tally = self._vote_tally.get(msg.block_number)
        if tally is None:
            tally = self._vote_tally[msg.block_number] = []
        while len(tally) < len(votes):
            tally.append([0, 0])
        if old is not None:
            for i, vote in enumerate(old):
                pair = tally[i]
                pair[1] -= 1
                if vote:
                    pair[0] -= 1
        for i, vote in enumerate(votes):
            pair = tally[i]
            pair[1] += 1
            if vote:
                pair[0] += 1

    def _try_commit(self, block_number: int) -> None:
        if self._inbox:
            self._drain_inbox()
        nxt = self._committed_height + 1
        if block_number != nxt or self._executed_height < nxt:
            return
        if nxt in self._commit_scheduled:
            return
        block = self._pending_blocks.get(nxt)
        executions = self._executions.get(nxt)
        if block is None or executions is None:
            return

        if nxt < self._catch_up_below:
            # Catch-up: the network finalised this block without us.
            # Deterministic re-execution yields the consensus outcome.
            decisions: List[Optional[bool]] = [
                e.code == TxValidationCode.VALID for e in executions
            ]
        else:
            total = len(self._electorate)
            votes_by_peer = self._votes.get(nxt, {})
            decisions = []
            if self.policy.is_simple_majority:
                # Count-based fast path over the incremental tally kept by
                # _record_vote: voters are already filtered to the
                # electorate there, so the running [yes, cast] pairs equal
                # the per-tx counts a full re-tally would produce — and
                # this runs once per vote received per pending block.
                tally = self._vote_tally.get(nxt, [])
                n_tally = len(tally)
                for i in range(len(block.transactions)):
                    if i < n_tally:
                        yes, cast = tally[i]
                    else:
                        yes = cast = 0
                    decisions.append(self.policy.decided_counts(yes, cast, total))
            else:
                for i in range(len(block.transactions)):
                    per_tx = {
                        voter: votes[i]
                        for voter, votes in votes_by_peer.items()
                        if i < len(votes)
                    }
                    decisions.append(
                        self.policy.decided(per_tx, total, all_voters=self._electorate)
                    )
            if any(d is None for d in decisions):
                return  # consensus still open for some transaction

        for execution, decision in zip(executions, decisions):
            locally_valid = execution.code == TxValidationCode.VALID
            if decision and not locally_valid:
                self.diverged = True  # consensus accepted what we rejected
            elif not decision and locally_valid:
                execution.code = TxValidationCode.CONSENSUS_NOT_REACHED

        if self.telemetry is not None:
            self.telemetry.block_decided(self.name, block)
        self._commit_scheduled.add(block.number)
        cost = self.config.commit_ms_per_tx * len(block.transactions)
        self._compute(cost, self._finish_commit, block, executions)

    def _finish_commit(self, block: Block, executions: List[TxExecution]) -> None:
        if block.number != self._committed_height + 1:
            return  # stale double-commit attempt
        codes = self.ledger.append(block, executions)
        self._committed_height = block.number
        if self.telemetry is not None:
            self.telemetry.block_committed(self.name, block, codes)
        self._pending_blocks.pop(block.number, None)
        self._executions.pop(block.number, None)
        self._votes.pop(block.number, None)
        self._vote_tally.pop(block.number, None)
        self._votes_seen.pop(block.number, None)
        self._commit_scheduled.discard(block.number)

        # stage 2: ledger synchronisation.  State transfer runs on the
        # gossip plane, separate from the CPU, but transfers one block at
        # a time — which is why the paper's block-size optimisation
        # "amortizes the cost of ledger synchronization across the
        # transactions in a block" (§6): five single-tx blocks queue for
        # five transfers, one five-tx block pays for one.
        state_hash = self.ledger.state_hash()
        self._state_hash_history[block.number] = state_hash
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

    def _announce_sync(self, block_number: int, state_hash: str) -> None:
        self._own_hash[block_number] = state_hash
        msg = SyncHashMsg(
            block_number=block_number, sender=self.name, state_hash=state_hash
        )
        self._record_sync_hash(msg)
        self.send_many(self._peers, msg, size_bytes=self.config.sync_msg_bytes)
        self._try_sync(block_number)
        self._ensure_anti_entropy()

    # ------------------------------------------------------------------
    # stage 2: ledger synchronisation

    def _on_sync_hash(self, src: Host, msg: SyncHashMsg) -> None:
        """The event of an armed sync hash."""
        self._drain_inbox(through=msg)
        if msg.block_number > self._synced_height:
            self._try_sync(msg.block_number)

    def _answer_sync_retry(self, src: Host, msg: SyncHashMsg) -> None:
        """Same return half as for votes: a sender that had to retry
        needs our attestation for a height we already left behind."""
        own = self._state_hash_history.get(msg.block_number)
        if own is not None and not msg.is_reply and msg.sender != self.name:
            self.send(
                src,
                SyncHashMsg(
                    block_number=msg.block_number, sender=self.name,
                    state_hash=own, is_reply=True,
                ),
                size_bytes=self.config.sync_msg_bytes,
            )

    def _record_sync_hash(self, msg: SyncHashMsg) -> None:
        if msg.sender not in self._electors:
            return
        if msg.block_number <= self._synced_height:
            return  # already synchronised; late hash
        by_sender = self._sync_hashes.get(msg.block_number)
        if by_sender is None:
            by_sender = self._sync_hashes[msg.block_number] = {}
        old = by_sender.get(msg.sender)
        if old == msg.state_hash:
            return  # duplicate (anti-entropy re-broadcast): counts unchanged
        by_sender[msg.sender] = msg.state_hash
        # Running count of attestations by hash value (overwrite-aware),
        # so _try_sync's quorum check is one dict get, not a scan.
        counts = self._sync_match.get(msg.block_number)
        if counts is None:
            counts = self._sync_match[msg.block_number] = {}
        if old is not None:
            counts[old] -= 1
        counts[msg.state_hash] = counts.get(msg.state_hash, 0) + 1

    def _try_sync(self, block_number: int) -> None:
        if self._inbox:
            self._drain_inbox()
        nxt = self._synced_height + 1
        while True:
            if nxt > self._committed_height or nxt not in self._own_hash:
                return
            own = self._own_hash[nxt]
            counts = self._sync_match.get(nxt)
            matching = counts.get(own, 0) if counts is not None else 0
            if matching * 2 <= len(self._electorate) and nxt >= self._catch_up_below:
                return  # (catch-up blocks were synchronised network-wide
                #          already; no fresh quorum will form for them)
            self._synced_height = nxt
            self.block_synced_at[nxt] = self.network.scheduler.now
            if self.telemetry is not None:
                self.telemetry.block_synced(self.name, nxt)
            self._sync_hashes.pop(nxt, None)
            self._sync_match.pop(nxt, None)
            self._hashes_seen.pop(nxt, None)
            self._own_hash.pop(nxt, None)
            synced_block = self.ledger.block(nxt)
            if self.on_block_synced is not None:
                self.on_block_synced(nxt, synced_block)
            nxt = self._synced_height + 1

    # ------------------------------------------------------------------
    # anti-entropy retransmission

    def _outstanding_work(self) -> bool:
        """True while consensus work is unfinished at this peer: a block
        awaiting votes, a sync hash awaiting quorum, or a delivery gap."""
        return bool(
            self._pending_blocks
            or self._own_hash
            or self._committed_height + 1 < self._catch_up_below
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
        marker = (self._committed_height, self._synced_height, self._executed_height)
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
        self._try_commit(self._committed_height + 1)

        nxt = self._committed_height + 1
        own_votes = self._votes.get(nxt, {}).get(self.name)
        if own_votes is not None:
            msg = VoteMsg(
                block_number=nxt, voter=self.name, votes=own_votes, is_retry=True
            )
            self.send_many(self._peers, msg, size_bytes=self.config.vote_msg_bytes)
        to_sync = self._synced_height + 1
        if to_sync <= self._committed_height and to_sync in self._own_hash:
            msg = SyncHashMsg(
                block_number=to_sync, sender=self.name,
                state_hash=self._own_hash[to_sync], is_retry=True,
            )
            self.send_many(self._peers, msg, size_bytes=self.config.sync_msg_bytes)
        missing = [
            n
            for n in range(nxt, self._catch_up_below)
            if n not in self._pending_blocks and n > self._executed_height
        ]
        if missing and self.orderer is not None:
            self.send(
                self.orderer,
                RequestBlocks(from_number=min(missing), to_number=max(missing)),
                size_bytes=self.config.query_msg_bytes,
            )
        self._ensure_anti_entropy()

    # ------------------------------------------------------------------
    # client queries

    def _on_query(self, src: Host, query: QueryTxStatus) -> None:
        code, block = self.ledger.tx_status(query.tx_id)
        if block is not None and block > self._synced_height:
            code, block = TxValidationCode.PENDING, None
        reply = TxStatusReply(tx_id=query.tx_id, code=code, block=block)
        self.send(src, reply, size_bytes=self.config.query_msg_bytes)
