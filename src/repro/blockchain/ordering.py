"""The ordering service.

"The ordering service is a high availability cluster of nodes that
leverage protocols such as Kafka to reach consensus over the order of
the transactions submitted to the blockchain.  The orderers use the
transaction's timestamp to order it within a block, before sending the
block out for validation." (§4, footnote 1)

We model the cluster as one logical host with a configurable block-
assembly cost.  Two cutting rules come straight from the paper's
optimisations (§6):

* ``max_block_txs`` — the block size, tuned to the number of frequently
  updated, mutually exclusive assets (5 for Doom);
* ``mutually_exclusive_blocks`` — only transactions with disjoint
  declared key sets share a block, so none can invalidate another via
  the block-level KVS lock.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Set

from ..simnet.clock import Timer
from ..simnet.latency import Region
from ..simnet.topology import Host
from .block import Block, make_block
from .config import FabricConfig
from .messages import DeliverBlock, RequestBlocks, SubmitTx
from .transaction import Transaction

__all__ = ["OrderingService"]


class OrderingService(Host):
    """Orders submitted transactions into blocks and delivers them to peers."""

    def __init__(
        self,
        name: str = "orderer",
        region: str = Region.DALLAS,
        config: Optional[FabricConfig] = None,
        genesis: Optional[Block] = None,
    ):
        super().__init__(name, region)
        self.config = config if config is not None else FabricConfig()
        self._queue: List[Transaction] = []
        self._peers: List[Host] = []
        self._next_number = 1
        self._previous_hash = genesis.digest() if genesis is not None else "0" * 64
        self._timeout: Optional[Timer] = None
        self._cut_blocks: List[Block] = []  # retained for catch-up requests
        self.blocks_cut = 0
        self.txs_ordered = 0
        #: Observer called with each freshly cut block (chaos timelines).
        self.on_block_cut: Optional[Callable[[Block], None]] = None
        #: Optional :class:`repro.telemetry.Telemetry` (None = disabled).
        #: Typed ``Any`` — the telemetry package must stay optional here.
        self.telemetry: Any = None

    def connect_peers(self, peers: List[Host]) -> None:
        """Register the peers that receive every cut block."""
        self._peers = list(peers)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # message handling

    def handle_message(self, src: Host, payload) -> None:
        if isinstance(payload, SubmitTx):
            self.submit(payload.tx)
        elif isinstance(payload, RequestBlocks):
            self._retransmit(src, payload)
        else:
            raise TypeError(f"orderer cannot handle {type(payload).__name__}")

    def _retransmit(self, peer: Host, request: RequestBlocks) -> None:
        """Re-deliver a block range to one peer (gap recovery)."""
        for number in range(request.from_number, request.to_number + 1):
            index = number - 1
            if 0 <= index < len(self._cut_blocks):
                block = self._cut_blocks[index]
                size = block.size_bytes(
                    self.config.tx_bytes, self.config.block_overhead_bytes
                )
                self.send(peer, DeliverBlock(block), size_bytes=size)

    def submit(self, tx: Transaction) -> None:
        """Enqueue a transaction; cut a block when the batch fills."""
        self._queue.append(tx)
        if self.telemetry is not None:
            self.telemetry.tx_enqueued(tx)
        if self._eligible_count() >= self.config.max_block_txs:
            self._cut_block()
        elif self._timeout is None or not self._timeout.active:
            self._timeout = self.network.scheduler.call_after(
                self.config.batch_timeout_ms, self._on_timeout
            )

    def _on_timeout(self) -> None:
        if self._queue:
            self._cut_block()

    def _eligible_count(self) -> int:
        """How many queued transactions could go into the next block."""
        if not self.config.mutually_exclusive_blocks:
            return min(len(self._queue), self.config.max_block_txs)
        return len(self._select_mutually_exclusive())

    def _select_mutually_exclusive(self) -> List[Transaction]:
        """Greedy front-to-back scan: take a transaction when its declared
        keys are disjoint from everything already taken.  Conflicting
        transactions stay queued for the next block, which preserves
        their order relative to the conflicting key."""
        taken: List[Transaction] = []
        taken_keys: Set[str] = set()
        for tx in self._queue:
            keys = set(tx.proposal.touched_keys)
            if not keys:
                # Undeclared transactions are conservatively assumed to
                # conflict with everything: they travel alone.
                if not taken:
                    taken.append(tx)
                break
            if keys & taken_keys:
                continue
            taken.append(tx)
            taken_keys |= keys
            if len(taken) >= self.config.max_block_txs:
                break
        return taken

    def _cut_block(self) -> None:
        if self._timeout is not None:
            self._timeout.cancel()
            self._timeout = None
        if self.config.mutually_exclusive_blocks:
            chosen = self._select_mutually_exclusive()
            chosen_ids = {id(tx) for tx in chosen}
            self._queue = [tx for tx in self._queue if id(tx) not in chosen_ids]
        else:
            chosen = self._queue[: self.config.max_block_txs]
            self._queue = self._queue[self.config.max_block_txs :]
        if not chosen:
            return

        # Order within the block by submission timestamp (footnote 1);
        # prioritised functions jump ahead (extension for §8(2)).
        priority = self.config.priority_functions
        chosen.sort(
            key=lambda tx: (
                tx.proposal.function not in priority,
                tx.proposal.timestamp,
            )
        )
        block = make_block(
            number=self._next_number,
            previous_hash=self._previous_hash,
            transactions=chosen,
            timestamp=self.network.scheduler.now,
        )
        self._next_number += 1
        self._previous_hash = block.digest()
        self._cut_blocks.append(block)
        self.blocks_cut += 1
        self.txs_ordered += len(chosen)
        if self.telemetry is not None:
            self.telemetry.block_cut(block)
        if self.on_block_cut is not None:
            self.on_block_cut(block)

        size = block.size_bytes(self.config.tx_bytes, self.config.block_overhead_bytes)
        self.network.scheduler.call_after(
            self.config.order_ms_per_block, self._deliver, block, size
        )
        # More work may already be waiting.
        if self._queue and self._eligible_count() >= self.config.max_block_txs:
            self.network.scheduler.call_after(
                self.config.order_ms_per_block, self._maybe_cut_more
            )
        elif self._queue:
            self._timeout = self.network.scheduler.call_after(
                self.config.batch_timeout_ms, self._on_timeout
            )

    def _maybe_cut_more(self) -> None:
        if self._queue:
            self._cut_block()

    def _deliver(self, block: Block, size: int) -> None:
        self.send_many(self._peers, DeliverBlock(block), size_bytes=size)
