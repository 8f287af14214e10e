"""Platform configuration: block cutting, compute costs, message sizes.

The compute-cost constants are calibrated against the paper's Fabric
v1.0 measurements so that the aggregate event-validation latency curve
reproduces Fig. 3c's shape (see DESIGN.md §6 and EXPERIMENTS.md).  They
are per-operation CPU costs in *simulated* milliseconds; each peer
serialises its CPU work, which is what makes vote and sync processing
grow linearly with peer count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["FabricConfig"]


@dataclass
class FabricConfig:
    """Tunable parameters of the blockchain platform.

    Block cutting:
        max_block_txs: transactions per block ("block size", §6 opt. ii).
            The paper varies this from 1 to 5 — 5 matching the number of
            frequently updated assets.
        batch_timeout_ms: cut a partial block after this long.
        mutually_exclusive_blocks: restrict a block to transactions whose
            declared key sets are disjoint (§6 opt. ii), so no
            block-level KVS conflict can invalidate them.

    Compute costs (simulated ms of peer CPU):
        exec_ms_per_tx: contract execution + endorsement checks per tx.
        sig_verify_ms: verifying a transaction creator's signature.
        vote_verify_ms: processing one incoming vote message.
        sync_verify_ms: processing one incoming state-hash message.
        commit_ms_per_tx: applying a validated write set.
        order_ms_per_block: ordering-service block assembly cost.

    Wire sizes (bytes, drive transport serialisation):
        tx_bytes: a transaction with certificate and signature.
        block_overhead_bytes: block header/metadata.
        vote_msg_bytes / sync_msg_bytes / query_msg_bytes: control traffic.
    """

    max_block_txs: int = 1
    batch_timeout_ms: float = 5.0
    mutually_exclusive_blocks: bool = False

    exec_ms_per_tx: float = 0.9
    sig_verify_ms: float = 0.4
    vote_verify_ms: float = 0.5
    sync_verify_ms: float = 0.2
    commit_ms_per_tx: float = 0.3
    order_ms_per_block: float = 0.8
    #: Ledger state-transfer time before a peer can attest its post-commit
    #: state hash: sync_base_ms + sync_per_peer_ms * n_peers.  The state
    #: transfer plane is separate from the CPU but handles one block at a
    #: time, so single-transaction blocks queue for it while a full block
    #: pays once — the amortisation of §6 opt. ii.  Calibrated to Fabric
    #: v1.0's measured ledger-synchronisation times (Fig. 3c).
    sync_base_ms: float = 2.0
    sync_per_peer_ms: float = 1.3

    tx_bytes: int = 2500
    block_overhead_bytes: int = 2500
    vote_msg_bytes: int = 512
    sync_msg_bytes: int = 256
    query_msg_bytes: int = 128

    #: Anti-entropy retransmission: a peer with unfinished consensus work
    #: (an executed-but-undecided block, an unacknowledged sync hash, or a
    #: known delivery gap) re-broadcasts its vote / state hash / backfill
    #: request every ``anti_entropy_ms`` until it either makes progress or
    #: has retried ``anti_entropy_max_retries`` times without any.  This
    #: is what lets consensus survive *message-level* faults (drops,
    #: floods) rather than only whole-host takedowns; retries are bounded
    #: so a genuinely dead quorum still lets the simulation quiesce.
    #: ``anti_entropy_ms = 0`` disables retransmission entirely.
    anti_entropy_ms: float = 400.0
    anti_entropy_max_retries: int = 3

    #: Cross-shard swap protocol (``repro.blockchain.swaps``): a swap
    #: still undecided (prepare phase) after ``swap_timeout_ms`` of
    #: simulated time is aborted by its coordinator, releasing the locks
    #: on both shards.  Committing swaps ignore the timeout — past the
    #: point of no return the protocol rolls forward.
    swap_timeout_ms: float = 4_000.0
    #: Poll tick of the swap coordinator's per-shard clients; a swap is
    #: four dependent transactions, so its latency is roughly four
    #: commit latencies quantised to this tick.
    swap_poll_interval_ms: float = 50.0

    #: Extension addressing limitation §8(2): contract functions listed
    #: here are ordered ahead of others within a block (a C/S server
    #: "may prioritize SHOOT events over location updates"); the default
    #: empty tuple keeps the paper's pure timestamp order.
    priority_functions: tuple = ()

    def with_options(self, **kwargs) -> "FabricConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def __post_init__(self) -> None:
        if self.max_block_txs < 1:
            raise ValueError("max_block_txs must be >= 1")
        if self.batch_timeout_ms <= 0:
            raise ValueError("batch_timeout_ms must be positive")
        if self.swap_timeout_ms <= 0:
            raise ValueError("swap_timeout_ms must be positive")
        if self.swap_poll_interval_ms <= 0:
            raise ValueError("swap_poll_interval_ms must be positive")
