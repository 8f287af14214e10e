"""The `Telemetry` facade: one object wired through the whole pipeline.

Components (shim/client, ordering service, peers, transport, chaos
injector) each carry a ``telemetry`` attribute that defaults to ``None``.
Every hook site in the engine is guarded::

    tel = self.telemetry
    if tel is not None:
        tel.block_cut(block)

so a run without telemetry pays exactly one attribute load and one
``is not None`` test per hook — the "zero-cost when disabled" contract
the PR-3 perf gates and the golden determinism record rely on.  All
recording is host-side: enabling telemetry never schedules events,
never draws from an RNG and never touches simulated state, so a traced
run is *simulated-ms identical* to an untraced one.

Per-transaction spans are recorded from the viewpoint of one **witness
peer** (default: ``peer0``) — the paper measures latency at the client's
anchor, and one linear chain per transaction is what the exporters and
the span-completeness property consume.  Per-stage histograms, by
contrast, aggregate over *every* peer, so fleet-wide latency
distributions (Fig. 3c's validation latency) still see all N peers.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Optional, Tuple

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    FIG2_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
)
from .tracer import Tracer

__all__ = ["Telemetry"]

#: Block-size histogram bounds (transactions per block; Doom tuning is 5).
_BLOCK_SIZE_BOUNDS = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 16.0, 32.0)


class Telemetry:
    """Lifecycle tracer + metrics registry + the hooks that feed them."""

    def __init__(self, witness: Optional[str] = None):
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.witness = witness
        self._sched = None
        #: Every instrumented peer, read by the collect-time peer gauge.
        self._peers: list = []

        reg = self.registry
        reg.gauge(
            "peer_attestations_armed",
            "votes and sync hashes that got a scheduler event of their own "
            "(all peers); the rest were absorbed from the inbox",
            fn=lambda: sum(peer.attestations_armed for peer in self._peers),
        )
        self._c_submitted = reg.counter(
            "client_txs_submitted", "transactions submitted by clients/shims"
        )
        self._c_enqueued = reg.counter(
            "orderer_txs_enqueued", "transactions received by the ordering service"
        )
        self._c_blocks_cut = reg.counter("orderer_blocks_cut", "blocks cut")
        self._c_txs_ordered = reg.counter("orderer_txs_ordered", "transactions ordered")
        self._h_block_size = reg.histogram(
            "orderer_block_size_txs", "transactions per cut block",
            boundaries=_BLOCK_SIZE_BOUNDS,
        )
        self._c_blocks_delivered = reg.counter(
            "peer_blocks_delivered", "first-time block deliveries at peers"
        )
        self._c_blocks_committed = reg.counter(
            "peer_blocks_committed", "block commits across peers"
        )
        self._c_txs_committed = reg.counter(
            "peer_txs_committed", "transactions committed VALID (all peers)"
        )
        self._c_txs_aborted = reg.counter(
            "peer_txs_aborted", "transactions aborted at validation (all peers)"
        )
        self._c_blocks_synced = reg.counter(
            "peer_blocks_synced", "ledger-sync quorums reached (all peers)"
        )
        self._h_fig2 = reg.histogram(
            "shim_commit_latency_ms",
            "per-event commit latency at the shim (the paper's Fig. 2 bins)",
            boundaries=FIG2_BUCKETS_MS,
        )
        self._c_acks = reg.counter("shim_events_acked", "game events acknowledged")
        self._c_rejected = reg.counter("shim_events_rejected", "game events rejected")
        self._h_stage: Dict[str, Histogram] = {}

        # Pending lifecycle state, keyed so entries are consumed on use.
        self._submitted_at: Dict[str, float] = {}
        self._enqueued_at: Dict[str, float] = {}
        #: keyed by block *digest*, not number: in a sharded deployment
        #: every shard has its own height sequence, so numbers collide.
        self._cut_at: Dict[str, float] = {}
        self._exec_end: Dict[Tuple[str, int], float] = {}
        self._decided_at: Dict[Tuple[str, int], float] = {}
        self._committed_at: Dict[Tuple[str, int], float] = {}

    # ------------------------------------------------------------------
    # wiring

    def instrument_chain(self, chain, **net_labels: str) -> "Telemetry":
        """Attach to a :class:`~repro.blockchain.network.BlockchainNetwork`:
        orderer, every peer, every existing client, and the transport
        (its gauges labelled ``net_labels``)."""
        self._sched = chain.scheduler
        if self.witness is None:
            self.witness = chain.peers[0].name
        chain.telemetry = self  # future create_client() calls inherit it
        chain.orderer.telemetry = self
        self._watch_peers(chain.peers)
        for client in getattr(chain, "_clients", {}).values():
            client.telemetry = self
        self.bind_network(chain.net, **net_labels)
        return self

    def instrument_sharded(self, engine) -> "Telemetry":
        """Attach to a :class:`~repro.blockchain.shardworker.
        BridgedShardEngine` through ``engine.worlds`` (local placement):
        every world's orderer, peers, clients and transport, plus
        per-shard progress gauges fed from ``collect_summaries()``.

        Each world has its own clock, so its hosts get a shallow view of
        this facade that stamps with *that* clock; registry, tracer and
        the pending-lifecycle maps are shared.  The facade itself stamps
        with the control clock (swap stages).  The witness defaults to
        shard 0's first peer, so per-tx spans describe one shard's
        pipeline; per-stage histograms and the counters aggregate over
        all shards.
        """
        worlds = engine.worlds
        if self.witness is None:
            self.witness = worlds[0].chain.peers[0].name
        for world in worlds:
            copy.copy(self).instrument_chain(world.chain, shard=f"s{world.index}")
        self._sched = engine.scheduler
        for index in range(engine.n_shards):
            def _height(i=index) -> float:
                return float(engine.collect_summaries()[i]["committed_height"])

            def _throughput(i=index) -> float:
                summary = engine.collect_summaries()[i]
                now_s = summary["sim_now_ms"] / 1000.0
                if now_s <= 0:
                    return 0.0
                return round(summary["committed_tx_count"] / now_s, 6)

            self.registry.gauge(
                "shard_committed_height",
                "max committed block height of the shard",
                fn=_height, shard=f"s{index}",
            )
            self.registry.gauge(
                "shard_throughput_txs_per_s",
                "committed transactions per simulated second on the shard",
                fn=_throughput, shard=f"s{index}",
            )
        return self

    def _watch_peers(self, peers) -> None:
        """Hook the peers; their own counters are read at collect time
        (nothing added to a peer's message path)."""
        for peer in peers:
            peer.telemetry = self
        self._peers.extend(peers)

    def instrument_session(self, session) -> "Telemetry":
        """Attach to a :class:`~repro.core.session.GameSession` (chain plus
        every shim)."""
        self.instrument_chain(session.chain)
        for shim in session.shims:
            shim.telemetry = self
        return self

    def bind_network(self, net, **labels: str) -> None:
        """Absorb the transport's :class:`NetworkStats` — and, on realnet,
        its socket-level counters — into the registry (collect-time
        callback gauges — nothing added to the per-message path) and
        forward fabric events into the trace.  ``labels`` tell several
        bound transports apart (one per shard world)."""
        stats = net.stats
        for fname in stats.as_dict():
            def _read(s=stats, k=fname) -> float:
                return getattr(s, k)
            self.registry.gauge(
                f"net_{fname}", f"transport {fname}", fn=_read, **labels
            )
        # Only the realnet transport has sockets to count on.
        socket_counters = getattr(net, "transport_counters", None)
        if socket_counters is not None:
            for cname in socket_counters():
                def _read_socket(n=net, k=cname) -> float:
                    return getattr(n, k)
                self.registry.gauge(
                    f"realnet_{cname}", f"socket-level {cname}", fn=_read_socket,
                    **labels,
                )
        previous = net.on_stats_event

        def _forward(event: str, detail: Dict[str, Any]) -> None:
            if previous is not None:
                previous(event, detail)
            attrs = {k: v for k, v in detail.items() if k != "t"}
            self.tracer.add_event(f"net.{event}", detail.get("t", self._now()), **attrs)

        net.on_stats_event = _forward

    # ------------------------------------------------------------------
    # internals

    def _now(self) -> float:
        return self._sched.now if self._sched is not None else 0.0

    def _stage_hist(self, stage: str) -> Histogram:
        hist = self._h_stage.get(stage)
        if hist is None:
            hist = self._h_stage[stage] = self.registry.histogram(
                "pipeline_stage_ms", "per-stage pipeline latency",
                boundaries=DEFAULT_LATENCY_BUCKETS_MS, stage=stage,
            )
        return hist

    def _span(self, trace_id, stage, host, t_start, t_end, **attrs) -> None:
        self.tracer.add_span(trace_id, stage, host, t_start, t_end, **attrs)
        self._stage_hist(stage).observe(t_end - t_start)

    # ------------------------------------------------------------------
    # client / shim hooks

    def tx_submitted(self, client_name: str, tx) -> None:
        self._c_submitted.inc()
        self._submitted_at[tx.tx_id] = self._now()

    def shim_ack(
        self, shim_name: str, tx_id: str, accepted: bool,
        code: str, latencies_ms, n_events: int,
    ) -> None:
        now = self._now()
        for latency in latencies_ms:
            self._h_fig2.observe(latency)
        self._c_acks.inc(n_events)
        if not accepted:
            self._c_rejected.inc(n_events)
        start = now - max(latencies_ms) if latencies_ms else now
        self._span(
            tx_id, "e2e", shim_name, start, now,
            accepted=accepted, code=code, events=n_events,
        )

    # ------------------------------------------------------------------
    # ordering hooks

    def tx_enqueued(self, tx) -> None:
        now = self._now()
        self._c_enqueued.inc()
        self._enqueued_at[tx.tx_id] = now
        start = self._submitted_at.pop(tx.tx_id, tx.proposal.timestamp)
        self._span(tx.tx_id, "submit", "orderer", start, now)

    def block_cut(self, block) -> None:
        now = self._now()
        self._c_blocks_cut.inc()
        self._c_txs_ordered.inc(len(block.transactions))
        self._h_block_size.observe(len(block.transactions))
        self._cut_at[block.digest()] = now
        for tx in block.transactions:
            start = self._enqueued_at.pop(tx.tx_id, now)
            self._span(
                tx.tx_id, "ordering", "orderer", start, now, block=block.number
            )

    # ------------------------------------------------------------------
    # peer hooks

    def block_delivered(self, peer_name: str, block) -> None:
        now = self._now()
        self._c_blocks_delivered.inc()
        start = self._cut_at.get(block.digest(), now)
        self._stage_hist("gossip").observe(now - start)
        if peer_name == self.witness:
            for tx in block.transactions:
                self.tracer.add_span(
                    tx.tx_id, "gossip", peer_name, start, now, block=block.number
                )

    def block_executed(self, peer_name: str, block, cost_ms: float) -> None:
        now = self._now()
        self._exec_end[(peer_name, block.number)] = now
        start = now - cost_ms
        self._stage_hist("endorsement").observe(cost_ms)
        if peer_name == self.witness:
            for tx in block.transactions:
                self.tracer.add_span(
                    tx.tx_id, "endorsement", peer_name, start, now,
                    block=block.number,
                )

    def block_decided(self, peer_name: str, block) -> None:
        now = self._now()
        key = (peer_name, block.number)
        self._decided_at[key] = now
        start = self._exec_end.pop(key, now)
        self._stage_hist("validation").observe(now - start)
        if peer_name == self.witness:
            for tx in block.transactions:
                self.tracer.add_span(
                    tx.tx_id, "validation", peer_name, start, now,
                    block=block.number,
                )

    def block_committed(self, peer_name: str, block, codes) -> None:
        now = self._now()
        key = (peer_name, block.number)
        self._committed_at[key] = now
        start = self._decided_at.pop(key, now)
        self._c_blocks_committed.inc()
        valid = sum(1 for code in codes if code == "VALID")
        self._c_txs_committed.inc(valid)
        self._c_txs_aborted.inc(len(codes) - valid)
        self._stage_hist("commit").observe(now - start)
        if peer_name == self.witness:
            for tx, code in zip(block.transactions, codes):
                stage = "commit" if code == "VALID" else "validation-abort"
                self.tracer.add_span(
                    tx.tx_id, stage, peer_name, start, now,
                    block=block.number, code=code,
                )

    def block_synced(self, peer_name: str, block_number: int) -> None:
        now = self._now()
        start = self._committed_at.pop((peer_name, block_number), now)
        self._c_blocks_synced.inc()
        self._stage_hist("sync").observe(now - start)
        if peer_name == self.witness:
            self.tracer.add_span(
                f"block/{block_number}", "sync", peer_name, start, now
            )

    # ------------------------------------------------------------------
    # cross-shard swap hooks

    def swap_stage(
        self, swap_id: str, stage: str, t_start: float, t_end: float
    ) -> None:
        """One finished protocol stage (prepare / commit / abort) of a
        cross-shard swap, recorded as a span on the swap's trace and in
        the per-stage histograms (stages ``swap-prepare`` etc.)."""
        self._span(swap_id, f"swap-{stage}", "swap-coordinator", t_start, t_end)

    def swap_outcome(self, outcome: str) -> None:
        """Terminal outcome of one cross-shard swap
        (``committed`` / ``aborted`` / ``timed_out``)."""
        self.registry.counter(
            "cross_shard_swaps_total",
            "cross-shard swaps by terminal outcome",
            outcome=str(outcome),
        ).inc()

    # ------------------------------------------------------------------
    # chaos hooks

    def fault(self, kind: str, targets) -> None:
        self.registry.counter(
            "chaos_faults_applied", "fault injections by kind", kind=str(kind)
        ).inc()
        self.tracer.add_event(
            f"fault.{kind}", self._now(), targets=list(targets)
        )
