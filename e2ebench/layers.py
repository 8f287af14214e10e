"""The per-layer table: traced self times and exposed counters, per
acked event.

Every workload prints every metric; a layer that does not run on a
workload reads 0 (``blockchain.codec.*`` on the simnet session replays,
``realnet.*`` everywhere but ``realnet-8p``).  Busy time is named
``*_us_per_event``: host microseconds of span self time per acked
event.  ``simnet.clock.events_per_game_event`` is an exact count and
repeats exactly; it is the only per-layer number a later claim may rest
on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .harness import RoundRecord, RunResult, fast_quartile, median_iqr
from .trace import SPAN_NAMES

__all__ = ["PER_LAYER", "layer_metrics"]

_COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.shim.events_per_batch", "count"),
    ("blockchain.client.polls_per_event", "count"),
    ("blockchain.crypto.verify_calls", "count"),
    ("blockchain.crypto.verify_cache_hit_ratio", "ratio"),
    ("blockchain.execution.calls", "count"),
    ("blockchain.execution.cache_hit_ratio", "ratio"),
    ("blockchain.ledger.invalid_tx_ratio", "ratio"),
    ("blockchain.state.state_hash_calls", "count"),
    ("blockchain.ordering.txs_per_block", "count"),
    ("blockchain.ordering.blocks", "count"),
    ("blockchain.peer.vote_msgs_per_event", "count"),
    ("blockchain.peer.sync_msgs_per_event", "count"),
    ("blockchain.peer.backfill_requests", "count"),
    ("blockchain.peer.catchup_ms", "ms"),
    ("blockchain.codec.frames_per_event", "count"),
    ("blockchain.codec.bytes_per_event", "B"),
    ("blockchain.swaps.committed", "count"),
    ("blockchain.swaps.timed_out", "count"),
    ("blockchain.swaps.latency_p50_ms", "ms"),
    ("simnet.clock.events_per_game_event", "count"),
    ("simnet.transport.msgs_per_event", "count"),
    ("simnet.transport.dropped_ratio", "ratio"),
    ("simnet.bridge.rounds_per_event", "count"),
    ("realnet.transport.frames_per_event", "count"),
    ("realnet.transport.connects", "count"),
    ("realnet.transport.frame_errors", "count"),
    ("realnet.clock.timers_per_event", "count"),
    ("chaos.injector.faults_applied", "count"),
    ("telemetry.ordering_ms", "ms"),
    ("telemetry.gossip_ms", "ms"),
    ("telemetry.validation_ms", "ms"),
    ("telemetry.commit_ms", "ms"),
    ("telemetry.commit_p50_ms", "ms"),
    ("e2ebench.trace_overhead", "ratio"),
    ("e2ebench.closure", "ratio"),
    ("e2ebench.round_iqr_ratio", "ratio"),
    ("e2ebench.fastq_vs_median", "ratio"),
)

#: (name, unit) of every per-layer metric, all "better: lower" except
#: the hit ratios and closure (BENCHMARK.json carries the directions).
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (f"{span}_us_per_event", "us") for span in SPAN_NAMES
) + _COUNT_METRICS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _round_metrics(result: RunResult, record: RoundRecord) -> Dict[str, float]:
    """The table for one traced round."""
    trace = record.trace
    counters = result.outcome.counters
    realnet = result.backend == "realnet"
    events = max(record.acked, 1)
    self_ns: Dict[str, int] = dict(trace["self_ns"])
    calls: Dict[str, int] = trace["calls"]
    counts: Dict[str, int] = trace["counts"]
    host: Dict[str, float] = trace["host"]

    closure = _ratio(sum(self_ns.values()) / 1e9, record.wall_s)
    if realnet:
        # The wall clock's self time includes sleeping for the next poll
        # tick (the loop is unsaturated by design).  Busy time is what
        # the process burned beyond the child spans, which never sleep.
        children_ns = sum(ns for name, ns in self_ns.items() if name != "realnet.clock.self")
        self_ns["realnet.clock.self"] = max(0, int(host["cpu_s"] * 1e9) - children_ns)

    out = {f"{span}_us_per_event": self_ns[span] / 1e3 / events for span in SPAN_NAMES}

    verify_items = counts.get("crypto.verify_items", 0)
    executions = host["cache_hits"] + host["cache_misses"] + host["cache_bypasses"]
    ledger_blocks = counts.get("ledger.blocks", 0)
    # Every peer of a chain appends every block of it, so appends / peers
    # is blocks cut — also on the sharded engine, whose orderers are out
    # of reach.
    blocks = ledger_blocks / counters["peers_per_chain"]
    # realnet-8p reports no scheduler or simnet transport counters, so
    # the simnet.* rows read 0 there without a special case.
    out.update({
        "core.shim.events_per_batch": _ratio(
            counters.get("shim_events", 0), counters.get("shim_txs", 0)
        ),
        "blockchain.client.polls_per_event": counts.get("peer.polls", 0) / events,
        "blockchain.crypto.verify_calls": verify_items,
        "blockchain.crypto.verify_cache_hit_ratio": (
            1.0 - _ratio(host["verify_cache_entries"], verify_items)
            if verify_items else 0.0
        ),
        "blockchain.execution.calls": executions,
        "blockchain.execution.cache_hit_ratio": _ratio(host["cache_hits"], executions),
        "blockchain.ledger.invalid_tx_ratio": _ratio(
            counts.get("ledger.invalid", 0), counts.get("ledger.txs", 0)
        ),
        "blockchain.state.state_hash_calls": calls["blockchain.state.state_hash"],
        "blockchain.ordering.txs_per_block": _ratio(
            counts.get("ledger.txs", 0), ledger_blocks
        ),
        "blockchain.ordering.blocks": blocks,
        "blockchain.peer.vote_msgs_per_event": counts.get("peer.vote_msgs", 0) / events,
        "blockchain.peer.sync_msgs_per_event": counts.get("peer.sync_msgs", 0) / events,
        "blockchain.peer.backfill_requests": counts.get("orderer.backfill_requests", 0),
        "blockchain.peer.catchup_ms": counters.get("catchup_ms", 0.0),
        "blockchain.codec.frames_per_event": calls["blockchain.codec.encode"] / events,
        "blockchain.codec.bytes_per_event": counts.get("codec.bytes", 0) / events,
        "blockchain.swaps.committed": counters.get("swaps_committed", 0),
        "blockchain.swaps.timed_out": counters.get("swaps_timed_out", 0),
        "blockchain.swaps.latency_p50_ms": counters.get("swap_latency_p50_ms", 0.0),
        "simnet.clock.events_per_game_event": counters.get("scheduler_events", 0) / events,
        "simnet.transport.msgs_per_event": counts.get("simnet.msgs", 0) / events,
        "simnet.transport.dropped_ratio": _ratio(
            counters.get("net_dropped", 0), counters.get("net_sent", 0)
        ),
        "simnet.bridge.rounds_per_event": counters.get("bridge_rounds", 0) / events,
        "realnet.transport.frames_per_event": (
            calls["blockchain.codec.encode"] / events if realnet else 0.0
        ),
        "realnet.transport.connects": counters.get("connects", 0),
        "realnet.transport.frame_errors": counters.get("frame_errors", 0),
        "realnet.clock.timers_per_event": host.get("timers", 0) / events,
        "chaos.injector.faults_applied": counters.get("faults_applied", 0),
        "telemetry.ordering_ms": counters.get("stage_ordering_ms", 0.0),
        "telemetry.gossip_ms": counters.get("stage_gossip_ms", 0.0),
        "telemetry.validation_ms": counters.get("stage_validation_ms", 0.0),
        "telemetry.commit_ms": counters.get("stage_commit_ms", 0.0),
        "telemetry.commit_p50_ms": counters.get("stage_commit_p50_ms", 0.0),
        "e2ebench.closure": closure,
    })
    return out


def layer_metrics(result: RunResult) -> Dict[str, float]:
    """Per-layer metrics of a traced run: the traced rounds' mean, and
    the harness's own figures."""
    traced = [r for r in result.rounds if r.traced]
    reference = [r for r in result.rounds if not r.traced]
    tables: List[Dict[str, float]] = [_round_metrics(result, r) for r in traced]
    out = {name: sum(t[name] for t in tables) / len(tables) for name in tables[0]}

    def per_event_wall(record: RoundRecord) -> float:
        return record.wall_s / max(record.acked, 1)

    def per_event_cpu(record: RoundRecord) -> float:
        return record.cpu_s / max(record.acked, 1)

    # realnet windows have a fixed wall length; there the overhead shows
    # in CPU per event, not in wall per event.
    cost = per_event_cpu if result.backend == "realnet" else per_event_wall
    out["e2ebench.trace_overhead"] = _ratio(
        min(cost(r) for r in traced), min(cost(r) for r in reference)
    )
    # Only TRACED_ROUNDS rounds here; the untraced run reports the same
    # two figures over its full set of rounds as diagnostics.
    rates = [r.acked / r.wall_s for r in traced]
    median, iqr = median_iqr(rates)
    out["e2ebench.round_iqr_ratio"] = iqr / median
    out["e2ebench.fastq_vs_median"] = fast_quartile(rates, "higher") / median
    return out
