"""Sharded telemetry, pinned against a golden Prometheus export.

One deterministic two-shard run exercises every terminal swap outcome
(committed / aborted / timed_out); the sharded metric families the run
produces — the swap-outcome counter and the per-shard progress gauges —
must match ``tests/golden/sharded_telemetry.prom`` byte for byte.  The
golden file is small on purpose: it freezes label names, label values
and counts, which is exactly what dashboards scrape.
"""

from pathlib import Path

from repro.blockchain.shardworker import BridgedShardEngine, BridgeSwapPort
from repro.blockchain.swaps import SwapCoordinator, asset_key
from repro.simnet import LAN_1GBPS
from repro.telemetry import Telemetry
from repro.telemetry.export import prometheus_text, trace_records

GOLDEN = Path(__file__).parent / "golden" / "sharded_telemetry.prom"

#: The metric families this subsystem owns (all other families on the
#: export — pipeline histograms, net gauges — are covered elsewhere).
SHARDED_FAMILIES = (
    "cross_shard_swaps_total",
    "shard_committed_height",
    "shard_throughput_txs_per_s",
)


def run_instrumented():
    engine = BridgedShardEngine(
        n_peers=8, n_shards=2, profile=LAN_1GBPS, seed=4
    )
    telemetry = Telemetry().instrument_sharded(engine)
    for j, home in ((0, 0), (1, 1)):
        engine.submit_invoke(
            home, "mint", (f"a{j}", "alice", 5 + j),
            touched_keys=(asset_key(f"a{j}"),), client_prefix="minter",
            poll_interval_ms=1000.0 / 35.0,
        )
    engine.run()
    coordinator = SwapCoordinator(port=BridgeSwapPort(engine), telemetry=telemetry)
    coordinator.start_swap("s1", "a0", 0, 1, "bob", 5)     # commits
    coordinator.start_swap("s2", "nope", 0, 1, "bob", 1)   # aborts
    engine.run()
    # A second coordinator whose timer is shorter than a commit
    # round-trip: its swap must time out.
    slow = SwapCoordinator(
        port=BridgeSwapPort(engine, client_name="slowcoord"),
        telemetry=telemetry, timeout_ms=1.0, name="slowcoord",
    )
    slow.start_swap("s3", "a1", 1, 0, "carol", 6)          # times out
    engine.run()
    return telemetry


def sharded_lines(telemetry):
    return "".join(
        line + "\n"
        for line in prometheus_text(telemetry).splitlines()
        if any(family in line for family in SHARDED_FAMILIES)
    )


def test_prometheus_export_matches_golden():
    assert sharded_lines(run_instrumented()) == GOLDEN.read_text()


def test_jsonl_trace_carries_swap_spans():
    records = trace_records(run_instrumented())
    stages = {
        record["stage"]
        for record in records
        if record.get("host") == "swap-coordinator"
    }
    # The committed swap contributes prepare+commit spans; the aborted
    # and timed-out swaps contribute abort spans.
    assert {"swap-prepare", "swap-commit", "swap-abort"} <= stages
