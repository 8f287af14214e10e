"""Ablation — sharding for large rooms (§8(5) future work, implemented).

The paper: "our prototype reports increasing validation latency with
increasing peers … recent advancements [sharding] can help mitigate the
issue and blockchain-based MMORPGs may be feasible in future."

This bench measures what the paper projects: a 64-peer room validated
by one chain vs the same 64 peers split into 2 and 4 shards (each shard
owning a slice of the per-player-per-asset key space).  Latency falls
back to the smaller electorate's curve — the 64-peer room regains the
paper's <150 ms real-time envelope at 4 shards.
"""

from repro.analysis import AsciiTable
from repro.blockchain import FabricConfig
from repro.blockchain.shardworker import BridgedShardEngine
from repro.simnet import INTERNET_US

ROOM = 64
SHARD_COUNTS = (1, 2, 4)
EVENTS_PER_ASSET = 12
N_ASSETS = 5


def measure(n_shards: int) -> float:
    """Five per-asset closed loops, each routed to the shard owning its
    counter's key; average end-to-end validation latency (measured by
    the submitting client inside the shard, so the bridge transit of a
    resubmission is not part of it)."""
    engine = BridgedShardEngine(
        n_peers=ROOM, n_shards=n_shards, profile=INTERNET_US,
        config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
        seed=3, contract="conftest:CounterContract",  # tests/ is on pythonpath
    )

    def invoke(lane, function, args, on_complete):
        key = f"ctr/{lane}"
        engine.submit_invoke(
            engine.shard_index_for_key(key), function, args, (key,),
            on_complete=on_complete, client_prefix="client",
            poll_interval_ms=1000.0 / 35.0,
        )

    lanes = [f"asset{i}" for i in range(N_ASSETS)]
    for lane in lanes:
        invoke(lane, "init", (lane,), None)
    engine.run()

    latencies = []
    sent = {lane: 0 for lane in lanes}

    def loop(lane):
        def on_complete(result, latency):
            latencies.append(latency)
            if sent[lane] < EVENTS_PER_ASSET:
                sent[lane] += 1
                invoke(lane, "add", (lane, 1), on_complete)

        sent[lane] += 1
        invoke(lane, "add", (lane, 1), on_complete)

    for lane in lanes:
        loop(lane)
    engine.run()
    return sum(latencies) / len(latencies)


def run_sweep():
    return {n: measure(n) for n in SHARD_COUNTS}


def test_ablation_sharding(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    table = AsciiTable(
        ["shards", "peers/shard", "avg validation latency (ms)"],
        title=f"Ablation §8(5): sharding a {ROOM}-peer room",
    )
    for n, latency in results.items():
        table.row(n, ROOM // n, f"{latency:.0f}")
    table.print()

    # Sharding monotonically reduces latency…
    assert results[4] < results[2] < results[1]
    # …and brings the 64-peer room back under the real-time envelope.
    assert results[1] > 150.0
    assert results[4] < 150.0
