"""Ablation — the per-player per-asset KVS split (§6 optimisation i).

The paper's motivation: "when the smart contract maps the player (as
key) with all his assets (as value) … Fabric will reject the latter
transaction", serialising event validation.  This bench runs the same
five-lane closed-loop workload against both KVS layouts:

* **split** (one key per player-asset pair): different-asset updates are
  mutually exclusive, share blocks, and commit concurrently;
* **monolithic** (one key per player): every update touches the same
  key, so with multi-transaction blocks the block-level lock rejects all
  but the first — the shim must retry, and validation serialises.
"""

from helpers import ClosedLoopDriver
from repro.analysis import AsciiTable
from repro.blockchain import FabricConfig, TxValidationCode
from repro.core import DoomContract, GameSession, ShimConfig
from repro.game import DoomMap
from repro.simnet import INTERNET_US

PEERS = 16
EVENTS_PER_LANE = 20


def run_layout(split: bool):
    game_map = DoomMap.default_map()
    session = GameSession(
        n_peers=PEERS,
        profile=INTERNET_US,
        fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=False),
        shim_config=ShimConfig(multithreaded=True, batching=False),
        game_map=game_map,
        contract_factory=lambda: DoomContract(
            game_map=game_map, split_kvs=split, strict_pickups=False
        ),
        n_players=1,
        seed=3,
    )
    session.setup()
    start = session.now
    driver = ClosedLoopDriver(session, EVENTS_PER_LANE)
    driver.start()
    session.run_until_idle()
    span_s = (session.now - start) / 1000.0
    stats = session.stats()
    conflicts = sum(
        1 for code in driver.rejorted if code == TxValidationCode.MVCC_READ_CONFLICT
    )
    goodput = stats.accepted_events / span_s if span_s > 0 else 0.0
    session.teardown()
    return goodput, conflicts, stats.events_acked


def test_ablation_kvs_split(benchmark):
    results = benchmark.pedantic(
        lambda: {"split": run_layout(True), "monolithic": run_layout(False)},
        rounds=1, iterations=1,
    )

    table = AsciiTable(
        ["KVS layout", "goodput (valid ev/s)", "MVCC conflicts", "events"],
        title=f"Ablation §6(i): per-player-per-asset KVS split "
              f"({PEERS} peers, block size 5, 5 concurrent asset lanes)",
    )
    for layout, (goodput, conflicts, events) in results.items():
        table.row(layout, f"{goodput:.1f}", conflicts, events)
    table.print()

    split_goodput, split_conflicts, _ = results["split"]
    mono_goodput, mono_conflicts, _ = results["monolithic"]
    # The split layout removes intra-block conflicts entirely…
    assert split_conflicts == 0
    # …the monolithic layout rejects most same-block companions (its
    # clients must retry them, §6)…
    assert mono_conflicts > EVENTS_PER_LANE
    # …so the split layout validates several times more updates/s.
    assert split_goodput > 2.0 * mono_goodput
