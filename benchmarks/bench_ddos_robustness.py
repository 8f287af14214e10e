"""DDoS robustness (§7.2.4(3)) — and the C/S contrast (§2.2, §5).

"We observe the effects on event validation throughput for 8 and 16
peers with number of faulty nodes at 12.5%, 25% and 37.5%.  We replay
an event trace from Doom session #9 across all peers and note that the
throughput remains the same even in the presence of malicious peers."

The companion experiment the design argument implies: one takedown
target kills the C/S deployment outright.
"""

import pytest

from helpers import all_opts_fabric
from repro.analysis import AsciiTable
from repro.baselines import CSClient, GameServer
from repro.core import GameSession
from repro.game import paper_dataset, ten_longest
from repro.simnet import INTERNET_US, Network, TakedownAttack

FAULT_FRACTIONS = (0.0, 0.125, 0.25, 0.375)
SLICE_MS = 90_000.0  # a 90 s slice of session #9 keeps the bench tractable


def replay_with_faults(demo, n_peers: int, fraction: float) -> float:
    """Replay the trace with a fraction of peers down; returns events/s."""
    session = GameSession(
        n_peers=n_peers, profile=INTERNET_US, fabric_config=all_opts_fabric(),
        game_map=demo.game_map, player_names=[demo.player], n_players=1, seed=4,
    )
    session.setup()
    anchor = session.shims[0].anchor_peer.name
    candidates = [p.name for p in session.chain.peers if p.name != anchor]
    victims = candidates[: int(n_peers * fraction)]
    if victims:
        TakedownAttack(victims).apply(session.chain.net)
    session.play_demo(demo)
    session.run_until_idle()
    stats = session.stats()
    assert stats.events_acked == stats.events_received, "events went unanswered"
    throughput = stats.throughput_events_per_s
    session.teardown()
    return throughput


def cs_under_takedown(demo) -> float:
    """The C/S control: server taken down mid-replay; returns the
    fraction of events that were ever acknowledged."""
    net = Network(profile=INTERNET_US, seed=5)
    server = net.register(GameServer(game_map=demo.game_map, strict_pickups=True))
    server.add_player(demo.player)
    client = net.register(CSClient("c1", server.region, server))
    half = demo.duration_ms / 2.0
    for event in demo.events:
        net.scheduler.call_at(event.t_ms, client.send_event, event)
    net.scheduler.call_at(half, TakedownAttack([server.name]).apply, net)
    net.run_until_idle()
    return (client.accepted + client.rejected) / len(demo)


def run_experiment():
    demo = ten_longest(paper_dataset())[0].slice(SLICE_MS)
    grid = {}
    for n_peers in (8, 16):
        grid[n_peers] = {
            fraction: replay_with_faults(demo, n_peers, fraction)
            for fraction in FAULT_FRACTIONS
        }
    cs_answered = cs_under_takedown(demo)
    return demo, grid, cs_answered


def test_ddos_robustness(benchmark):
    demo, grid, cs_answered = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    table = AsciiTable(
        ["peers"] + [f"{f:.1%} faulty" for f in FAULT_FRACTIONS],
        title=f"Event-validation throughput (events/s), "
              f"{len(demo)}-event slice of session {demo.session_id}",
    )
    for n_peers, row in grid.items():
        table.row(n_peers, *[f"{row[f]:.1f}" for f in FAULT_FRACTIONS])
    table.print()
    print(f"C/S control: server taken down mid-replay -> only "
          f"{cs_answered:.0%} of events ever acknowledged")

    # Published result: throughput unchanged under faulty minorities.
    for n_peers, row in grid.items():
        baseline = row[0.0]
        for fraction in FAULT_FRACTIONS[1:]:
            assert row[fraction] == pytest.approx(baseline, rel=0.05), (
                n_peers, fraction
            )
    # The C/S deployment lost roughly the second half of the session.
    assert cs_answered < 0.75
