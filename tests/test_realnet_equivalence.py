"""Backend equivalence: one scripted session, two transports.

The same 8-peer deployment code runs the same scripted counter session
on the deterministic simnet and on real localhost sockets.  Wall-clock
timestamps and therefore transaction ids differ by construction
(DESIGN.md §15), so equivalence is checked at the level the spec pins:
per-operation validation codes, final committed counter state, and
full convergence of every peer within each backend.
"""

from __future__ import annotations

import pytest

from repro.blockchain.config import FabricConfig
from repro.blockchain.execution import (
    clear_execution_cache,
    execution_stats,
    reset_execution_stats,
)
from repro.blockchain.messages import SyncHashMsg, VoteMsg
from repro.blockchain.network import BlockchainNetwork
from repro.chaos.workload import ChaosCounterContract
from repro.realnet import RealNetwork, make_network
from repro.simnet.latency import INTERNET_US

PEERS = 8

# (function, args): arguments use distinct amounts so any lost,
# duplicated or re-ordered *effect* shows up in the final counters.
SCRIPT_INIT = [("init", ("a",)), ("init", ("b",)), ("init", ("c",))]
SCRIPT_UPDATES = [
    ("add", ("a", 7)),
    ("add", ("b", 11)),
    ("add", ("c", 13)),
    ("add", ("a", 17)),
    ("sub", ("b", 5)),
    ("add", ("c", 19)),
    ("sub", ("a", 3)),
    ("add", ("b", 23)),
    ("sub", ("c", 50)),  # exceeds 13+19: goes negative, CONTRACT_REJECTED
    ("add", ("a", 31)),
]


def _drain(chain):
    if isinstance(chain.net, RealNetwork):
        chain.net.run_until_idle(max_wall_ms=30_000)
    else:
        chain.net.run_until_idle()


def _starve(chain, counts):
    """Lose every first-broadcast vote / sync hash addressed to the last
    peer, so it finishes a block only through anti-entropy: its own
    ``is_retry`` re-broadcast, answered by ``is_reply`` attestations.
    On realnet both flags cross the codec, and a retry decoded without
    its flag would solicit nothing — the peer would never converge."""
    starved = chain.peers[-1].name

    def injector(msg, at):
        payload = msg.payload
        if type(payload) in (VoteMsg, SyncHashMsg):
            if payload.is_retry:
                counts["retries"] += 1
            elif payload.is_reply:
                counts["replies"] += 1
            elif msg.dst == starved:
                return []
        return [at]

    chain.net.fault_injector = injector


def _duplicate(chain, counts):
    """Deliver every vote and sync hash twice.  On simnet both copies
    are one object; on realnet they are equal bytes, which the receive
    path decodes to one object too."""

    def injector(msg, at):
        if type(msg.payload) in (VoteMsg, SyncHashMsg):
            counts["duplicated"] += 1
            return [at, at]
        return [at]

    chain.net.fault_injector = injector


def _run_session(backend: str, starve: bool = False, duplicate: bool = False):
    clear_execution_cache()
    reset_execution_stats()
    config = FabricConfig(max_block_txs=1)
    if starve:
        # Two retry rounds per block (vote, then hash) on a wall clock.
        config = config.with_options(anti_entropy_ms=60.0)
    chain = BlockchainNetwork(
        PEERS, config=config, seed=11,
        net=make_network(backend, profile=INTERNET_US, seed=11),
    )
    if backend == "realnet":
        chain.net.start()
    gossip = {"retries": 0, "replies": 0, "duplicated": 0}
    if starve:
        _starve(chain, gossip)
    if duplicate:
        _duplicate(chain, gossip)
    chain.install_contract(ChaosCounterContract)
    client = chain.create_client("scripted")

    codes = []
    def record(result, latency_ms):
        codes.append(result.code)

    for function, args in SCRIPT_INIT:
        client.invoke(
            ChaosCounterContract.name, function, args,
            touched_keys=(ChaosCounterContract.key(args[0]),),
            on_complete=record,
        )
    _drain(chain)
    for function, args in SCRIPT_UPDATES:
        client.invoke(
            ChaosCounterContract.name, function, args,
            touched_keys=(ChaosCounterContract.key(args[0]),),
            on_complete=record,
        )
    _drain(chain)

    counters = {
        name: chain.peers[0].ledger.state.get(ChaosCounterContract.key(name))
        for name in ("a", "b", "c")
    }
    heights = {p.ledger.height for p in chain.peers}
    state_hashes = {p.ledger.state_hash() for p in chain.peers}
    chains_valid = all(p.ledger.validate_chain() for p in chain.peers)
    if backend == "realnet":
        chain.net.close()
    return {
        "codes": codes,
        "counters": counters,
        "heights": heights,
        "state_hashes": state_hashes,
        "chains_valid": chains_valid,
        "synced": len({p.synced_height for p in chain.peers}) == 1,
        "gossip": gossip,
        "execution": execution_stats(),
    }


@pytest.fixture(scope="module")
def results():
    return {b: _run_session(b) for b in ("simnet", "realnet")}


def test_each_backend_converges(results):
    for backend, r in results.items():
        assert len(r["heights"]) == 1, backend
        assert len(r["state_hashes"]) == 1, backend
        assert r["chains_valid"], backend
        assert r["synced"], backend


def test_validation_codes_identical(results):
    sim, real = results["simnet"]["codes"], results["realnet"]["codes"]
    assert len(sim) == len(real) == len(SCRIPT_INIT) + len(SCRIPT_UPDATES)
    assert sim == real
    assert sim.count("CONTRACT_REJECTED") == 1  # the oversized sub


def test_final_counters_identical(results):
    assert results["simnet"]["counters"] == results["realnet"]["counters"]
    # And both match the arithmetic of the committed-valid script.
    assert results["simnet"]["counters"] == {
        "a": 7 + 17 - 3 + 31,   # all four a-ops commit
        "b": 11 - 5 + 23,       # all three b-ops commit
        "c": 13 + 19,           # the oversized sub is rejected
    }


def test_committed_heights_identical(results):
    # max_block_txs=1: every VALID or rejected-but-ordered tx is its own
    # block, so both backends commit the same number of blocks.
    assert results["simnet"]["heights"] == results["realnet"]["heights"]


def test_decoded_block_copies_share_execution_results(results):
    """The execution cache is keyed by content: on real sockets the
    peers of a process share one decoded block, as on simnet, and all
    but the first to execute it reuse the first one's results."""
    blocks = len(SCRIPT_INIT) + len(SCRIPT_UPDATES)
    for backend, r in results.items():
        stats = r["execution"]
        assert stats["cache_misses"] == blocks, backend
        assert stats["cache_hits"] == (PEERS - 1) * blocks, backend
        assert stats["cache_bypasses"] == 0, backend


def test_duplicated_attestations_are_tallied_once_on_both_backends(results):
    """A vote or sync hash delivered twice is one ballot: it changes no
    code, counter or height, on realnet exactly as on simnet."""
    for backend in ("simnet", "realnet"):
        r = _run_session(backend, duplicate=True)
        assert r["gossip"]["duplicated"] >= 2 * PEERS * (PEERS - 1), backend
        assert len(r["heights"]) == 1 and len(r["state_hashes"]) == 1, backend
        assert r["chains_valid"] and r["synced"], backend
        for key in ("codes", "counters", "heights"):
            assert r[key] == results[backend][key], (backend, key)


@pytest.fixture(scope="module")
def starved_results():
    return {b: _run_session(b, starve=True) for b in ("simnet", "realnet")}


def test_starved_peer_converges_through_retries_on_both_backends(
    results, starved_results
):
    for backend, r in starved_results.items():
        assert len(r["heights"]) == 1, backend
        assert len(r["state_hashes"]) == 1, backend
        assert r["chains_valid"] and r["synced"], backend
        # Every block cost the starved peer at least one retry round,
        # and each retry it sent was answered.
        assert r["gossip"]["retries"] >= (PEERS - 1) * 2, backend
        assert r["gossip"]["replies"] >= r["gossip"]["retries"] // 2, backend
        # Losing one peer's gossip changes no outcome.
        for key in ("codes", "counters", "heights"):
            assert r[key] == results[backend][key], (backend, key)

