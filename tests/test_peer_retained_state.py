"""What a peer keeps after commit.

* Committed state entries are built once per write and shared by every
  honest peer of a process; the ledger's ``state_hash`` equals that of a
  ``WorldState`` fed the same writes through ``put``.
* ``tx_status`` reads the ledger's own per-block verdicts; a tx id
  carried more than once reports its last occurrence.
* A peer drops a block's executions when it commits the block.
* Retained heap per committed transaction per peer stays under a bound
  (tracemalloc, after idle, with the execution cache cleared).
* What a whole process keeps per committed block, across all of its
  peers: a spent execution-cache entry is gone, an elector re-executing
  after a restart still gets the others' executions, and every peer's
  own root and ballot for a block are one object.  Retained heap per
  committed block per process stays under a bound (tracemalloc, after
  idle, nothing cleared).
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest

from repro.blockchain import (
    BlockchainNetwork,
    CertificateAuthority,
    FabricConfig,
    Ledger,
    Proposal,
    RWSet,
    Transaction,
    TxExecution,
    TxValidationCode,
    Version,
    WorldState,
    make_genesis_block,
)
from repro.blockchain import execution
from repro.blockchain.block import make_block
from repro.blockchain.crypto import reset_crypto_caches
from repro.blockchain.execution import clear_execution_cache
from repro.core import GameSession
from repro.game.traces import generate_session
from repro.perf.workloads import SESSION9_SEED
from repro.simnet import LAN_1GBPS

from conftest import CounterContract

VALID = TxValidationCode.VALID
MVCC = TxValidationCode.MVCC_READ_CONFLICT
REJECTED = TxValidationCode.CONTRACT_REJECTED


# ----------------------------------------------------------------------
# (i) ledger equivalence on a hand-built block sequence


def _tx(identity, tx_id):
    proposal = Proposal(
        tx_id=tx_id, contract="c", function="f", args=(), nonce=tx_id,
        creator=identity.name, timestamp=0.0,
    )
    return Transaction(
        proposal=proposal,
        certificate=identity.certificate,
        signature=identity.sign(proposal.digest()),
    )


def _blocks():
    """(tx id, execution) per block.  Covers a stale read (MVCC), an
    in-block write conflict, a contract rejection, and tx ids carried
    twice: across blocks ("dup") and within one block ("twin")."""
    return [
        [("a", TxExecution(RWSet(writes=[("k1", 1), ("k2", {"hp": 100})]))),
         ("dup", TxExecution(RWSet(writes=[("k3", [1, 2])])))],
        [("b", TxExecution(RWSet(reads=[("k1", (0, 0))], writes=[("k1", 9)]))),
         ("c", TxExecution(RWSet(reads=[("k1", (1, 0))], writes=[("k1", 2)]))),
         ("d", TxExecution(RWSet(writes=[("k1", 3)]))),
         ("e", TxExecution(RWSet(writes=[("k4", "x")]), code=REJECTED))],
        [("dup", TxExecution(RWSet(writes=[("k2", None)]))),
         ("twin", TxExecution(RWSet(writes=[("k5", 5)]))),
         ("twin", TxExecution(RWSet(writes=[("k5", 6)])))],
    ]


def _reference_status(ledger):
    """The status map a ledger built per transaction: the last
    occurrence of a tx id wins."""
    status = {}
    for number in range(1, ledger.height):
        block = ledger.block(number)
        for tx, code in zip(block.transactions, ledger.validation_codes(number)):
            status[tx.tx_id] = (code, number)
    return status


def test_ledger_matches_a_state_fed_through_put():
    identity = CertificateAuthority().enroll("client")
    ledger = Ledger(make_genesis_block({"peers": ["p0"]}))
    reference = WorldState()
    assert ledger.state_hash() == reference.state_hash()
    for number, entries in enumerate(_blocks(), start=1):
        txs = [_tx(identity, tx_id) for tx_id, _ in entries]
        executions = [execution for _, execution in entries]
        block = make_block(number, ledger.last_hash, txs, timestamp=float(number))
        codes = ledger.append(block, executions)
        for idx, (code, execution) in enumerate(zip(codes, executions)):
            if code == VALID:
                for key, value in execution.rwset.writes:
                    reference.put(key, value, Version(number, idx))
        assert ledger.state_hash() == reference.state_hash()
        assert ledger.state.snapshot() == reference.snapshot()

    assert ledger.validation_codes(2) == [MVCC, VALID, MVCC, REJECTED]
    assert ledger.validation_codes(3) == [VALID, VALID, MVCC]
    status = _reference_status(ledger)
    assert status["dup"] == (VALID, 3)
    assert status["twin"] == (MVCC, 3)
    for tx_id, expected in status.items():
        assert ledger.tx_status(tx_id) == expected
    assert ledger.tx_status("never-sent") == (TxValidationCode.PENDING, None)
    assert ledger.committed_tx_ids() == ["a", "dup", "b", "c", "d", "e", "twin"]


def test_one_rwset_yields_one_entry_per_version():
    rwset = RWSet(writes=[("k", 1)])
    first = rwset.entries(Version(1, 0))
    assert rwset.entries(Version(1, 0)) is first
    other = rwset.entries(Version(2, 0))
    assert other[0][1].version == Version(2, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first[0][1].value = 2


# ----------------------------------------------------------------------
# (ii) sharing and (iii) executions dropped, on a live 4-peer session


def _demo(n_events):
    demo = generate_session("#9", 120_000.0, seed=SESSION9_SEED)
    return dataclasses.replace(demo, events=demo.events[:n_events])


def _session(n_peers=4):
    return GameSession(
        n_peers=n_peers,
        fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
        seed=7,
    )


def _play(session, demo):
    session.setup()
    session.play_demo(demo)
    session.run_until_idle()


def test_honest_peers_share_entries_and_drop_executions():
    clear_execution_cache()
    session = _session()
    patched = session.chain.peers[-1]
    patched._execute_one = type(patched)._baseline_execute_one.__get__(patched)
    _play(session, _demo(200))
    honest = session.chain.peers[:-1]
    assert session.ledgers_agree()

    state = honest[0].ledger.state
    assert len(state) > 0
    for key in state.keys():
        entry = state.get_versioned(key)
        assert all(p.ledger.state.get_versioned(key) is entry for p in honest[1:])
        own = patched.ledger.state.get_versioned(key)
        assert own is not entry and own == entry

    for peer in session.chain.peers:
        assert peer.committed_height == honest[0].committed_height > 1
        assert all(n > peer.committed_height for n in peer._executions)


# ----------------------------------------------------------------------
# retained-memory guard


#: Bytes retained per committed transaction per peer, 4 peers, between
#: the 150- and 450-event prefixes below: ≈ 1,580 when every peer built
#: its own entries, kept every block's executions and a (code, block)
#: tuple per tx id; ≈ 895 with shared entries (CPython 3.11; 3.9 reads
#: 1,510 → 598 and 3.13 reads 1,562 → 865).
RETAINED_BYTES_PER_TX_BOUND = 1_250


def _retained(demo, n_peers):
    reset_crypto_caches()
    clear_execution_cache()
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    session = _session(n_peers)
    _play(session, demo)
    clear_execution_cache()
    gc.collect()
    size = tracemalloc.get_traced_memory()[0] - base
    txs = sum(len(b.transactions) for b in session.chain.peers[0].ledger.blocks())
    return size, txs


def test_retained_bytes_per_committed_tx_per_peer():
    n_peers = 4
    short, long = _demo(150), _demo(450)
    tracemalloc.start()
    try:
        size_a, txs_a = _retained(short, n_peers)
        size_b, txs_b = _retained(long, n_peers)
    finally:
        tracemalloc.stop()
    assert txs_b > txs_a
    per_tx = (size_b - size_a) / ((txs_b - txs_a) * n_peers)
    assert per_tx < RETAINED_BYTES_PER_TX_BOUND, per_tx


# ----------------------------------------------------------------------
# what one process keeps per committed block, across its peers


def _counter_chain(n_blocks, n_peers=8):
    """A counter chain driven in a closed loop: one update per block,
    the next submitted when the previous one is acked."""
    chain = BlockchainNetwork(n_peers=n_peers, profile=LAN_1GBPS, seed=0)
    chain.install_contract(CounterContract)
    client = chain.create_client("c0")
    left = [n_blocks]

    def submit(function, args):
        left[0] -= 1
        client.invoke(
            "counter", function, args, touched_keys=("ctr/main",), on_complete=after,
        )

    def after(result, latency):
        assert result.code == VALID
        if left[0] > 0:
            submit("add", ("main", 1))

    submit("init", ("main",))
    chain.run_until_idle()
    assert all(p.synced_height == n_blocks for p in chain.peers)
    return chain


def test_spent_cache_entries_leave_and_own_values_are_shared():
    clear_execution_cache()
    chain = _counter_chain(20)
    peers = chain.peers
    digests = {b.digest() for b in peers[0].ledger.blocks()}
    assert not [key for key in execution._EXEC_CACHE if key[0] in digests]
    for number in range(1, 21):
        for stage in ("_vote_stage", "_sync_stage"):
            own = {id(getattr(p, stage).own[number]) for p in peers}
            assert len(own) == 1, (stage, number)


def test_elector_re_executing_after_restart_matches_the_others():
    """peer3 executes block 2, crashes before committing it, and
    re-executes it after restart, when the other electors have spent
    the block's cache entry."""
    clear_execution_cache()
    chain = BlockchainNetwork(n_peers=4, profile=LAN_1GBPS, seed=0)
    chain.install_contract(CounterContract)
    client = chain.create_client("c0")
    executed = {}
    for peer in chain.peers:
        def record(peer, block, execute=peer.executor.execute_block):
            executions = execute(peer, block)
            executed.setdefault(block.number, []).append(
                (peer.name, [(e.code, e.rwset) for e in executions])
            )
            return executions
        peer.executor.execute_block = record

    def submit(function, args):
        client.invoke("counter", function, args, touched_keys=("ctr/main",))

    submit("init", ("main",))
    chain.run_until_idle()
    submit("add", ("main", 5))
    crashed = chain.peers[3]
    while crashed._executed_height < 2 or len(executed[2]) < 4:
        assert chain.scheduler.step()
    assert crashed.committed_height == 1
    crashed.crash()
    chain.run_until_idle()
    crashed.restart()
    submit("add", ("main", 1))
    chain.run_until_idle()

    runs = executed[2]
    assert [name for name, _ in runs].count(crashed.name) == 2
    assert all(results == runs[0][1] for _, results in runs)
    assert len({p.ledger.state_hash() for p in chain.peers}) == 1
    assert crashed.ledger.state.get("ctr/main") == 6 and not crashed.diverged


#: Bytes one process retains per committed block across its 8 peers,
#: between the 150- and 600-block prefixes below: ≈ 5,820 when every
#: execution-cache entry stayed until the cache filled and every peer
#: kept its own copy of each block's root and ballot; ≈ 3,060 with
#: spent entries dropped and equal own values shared (CPython 3.11;
#: 3.9 reads 6,190 → 3,340, 3.12 5,580 → 2,950, 3.13 5,710 → 2,970).
RETAINED_BYTES_PER_BLOCK_BOUND = 4_500


def _retained_per_process(n_blocks):
    reset_crypto_caches()
    clear_execution_cache()
    gc.collect()
    base = tracemalloc.get_traced_memory()[0]
    chain = _counter_chain(n_blocks)
    gc.collect()
    size = tracemalloc.get_traced_memory()[0] - base
    del chain
    return size


def test_retained_bytes_per_committed_block_per_process():
    tracemalloc.start()
    try:
        short = _retained_per_process(150)
        long = _retained_per_process(600)
    finally:
        tracemalloc.stop()
        clear_execution_cache()
    per_block = (long - short) / (600 - 150)
    assert per_block < RETAINED_BYTES_PER_BLOCK_BOUND, per_block
