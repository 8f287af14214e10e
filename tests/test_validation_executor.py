"""Block validation: the one loop and the content-keyed result cache.

Unit tests pin the executor mechanics on hand-crafted blocks — in-block
conflict votes, signature attribution, and the cross-peer
cache's hit / miss / bypass behaviour, including block *copies* (a
decoded frame hits; a tampered transaction list, signature or
certificate misses).  The
differential tests then prove whole-simulation bit-identity: a run that
shares results through the cache equals a reference run in which every
peer is instance-patched with its own baseline ``_execute_one`` (the
seam chaos buggy fixtures use), so every block is executed by every
peer and ``cache_bypasses`` counts them all.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blockchain import (
    BlockchainNetwork,
    FabricConfig,
    LedgerError,
    TxValidationCode,
    clear_execution_cache,
    execution_stats,
    reset_execution_stats,
)
from repro.blockchain import codec
from repro.blockchain.block import Block, make_block
from repro.blockchain.execution import ValidationExecutor
from repro.chaos import runner as chaos_runner
from repro.chaos.buggy import install_mvcc_bypass
from repro.chaos.workload import ChaosCounterContract
from repro.core import GameSession
from repro.perf.workloads import _session9_prefix
from repro.telemetry import Telemetry


def _pin_reference(peer) -> None:
    """Instance-patch ``peer`` with its own baseline ``_execute_one``:
    same results, but the cache stands aside in both directions."""
    peer._execute_one = type(peer)._baseline_execute_one.__get__(peer)


@pytest.fixture()
def chain():
    clear_execution_cache()
    net = BlockchainNetwork(n_peers=2, seed=11)
    net.install_contract(ChaosCounterContract)
    client = net.create_client("unit")
    for counter in "ab":
        client.invoke(
            "chaoscounter", "init", (counter,),
            touched_keys=(ChaosCounterContract.key(counter),),
        )
        net.run_until_idle()
    # Counters below must reflect only what each test itself executes,
    # not the setup commits above.
    reset_execution_stats()
    clear_execution_cache()
    return net, client


def _build_txs(client, specs):
    key = ChaosCounterContract.key
    return [
        client.build_transaction(
            "chaoscounter", fn, args, touched_keys=(key(args[0]),)
        )
        for fn, args in specs
    ]


def _craft_block(net, client, specs) -> Block:
    """A well-formed next block over the current committed state."""
    ledger = net.peers[0].ledger
    return make_block(
        number=ledger.height,
        previous_hash=ledger.last_hash,
        transactions=_build_txs(client, specs),
        timestamp=net.now,
    )


def _codes_and_writes(executions):
    return [(e.code, sorted(e.rwset.writes)) for e in executions]


INDEPENDENT = [("add", ("a", 1)), ("add", ("b", 2))]
CONFLICTING = [("add", ("a", 1)), ("add", ("a", 2))]


# ----------------------------------------------------------------------
# the loop


class TestLoop:
    def test_in_block_conflict_is_voted_down(self, chain):
        net, client = chain
        block = _craft_block(net, client, CONFLICTING)
        executions = ValidationExecutor().execute_block(net.peers[0], block)
        assert [e.code for e in executions] == [
            TxValidationCode.VALID,
            TxValidationCode.MVCC_READ_CONFLICT,
        ]

    def test_bad_signature_attributed_to_its_transaction(self, chain):
        net, client = chain
        block = _craft_block(net, client, INDEPENDENT)
        block.transactions[1].signature ^= 1
        executions = ValidationExecutor().execute_block(net.peers[0], block)
        assert [e.code for e in executions] == [
            TxValidationCode.VALID,
            TxValidationCode.BAD_SIGNATURE,
        ]
        assert executions[1].rwset.writes == []

    def test_buggy_fixture_runs_through_the_same_loop(self, chain):
        """A patched peer takes the one loop, signature checks included,
        and its patch still sees every executed transaction."""
        net, client = chain
        peer = net.peers[1]
        install_mvcc_bypass(peer)
        block = _craft_block(net, client, CONFLICTING + [("add", ("b", 2))])
        block.transactions[2].signature ^= 1
        executions = ValidationExecutor().execute_block(peer, block)
        valid = TxValidationCode.VALID
        assert [e.code for e in executions] == [
            valid, valid, TxValidationCode.BAD_SIGNATURE,
        ]
        assert execution_stats()["cache_bypasses"] == 1


# ----------------------------------------------------------------------
# cross-peer execution cache


class TestExecutionCache:
    def test_second_peer_hits_cache(self, chain):
        net, client = chain
        block = _craft_block(net, client, INDEPENDENT)
        executor = ValidationExecutor()
        first = executor.execute_block(net.peers[0], block)
        stats = execution_stats()
        assert stats["cache_misses"] == 1 and stats["cache_hits"] == 0
        second = executor.execute_block(net.peers[1], block)
        stats = execution_stats()
        assert stats["cache_hits"] == 1
        assert _codes_and_writes(second) == _codes_and_writes(first)
        # Fresh per-peer wrappers over shared immutable RWSets: codes may
        # be downgraded per peer later, so the TxExecution objects must
        # not be shared.
        for a, b in zip(first, second):
            assert a is not b
            assert a.rwset is b.rwset

    def test_decoded_copy_hits_cache(self, chain):
        """A peer on real sockets holds its own decoded copy of the
        block: another object, the same content, the same key."""
        net, client = chain
        block = _craft_block(net, client, INDEPENDENT)
        copy = codec.decode(codec.encode(block))
        assert copy is not block
        executor = ValidationExecutor()
        first = executor.execute_block(net.peers[0], block)
        second = executor.execute_block(net.peers[1], copy)
        assert execution_stats()["cache_hits"] == 1
        assert _codes_and_writes(second) == _codes_and_writes(first)

    def test_tampered_copy_misses_and_is_refused_by_the_ledger(self, chain):
        """An honest header over another transaction list is another
        key: the peer executes the transactions it was actually given,
        and the ledger's data-hash check still refuses the block."""
        net, client = chain
        honest = _craft_block(net, client, INDEPENDENT)
        executor = ValidationExecutor()
        executor.execute_block(net.peers[0], honest)
        forged = Block(
            header=honest.header,
            transactions=_build_txs(client, [("add", ("a", 40)), ("add", ("b", 2))]),
        )
        assert forged.digest() == honest.digest()
        executions = executor.execute_block(net.peers[1], forged)
        stats = execution_stats()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 2
        key_a = ChaosCounterContract.key("a")
        assert dict(executions[0].rwset.writes)[key_a] == 40
        with pytest.raises(LedgerError, match="data hash"):
            net.peers[1].ledger.append(forged, executions)

    @pytest.mark.parametrize(
        "checked_first", [False, True], ids=["fresh", "tampered-after-a-check"]
    )
    @pytest.mark.parametrize("forged_first", [False, True])
    @pytest.mark.parametrize(
        "tamper, code",
        [
            ("signature", TxValidationCode.BAD_SIGNATURE),
            ("certificate", TxValidationCode.BAD_CERTIFICATE),
        ],
    )
    def test_forged_credentials_never_share_a_verdict(
        self, chain, tamper, code, forged_first, checked_first
    ):
        """No digest covers a transaction's signature or its certificate
        body, so a decoded copy with one of them altered keeps both block
        digests.  It must still miss: in one order it would otherwise be
        waved through unchecked, in the other its rejection would be
        handed to every honest peer.  A transaction whose credentials
        were checked once and then changed in place is checked afresh:
        no verdict is remembered on the object."""
        net, client = chain
        honest = _craft_block(net, client, INDEPENDENT)
        forged = codec.decode(codec.encode(honest))
        tx = forged.transactions[1]
        if checked_first:
            assert net.peers[0].msp.validate(tx.certificate)
            assert tx.verify_signature()
        if tamper == "signature":
            tx.signature ^= 1
        else:
            cert = tx.certificate
            tx.certificate = replace(cert, signature=cert.signature ^ 1)
        assert forged.digest() == honest.digest()
        assert forged.data_digest(fresh=True) == honest.data_digest()
        executor = ValidationExecutor()
        order = [forged, honest] if forged_first else [honest, forged]
        results = {
            id(block): executor.execute_block(peer, block)
            for peer, block in zip(net.peers, order)
        }
        stats = execution_stats()
        assert stats["cache_hits"] == 0 and stats["cache_misses"] == 2
        valid = TxValidationCode.VALID
        assert [e.code for e in results[id(honest)]] == [valid, valid]
        assert [e.code for e in results[id(forged)]] == [valid, code]
        assert results[id(forged)][1].rwset.writes == []
        assert tx.verify_signature() is (tamper != "signature")
        # An honest copy still shares with the honest block.
        executor.execute_block(net.peers[1], codec.decode(codec.encode(honest)))
        assert execution_stats()["cache_hits"] == 1

    def test_patched_peer_bypasses_cache(self, chain):
        net, client = chain
        block = _craft_block(net, client, INDEPENDENT)
        executor = ValidationExecutor()
        baseline = executor.execute_block(net.peers[0], block)
        peer = net.peers[1]
        # Chaos "buggy peer" fixtures instance-patch _execute_one; the
        # cache must stand aside in both directions for such peers.
        _pin_reference(peer)
        patched = executor.execute_block(peer, block)
        stats = execution_stats()
        assert stats["cache_bypasses"] == 1
        assert stats["cache_hits"] == 0
        assert _codes_and_writes(patched) == _codes_and_writes(baseline)


# ----------------------------------------------------------------------
# fingerprints for the differential runs


def _ledger_fingerprint(chain) -> list:
    """Per-peer ledger digest: chain head, state hash, per-block tx codes.

    Codes are read back from each peer's own tx index (``tx_status``)
    rather than ``block.validation_codes`` — block objects are shared
    between in-process peers, so the attribute only reflects the last
    appender.
    """
    out = []
    for peer in chain.peers:
        ledger = peer.ledger
        codes = [
            [ledger.tx_status(tx.tx_id)[0] for tx in ledger.block(n).transactions]
            for n in range(1, ledger.height)  # skip genesis
        ]
        out.append(
            {
                "peer": peer.name,
                "height": ledger.height,
                "head": ledger.last_hash,
                "state": ledger.state_hash(),
                "codes": codes,
            }
        )
    return out


def _assert_same(reference: dict, cached: dict) -> None:
    # Key-by-key first for a readable failure, then the full dict.
    for key in reference:
        assert cached[key] == reference[key], f"field {key!r} diverged"
    assert cached == reference


# ----------------------------------------------------------------------
# crash / restart mid-run


def _crash_restart_run(reference: bool):
    clear_execution_cache()
    reset_execution_stats()
    net = BlockchainNetwork(n_peers=4, seed=3)
    net.install_contract(ChaosCounterContract)
    if reference:
        for peer in net.peers:
            _pin_reference(peer)
    client = net.create_client("unit")

    def invoke(function, args):
        client.invoke(
            "chaoscounter", function, args,
            touched_keys=(ChaosCounterContract.key(args[0]),),
        )
        net.run_until_idle()

    invoke("init", ("a",))
    net.peers[3].crash()
    invoke("add", ("a", 5))
    invoke("add", ("a", 2))
    net.peers[3].restart()
    # The next delivery triggers gap detection at the restarted peer,
    # which backfills and re-executes the blocks it slept through.
    invoke("add", ("a", 1))
    assert {p.committed_height for p in net.peers} == {4}
    return _ledger_fingerprint(net), execution_stats()


def test_restarted_peer_re_executes_through_the_cache() -> None:
    reference, ref_stats = _crash_restart_run(reference=True)
    cached, stats = _crash_restart_run(reference=False)
    assert cached == reference
    # Four blocks, each executed for real once; everything else — the
    # restarted peer's catch-up included — reused those results.
    assert stats["cache_misses"] == 4 and stats["cache_bypasses"] == 0
    assert stats["cache_hits"] == ref_stats["cache_bypasses"] - 4
    assert ref_stats["cache_hits"] == ref_stats["cache_misses"] == 0


# ----------------------------------------------------------------------
# seeded replays, 4/16/32 peers, with the full telemetry span list


def _replay_fingerprint(n_peers: int, n_events: int, reference: bool):
    clear_execution_cache()
    reset_execution_stats()
    session = GameSession(
        n_peers=n_peers,
        fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
        seed=7,
    )
    if reference:
        for peer in session.chain.peers:
            _pin_reference(peer)
    telemetry = Telemetry()
    telemetry.instrument_session(session)
    session.setup()
    session.play_demo(_session9_prefix(n_events))
    session.run_until_idle()
    stats = session.stats()
    fingerprint = {
        "accepted": stats.accepted_events,
        "rejected": stats.rejected_events,
        "latencies": [round(x, 6) for x in stats.latencies_ms],
        "sim_now": round(session.now, 6),
        "scheduler_events": session.scheduler.events_processed,
        "ledgers_agree": session.ledgers_agree(),
        "ledgers": _ledger_fingerprint(session.chain),
        "spans": [
            (s.trace_id, s.stage, s.host, round(s.t_start, 6), round(s.t_end, 6))
            for s in telemetry.tracer.spans
        ],
    }
    return fingerprint, execution_stats()


@pytest.mark.parametrize(
    "n_peers,n_events",
    [(4, 300), (16, 200), (32, 150)],
    ids=["4p", "16p", "32p"],
)
def test_replay_bit_identical(n_peers: int, n_events: int) -> None:
    reference, ref_stats = _replay_fingerprint(n_peers, n_events, reference=True)
    cached, stats = _replay_fingerprint(n_peers, n_events, reference=False)
    _assert_same(reference, cached)
    assert reference["accepted"] + reference["rejected"] > 0  # the replay did work
    # The reference executed every block at every peer, the cached run
    # once per block.
    executed = ref_stats["cache_bypasses"]
    assert executed > 0 and ref_stats["cache_hits"] == 0
    assert stats["cache_bypasses"] == 0
    assert stats["cache_hits"] + stats["cache_misses"] == executed
    assert stats["cache_misses"] * n_peers == executed


# ----------------------------------------------------------------------
# chaos-fault schedule


def _chaos_record(buggy) -> dict:
    clear_execution_cache()
    res = chaos_runner.run_scenario("churn-partition-ddos", seed=7, buggy=buggy)
    return {
        "timeline": res.timeline,
        "faults_applied": res.faults_applied,
        "violations": [[v.at_ms, v.invariant, v.peer] for v in res.violations],
        "workload_summary": res.workload_summary,
        "probe_codes": res.probe_codes,
        "submitted": res.submitted,
        "committed_height": res.committed_height,
        "network_stats": res.network_stats,
    }


def test_chaos_schedule_bit_identical(monkeypatch) -> None:
    monkeypatch.setitem(
        chaos_runner.BUGGY_FIXTURES,
        "reference",
        lambda chain: [_pin_reference(peer) for peer in chain.peers],
    )
    reset_execution_stats()
    reference = _chaos_record(buggy="reference")
    assert execution_stats()["cache_hits"] == 0
    reset_execution_stats()
    cached = _chaos_record(buggy=None)
    assert execution_stats()["cache_hits"] > 0
    _assert_same(reference, cached)
    assert reference["violations"] == []
