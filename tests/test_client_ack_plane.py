"""The client's ack plane (DESIGN.md §5, decision 8).

``BlockchainClient`` holds state for *open* transactions only: an entry
leaves ``_pending`` the moment its final status arrives, so a poll tick
costs O(open) however long the session has run, and a late reply for an
id the client no longer knows is dropped.

The differential test runs one session-#9 prefix against a *reference
client* defined here, which keeps every transaction it ever submitted
and walks all of them on every tick — what the client did before.  It is
installed the way ``test_attestation_inbox_diff`` installs its reference
peer (instance patches on live shims, no product switch), and everything
an observer can see must be identical.
"""

from __future__ import annotations

from typing import List

from repro.blockchain import BlockchainNetwork, FabricConfig, TxValidationCode
from repro.blockchain.messages import QueryTxStatus, TxStatusReply
from repro.blockchain.transaction import TxResult
from repro.core import GameSession
from repro.perf.workloads import _session9_prefix
from repro.simnet import LAN_1GBPS, TakedownAttack

from conftest import CounterContract

VALID = TxValidationCode.VALID


def make_chain():
    chain = BlockchainNetwork(n_peers=3, profile=LAN_1GBPS)
    chain.install_contract(CounterContract)
    return chain, chain.create_client("c0")


def invoke(client, acks, function, args):
    return client.invoke(
        "counter", function, args, touched_keys=("ctr/main",),
        on_complete=lambda result, _lat: acks.append(result),
    )


def record_sends(client) -> list:
    """Everything ``client`` puts on the wire from now on."""
    sent = []
    send = client.send

    def recording_send(dst, payload, size_bytes):
        sent.append(payload)
        return send(dst, payload, size_bytes=size_bytes)

    client.send = recording_send
    return sent


def test_a_long_session_leaves_one_open_transaction_to_poll():
    chain, client = make_chain()
    acks: List[TxResult] = []
    invoke(client, acks, "init", ("main",))
    chain.run_until_idle()
    for _ in range(299):
        invoke(client, acks, "add", ("main", 1))
        chain.run_until_idle()
    assert [r.code for r in acks] == [VALID] * 300
    # A finished session retains no Transaction in the client.
    assert not client._pending and client._poll_timer is None

    sent = record_sends(client)
    open_id = invoke(client, acks, "add", ("main", 1))
    assert list(client._pending) == [open_id] and client.pending_count() == 1
    chain.run(until=chain.now + client.poll_interval_ms + 1e-6)
    assert [p for p in sent if isinstance(p, QueryTxStatus)] == [QueryTxStatus(open_id)]
    chain.run_until_idle()
    assert len(acks) == 301 and not client._pending
    assert client.completed_count == client.submitted_count == 301


def test_duplicate_and_late_replies_for_a_retired_transaction_are_dropped():
    chain, client = make_chain()
    acks: List[TxResult] = []
    tx_id = invoke(client, acks, "init", ("main",))
    chain.run_until_idle()
    (result,) = acks
    assert result == TxResult(tx_id=tx_id, code=VALID, block=1)
    anchor = client.anchor_peer
    client.handle_message(anchor, TxStatusReply(tx_id, VALID, 1))
    client.handle_message(anchor, TxStatusReply(tx_id, TxValidationCode.TIMEOUT, None))
    client.handle_message(anchor, TxStatusReply("c0:tx999", VALID, 7))
    assert acks == [result]
    assert client.completed_count == 1 and client.pending_count() == 0
    assert client._poll_timer is None, "a dropped reply must not restart polling"


def test_a_pending_reply_leaves_the_entry_open():
    chain, client = make_chain()
    TakedownAttack([chain.orderer.name]).apply(chain.net)
    acks = []
    submitted_at = chain.now
    tx_id = client.invoke(
        "counter", "init", ("main",), touched_keys=("ctr/main",),
        on_complete=lambda result, latency: acks.append((result.code, latency)),
    )
    # The anchor has never seen the transaction: it answers PENDING.
    chain.run(until=chain.now + 10 * client.poll_interval_ms)
    anchor = client.anchor_peer
    client.handle_message(anchor, TxStatusReply(tx_id, TxValidationCode.PENDING, None))
    assert acks == [] and client.completed_count == 0
    assert list(client._pending) == [tx_id] and client.pending_count() == 1
    assert client._poll_timer is not None and client._poll_timer.active
    # The final status still completes it, once, with the full latency.
    client.handle_message(anchor, TxStatusReply(tx_id, VALID, 1))
    assert acks == [(VALID, chain.now - submitted_at)]
    assert acks[0][1] >= 10 * client.poll_interval_ms
    assert client.pending_count() == 0


# ----------------------------------------------------------------------
# differential: the keep-everything reference client


def keep_every_transaction(client) -> None:
    """Turn ``client`` into the reference: completed entries stay in
    ``_pending`` (flagged here) and every poll tick walks all of them."""
    completed = set()

    def on_status(reply: TxStatusReply) -> None:
        pending = client._pending.get(reply.tx_id)
        if pending is None or reply.tx_id in completed:
            return
        if reply.code == TxValidationCode.PENDING:
            return
        completed.add(reply.tx_id)
        client.completed_count += 1
        if pending.callback is not None:
            pending.callback(
                TxResult(tx_id=reply.tx_id, code=reply.code, block=reply.block),
                client.network.scheduler.now - pending.submitted_at,
            )

    def poll() -> None:
        client._poll_timer = None
        now = client.network.scheduler.now
        open_ids = []
        for tx_id, pending in client._pending.items():
            if tx_id in completed:
                continue
            if now - pending.submitted_at > client.poll_timeout_ms:
                on_status(TxStatusReply(tx_id, TxValidationCode.TIMEOUT, None))
                continue
            open_ids.append(tx_id)
        for tx_id in open_ids:
            client.send(
                client.anchor_peer, QueryTxStatus(tx_id),
                size_bytes=client.config.query_msg_bytes,
            )
        if open_ids:
            client._ensure_polling()

    client._on_status = on_status
    client._poll = poll


def replay_session9_prefix(n_events: int, reference: bool):
    demo = _session9_prefix(n_events)
    session = GameSession(
        n_peers=4,
        fabric_config=FabricConfig(max_block_txs=5, mutually_exclusive_blocks=True),
        game_map=demo.game_map,
        seed=7,
    )
    if reference:
        for shim in session.shims:
            keep_every_transaction(shim)
    session.setup()
    session.play_demo(demo)
    session.run_until_idle()
    peers = session.chain.peers
    observed = {
        "latencies_ms": list(session.stats().latencies_ms),
        "accepted": session.stats().accepted_events,
        "rejections": dict(session.stats().rejections_by_code),
        "heights": [(p.committed_height, p.synced_height) for p in peers],
        "state_hashes": [p.ledger.state_hash() for p in peers],
        "scheduler_events": session.scheduler.events_processed,
        "sim_now_ms": session.now,
        "net": session.chain.net.stats.as_dict(),
    }
    return session, observed


def test_session9_prefix_matches_the_keep_everything_reference():
    product, got = replay_session9_prefix(1500, reference=False)
    reference, want = replay_session9_prefix(1500, reference=True)
    for key in want:
        assert got[key] == want[key], f"{key} differs from the reference client"
    assert len(got["latencies_ms"]) == 1500
    # The reference really kept everything; the product kept nothing.
    kept = reference.shims[0]
    assert len(kept._pending) == kept.submitted_count == kept.completed_count > 300
    shim = product.shims[0]
    assert shim.submitted_count == kept.submitted_count
    assert not shim._pending and shim.pending_count() == 0
