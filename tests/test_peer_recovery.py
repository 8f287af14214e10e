"""Crash-recovery unit tests: peers restarting mid-block must resync
from their durable ledger and reject stale gossip (PR satellite)."""

from repro.blockchain import BlockchainNetwork, TxValidationCode
from repro.simnet import LAN_1GBPS

from conftest import CounterContract


def make_chain(n_peers=4, seed=0):
    chain = BlockchainNetwork(n_peers=n_peers, profile=LAN_1GBPS, seed=seed)
    chain.install_contract(CounterContract)
    return chain


def submit_and_wait(chain, client, function, args):
    results = []
    client.invoke(
        "counter", function, args, touched_keys=("ctr/main",),
        on_complete=lambda res, lat: results.append(res),
    )
    chain.run_until_idle()
    assert results, "transaction never completed"
    return results[0]


class TestCrashRecovery:
    def test_crashed_peer_misses_blocks_majority_continues(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        chain.peers[3].crash()
        res = submit_and_wait(chain, client, "add", ("main", 5))
        assert res.code == TxValidationCode.VALID  # 3-of-4 still a majority
        assert chain.peers[3].committed_height == 1
        assert chain.peers[0].committed_height == 2

    def test_restart_resyncs_ledger_to_network_height(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        chain.peers[3].crash()
        submit_and_wait(chain, client, "add", ("main", 5))
        submit_and_wait(chain, client, "add", ("main", 2))
        chain.peers[3].restart()
        # The next committed block triggers gap detection at the restarted
        # peer, which backfills the range it slept through.
        submit_and_wait(chain, client, "add", ("main", 1))
        revived = chain.peers[3]
        assert revived.committed_height == chain.peers[0].committed_height == 4
        assert revived.synced_height == 4
        assert revived.ledger.state.get("ctr/main") == 8
        assert revived.ledger.validate_chain()
        assert len({p.ledger.state_hash() for p in chain.peers}) == 1
        assert not revived.diverged

    def test_crash_mid_block_loses_volatile_state_keeps_ledger(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        target = chain.peers[2]
        client.invoke(
            "counter", "add", ("main", 5), touched_keys=("ctr/main",),
        )
        # Let the block reach the execute stage, then pull the plug.
        chain.run(until=chain.now + 1.0)
        target.crash()
        assert target._pending_blocks == {}
        assert target._vote_stage.by_sender == {}
        assert target.ledger.height == 2  # genesis + init survived on disk
        chain.run_until_idle()
        assert target.committed_height == 1  # nothing applied while down
        target.restart()
        submit_and_wait(chain, client, "add", ("main", 1))
        assert target.committed_height == chain.peers[0].committed_height
        assert target.ledger.state.get("ctr/main") == 6

    def test_callbacks_scheduled_before_crash_are_orphaned(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        target = chain.peers[1]
        fired = []
        target._compute(5.0, lambda: fired.append(True))
        target.crash()
        chain.run_until_idle()
        assert fired == []  # the work died with the process

    def test_restart_recomputes_heights_from_durable_ledger(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        submit_and_wait(chain, client, "add", ("main", 3))
        target = chain.peers[0]
        target.crash()
        target.restart()
        assert target.committed_height == 2
        assert target.synced_height == 2
        assert target._executed_height == 2

    def test_repeated_churn_converges(self):
        chain = make_chain(n_peers=5)
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        for round_no in range(3):
            victim = chain.peers[round_no % 5]
            victim.crash()
            submit_and_wait(chain, client, "add", ("main", 1))
            victim.restart()
            submit_and_wait(chain, client, "add", ("main", 1))
        assert chain.peers[0].ledger.state.get("ctr/main") == 6
        assert len({p.ledger.state_hash() for p in chain.peers}) == 1
        assert all(p.synced_height == p.committed_height for p in chain.peers)


class TestRetainedAttestations:
    """What each attestation stage keeps per block: counts only while the
    block is open, and the peer's own attestation for retry answers."""

    def test_idle_chain_keeps_only_own_attestations(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        for delta in (1, 2, 3):
            submit_and_wait(chain, client, "add", ("main", delta))
        for peer in chain.peers:
            height = peer.synced_height
            assert height == peer.committed_height == 4
            for stage in peer._stages:
                assert not (stage.by_sender or stage.counts or stage.seen)
                assert not stage.decided
                assert sorted(stage.own) == list(range(1, height + 1))

    def test_crash_keeps_nothing_above_the_durable_height(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        start = chain.now
        # Timed so that block 2's sync hashes and block 3's votes are in
        # flight together at the crash.
        client.invoke("counter", "add", ("main", 5), touched_keys=("ctr/main",))
        chain.run(until=start + 8.5)
        client.invoke("counter", "add", ("main", 1), touched_keys=("ctr/main",))
        chain.run(until=start + 12.25)
        target = chain.peers[2]
        votes, hashes = target._vote_stage, target._sync_stage
        assert 3 in votes.by_sender and 3 in votes.own
        assert 2 in hashes.by_sender and target._inbox
        target.crash()
        durable = target.ledger.height - 1
        assert durable == 2
        assert not target._inbox
        for stage in target._stages:
            assert not (stage.by_sender or stage.counts or stage.seen)
            assert not stage.decided
            assert all(n <= durable for n in stage.own)


class TestStaleGossip:
    def test_duplicate_block_delivery_is_ignored(self):
        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        submit_and_wait(chain, client, "add", ("main", 5))
        peer = chain.peers[0]
        old_block = peer.ledger.block(1)
        peer._on_block(old_block)
        chain.run_until_idle()
        assert peer.committed_height == 2
        assert peer.ledger.state.get("ctr/main") == 5

    def test_stale_vote_answered_not_recorded(self):
        """A vote for an already-committed block must not reopen it; the
        receiver instead answers with its own recorded vote so the
        lagging sender can re-form the quorum it lost."""
        from repro.blockchain.messages import VoteMsg

        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        receiver, sender = chain.peers[0], chain.peers[1]
        committed = receiver.committed_height
        receiver.handle_message(
            sender, VoteMsg(block_number=1, voter=sender.name, votes=(True,))
        )
        chain.run_until_idle()
        assert receiver.committed_height == committed
        assert 1 not in receiver._vote_stage.by_sender

    def test_vote_reply_is_never_answered(self):
        """Reply ping-pong would flood the network forever; is_reply
        breaks the cycle."""
        from repro.blockchain.messages import VoteMsg

        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        a, b = chain.peers[0], chain.peers[1]
        sent_before = chain.net.stats.messages_sent
        a.handle_message(
            b, VoteMsg(block_number=1, voter=b.name, votes=(True,), is_reply=True)
        )
        chain.run_until_idle()
        assert chain.net.stats.messages_sent == sent_before

    def test_only_a_retry_solicits_a_reply(self):
        """Solicited-reply rule, both planes: a first broadcast that is
        merely late gets no answer, an anti-entropy retry gets exactly
        one (marked ``is_reply``), and a reply gets none."""
        from repro.blockchain.messages import SyncHashMsg, VoteMsg

        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        a, b = chain.peers[0], chain.peers[1]
        state_hash = a._sync_stage.own[1]
        replies = []
        chain.net.fault_injector = lambda msg, at: (
            replies.append(msg) or [at]
        )

        def attest(**flags):
            return (
                VoteMsg(block_number=1, voter=b.name, votes=(True,), **flags),
                SyncHashMsg(
                    block_number=1, sender=b.name, state_hash=state_hash, **flags
                ),
            )

        for flags, n_expected in (
            ({}, 0),                                     # late first broadcast
            ({"is_retry": True}, 1),                     # re-broadcast
            ({"is_reply": True}, 0),                     # an answer
            ({"is_retry": True, "is_reply": True}, 0),   # malformed: reply wins
        ):
            for msg in attest(**flags):
                del replies[:]
                a.handle_message(b, msg)
                chain.run_until_idle()
                assert len(replies) == n_expected, (msg, replies)
                if n_expected:
                    (reply,) = replies
                    assert (reply.src, reply.dst) == (a.name, b.name)
                    assert type(reply.payload) is type(msg)
                    assert reply.payload.is_reply and not reply.payload.is_retry
                    assert reply.payload.block_number == 1

    def test_anti_entropy_marks_its_rebroadcasts(self):
        """What ``_anti_entropy`` re-sends carries ``is_retry``; the
        first broadcast of the same attestation does not."""
        from repro.blockchain.messages import SyncHashMsg, VoteMsg

        chain = make_chain()
        client = chain.create_client("c0")
        submit_and_wait(chain, client, "init", ("main",))
        starved = chain.peers[3]
        sent = []

        def starve(msg, at):
            kind = type(msg.payload)
            if kind is VoteMsg or kind is SyncHashMsg:
                sent.append(msg)
                if msg.dst == starved.name and not (
                    msg.payload.is_retry or msg.payload.is_reply
                ):
                    return []  # every first-broadcast copy to it is lost
            return [at]

        chain.net.fault_injector = starve
        res = submit_and_wait(chain, client, "add", ("main", 5))
        assert res.code == TxValidationCode.VALID
        assert starved.synced_height == chain.peers[0].synced_height == 2

        retries = [m for m in sent if m.payload.is_retry]
        assert retries and {m.src for m in retries} == {starved.name}
        assert {type(m.payload) for m in retries} == {VoteMsg, SyncHashMsg}
        replies = [m for m in sent if m.payload.is_reply]
        assert replies and {m.dst for m in replies} == {starved.name}
        # Nobody else had to retry, and nobody answered a first broadcast.
        assert len(replies) <= len(retries)

