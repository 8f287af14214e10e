"""Byzantine-behaviour tests: lying voters, duplicate deliveries,
stale queries — the adversarial corners of the peer protocol."""

from dataclasses import replace

from repro.blockchain import (
    BlockchainNetwork,
    QueryTxStatus,
    TxValidationCode,
    VoteMsg,
)
from repro.simnet import LAN_1GBPS

from conftest import CounterContract


def make_chain(n_peers=5, seed=0):
    chain = BlockchainNetwork(n_peers=n_peers, profile=LAN_1GBPS, seed=seed)
    chain.install_contract(CounterContract)
    return chain


def submit(chain, client, function, args, touched=("ctr/m",)):
    results = []
    client.invoke("counter", function, args, touched,
                  on_complete=lambda r, l: results.append(r))
    chain.run_until_idle()
    return results[0]


def make_liar(peer):
    """Invert every vote ``peer`` puts on the wire: the network's fault
    injector swaps the payload of each outgoing copy, after (and
    chaining) any injector already installed."""
    net = peer.network
    previous = net.fault_injector

    def lying(msg, at):
        if msg.src == peer.name and isinstance(msg.payload, VoteMsg):
            msg.payload = replace(
                msg.payload, votes=tuple(not v for v in msg.payload.votes)
            )
        return previous(msg, at) if previous is not None else [at]

    net.fault_injector = lying


class TestLyingVoters:
    def test_single_liar_outvoted(self):
        chain = make_chain(n_peers=5)
        make_liar(chain.peers[4])
        client = chain.create_client("c0")
        res = submit(chain, client, "init", ("m",))
        assert res.code == TxValidationCode.VALID
        for peer in chain.peers:
            assert peer.ledger.state.get("ctr/m") == 0

    def test_two_of_five_liars_outvoted(self):
        chain = make_chain(n_peers=5)
        make_liar(chain.peers[3])
        make_liar(chain.peers[4])
        client = chain.create_client("c0")
        res = submit(chain, client, "init", ("m",))
        assert res.code == TxValidationCode.VALID

    def test_lying_majority_censors_valid_update(self):
        """Beyond the honest-majority assumption (§3.2) the guarantee is
        gone: a lying majority denies consensus to a legal update.  The
        honest anchor never synchronises the block, so the client's poll
        times out."""
        chain = make_chain(n_peers=5)
        for i in (2, 3, 4):
            make_liar(chain.peers[i])
        client = chain.create_client("c0")
        res = submit(chain, client, "init", ("m",))
        assert res.code == TxValidationCode.TIMEOUT
        # Honest peers refuse to apply the censored write…
        assert chain.peers[0].ledger.state.get("ctr/m") is None
        # …and commit it as consensus-not-reached in their ledgers.
        code, _block = chain.peers[0].ledger.tx_status(res.tx_id)
        assert code == TxValidationCode.CONSENSUS_NOT_REACHED

    def test_lying_majority_cannot_forge_state(self):
        """Even a lying majority cannot make honest peers *apply* an
        illegal write: they vote an invalid tx valid, honest peers mark
        themselves diverged instead of executing what they cannot."""
        chain = make_chain(n_peers=5)
        client = chain.create_client("c0")
        assert submit(chain, client, "init", ("m",)).code == TxValidationCode.VALID
        for i in (2, 3, 4):
            make_liar(chain.peers[i])
        submit(chain, client, "sub", ("m", 99))  # illegal: negative
        # Consensus (of liars) accepted it, but honest peers have no
        # valid execution to apply — state stays legal, divergence is
        # flagged for out-of-band action.
        assert chain.peers[0].ledger.state.get("ctr/m") == 0
        assert chain.peers[0].diverged


class TestProtocolEdges:
    def test_duplicate_block_delivery_is_idempotent(self):
        chain = make_chain(n_peers=3)
        client = chain.create_client("c0")
        assert submit(chain, client, "init", ("m",)).code == TxValidationCode.VALID
        peer = chain.peers[0]
        block = peer.ledger.block(1)
        height_before = peer.ledger.height
        peer._on_block(block)  # replayed delivery
        chain.run_until_idle()
        assert peer.ledger.height == height_before
        assert peer.ledger.state.get("ctr/m") == 0

    def test_query_for_unknown_tx_pending(self):
        chain = make_chain(n_peers=3)
        client = chain.create_client("c0")
        client.send(chain.peers[0], QueryTxStatus("ghost-tx"), size_bytes=64)
        chain.run_until_idle()
        # The reply is PENDING; the client ignores unknown ids silently.
        assert client.pending_count() == 0

    def test_vote_from_stranger_ignored(self):
        chain = make_chain(n_peers=3)
        client = chain.create_client("c0")
        peer = chain.peers[0]
        stage = peer._vote_stage
        peer._record(stage, peer, VoteMsg(block_number=1, voter="mallory", votes=(True,)))
        assert "mallory" not in stage.by_sender.get(1, {})
        assert submit(chain, client, "init", ("m",)).code == TxValidationCode.VALID

    def test_client_poll_stops_when_idle(self):
        chain = make_chain(n_peers=3)
        client = chain.create_client("c0")
        submit(chain, client, "init", ("m",))
        # After completion no poll timer remains scheduled.
        assert client.pending_count() == 0
        pending_before = chain.scheduler.pending
        chain.run(until=chain.now + 10_000.0)
        assert chain.scheduler.events_processed >= 0
        assert chain.scheduler.pending <= pending_before
