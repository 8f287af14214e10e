"""Tests for ledger auditing and the DoomClient↔shim feedback loop."""

import pytest

from repro.analysis import audit_ledger, cross_audit
from repro.blockchain import TxValidationCode
from repro.blockchain.config import FabricConfig
from repro.blockchain.network import BlockchainNetwork
from repro.chaos.buggy import install_mvcc_bypass
from repro.chaos.workload import ChaosCounterContract
from repro.core import CheatInjector, GameSession, relevant_cheats
from repro.game import AssetId, DoomClient, EventType, GameEvent
from repro.simnet import LAN_1GBPS


@pytest.fixture(scope="module")
def cheated_session():
    session = GameSession(n_peers=4, profile=LAN_1GBPS, n_players=2, seed=31)
    session.setup()
    # Some honest play…
    shim = session.shims[0]
    for seq in (1, 2, 3):
        session.inject_event(GameEvent(
            session.now, shim.player, EventType.SHOOT, {"count": 1}, seq))
        session.run_until_idle()
    # …then a burst of cheating from player 2.
    injector = CheatInjector(session, shim=session.shims[1])
    injector.run_all_relevant()
    return session


class TestAudit:
    def test_audit_accounts_for_every_transaction(self, cheated_session):
        report = audit_ledger(cheated_session.chain.peers[0].ledger)
        assert report.chain_valid
        assert report.total_transactions == sum(report.by_code.values())
        assert report.total_transactions == sum(report.by_creator.values())
        assert report.accepted + report.rejected == report.total_transactions

    def test_audit_pins_cheater(self, cheated_session):
        """The event log is a durable, attributable record of cheating
        attempts (non-repudiation)."""
        report = audit_ledger(cheated_session.chain.peers[0].ledger)
        cheater = cheated_session.shims[1].player
        honest = cheated_session.shims[0].player
        assert len(report.rejections_by(cheater)) == len(relevant_cheats())
        assert report.rejections_by(honest) == []
        for creator, function, code, block in report.rejections_by(cheater):
            assert code == TxValidationCode.CONTRACT_REJECTED
            assert 0 < block < report.height

    def test_cross_audit_agrees(self, cheated_session):
        assert cross_audit(p.ledger for p in cheated_session.chain.peers)

    def test_cross_audit_detects_tampering(self, cheated_session):
        ledgers = [p.ledger for p in cheated_session.chain.peers]
        victim = ledgers[0].block(2).transactions[0]
        original = victim.proposal.args
        object.__setattr__(victim.proposal, "args", ({"forged": 1},))
        try:
            assert not cross_audit(ledgers)
        finally:
            object.__setattr__(victim.proposal, "args", original)
        assert cross_audit(ledgers)

    def test_cross_audit_empty_rejected(self):
        with pytest.raises(ValueError):
            cross_audit([])


def _conflicting_pair(bypassed):
    """Two ``add``s on one counter in one block on four peers, with the
    MVCC check broken on the ``bypassed`` peers."""
    chain = BlockchainNetwork(n_peers=4, seed=11, config=FabricConfig(max_block_txs=5))
    chain.install_contract(ChaosCounterContract)
    client = chain.create_client("auditor")
    key = ChaosCounterContract.key("a")
    client.invoke(ChaosCounterContract.name, "init", ("a",), touched_keys=(key,))
    chain.net.run_until_idle()
    for index in bypassed:
        install_mvcc_bypass(chain.peers[index])
    for delta in (1, 2):
        client.invoke(ChaosCounterContract.name, "add", ("a", delta), touched_keys=(key,))
    chain.net.run_until_idle()
    return chain


@pytest.mark.parametrize("bypassed", [(1,), (1, 2, 3)])
def test_audit_reports_this_ledgers_verdicts_not_the_last_appenders(bypassed):
    """Peers of one process share block objects, and every append
    overwrites ``block.validation_codes``; the audit must read the
    audited ledger's own verdicts."""
    chain = _conflicting_pair(bypassed)
    ledger = chain.peers[0].ledger
    assert ledger.height == 3
    txs = ledger.block(2).transactions
    own = [ledger.tx_status(tx.tx_id)[0] for tx in txs]
    assert own == [TxValidationCode.VALID, TxValidationCode.MVCC_READ_CONFLICT]
    report = audit_ledger(ledger)
    assert report.by_code == {TxValidationCode.VALID: 2, TxValidationCode.MVCC_READ_CONFLICT: 1}
    assert [(code, block) for _c, _f, code, block in report.rejections] == [
        (TxValidationCode.MVCC_READ_CONFLICT, 2)
    ]
    assert ledger.validation_codes(2) == own
    # A bypassed peer audits its own (different) verdicts.
    bypassed_report = audit_ledger(chain.peers[bypassed[-1]].ledger)
    assert bypassed_report.rejected == (1 if len(bypassed) == 1 else 0)


class TestClientShimIntegration:
    """The full loop: DoomClient prediction -> shim -> consensus -> ack
    -> reconciliation."""

    def make(self):
        session = GameSession(n_peers=4, profile=LAN_1GBPS, n_players=1, seed=33)
        session.setup()
        shim = session.shims[0]
        client = DoomClient(shim.player, game_map=session.network.game_map)
        shim.on_ack = lambda event, ok, code, lat: client.acknowledge(event.seq, ok)

        def play(event):
            client.apply_event(event)       # optimistic prediction
            shim.on_game_event(event)       # consensus validation
        return session, shim, client, play

    def test_honest_play_confirms_predictions(self):
        session, shim, client, play = self.make()
        for seq in range(1, 6):
            play(GameEvent(session.now, client.player, EventType.SHOOT,
                           {"count": 1}, seq))
            session.run_until_idle()
        assert client.stats.predicted == 5
        assert client.stats.confirmed == 5
        assert client.stats.misprediction_rate == 0.0
        assert client.confirmed[AssetId.AMMUNITION] == 45
        # Client and chain agree exactly.
        from repro.game import asset_key

        chain_ammo = session.chain.peers[0].ledger.state.get(
            asset_key(client.player, AssetId.AMMUNITION)
        )
        assert chain_ammo == 45

    def test_cheat_rolls_back_local_prediction(self):
        """A modified client can render a cheat locally, but the ack
        rolls the authoritative-facing state back — the cheat never
        leaves the cheater's screen."""
        session, shim, client, play = self.make()
        # The client "predicts" an illegal far-item medkit heal.
        play(GameEvent(session.now, client.player, EventType.DAMAGE,
                       {"amount": 40, "t": session.now}, 1))
        session.run_until_idle()
        far = session.network.game_map.items_of_kind("medkit")[0]
        play(GameEvent(session.now, client.player, EventType.PICKUP_MEDKIT,
                       {"item_id": far.item_id, "t": session.now}, 2))
        session.run_until_idle()
        assert client.stats.rolled_back == 1
        assert client.predicted[AssetId.HEALTH]["hp"] == 60  # heal undone
