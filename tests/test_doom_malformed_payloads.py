"""A malformed signed Doom payload is a rejected invocation, not a crash.

The payload is whatever a client signed.  A missing or wrong-typed
field, or an argument that is not a mapping at all, must make
``DoomContract`` raise ``ContractError``: every peer records
``CONTRACT_REJECTED`` and the session keeps accepting valid events; the
C/S server answers ``(False, reason)``; client-side prediction skips it.
"""

import pytest

from repro.baselines.clientserver import GameServer
from repro.blockchain import TxValidationCode
from repro.core import GameSession
from repro.game import EventType, GameEvent
from repro.game.client import DoomClient
from repro.simnet import LAN_1GBPS

MALFORMED = [
    pytest.param(EventType.WEAPON_CHANGE, {}, id="weapon_change-no-wid"),
    pytest.param(EventType.PICKUP_WEAPON, {}, id="pickup_weapon-no-wid"),
    pytest.param(EventType.PICKUP_WEAPON, {"wid": [1]}, id="pickup_weapon-list-wid"),
    pytest.param(EventType.LOCATION, {"y": 100.0}, id="location-no-x"),
    pytest.param(EventType.LOCATION, {"x": 100.0}, id="location-no-y"),
    pytest.param(EventType.LOCATION, {"x": "a", "y": 100.0}, id="location-str-x"),
    pytest.param(EventType.LOCATION, {"x": 1.0, "y": 1.0, "t": "z"}, id="location-str-t"),
    pytest.param(EventType.DAMAGE, {}, id="damage-no-amount"),
    pytest.param(EventType.DAMAGE, {"amount": "3"}, id="damage-str-amount"),
    pytest.param(EventType.SHOOT, {"count": "3"}, id="shoot-str-count"),
    pytest.param(EventType.PICKUP_CLIP, {"item_id": "no-such-item"}, id="pickup-unknown-item"),
    pytest.param(EventType.SHOOT, [1, 2], id="shoot-list-payload"),
    pytest.param(EventType.SHOOT, 5, id="shoot-int-payload"),
]


def _session():
    session = GameSession(n_peers=4, profile=LAN_1GBPS, n_players=1, seed=3)
    session.setup()
    return session, session.shims[0]


def _assert_valid_event_still_accepted(session, shim):
    before = shim.stats.accepted_events
    shim.on_game_event(
        GameEvent(session.now, shim.player, EventType.SHOOT, {"count": 1}, 10_000)
    )
    session.run_until_idle()
    assert shim.stats.accepted_events == before + 1


@pytest.mark.parametrize("function,payload", MALFORMED)
def test_every_peer_rejects_and_the_session_keeps_running(function, payload):
    session, shim = _session()
    tx_id = shim.invoke(shim.contract_name, function, (payload,))
    session.run_until_idle()
    codes = {peer.ledger.tx_status(tx_id)[0] for peer in session.chain.peers}
    assert codes == {TxValidationCode.CONTRACT_REJECTED}
    _assert_valid_event_still_accepted(session, shim)


def test_shim_event_with_missing_field_is_rejected():
    session, shim = _session()
    shim.on_game_event(GameEvent(session.now, shim.player, EventType.WEAPON_CHANGE, {}, 1))
    session.run_until_idle()
    assert shim.stats.rejections_by_code == {TxValidationCode.CONTRACT_REJECTED: 1}
    _assert_valid_event_still_accepted(session, shim)


@pytest.mark.parametrize("function,payload", MALFORMED)
def test_cs_server_answers_false(function, payload):
    server = GameServer()
    server.add_player("p1")
    accepted, reason = server.validate_and_apply(GameEvent(10.0, "p1", function, payload, 1))
    assert not accepted and reason
    assert server.validate_and_apply(GameEvent(20.0, "p1", EventType.SHOOT, {"count": 1}, 2))[0]


@pytest.mark.parametrize("function,payload", MALFORMED)
def test_client_prediction_skips_it(function, payload):
    client = DoomClient("p1")
    before = client.predicted
    client.apply_event(GameEvent(10.0, "p1", function, payload, 1))
    assert client.predicted == before
