"""Static analysis sees what a contract inherits.

Footprints, taint and lint follow a class's bases up to ``Contract``:
a subclass that overrides one handler is analysed with every inherited
handler and helper, and a hazard in an inherited helper is reported.
"""

import time

from repro.blockchain.contracts import Contract
from repro.core import DoomContract, doom_spec, generate_contract_source
from repro.game import EventType
from repro.staticcheck import infer_footprints, lint_contract, taint_contract


class CountingShots(DoomContract):
    """Doom with a per-player shot counter; every other handler inherited."""

    def on_shoot(self, ctx, payload):
        DoomContract.on_shoot(self, ctx, payload)
        shots = ctx.view.get(f"shots/{ctx.creator}") or 0
        ctx.view.put(f"shots/{ctx.creator}", shots + 1)

    HANDLERS = {**DoomContract.HANDLERS, EventType.SHOOT: on_shoot}


class UnboundOverride(DoomContract):
    """Overrides ``on_shoot`` without rebinding ``HANDLERS``: Doom's
    table still dispatches ``shoot`` to ``DoomContract.on_shoot``."""

    def on_shoot(self, ctx, payload):
        ctx.view.put("never", 1)


class _ClockHelpers(Contract):
    def _stamp(self):
        return time.time()


class InheritsClock(_ClockHelpers):
    def on_tick(self, ctx, payload):
        ctx.view.put("tick", self._stamp())

    HANDLERS = {"tick": on_tick}


def _as_json(footprints):
    return {name: fp.to_json() for name, fp in footprints.items()}


def test_override_keeps_every_inherited_handler():
    doom = _as_json(infer_footprints(DoomContract))
    derived = _as_json(infer_footprints(CountingShots))
    assert len(doom) == 13
    assert set(derived) == set(doom)
    for name in doom:
        if name != EventType.SHOOT:
            assert derived[name] == doom[name], name
    shoot = derived[EventType.SHOOT]
    assert "shots/{creator}" in shoot["writes"]
    assert set(doom[EventType.SHOOT]["writes"]) < set(shoot["writes"])


def test_unbound_override_is_not_analysed():
    doom = _as_json(infer_footprints(DoomContract))
    assert _as_json(infer_footprints(UnboundOverride)) == doom


def test_override_stays_taint_clean():
    assert taint_contract(CountingShots).diagnostics == []


def test_inherited_wall_clock_fails_lint():
    codes = [(d.code, d.context) for d in lint_contract(InheritsClock)]
    assert ("DET002", "_ClockHelpers._stamp") in codes


def test_generated_source_reaches_its_base_through_its_import():
    source = generate_contract_source(doom_spec())
    assert "from repro.core.codegen import SpecContract" in source
    footprints = _as_json(infer_footprints(source))
    assert len(footprints) == 13
    add_player = footprints["addPlayer"]["writes"]
    assert "game/roster" in add_player
    assert any(key.startswith("asset/{creator}/") for key in add_player)
    assert "game/started" in footprints["startGame"]["writes"]
    assert "game/started" in footprints["Shoot"]["reads"]
