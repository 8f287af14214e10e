"""RWSet inference: unit footprints plus the differential test proving
the statically inferred key patterns cover every key the runtime
``StateView.rwset()`` actually touches on a benchmark Doom trace."""

import pytest

from repro.blockchain import Version
from repro.blockchain.contracts import Contract
from repro.core import DoomContract, MonopolyContract
from repro.game.doom import DoomMap
from repro.game.events import EventType
from repro.game.traces import generate_session
from repro.staticcheck import infer_footprints

from conftest import ContractHarness


@pytest.fixture(scope="module")
def doom_footprints():
    return infer_footprints(DoomContract)


# ----------------------------------------------------------------------
# unit footprints


class TestDoomFootprints:
    def test_all_handlers_discovered(self, doom_footprints):
        assert set(doom_footprints) == set(DoomContract._HANDLERS)

    def test_location_touches_only_own_position(self, doom_footprints):
        fp = doom_footprints[EventType.LOCATION]
        assert fp.write_covers("asset/p1/6")
        assert fp.read_covers("asset/p1/6")
        assert fp.read_covers("game/started")
        # ...and nothing belonging to other asset ids
        assert not fp.write_covers("asset/p1/1")
        assert not fp.write_covers("game/roster")

    def test_shoot_touches_weapon_and_ammo(self, doom_footprints):
        fp = doom_footprints[EventType.SHOOT]
        assert fp.read_covers("asset/p1/3")  # weapon
        assert fp.write_covers("asset/p1/2")  # ammunition
        assert not fp.write_covers("asset/p1/3")

    def test_damage_reaches_cross_player_target(self, doom_footprints):
        fp = doom_footprints[EventType.DAMAGE]
        # target comes from the payload — any player name must be covered
        assert fp.write_covers("asset/other/1")
        assert fp.write_covers("asset/other/4")
        assert fp.read_covers("game/roster")

    def test_pickup_covers_item_marker(self, doom_footprints):
        fp = doom_footprints[EventType.PICKUP_CLIP]
        assert fp.read_covers("item/p1-i3")
        assert fp.write_covers("item/p1-i3")
        assert fp.write_covers("asset/p1/2")

    def test_add_player_covers_roster_and_all_assets(self, doom_footprints):
        fp = doom_footprints["addPlayer"]
        assert fp.write_covers("game/roster")
        for aid in (1, 2, 3, 4, 5, 6, 7, 8):
            assert fp.write_covers(f"asset/p1/{aid}")

    def test_nonce_marker_always_present(self, doom_footprints):
        for fp in doom_footprints.values():
            assert fp.read_covers("~nonce/p1/n1")
            assert fp.write_covers("~nonce/p1/n1")

    def test_footprint_json_roundtrip(self, doom_footprints):
        blob = doom_footprints[EventType.SHOOT].to_json()
        assert blob["handler"] == EventType.SHOOT
        assert isinstance(blob["reads"], list) and isinstance(blob["writes"], list)


class TestMonopolyFootprints:
    def test_roll_writes_per_player_per_round(self):
        fps = infer_footprints(MonopolyContract)
        roll = next(fp for name, fp in fps.items() if "roll" in name.lower())
        assert roll.write_covers("mp/roll/p1/3")


class TestSourceMode:
    def test_generated_source_footprints(self):
        from repro.core.codegen import generate_contract_source
        from repro.core.doomspec import doom_spec

        source = generate_contract_source(doom_spec())
        fps = infer_footprints(source)
        assert "addPlayer" in fps and "startGame" in fps
        assert fps["addPlayer"].write_covers("game/roster")
        assert fps["startGame"].write_covers("game/started")


class PointerContract(Contract):
    """Writes through a key it reads back from state."""

    name = "pointer"

    def invoke(self, ctx, function, args):
        return getattr(self, f"on_{function}")(ctx, *args)

    def on_follow(self, ctx, payload):
        target = ctx.view.get("ptr")
        ctx.view.put(target, 1)


def test_unresolved_key_covers_keys_with_slashes():
    """A key read from state is a whole key, ``/`` included; the
    footprint must cover it."""
    fp = infer_footprints(PointerContract)["follow"]
    harness = ContractHarness(PointerContract())
    harness.state.put("ptr", "asset/p1/2", Version(1, 0))
    code, rwset = harness.call("follow", {}, creator="p1")
    assert code == "VALID"
    assert "asset/p1/2" in rwset.write_keys()
    assert [k for k in rwset.write_keys() if not fp.write_covers(k)] == []
    assert [k for k, _ in rwset.reads if not fp.read_covers(k)] == []


# ----------------------------------------------------------------------
# differential test: inferred ⊇ runtime on a scripted deathmatch trace


def merged_two_player_map(demo_a, demo_b):
    base = DoomMap.default_map()
    extra = [
        item
        for demo in (demo_a, demo_b)
        for item in demo.game_map.items
        if base.item(item.item_id) is None
    ]
    return DoomMap(
        name="diff-deathmatch",
        width=base.width,
        height=base.height,
        items=list(base.items) + extra,
        spawn_points=list(base.spawn_points),
    )


def replay_and_diff(contract, events, footprints):
    """Replay ``events`` through the runtime and diff each transaction's
    actual RWSet keys against the statically inferred footprint."""
    harness = ContractHarness(contract)
    write_misses, read_misses = [], []
    valid = 0
    for etype, payload, creator, t in events:
        code, rwset = harness.call(etype, payload, creator=creator, t=t)
        assert code == "VALID", f"{etype} by {creator} rejected: {code}"
        valid += 1
        fp = footprints[etype]
        for key in rwset.write_keys():
            if not fp.write_covers(key):
                write_misses.append((etype, key))
        for key, _ in rwset.reads:
            if not fp.read_covers(key):
                read_misses.append((etype, key))
    return valid, write_misses, read_misses


def test_differential_write_and_read_coverage_on_deathmatch_trace():
    """Acceptance criterion: 100% of runtime write keys (and read keys)
    fall inside the inferred patterns over a full scripted session."""
    demo_a = generate_session("diff-a", 90_000.0, seed=7, player="p1",
                              spawn_index=0)
    demo_b = generate_session("diff-b", 60_000.0, seed=11, player="p2",
                              spawn_index=1)
    game_map = merged_two_player_map(demo_a, demo_b)
    contract = DoomContract(game_map=game_map)
    footprints = infer_footprints(DoomContract)

    events = [("addPlayer", {}, "p1", 0.0), ("addPlayer", {}, "p2", 0.0),
              ("startGame", {}, "p1", 0.0)]
    merged = sorted(demo_a.events + demo_b.events, key=lambda e: e.t_ms)
    for e in merged:
        events.append((e.etype, dict(e.payload, t=e.t_ms), e.player, e.t_ms))
    # Cross-player damage: the deathmatch ingredient exercising the
    # payload-addressed target key (asset/{arg:target}/...).
    events.append((EventType.DAMAGE,
                   {"amount": 10, "target": "p2", "t": 91_000.0},
                   "p1", 91_000.0))
    events.append((EventType.DAMAGE,
                   {"amount": 15, "target": "p1", "to_armor": True,
                    "t": 91_100.0},
                   "p2", 91_100.0))

    valid, write_misses, read_misses = replay_and_diff(
        contract, events, footprints
    )
    assert valid == len(events)
    assert valid > 500, "trace too short to be meaningful"
    assert write_misses == [], f"uncovered write keys: {write_misses[:10]}"
    assert read_misses == [], f"uncovered read keys: {read_misses[:10]}"


def test_differential_coverage_monolithic_kvs_ablation():
    """The analyzer also understands the split_kvs=False ablation layout
    (one monolithic key per player) of generated contracts."""
    from repro.core.codegen import compile_contract_source, generate_contract_source
    from repro.core.doomspec import doom_spec

    source = generate_contract_source(doom_spec(), split_kvs=False)
    contract_cls = compile_contract_source(source)
    footprints = infer_footprints(source)
    assert footprints["Shoot"].write_covers("player/p1")
    assert not footprints["Shoot"].write_covers("asset/p1/2")

    events = [
        ("addPlayer", {}, "p1", 0.0),
        ("startGame", {}, "p1", 0.0),
        ("Shoot", {}, "p1", 100.0),
    ]
    valid, write_misses, read_misses = replay_and_diff(
        contract_cls(), events, footprints
    )
    assert valid == 3
    assert write_misses == [] and read_misses == []
