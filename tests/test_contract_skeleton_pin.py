"""Pins what the lifecycle boilerplate reads, writes and refuses.

Four ``addPlayer`` calls and one ``startGame`` must write the same keys
and values, in the same order, and read the same keys at the same
versions, for the deployed ``DoomContract`` and for the contract
generated from ``doom_spec()``, in both KVS layouts.  Values are
compared by ``repr`` so that ``100`` and ``100.0`` differ.  A 5th
player, a double join, a double start and an event before the start
are rejected.

The one difference allowed: the generated contract in the monolithic
layout may or may not read ``player/<p>`` in ``addPlayer`` (the
deployed contract always does, since it writes the record one asset at
a time).
"""

import pytest

from repro.blockchain import TxValidationCode
from repro.core import DoomContract, doom_spec, generate_contract

from conftest import ContractHarness

VALID = TxValidationCode.VALID
REJECTED = TxValidationCode.CONTRACT_REJECTED

PLAYERS = ("p1", "p2", "p3", "p4")
SPAWNS = ((512.0, 512.0), (3584.0, 512.0), (512.0, 3584.0), (3584.0, 3584.0))


def doom_assets(seat):
    x, y = SPAWNS[seat]
    return {
        1: {"hp": 100, "invuln_until": 0.0},
        2: 50,
        3: {"current": 2, "owned": [0, 2]},
        4: 0,
        5: [],
        6: {"x": x, "y": y, "t": 0.0},
        7: 0.0,
        8: 0.0,
        9: 0.0,
    }


def spec_assets(seat):
    return {1: 100.0, 2: 50.0, 3: 2.0, **{aid: 0.0 for aid in range(4, 10)}}


#: name -> (contract factory, starting assets, split layout, an event
#: API and payload the contract accepts once the game has started)
CASES = {
    "doom-split": (lambda: DoomContract(), doom_assets, True, "shoot"),
    "doom-monolithic": (lambda: DoomContract(split_kvs=False), doom_assets, False, "shoot"),
    "gen-split": (lambda: generate_contract(doom_spec())(), spec_assets, True, "Shoot"),
    "gen-monolithic": (
        lambda: generate_contract(doom_spec(), split_kvs=False)(), spec_assets, False, "Shoot",
    ),
}


def expected_writes(player, seat, nonce, assets, split):
    writes = [(f"~nonce/{player}/{nonce}", 0.0), ("game/roster", list(PLAYERS[: seat + 1]))]
    if split:
        writes += [(f"asset/{player}/{aid}", v) for aid, v in assets(seat).items()]
    else:
        writes.append((f"player/{player}", {str(aid): v for aid, v in assets(seat).items()}))
    return writes


@pytest.mark.parametrize("case", sorted(CASES))
def test_four_joins_and_a_start(case):
    make, assets, split, _ = CASES[case]
    harness = ContractHarness(make())
    for seat, player in enumerate(PLAYERS):
        code, rwset = harness.call("addPlayer", creator=player)
        assert code == VALID
        nonce = f"n{seat + 1}"
        assert repr(rwset.writes) == repr(expected_writes(player, seat, nonce, assets, split))
        roster_version = (seat, 0) if seat else None
        reads = [(f"~nonce/{player}/{nonce}", None), ("game/roster", roster_version)]
        record_read = (f"player/{player}", None)
        if not split and case.startswith("doom"):
            reads.append(record_read)
        observed = list(rwset.reads)
        if case == "gen-monolithic" and record_read in observed:
            observed.remove(record_read)
        assert observed == reads

    code, rwset = harness.call("startGame", creator="p1")
    assert code == VALID
    assert rwset.writes == [("~nonce/p1/n5", 0.0), ("game/started", True)]
    assert rwset.reads == [
        ("~nonce/p1/n5", None), ("game/roster", (4, 0)), ("game/started", None),
    ]


@pytest.mark.parametrize("case", sorted(CASES))
def test_lifecycle_refusals(case):
    make, _, _, event = CASES[case]
    harness = ContractHarness(make())
    harness.ok("addPlayer", creator="p1")
    assert harness.call("addPlayer", creator="p1")[0] == REJECTED  # double join
    assert harness.call(event, creator="p1")[0] == REJECTED  # before the start
    harness.ok("startGame", creator="p1")
    assert harness.call("startGame", creator="p1")[0] == REJECTED  # double start
    harness.ok(event, creator="p1")
    for player in PLAYERS[1:]:
        harness.ok("addPlayer", creator=player)
    assert harness.call("addPlayer", creator="p5")[0] == REJECTED  # room is full
