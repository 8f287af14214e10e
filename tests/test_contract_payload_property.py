"""No signed payload can make a shipped contract raise anything but a
rejection.

Every handler of every shipped mapping-payload contract — Doom,
Monopoly, the ``doom_spec()`` codegen output in both KVS layouts and
the modded spec of ``examples/custom_weapon_mod.py`` — gets payloads
drawn from wrong types, missing keys, extra keys, non-mappings and
nested values.  ``execute_transaction`` must answer ``VALID`` or
``CONTRACT_REJECTED``, and ``apply_invocation`` may raise only
``ContractError``: ``Contract.invoke`` checks the payload against the
handler's ``PAYLOADS`` shape before the handler reads any state.

The two positional-args contracts, ``ShardAssetContract`` and
``ChaosCounterContract``, get argument tuples of every length drawn
from the same values, and answer the same way: each checks the call
against its ``SIGNATURES`` entry with ``check_args`` first.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockchain import CertificateAuthority, WorldState
from repro.blockchain.contracts import (
    ContractError,
    apply_invocation,
    check_args,
    check_payload,
    execute_transaction,
    nonce_key,
)
from repro.blockchain.swaps import ShardAssetContract
from repro.blockchain.transaction import Proposal, Transaction, TxValidationCode
from repro.chaos.workload import ChaosCounterContract
from repro.core import DoomContract, MonopolyContract, doom_spec, generate_contract, parse_spec

PLAYERS = ("p1", "p2")


def _modded_contract():
    path = pathlib.Path(__file__).parent.parent / "examples" / "custom_weapon_mod.py"
    spec = importlib.util.spec_from_file_location("custom_weapon_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return generate_contract(parse_spec(module.MODDED_SPEC), class_name="ModdedDoomContract")()


#: A fresh instance of each contract, by name.
CONTRACTS = {
    "doom": DoomContract,
    "monopoly": MonopolyContract,
    "gen-split": lambda: generate_contract(doom_spec(), split_kvs=True)(),
    "gen-monolithic": lambda: generate_contract(doom_spec(), split_kvs=False)(),
    "modded": _modded_contract,
}

# Any value: scalars of every type, and containers of them.
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

#: Every payload field a shipped handler reads, with values of its right
#: type, plus a field no handler reads.  Not taken from ``PAYLOADS``, so
#: a field a handler reads but does not declare is drawn too.
FIELDS = {
    "amount": st.integers(min_value=0, max_value=60),
    "count": st.integers(min_value=0, max_value=5),
    "dice": st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=2),
    "extra": values,
    "item_id": st.sampled_from(["item0", "item5", "item15", "no-such-item"]),
    "round": st.integers(min_value=0, max_value=3),
    "t": st.floats(min_value=0.0, max_value=1e6),
    "target": st.sampled_from(PLAYERS + ("ghost",)),
    "wid": st.integers(min_value=0, max_value=8),
    "x": st.floats(min_value=-50.0, max_value=1100.0),
    "y": st.floats(min_value=-50.0, max_value=1100.0),
}
payloads = st.one_of(
    st.fixed_dictionaries(
        {}, optional={name: right | values for name, right in FIELDS.items()}
    ),
    values,
)


def _started_state(contract):
    state = WorldState()
    for player in PLAYERS:
        apply_invocation(contract, state, player, "addPlayer", ({},), 0.0)
    apply_invocation(contract, state, PLAYERS[0], "startGame", ({},), 0.0)
    return state


@pytest.fixture(scope="module")
def certificate():
    return CertificateAuthority(name="property-ca").enroll(PLAYERS[0]).certificate


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_any_payload_is_a_verdict_or_a_contract_error(name, certificate):
    contract = CONTRACTS[name]()

    @given(
        function=st.sampled_from(sorted(contract.functions())),
        payload=payloads,
        creator=st.sampled_from(PLAYERS + ("p3",)),
        t=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(function, payload, creator, t):
        proposal = Proposal(
            tx_id="prop", contract=contract.name, function=function, args=(payload,),
            nonce="n", creator=creator, timestamp=t,
        )
        tx = Transaction(proposal=proposal, certificate=certificate, signature=0)
        execution = execute_transaction(contract, tx, _started_state(contract))
        assert execution.code in (
            TxValidationCode.VALID, TxValidationCode.CONTRACT_REJECTED
        )
        try:
            check_payload(contract.PAYLOADS.get(function, {}), payload)
        except ContractError:
            # Refused before the handler read any state.
            assert execution.rwset.reads == [(nonce_key(creator, "n"), None)]
        try:
            apply_invocation(contract, _started_state(contract), creator, function,
                             (payload,), t)
        except ContractError:
            pass

    check()


#: Each positional-args contract, with the calls that set up its state:
#: an asset locked by a swap, a counter above zero.
POSITIONAL = {
    "shardasset": (
        ShardAssetContract, [("mint", ("a", "o", 5)), ("swap_prepare_out", ("s", "a"))],
    ),
    "chaoscounter": (ChaosCounterContract, [("init", ("c",)), ("add", ("c", 3))]),
}
positional_arg = (
    st.sampled_from(["a", "b", "c", "o", "s"]) | st.integers(min_value=-3, max_value=10) | values
)
positional_args = st.lists(positional_arg, max_size=5).map(tuple) | values


def _setup_state(contract, calls):
    state = WorldState()
    for function, args in calls:
        apply_invocation(contract, state, PLAYERS[0], function, args, 0.0)
    return state


@pytest.mark.parametrize("name", sorted(POSITIONAL))
def test_any_positional_args_are_a_verdict_or_a_contract_error(name, certificate):
    make, calls = POSITIONAL[name]
    contract = make()

    @given(
        function=st.sampled_from(sorted(contract.functions())),
        args=positional_args,
        t=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(function, args, t):
        proposal = Proposal(
            tx_id="prop", contract=contract.name, function=function, args=args,
            nonce="n", creator=PLAYERS[0], timestamp=t,
        )
        tx = Transaction(proposal=proposal, certificate=certificate, signature=0)
        execution = execute_transaction(contract, tx, _setup_state(contract, calls))
        assert execution.code in (
            TxValidationCode.VALID, TxValidationCode.CONTRACT_REJECTED
        )
        try:
            check_args(contract.SIGNATURES[function], args)
        except ContractError:
            # Refused before the function read any state.
            assert execution.rwset.reads == [(nonce_key(PLAYERS[0], "n"), None)]
        try:
            apply_invocation(contract, _setup_state(contract, calls), PLAYERS[0],
                             function, args, t)
        except ContractError:
            pass

    check()
