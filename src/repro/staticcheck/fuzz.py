"""Fuzz-differential coverage harness for the static analyzer.

The footprints are only useful if they *over-approximate* what
contracts actually do at runtime.  This module is the executable form
of that soundness claim: drive randomized but well-formed event traces
through the real contracts, execute them through the real
``execute_transaction`` → ``Ledger.append`` pipeline (with the peer's
speculative-overlay read semantics), and check that every key the
runtime RWSet read is covered by some inferred read pattern of the
invoked handler, and every written key by some write pattern.

Any miss is a soundness bug in the analyzer, not in the contract.
Exposed on the CLI as ``python -m repro.staticcheck --fuzz N --seed S``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .rwset import Footprint, infer_footprints
from .symbols import covers_key

__all__ = [
    "FuzzCase",
    "FuzzOutcome",
    "FuzzViolation",
    "default_cases",
    "fuzz_case",
    "run_fuzz",
]


@dataclass(frozen=True)
class FuzzCase:
    """One contract under differential test.

    ``payloads`` maps every fuzzable public function to a generator
    ``(rng, players, t) -> payload dict``.  Generators should supply
    every field the handler's ``PAYLOADS`` entry requires, with its
    declared type: ``Contract.invoke`` rejects a payload that does not
    fit before the handler reads any state, so such a payload exercises
    only that refusal.  Semantically invalid values are fair game —
    a ``CONTRACT_REJECTED`` is a prevented cheat, and its RWSet still
    participates in the coverage check.
    """

    name: str
    make: Callable[[], Any]  # fresh contract instance
    footprints: Callable[[], Dict[str, Footprint]]
    payloads: Dict[str, Callable[[random.Random, List[str], float], dict]]
    players: Tuple[str, ...] = ("fz-p1", "fz-p2", "fz-p3")


@dataclass(frozen=True)
class FuzzViolation:
    kind: str  # "coverage"
    detail: str


@dataclass
class FuzzOutcome:
    """Result of fuzzing one case at one seed."""

    case: str
    seed: int
    n_events: int
    blocks: int = 0
    codes: Dict[str, int] = field(default_factory=dict)
    #: VALID transactions per handler: which handlers reached the writes.
    valid_by_function: Dict[str, int] = field(default_factory=dict)
    keys_checked: int = 0
    violations: List[FuzzViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "seed": self.seed,
            "n_events": self.n_events,
            "blocks": self.blocks,
            "codes": dict(sorted(self.codes.items())),
            "valid_by_function": dict(sorted(self.valid_by_function.items())),
            "keys_checked": self.keys_checked,
            "ok": self.ok,
            "violations": [
                {"kind": v.kind, "detail": v.detail} for v in self.violations
            ],
        }


# ----------------------------------------------------------------------
# payload generators per shipped contract


def _doom_case() -> FuzzCase:
    from ..core.doom_contract import DoomContract
    from ..game.doom import WEAPONS

    game_map = DoomContract().map
    item_ids = [item.item_id for item in game_map.items]
    weapon_items = [
        (item.item_id, int(item.kind.split(":", 1)[1]))
        for item in game_map.items
        if item.kind.startswith("weapon:")
    ]
    wids = sorted(WEAPONS)

    def pickup(rng, players, t):
        return {"item_id": rng.choice(item_ids), "t": t}

    def pickup_weapon(rng, players, t):
        # One map item per payload, so the item and the weapon agree and
        # the VALID path (weapon and ammunition writes) is reachable.
        if weapon_items:
            item_id, wid = rng.choice(weapon_items)
        else:
            item_id, wid = rng.choice(item_ids), rng.choice(wids)
        return {"item_id": item_id, "wid": wid, "t": t}

    # Walk a shared cursor around the map so most moves satisfy the speed
    # rule (VALID traffic reaches the state writes); an occasional
    # long teleport keeps the rejection path covered too.
    cursor = {"x": game_map.spawn_points[0][0], "y": game_map.spawn_points[0][1]}

    def location(rng, players, t):
        if rng.random() < 0.15:
            cursor["x"] = rng.uniform(-50.0, game_map.width + 50.0)
            cursor["y"] = rng.uniform(-50.0, game_map.height + 50.0)
        else:
            cursor["x"] += rng.uniform(-3.0, 3.0)
            cursor["y"] += rng.uniform(-3.0, 3.0)
        return {"x": cursor["x"], "y": cursor["y"], "t": t}

    payloads = {
        "addPlayer": lambda rng, players, t: {},
        "startGame": lambda rng, players, t: {},
        "location": location,
        "shoot": lambda rng, players, t: {"count": rng.choice([1, 1, 1, 2, 5])},
        "weapon_change": lambda rng, players, t: {"wid": rng.choice(wids)},
        "damage": lambda rng, players, t: {
            "target": rng.choice(players + ["ghost"]),
            "amount": rng.randint(1, 60),
            "t": t,
        },
        "pickup_weapon": pickup_weapon,
        "pickup_clip": pickup,
        "pickup_medkit": pickup,
        "pickup_radsuit": pickup,
        "pickup_invis": pickup,
        "pickup_invuln": pickup,
        "pickup_berserk": pickup,
    }
    return FuzzCase(
        name="doom",
        make=DoomContract,
        footprints=lambda: infer_footprints(DoomContract),
        payloads=payloads,
    )


def _monopoly_case() -> FuzzCase:
    from ..core.monopoly_contract import MonopolyContract

    payloads = {
        "addPlayer": lambda rng, players, t: {},
        "startGame": lambda rng, players, t: {},
        "roll": lambda rng, players, t: {
            "dice": (rng.randint(0, 7), rng.randint(1, 6)),
            "round": rng.randint(0, 30),
        },
        "buy": lambda rng, players, t: {},
        "payRent": lambda rng, players, t: {},
    }
    return FuzzCase(
        name="monopoly",
        make=MonopolyContract,
        footprints=lambda: infer_footprints(MonopolyContract),
        payloads=payloads,
    )


def _generated_case(split_kvs: bool) -> FuzzCase:
    from ..core.codegen import compile_contract_source, generate_contract_source
    from ..core.doomspec import doom_spec

    source = generate_contract_source(doom_spec(), split_kvs=split_kvs)
    cls = compile_contract_source(source)

    def event_payload(rng, players, t):
        return {"target": rng.choice(players)}

    payloads: Dict[str, Callable] = {
        "addPlayer": lambda rng, players, t: {},
        "startGame": lambda rng, players, t: {},
    }
    for function in cls().functions():
        if function not in payloads:
            payloads[function] = event_payload
    layout = "split" if split_kvs else "monolithic"
    return FuzzCase(
        name=f"gen-doom-{layout}",
        make=cls,
        # The class was exec-compiled (no importable source file), so the
        # footprints come from the same source text it was built from.
        footprints=lambda: infer_footprints(source, class_name=cls.__name__),
        payloads=payloads,
    )


def default_cases() -> List[FuzzCase]:
    """Every shipped contract: hand-written and generated, both layouts."""
    return [
        _doom_case(),
        _monopoly_case(),
        _generated_case(split_kvs=True),
        _generated_case(split_kvs=False),
    ]


# ----------------------------------------------------------------------
# the differential loop


def _make_tx(ca, identities, contract, function, payload, creator, nonce, t):
    from ..blockchain.identity import Identity  # noqa: F401  (type context)
    from ..blockchain.transaction import Proposal, Transaction

    if creator not in identities:
        identities[creator] = ca.enroll(creator)
    identity = identities[creator]
    proposal = Proposal(
        tx_id=f"fz-{nonce}",
        contract=contract,
        function=function,
        args=(payload,),
        nonce=f"n{nonce}",
        creator=creator,
        timestamp=t,
    )
    return Transaction(
        proposal=proposal,
        certificate=identity.certificate,
        signature=identity.sign(proposal.digest()),
    )


def fuzz_case(
    case: FuzzCase,
    n_events: int,
    seed: int,
    max_block_txs: int = 5,
) -> FuzzOutcome:
    """Run one randomized trace through ``case`` and check its coverage."""
    from ..blockchain.block import make_block, make_genesis_block
    from ..blockchain.contracts import execute_transaction
    from ..blockchain.identity import CertificateAuthority
    from ..blockchain.ledger import Ledger
    from ..blockchain.transaction import TxValidationCode

    rng = random.Random(seed)
    contract = case.make()
    footprints = case.footprints()
    outcome = FuzzOutcome(case=case.name, seed=seed, n_events=n_events)

    ledger = Ledger(make_genesis_block({"peers": list(case.players)}))
    ca = CertificateAuthority(name="fuzz-ca", seed=seed)
    identities: Dict[str, Any] = {}
    players = list(case.players)
    functions = sorted(case.payloads)
    gameplay = [f for f in functions if f not in ("addPlayer", "startGame")]

    # Deterministic prologue: join everyone, start the game, then the
    # random trace.  The prologue flows through the same checks.
    schedule: List[Tuple[str, str]] = [("addPlayer", p) for p in players]
    schedule.append(("startGame", players[0]))
    t = 0.0
    nonce = 0
    events_left = n_events

    while events_left > 0 or schedule:
        # Prologue transactions travel one per block: they all touch the
        # shared roster key, so batching them would just invalidate the
        # session setup instead of exercising gameplay conflicts.
        size = 1 if schedule else rng.randint(1, max_block_txs)
        txs = []
        while len(txs) < size and (schedule or events_left > 0):
            if schedule:
                function, creator = schedule.pop(0)
            else:
                function = rng.choice(gameplay)
                creator = rng.choice(players)
                events_left -= 1
            t += rng.uniform(5.0, 60.0)
            nonce += 1
            payload = case.payloads[function](rng, players, t)
            txs.append(
                _make_tx(ca, identities, contract.name, function, payload,
                         creator, nonce, t)
            )
        if not txs:
            break

        # Peer execution semantics: a speculative overlay makes earlier
        # in-block VALID writes visible to later transactions.
        overlay = ledger.state.overlay()
        executions = []
        for tx in txs:
            execution = execute_transaction(
                contract, tx, ledger.state, overlay=overlay
            )
            executions.append(execution)
            if execution.code == TxValidationCode.VALID:
                for key, value in execution.rwset.writes:
                    overlay.put_speculative(key, value)

        block = make_block(ledger.height, ledger.last_hash, txs, timestamp=t)
        codes = ledger.append(block, executions)
        outcome.blocks += 1
        for tx, code in zip(txs, codes):
            outcome.codes[code] = outcome.codes.get(code, 0) + 1
            if code == TxValidationCode.VALID:
                function = tx.proposal.function
                outcome.valid_by_function[function] = (
                    outcome.valid_by_function.get(function, 0) + 1
                )

        _check_coverage(outcome, footprints, txs, executions)

    return outcome


def _check_coverage(outcome, footprints, txs, executions) -> None:
    """Runtime keys ⊆ static patterns, per handler."""
    for tx, execution in zip(txs, executions):
        function = tx.proposal.function
        fp = footprints.get(function)
        if fp is None:
            outcome.violations.append(FuzzViolation(
                "coverage", f"{function}: no footprint inferred at all"
            ))
            continue
        for key in execution.rwset.read_keys():
            outcome.keys_checked += 1
            if not covers_key(fp.reads, key):
                outcome.violations.append(FuzzViolation(
                    "coverage",
                    f"{function} read {key!r} not covered by {fp.reads}",
                ))
        for key in execution.rwset.write_keys():
            outcome.keys_checked += 1
            if not covers_key(fp.writes, key):
                outcome.violations.append(FuzzViolation(
                    "coverage",
                    f"{function} wrote {key!r} not covered by {fp.writes}",
                ))


def run_fuzz(
    n_events: int,
    seed: int,
    cases: Optional[Sequence[FuzzCase]] = None,
) -> List[FuzzOutcome]:
    """Fuzz every case at one seed; returns per-case outcomes."""
    return [
        fuzz_case(case, n_events=n_events, seed=seed)
        for case in (cases if cases is not None else default_cases())
    ]
