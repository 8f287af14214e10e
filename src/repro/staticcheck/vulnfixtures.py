"""Seeded-vulnerable contract fixtures for the CHT rules.

Mirrors :mod:`repro.chaos.buggy` one layer up: where ``buggy.py`` breaks
the *platform* to prove the invariant monitor catches regressions, this
module breaks the *contract* to prove the taint rules catch the cheat
vulnerabilities the runtime currently rejects dynamically.  Each fixture
is the vulnerable variant of a shipped Doom/Monopoly handler — the
validation that ``core/cheats.py`` shows the runtime performing has been
removed, exactly the bug a hurried contract author would ship.

``CHEAT_RULE_MAP`` ties every relevant cheat of the taxonomy to the CHT
rule that would have flagged its vulnerable variant at *compile* time
(the paper prevents these at commit time; the linter moves detection
earlier).  The two protocol cheats are runtime-only by nature: REPLAY is
stopped by the ledger's nonce marker and SPOOF by signature
verification, neither of which is contract code the linter can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["VulnFixture", "FIXTURES", "CHEAT_RULE_MAP", "RUNTIME_ONLY_CHEATS"]


@dataclass(frozen=True)
class VulnFixture:
    """One vulnerable contract variant and the rule expected to fire."""

    name: str
    rule: str  # the intended CHT rule id
    cheats: Tuple[str, ...]  # cheat codes this vulnerability enables
    class_name: str
    source: str


# ----------------------------------------------------------------------
# CHT001 — unguarded payload→state write.  The IDDQD family: the handler
# trusts the client's claimed asset value outright, so a cheater pins
# health at 200, grants itself the chainsaw, or toggles any power-up.

_UNGUARDED_GRANT = VulnFixture(
    name="unguarded-grant",
    rule="CHT001",
    cheats=("IDDQD", "IDFA", "IDCHOPPERS", "IDBEHOLDV", "IDBEHOLDS",
            "IDBEHOLDI", "IDBEHOLDR"),
    class_name="UnguardedGrantContract",
    source='''
class UnguardedGrantContract:
    """VULNERABLE: writes client-claimed asset values verbatim."""

    name = "vuln-grant"

    def on_set_health(self, ctx, payload):
        # IDDQD: no clamp against ASSETS bounds, no damage derivation —
        # the client simply *declares* its health.
        ctx.view.put(f"asset/{ctx.creator}/1", payload["hp"])

    def on_take_weapon(self, ctx, payload):
        # IDFA/IDCHOPPERS: weapon granted without a pickup at the
        # weapon's map location.
        ctx.view.put(f"asset/{ctx.creator}/3", payload["weapon"])

    def on_power_up(self, ctx, payload):
        # IDBEHOLD*: power-up expiry set to whatever the client asks.
        ctx.view.put(f"asset/{ctx.creator}/7", payload["until"])
''',
)


# ----------------------------------------------------------------------
# CHT002 — tainted arithmetic without a bounds check.  The IDCLIP/IDCLEV
# family: coordinates are only checked for presence, never against the
# map geometry or the speed limit, so the client teleports at will.

_TELEPORT_NO_BOUNDS = VulnFixture(
    name="teleport-no-bounds",
    rule="CHT002",
    cheats=("IDCLIP", "IDCLEV"),
    class_name="TeleportContract",
    source='''
class TeleportContract:
    """VULNERABLE: movement without geometry or speed validation."""

    name = "vuln-teleport"

    def on_location(self, ctx, payload):
        x = payload.get("x")
        y = payload.get("y")
        if x is None or y is None:
            raise ValueError("missing coordinates")
        # No in_bounds() wall check, no dist/dt speed check: an
        # existence guard alone does not bound the delta.
        ctx.view.put(
            f"asset/{ctx.creator}/6",
            {"x": x + 0.0, "y": y + 0.0},
        )
''',
)


# ----------------------------------------------------------------------
# CHT003 — statically provable non-conservation.  IDKFA: ammunition is
# credited by a client-chosen amount on top of the stored balance with
# no debit anywhere — a mint, where the real contract only ever adds
# fixed pickup amounts gated by the item's map marker.

_AMMO_MINT = VulnFixture(
    name="ammo-mint",
    rule="CHT003",
    cheats=("IDKFA",),
    class_name="AmmoMintContract",
    source='''
class AmmoMintContract:
    """VULNERABLE: client-chosen ammo credit with no matching debit."""

    name = "vuln-mint"

    def on_reload(self, ctx, payload):
        amount = payload.get("amount", 0)
        if amount is None:
            raise ValueError("missing amount")
        ammo = ctx.view.get(f"asset/{ctx.creator}/2") or 0
        # existence-checked but unbounded AND unconserved: nothing is
        # consumed in exchange for the credit.
        ctx.view.put(f"asset/{ctx.creator}/2", ammo + amount)
''',
)


# ----------------------------------------------------------------------
# CHT004 — payload-addressed key with no auth/roster check.  The
# application-layer counterpart of spoofing: any client rewrites any
# principal's state just by naming them, where the real damage handler
# first proves the target is on the roster.

_UNAUTH_TARGET = VulnFixture(
    name="unauthenticated-target",
    rule="CHT004",
    cheats=("SPOOF",),
    class_name="UnauthTargetContract",
    source='''
class UnauthTargetContract:
    """VULNERABLE: acts on an arbitrary principal's state."""

    name = "vuln-target"

    def on_damage(self, ctx, payload):
        target = payload["target"]
        amount = payload.get("amount", 0)
        if amount < 0:
            raise ValueError("negative damage")
        # `target` is never checked against the roster (or anything):
        # the write key is wholly client-selected.
        hp = ctx.view.get(f"asset/{target}/1") or 100
        ctx.view.put(f"asset/{target}/1", hp - amount)
''',
)


# ----------------------------------------------------------------------
# CHT005 — a payload field read but not declared.  ``Contract.invoke``
# checks each handler's payload against its ``PAYLOADS`` entry; a field
# left out of the entry reaches the handler unchecked, so one signed
# event with the field missing (KeyError) or a string in it (TypeError)
# crashes every peer that executes it.

_UNDECLARED_FIELD = VulnFixture(
    name="undeclared-field",
    rule="CHT005",
    cheats=(),
    class_name="UndeclaredFieldContract",
    source='''
class UndeclaredFieldContract:
    """VULNERABLE: reads a payload field its declaration omits."""

    name = "vuln-undeclared"

    def _burst(self, payload):
        return payload["burst"]  # not in PAYLOADS: unchecked

    def on_shoot(self, ctx, payload):
        count = payload.get("count", 1)
        burst = self._burst(payload)
        if count < 1 or burst < 1:
            raise ValueError("bad shot")
        ammo = ctx.view.get(f"asset/{ctx.creator}/2") or 0
        if ammo < count * burst:
            raise ValueError("out of ammunition")
        ctx.view.put(f"asset/{ctx.creator}/2", ammo - count * burst)

    HANDLERS = {"shoot": on_shoot}
    PAYLOADS = {"shoot": {"count": ((int,), False)}}
''',
)


# ----------------------------------------------------------------------
# Waiver exercise: the same mint as above, but carrying an explicit
# STATICCHECK_WAIVERS entry — the finding must move to the waived list,
# never be silently dropped.

_WAIVED_MINT = VulnFixture(
    name="waived-mint",
    rule="CHT003",
    cheats=(),
    class_name="WaivedMintContract",
    source='''
class WaivedMintContract:
    """Mint vulnerability acknowledged via an explicit waiver."""

    name = "vuln-mint-waived"
    STATICCHECK_WAIVERS = {
        "CHT003": "test-currency faucet: minting is the contract's job",
        "CHT002": "faucet amount is rate-limited by the runtime, not here",
    }

    def on_faucet(self, ctx, payload):
        amount = payload.get("amount", 0)
        if amount is None:
            raise ValueError("missing amount")
        balance = ctx.view.get(f"asset/{ctx.creator}/2") or 0
        ctx.view.put(f"asset/{ctx.creator}/2", balance + amount)
''',
)


FIXTURES: Tuple[VulnFixture, ...] = (
    _UNGUARDED_GRANT,
    _TELEPORT_NO_BOUNDS,
    _AMMO_MINT,
    _UNAUTH_TARGET,
    _UNDECLARED_FIELD,
    _WAIVED_MINT,
)

#: cheat code → CHT rule whose fixture models the vulnerable variant.
#: ``None`` marks runtime-only defenses (protocol layer, not contract
#: code): REPLAY dies on the ``~nonce/{creator}/{nonce}`` marker, SPOOF
#: on certificate signature verification — though SPOOF's application-
#: layer shadow (acting on another principal by name) is CHT004.
CHEAT_RULE_MAP: Dict[str, Optional[str]] = {
    "IDDQD": "CHT001",
    "IDFA": "CHT001",
    "IDCHOPPERS": "CHT001",
    "IDBEHOLDV": "CHT001",
    "IDBEHOLDS": "CHT001",
    "IDBEHOLDI": "CHT001",
    "IDBEHOLDR": "CHT001",
    "IDCLIP": "CHT002",
    "IDCLEV": "CHT002",
    "IDKFA": "CHT003",
    "SPOOF": "CHT004",
    "REPLAY": None,
}

RUNTIME_ONLY_CHEATS: Tuple[str, ...] = tuple(
    code for code, rule in CHEAT_RULE_MAP.items() if rule is None
)
