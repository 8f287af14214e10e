"""Safety and liveness invariants checked while chaos runs.

The :class:`InvariantMonitor` hooks every peer's ledger (the
``Ledger.on_append`` observer) and re-derives, independently of the
implementation under test:

* **ledger prefix consistency** — all peers that committed height ``h``
  committed the *identical* block, and arrived at the identical
  post-commit state hash;
* **MVCC serializability** — no committed-valid transaction read a key
  at a version other than the one produced by the previous blocks, nor a
  key written earlier in its own block (a shadow version map is replayed
  per peer, so a ledger whose own MVCC check was broken is caught);
* **asset conservation** — pluggable per-game checks
  (:class:`CounterConservation`, :class:`DoomAssetBounds`,
  :class:`MonopolyConservation`) that replay committed transactions by
  the *rules* of the game and compare against the world state, mapping
  directly onto the paper's cheat classes (illegal asset mutation);
* **eventual convergence** — after faults are lifted and the network
  quiesces, every reachable peer agrees on height and state
  (:meth:`InvariantMonitor.check_convergence`).

Violations are collected, not raised: a chaos run always completes and
then reports everything it saw, which is what the shrinker needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..blockchain.state import Version, WorldState
from ..blockchain.transaction import TxValidationCode
from ..game.assets import ASSETS
from ..game.monopoly import BOARD_SIZE, GO_SALARY, STARTING_CURRENCY

__all__ = [
    "Violation",
    "AssetInvariant",
    "CounterConservation",
    "DoomAssetBounds",
    "MonopolyConservation",
    "InvariantMonitor",
]


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    at_ms: float
    invariant: str
    peer: str
    detail: str

    def describe(self) -> str:
        return f"t={self.at_ms:.1f} [{self.invariant}] {self.peer}: {self.detail}"


class AssetInvariant:
    """Base for per-game conservation checks.

    ``on_append`` is called for every committed block at every peer and
    returns a human-readable breach description, or None when the
    invariant holds.  Implementations keep per-peer replay state keyed
    by peer name, because each peer commits its own stream.
    """

    name = "asset"

    def on_append(self, peer_name: str, peer, block, executions, codes) -> Optional[str]:
        raise NotImplementedError


class CounterConservation(AssetInvariant):
    """Counters equal the sum of their committed-valid deltas.

    Replays ``init/add/sub`` *arguments* — not the contract — so a
    tampered contract (or a ledger applying rejected writes) shows up as
    a mismatch between the replayed total and the world state.
    """

    name = "counter-conservation"

    def __init__(self, contract: str = "chaoscounter", key_prefix: str = "ctr/"):
        self.contract = contract
        self.key_prefix = key_prefix
        self._expected: Dict[str, Dict[str, int]] = {}

    def on_append(self, peer_name, peer, block, executions, codes) -> Optional[str]:
        expected = self._expected.setdefault(peer_name, {})
        for tx, code in zip(block.transactions, codes):
            if code != TxValidationCode.VALID:
                continue
            if tx.proposal.contract != self.contract:
                continue
            function = tx.proposal.function
            args = tx.proposal.args
            if function == "init":
                expected[f"{self.key_prefix}{args[0]}"] = 0
            elif function == "add":
                expected[f"{self.key_prefix}{args[0]}"] += int(args[1])
            elif function == "sub":
                expected[f"{self.key_prefix}{args[0]}"] -= int(args[1])
        for key, value in expected.items():
            if value < 0:
                return f"counter {key} replay went negative ({value})"
            actual = peer.ledger.state.get(key)
            if actual != value:
                return f"counter {key} is {actual}, committed deltas say {value}"
        return None


class DoomAssetBounds(AssetInvariant):
    """Committed Doom state stays inside the legal asset envelope:
    health/armor/ammo within the bounds of :data:`repro.game.assets.ASSETS`
    (the envelope every built-in Doom cheat violates)."""

    name = "doom-asset-bounds"

    def on_append(self, peer_name, peer, block, executions, codes) -> Optional[str]:
        state = peer.ledger.state
        for key in state.keys():
            if not key.startswith("asset/"):
                continue
            try:
                aid = int(key.rsplit("/", 1)[1])
            except ValueError:
                continue
            definition = ASSETS.get(aid)
            if definition is None:
                continue
            value = state.get(key)
            if aid == 1:  # health: structured {"hp": ...}
                value = value.get("hp") if isinstance(value, dict) else value
            if not isinstance(value, (int, float)):
                continue
            if not definition.in_bounds(value):
                return (
                    f"{key}={value} outside [{definition.minimum}, "
                    f"{definition.maximum}]"
                )
        return None


class MonopolyConservation(AssetInvariant):
    """Money is conserved: currency only enters the game via GO salaries
    and only leaves into purchased property.

    Replays committed-valid ``addPlayer``/``roll`` transactions to count
    players and GO crossings, then checks::

        sum(currency) + sum(owned property prices)
            == players * 1500 + crossings * 200

    Rent is a pure transfer and cancels out; a duplicated, dropped or
    re-applied transaction breaks the identity immediately.
    """

    name = "monopoly-conservation"

    def __init__(self):
        self._replay: Dict[str, Dict] = {}

    def on_append(self, peer_name, peer, block, executions, codes) -> Optional[str]:
        replay = self._replay.setdefault(
            peer_name, {"players": 0, "crossings": 0, "location": {}}
        )
        for tx, code in zip(block.transactions, codes):
            if code != TxValidationCode.VALID or tx.proposal.contract != "monopoly":
                continue
            function = tx.proposal.function
            creator = tx.proposal.creator
            if function == "addPlayer":
                replay["players"] += 1
                replay["location"][creator] = 0
            elif function == "roll":
                # A VALID roll carries two integer dice faces.
                steps = sum(tx.proposal.args[0]["dice"])
                old = replay["location"].get(creator, 0)
                new = (old + steps) % BOARD_SIZE
                if new < old:
                    replay["crossings"] += 1
                replay["location"][creator] = new

        state = peer.ledger.state
        currency = 0
        locked_in_property = 0
        for key in state.keys():
            if key.startswith("mp/player/"):
                currency += state.get(key)["currency"]
                if state.get(key)["currency"] < 0:
                    return f"{key} has negative currency"
            elif key.startswith("mp/property/"):
                record = state.get(key)
                if record and record.get("owner") is not None:
                    locked_in_property += record.get("price", 0)
        expected = (
            replay["players"] * STARTING_CURRENCY + replay["crossings"] * GO_SALARY
        )
        if currency + locked_in_property != expected:
            return (
                f"money not conserved: currency={currency} + "
                f"property={locked_in_property} != expected={expected} "
                f"({replay['players']} players, {replay['crossings']} GO crossings)"
            )
        return None


class InvariantMonitor:
    """Watches every peer's commits and records invariant breaches.

    Args:
        chain: the :class:`~repro.blockchain.network.BlockchainNetwork`.
        asset_invariants: extra per-game conservation checks.
        on_commit: optional observer ``(sim_ms, peer, height, state_hash)``
            for timeline recording.
    """

    def __init__(
        self,
        chain,
        asset_invariants: Tuple[AssetInvariant, ...] = (),
        on_commit=None,
    ):
        self.chain = chain
        self.asset_invariants = tuple(asset_invariants)
        self.on_commit = on_commit
        self.violations: List[Violation] = []
        self.commits_checked = 0
        #: Per-peer shadow ledger: a version-only :class:`WorldState`
        #: replayed independently of the implementation under test.
        self._shadow: Dict[str, WorldState] = {}
        self._block_digest_at: Dict[int, str] = {}
        self._state_hash_at: Dict[int, str] = {}
        self._attached = False

    # ------------------------------------------------------------------

    def attach(self) -> "InvariantMonitor":
        if self._attached:
            raise RuntimeError("monitor already attached")
        self._attached = True
        for peer in self.chain.peers:
            self._shadow[peer.name] = WorldState()
            peer.ledger.on_append = self._make_hook(peer)
        return self

    def _make_hook(self, peer):
        # A shard world counts its commits through the same observer
        # slot; keep whoever was there first.
        previous = peer.ledger.on_append

        def hook(block, executions, codes):
            if previous is not None:
                previous(block, executions, codes)
            self._on_append(peer, block, executions, codes)

        return hook

    @property
    def ok(self) -> bool:
        return not self.violations

    def _record(self, invariant: str, peer: str, detail: str) -> None:
        self.violations.append(
            Violation(self.chain.now, invariant, peer, detail)
        )

    # ------------------------------------------------------------------
    # per-commit checks

    def _on_append(self, peer, block, executions, codes) -> None:
        self.commits_checked += 1
        name = peer.name

        # 1. prefix consistency: same height ⇒ same block, everywhere.
        digest = block.digest()
        first = self._block_digest_at.setdefault(block.number, digest)
        if digest != first:
            self._record(
                "prefix-consistency", name,
                f"block {block.number} digest {digest[:12]} != first-seen {first[:12]}",
            )

        # 2. MVCC serializability against an independently replayed
        #    shadow ledger: a version-only WorldState per peer, with the
        #    current block's writes staged in a copy-on-write overlay so
        #    the read checks witness the pre-block committed versions.
        shadow = self._shadow.setdefault(name, WorldState())
        overlay = shadow.overlay()
        written: Dict[str, int] = {}
        for index, (execution, code) in enumerate(zip(executions, codes)):
            if code != TxValidationCode.VALID:
                continue
            for key, observed in execution.rwset.reads:
                if overlay.has_local(key):
                    self._record(
                        "mvcc", name,
                        f"block {block.number} tx {index} read {key!r} written by "
                        f"tx {written[key]} of the same block",
                    )
                else:
                    committed = shadow.version_of(key)
                    committed_t = (
                        committed.to_tuple() if committed is not None else None
                    )
                    if committed_t != observed:
                        self._record(
                            "mvcc", name,
                            f"block {block.number} tx {index} read {key!r} at "
                            f"version {observed}, shadow ledger says {committed_t}",
                        )
            for key, _ in execution.rwset.writes:
                if overlay.has_local(key):
                    self._record(
                        "mvcc", name,
                        f"block {block.number} tx {index} rewrote {key!r} already "
                        f"written by tx {written[key]} of the same block",
                    )
            # Only now make this transaction's writes visible to the ones
            # after it: the read checks above must see the pre-tx view.
            for key, _ in execution.rwset.writes:
                written.setdefault(key, index)
                overlay.put(key, None, Version(block.number, index))
        overlay.commit_to_base()

        # 3. state-hash agreement at equal heights (O(state) per commit;
        #    exactly what catches a peer whose ledger silently diverged).
        state_hash = peer.ledger.state_hash()
        first_hash = self._state_hash_at.setdefault(block.number, state_hash)
        if state_hash != first_hash:
            self._record(
                "state-divergence", name,
                f"state hash at height {block.number} is {state_hash[:12]}, "
                f"first-seen {first_hash[:12]}",
            )

        # 4. game-level conservation.
        for invariant in self.asset_invariants:
            breach = invariant.on_append(name, peer, block, executions, codes)
            if breach:
                self._record(invariant.name, name, breach)

        if self.on_commit is not None:
            self.on_commit(self.chain.now, name, block.number, state_hash)

    # ------------------------------------------------------------------
    # end-of-run checks

    def check_convergence(self) -> List[Violation]:
        """After faults are lifted and the network quiesced: every
        reachable, honest peer must agree on committed height, synced
        height and state hash, with an intact hash chain."""
        before = len(self.violations)
        reachable = [
            p for p in self.chain.peers if not self.chain.net.condition(p.name).down
        ]
        if not reachable:
            self._record("convergence", "-", "no reachable peers at end of run")
            return self.violations[before:]
        heights = {p.committed_height for p in reachable}
        if len(heights) != 1:
            detail = ", ".join(f"{p.name}={p.committed_height}" for p in reachable)
            self._record("convergence", "-", f"committed heights diverge: {detail}")
        hashes = {p.ledger.state_hash() for p in reachable}
        if len(hashes) != 1:
            self._record(
                "convergence", "-",
                f"{len(hashes)} distinct state hashes across reachable peers",
            )
        for peer in reachable:
            if peer.synced_height != peer.committed_height:
                self._record(
                    "convergence", peer.name,
                    f"synced height {peer.synced_height} lags committed "
                    f"{peer.committed_height}",
                )
            if not peer.ledger.validate_chain():
                self._record("convergence", peer.name, "hash chain broken")
            if peer.diverged:
                self._record(
                    "convergence", peer.name, "peer diverged from consensus"
                )
        return self.violations[before:]
