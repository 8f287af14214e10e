"""Smart-contract execution interface.

A smart contract "is akin to a server and encodes the logic to manage
player assets" (§4.1).  Contracts run *at every peer* against that
peer's world state; the :class:`StateView` records the read/write set of
each invocation so the ledger can apply Fabric's MVCC rules at commit.

The replay-attack defence required of every generated contract (§4.1) is
implemented here once, in :func:`execute_transaction`: the nonce of each
query object is recorded under a per-creator key and a repeated nonce
yields ``DUPLICATE_NONCE``.  :func:`apply_invocation` runs the same
contract for a host that is its own authority (the C/S baseline's
server, a client predicting its own events).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from .state import GENESIS_VERSION, WorldState, WorldStateOverlay
from .transaction import RWSet, Transaction, TxValidationCode
from .ledger import TxExecution

__all__ = [
    "ContractError",
    "StateView",
    "InvocationContext",
    "Contract",
    "check_args",
    "check_payload",
    "execute_transaction",
    "apply_invocation",
    "nonce_key",
]


class ContractError(Exception):
    """Raised by a contract to reject an invocation.

    A rejection means the requested state transition is illegal — in the
    game setting, a prevented cheat.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class StateView:
    """A transactional view over a peer's world state.

    Reads record (key, observed version); writes are buffered so the
    contract reads its own writes but nothing touches the real state
    until commit.  ``overlay`` carries writes of earlier valid
    transactions in the same block, so peers execute block transactions
    in order against a consistent prefix.
    """

    def __init__(self, state: WorldState, overlay: Optional[WorldStateOverlay] = None):
        self._state = state
        self._reads: List[Tuple[str, Optional[Tuple[int, int]]]] = []
        self._writes: Dict[str, Any] = {}
        # The overlay's reads fall through to committed state.
        self._lookup = state.get if overlay is None else overlay.get

    def get(self, key: str) -> Optional[Any]:
        if key in self._writes:
            return self._writes[key]
        self._record_read(key)
        return self._lookup(key)

    def put(self, key: str, value: Any) -> None:
        self._writes[key] = value

    def exists(self, key: str) -> bool:
        return self.get(key) is not None

    def _record_read(self, key: str) -> None:
        version = self._state.version_of(key)
        observed = version.to_tuple() if version is not None else None
        self._reads.append((key, observed))

    def rwset(self) -> RWSet:
        # Deduplicate reads keeping first observation.
        seen: Dict[str, Optional[Tuple[int, int]]] = {}
        for key, version in self._reads:
            seen.setdefault(key, version)
        return RWSet(reads=list(seen.items()), writes=list(self._writes.items()))


@dataclass
class InvocationContext:
    """Everything a contract function may consult during one invocation."""

    view: StateView
    creator: str
    nonce: str
    timestamp: float
    tx_id: str


#: A handler's declared payload: ``{field: (accepted types, required)}``.
#: Keys a shape does not name are accepted and ignored.
PayloadShape = Dict[str, Tuple[Tuple[type, ...], bool]]


def check_payload(shape: PayloadShape, payload: Any) -> None:
    """Raise :class:`ContractError` unless ``payload`` fits ``shape``.

    The payload is whatever a client signed: a non-mapping, a missing
    required field or a field of the wrong type is a rejection.
    """
    if not isinstance(payload, Mapping):
        raise ContractError(f"payload is not a mapping: {type(payload).__name__}")
    for field, (types, required) in shape.items():
        if field in payload:
            if not isinstance(payload[field], types):
                kind = type(payload[field]).__name__
                raise ContractError(f"payload field {field!r} has the wrong type: {kind}")
        elif required:
            raise ContractError(f"payload has no {field!r}")


def check_args(signature: Tuple[Any, ...], args: Any) -> None:
    """Raise :class:`ContractError` unless ``args`` fits ``signature``,
    the accepted type (or types) of each positional argument in order:
    the positional counterpart of :func:`check_payload`."""
    if not isinstance(args, (tuple, list)):
        raise ContractError(f"args are not a sequence: {type(args).__name__}")
    if len(args) != len(signature):
        raise ContractError(f"expected {len(signature)} args, got {len(args)}")
    for index, (types, value) in enumerate(zip(signature, args)):
        if not isinstance(value, types):
            raise ContractError(f"arg {index} has the wrong type: {type(value).__name__}")


class Contract:
    """Base class for smart contracts.

    A contract declares ``HANDLERS`` (API name → ``handler(self, ctx,
    payload)``) and ``PAYLOADS`` (API name → :data:`PayloadShape`).
    :meth:`invoke` checks the payload before the handler reads any
    state and turns the game rules' ``RULE_ERRORS`` into
    :class:`ContractError`: no other exception leaves it.  A contract
    whose functions take positional args overrides :meth:`invoke` and
    checks each call with :func:`check_args`.  A subclass that overrides
    a handler must rebind ``HANDLERS``; defining one that does not raises
    :class:`TypeError`.
    """

    name: str = "contract"
    HANDLERS: Dict[str, Callable[..., Any]] = {}
    PAYLOADS: Dict[str, PayloadShape] = {}
    RULE_ERRORS: Tuple[Type[Exception], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # invoke dispatches through the function objects in HANDLERS, so
        # an override that HANDLERS does not rebind would never run.
        super().__init_subclass__(**kwargs)
        for handler in cls.HANDLERS.values():
            name = getattr(handler, "__name__", repr(handler))
            if getattr(cls, name, None) is not handler:
                raise TypeError(
                    f"{cls.__name__}.HANDLERS dispatches to a {name} that is "
                    f"not {cls.__name__}.{name}: rebind HANDLERS after overriding it"
                )

    def invoke(self, ctx: InvocationContext, function: str, args: Tuple[Any, ...]) -> Any:
        handler = self.HANDLERS.get(function)
        if handler is None:
            raise ContractError(f"unknown function {function!r}")
        payload = args[0] if args else {}
        check_payload(self.PAYLOADS.get(function, {}), payload)
        try:
            return handler(self, ctx, payload)
        except self.RULE_ERRORS as violation:
            raise ContractError(str(violation)) from None

    def functions(self) -> List[str]:
        """Publicly visible API names (informational)."""
        return list(self.HANDLERS)


def nonce_key(creator: str, nonce: str) -> str:
    """World-state key marking a consumed (creator, nonce) pair.

    One key per nonce keeps replay defence conflict-free under the
    per-player-per-asset KVS discipline.
    """
    return f"~nonce/{creator}/{nonce}"


def execute_transaction(
    contract: Contract,
    tx: Transaction,
    state: WorldState,
    overlay: Optional[WorldStateOverlay] = None,
) -> TxExecution:
    """Execute one transaction's contract call against ``state``.

    Returns a :class:`TxExecution` whose code is VALID on acceptance, or
    the contract-level failure code.  The nonce replay check runs before
    the contract body, mirroring the generated boilerplate's verifier.
    """
    proposal = tx.proposal
    view = StateView(state, overlay=overlay)

    marker = nonce_key(proposal.creator, proposal.nonce)
    if view.get(marker) is not None:
        return TxExecution(rwset=view.rwset(), code=TxValidationCode.DUPLICATE_NONCE)
    view.put(marker, proposal.timestamp)

    ctx = InvocationContext(
        view=view,
        creator=proposal.creator,
        nonce=proposal.nonce,
        timestamp=proposal.timestamp,
        tx_id=proposal.tx_id,
    )
    try:
        contract.invoke(ctx, proposal.function, proposal.args)
    except ContractError:
        return TxExecution(
            rwset=view.rwset(), code=TxValidationCode.CONTRACT_REJECTED
        )
    return TxExecution(rwset=view.rwset(), code=TxValidationCode.VALID)


def apply_invocation(
    contract: Contract,
    state: WorldState,
    creator: str,
    function: str,
    args: Tuple[Any, ...],
    timestamp: float,
) -> None:
    """Run one invocation directly on a trusted host's own ``state``.

    There is no nonce, no MVCC check and no version history: the host
    is the authority, so accepted writes land with ``WorldState.put``.
    A rejection raises :class:`ContractError` and leaves ``state``
    untouched.
    """
    view = StateView(state)
    ctx = InvocationContext(
        view=view, creator=creator, nonce="", timestamp=timestamp, tx_id=""
    )
    contract.invoke(ctx, function, args)
    for key, value in view._writes.items():
        state.put(key, value, GENESIS_VERSION)
