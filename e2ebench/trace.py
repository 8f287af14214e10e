"""Span tracing from outside the program: wrappers around the layers'
public callables, installed for a traced run and removed afterwards.

No file under ``src/`` changes.  A wrapper records one span per call —
name, start, end and the span that was open when it started — and
folds it into per-name *self time* (duration minus the part covered by
child spans) and call counts.  A bounded ring keeps the most recent raw
spans for :meth:`Tracer.write_spans`.

What the wrappers cannot see stays in the enclosing span: the private
continuation callbacks a scheduler fires (``Peer._on_vote``,
``_finish_commit`` …) are part of the scheduler's self time, which is
why ``simnet.clock.self_us_per_event`` is documented as a residual.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "Installer", "install_layer_wrappers", "SPAN_NAMES"]

#: Every span name a wrapper may record; ``<name>_us_per_event`` is the
#: per-layer busy-time metric derived from it.
SPAN_NAMES = (
    "core.shim.on_game_event",
    "blockchain.client.build_sign",
    "blockchain.crypto.verify",
    "blockchain.crypto.sign",
    "blockchain.execution.execute_block",
    "blockchain.ledger.append",
    "blockchain.state.state_hash",
    "blockchain.ordering.handle",
    "blockchain.peer.handle",
    "blockchain.codec.encode",
    "blockchain.codec.decode",
    "simnet.clock.self",
    "simnet.transport.send",
    "simnet.bridge.self",
    "realnet.clock.self",
    "realnet.transport.send",
    "chaos.invariants.busy",
)


class Tracer:
    """In-memory span aggregation for one process and one thread."""

    def __init__(self, ring_size: int = 4096):
        self.self_ns: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self.calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        #: Counts taken at the wrapped boundaries (messages by type,
        #: transactions by verdict, bytes encoded …).
        self.counts: Dict[str, int] = {}
        #: Most recent raw spans: (id, parent id, name, start ns, end ns).
        self.ring: deque = deque(maxlen=ring_size)
        self._stack: List[List[int]] = []
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Zero everything.  Must be called outside any wrapped call:
        the wrappers hold references to these containers."""
        if self._stack:
            raise RuntimeError("tracer reset inside an open span")
        for table in (self.self_ns, self.calls):
            for name in table:
                table[name] = 0
        self.counts.clear()
        self.ring.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_args: Optional[Callable[[Tuple], None]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``.  ``on_args`` sees the
        positional arguments before the call and ``on_result`` the
        return value after it; both run outside the span."""
        if name not in self.self_ns:
            raise KeyError(f"unknown span name {name!r}")
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        ring_append = self.ring.append
        clock = time.perf_counter_ns
        ids = self._ids

        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(args)
            frame = [next(ids), 0]  # span id, ns covered by child spans
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                ring_append((frame[0], parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def snapshot(self) -> Dict[str, Any]:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str) -> int:
        """Write the ring of raw spans as JSON lines; returns the count."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.ring:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
        return len(self.ring)


class Installer:
    """Applies attribute patches and restores every one of them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Every patch ever applied, kept after restore for leftovers().
        self._applied: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))
        self._applied.append((owner, attr, original))

    def patch_method(self, owner: type, attr: str, span: str, **hooks) -> None:
        """Wrap ``owner.attr`` where ``owner`` defines it."""
        original = owner.__dict__[attr]
        self._set(owner, attr, original, self.tracer.wrap(span, original, **hooks))

    def patch_function(self, module: Any, attr: str, span: str, **hooks) -> None:
        """Wrap a module-level function *and every alias of it*: a
        module that did ``from .codec import encode`` holds its own
        reference, which patching the defining module alone would miss.
        """
        original = getattr(module, attr)
        wrapped = self.tracer.wrap(span, original, **hooks)
        prefix = module.__name__.split(".")[0] + "."
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(prefix):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, alias, original, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> List[str]:
        """Patch sites that do not hold their original value (again)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._applied
            if vars(owner)[attr] is not original
        ]

    def __enter__(self) -> "Installer":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()


def install_layer_wrappers(tracer: Tracer) -> Installer:
    """Wrap the public callables of every layer the workloads cross.

    Import surface: only names the packages export (see the README's
    frozen list).  The caller owns the returned installer and must call
    :meth:`Installer.restore` (or use it as a context manager).
    """
    from repro.blockchain import client, codec, crypto, execution, ledger
    from repro.blockchain import messages, ordering, peer, state
    from repro.blockchain import shardworker  # noqa: F401  (holds codec aliases)
    from repro.core import shim
    from repro.realnet import clock as wall_clock
    from repro.realnet import transport as real_transport
    from repro.simnet import bridge, clock, transport

    count = tracer.count
    installer = Installer(tracer)
    try:
        installer.patch_method(shim.Shim, "on_game_event", "core.shim.on_game_event")
        installer.patch_method(
            client.BlockchainClient, "build_transaction", "blockchain.client.build_sign"
        )

        installer.patch_method(
            crypto.PublicKey, "verify", "blockchain.crypto.verify",
            on_args=lambda args: count("crypto.verify_items"),
        )
        installer.patch_function(
            crypto, "verify_batch", "blockchain.crypto.verify",
            on_args=lambda args: count("crypto.verify_items", len(args[0])),
        )
        installer.patch_method(crypto.PrivateKey, "sign", "blockchain.crypto.sign")

        installer.patch_method(
            execution.ValidationExecutor, "execute_block",
            "blockchain.execution.execute_block",
        )

        def on_append_result(codes) -> None:
            count("ledger.blocks")
            count("ledger.txs", len(codes))
            count("ledger.invalid", sum(1 for code in codes if code != "VALID"))

        installer.patch_method(
            ledger.Ledger, "append", "blockchain.ledger.append",
            on_result=on_append_result,
        )
        installer.patch_method(
            state.WorldState, "state_hash", "blockchain.state.state_hash"
        )

        def on_orderer_message(args) -> None:
            if type(args[2]) is messages.RequestBlocks:
                count("orderer.backfill_requests")

        installer.patch_method(
            ordering.OrderingService, "handle_message", "blockchain.ordering.handle",
            on_args=on_orderer_message,
        )

        peer_message_keys = {
            messages.VoteMsg: "peer.vote_msgs",
            messages.SyncHashMsg: "peer.sync_msgs",
            messages.QueryTxStatus: "peer.polls",
            messages.DeliverBlock: "peer.blocks_delivered",
        }

        def on_peer_message(args) -> None:
            key = peer_message_keys.get(type(args[2]))
            if key is not None:
                count(key)

        installer.patch_method(
            peer.Peer, "handle_message", "blockchain.peer.handle",
            on_args=on_peer_message,
        )

        installer.patch_function(
            codec, "encode", "blockchain.codec.encode",
            on_result=lambda data: count("codec.bytes", len(data)),
        )
        installer.patch_function(codec, "decode", "blockchain.codec.decode")

        for method in ("run", "run_until_idle"):
            installer.patch_method(clock.Scheduler, method, "simnet.clock.self")
            installer.patch_method(wall_clock.WallClock, method, "realnet.clock.self")
        installer.patch_method(
            transport.Network, "send", "simnet.transport.send",
            on_args=lambda args: count("simnet.msgs"),
        )
        installer.patch_method(
            transport.Network, "send_many", "simnet.transport.send",
            on_args=lambda args: count("simnet.msgs", len(args[2])),
        )
        installer.patch_method(bridge.TimeBridge, "run", "simnet.bridge.self")
        # RealNetwork.send_many is a loop over send: wrapping send alone
        # counts every message once.
        installer.patch_method(
            real_transport.RealNetwork, "send", "realnet.transport.send",
            on_args=lambda args: count("realnet.msgs"),
        )
    except BaseException:
        installer.restore()
        raise
    return installer
