"""Real-transport backend: the simnet interface over asyncio TCP.

``repro.simnet`` simulates the network deterministically; this package
runs the *same* peers, ordering service, gossip and client shim over
real localhost (or multi-process) sockets behind the same two
interfaces, each written down once as the base class both backends
inherit:

* :class:`WallClock` is a :class:`~repro.simnet.clock.ClockCore` driven
  by wall time on an asyncio event loop;
* :class:`RealNetwork` is a :class:`~repro.simnet.transport.NetworkCore`
  whose ``send`` writes length-prefixed :mod:`repro.blockchain.codec`
  frames to per-channel TCP connections.

:func:`make_network` builds a backend by name; a deployment runs on
real sockets when it is handed one
(``BlockchainNetwork(n, net=make_network("realnet"))``).  DESIGN.md §15
documents which determinism guarantees survive the move to real
sockets (none of the *safety* invariants depend on determinism — the
chaos :class:`~repro.chaos.invariants.InvariantMonitor` runs unchanged
on either backend).
"""

from __future__ import annotations

from typing import Optional

from ..simnet.transport import Network, NetworkCore
from .clock import WallClock
from .metrics_http import MetricsServer
from .transport import FrameError, RealHostCondition, RealNetwork

__all__ = [
    "WallClock",
    "RealNetwork",
    "RealHostCondition",
    "FrameError",
    "MetricsServer",
    "make_network",
    "BACKENDS",
]

#: The interchangeable transport backends (see DESIGN.md §15).
BACKENDS = ("simnet", "realnet")


def make_network(
    backend: str,
    profile=None,
    seed: int = 0,
    clock: Optional[WallClock] = None,
) -> NetworkCore:
    """Construct a transport backend by name.

    ``simnet`` returns the deterministic discrete-event
    :class:`~repro.simnet.transport.Network`; ``realnet`` returns a
    :class:`RealNetwork` on a fresh (or supplied) :class:`WallClock`.
    Both are a ``NetworkCore``, so everything above the transport
    boundary — peers, ordering, gossip, shards, clients — runs
    unmodified on either.
    """
    if backend == "simnet":
        return Network(profile=profile, seed=seed)
    if backend == "realnet":
        return RealNetwork(clock=clock, profile=profile, seed=seed)
    raise ValueError(f"unknown transport backend {backend!r} (known: {BACKENDS})")
