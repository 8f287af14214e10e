"""Hosts, regions and placement.

The paper's experimental setup uses Docker Swarm to place peers and Fabric
services *randomly* across an overlay network spanning three data centres
(§7: "deployed randomly across the overlay network of the servers").
:func:`place_round_robin` and :func:`place_random` reproduce both
deterministic and Swarm-style random placements.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .latency import Region

if TYPE_CHECKING:
    from .transport import NetworkCore

__all__ = ["Host", "Topology", "place_round_robin", "place_random"]


class Host:
    """A network endpoint living in a region.

    Protocol actors (peers, orderers, shims, game servers) subclass
    :class:`Host` and override :meth:`handle_message`.  Hosts must be
    registered with a :class:`~repro.simnet.transport.Network` before they
    can send or receive.
    """

    def __init__(self, name: str, region: str = Region.LAN):
        if not name:
            raise ValueError("host name must be non-empty")
        self.name = name
        self.region = region
        self.network: Optional["NetworkCore"] = None  # set by its register()
        #: The host's mutable HostCondition, pinned here by
        #: Network.register so the transport hot paths read it with one
        #: attribute load instead of a per-message dict lookup.
        self._condition: Optional[Any] = None

    def send(self, dst: "Host", payload: Any, size_bytes: int = 256) -> None:
        """Send ``payload`` to ``dst`` through the attached network."""
        if self.network is None:
            raise RuntimeError(f"host {self.name!r} is not attached to a network")
        self.network.send(self, dst, payload, size_bytes)

    def send_many(self, dsts, payload: Any, size_bytes: int = 256) -> None:
        """Send ``payload`` to every host in ``dsts``: the network's
        ``send_many``, equivalent to :meth:`send` per destination, in
        order.  A fixture that tampers with outgoing messages installs
        the network's ``fault_injector``, which sees every copy."""
        if self.network is None:
            raise RuntimeError(f"host {self.name!r} is not attached to a network")
        self.network.send_many(self, dsts, payload, size_bytes)

    def handle_message(self, src: "Host", payload: Any) -> None:
        """Called when a message is delivered to this host.  Override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not handle messages (got one from {src.name})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}@{self.region}>"


class Topology:
    """A named collection of hosts with lookup by name and region."""

    def __init__(self) -> None:
        self._hosts: Dict[str, Host] = {}

    def add(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host name {host.name!r}")
        self._hosts[host.name] = host
        return host

    def get(self, name: str) -> Host:
        return self._hosts[name]

    def __contains__(self, name: str) -> bool:
        return name in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    def __iter__(self):
        return iter(self._hosts.values())

    def in_region(self, region: str) -> List[Host]:
        return [h for h in self._hosts.values() if h.region == region]

    @property
    def names(self) -> List[str]:
        return list(self._hosts)


def place_round_robin(count: int, regions: Sequence[str] = Region.US) -> List[str]:
    """Deterministically assign ``count`` hosts to regions round-robin."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [regions[i % len(regions)] for i in range(count)]


def place_random(
    count: int, regions: Sequence[str] = Region.US, seed: int = 0
) -> List[str]:
    """Swarm-style random placement of ``count`` hosts across ``regions``."""
    rng = random.Random(seed)
    return [rng.choice(list(regions)) for _ in range(count)]
