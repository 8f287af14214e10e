"""Assembly of a complete blockchain network atop the simulated fabric.

``BlockchainNetwork`` is what the initiator shim's *network generation*
step (§4.2.2) produces: a CA, enrolled peer identities, a genesis block
derived from the configtx-style configuration, an ordering service, and
one peer per player, all attached to a simulated network with the
requested latency profile and placement.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..simnet.latency import INTERNET_US, LatencyProfile, Region
from ..simnet.topology import place_random
from ..simnet.clock import ClockCore
from ..simnet.transport import Network, NetworkCore
from .block import Block, make_genesis_block
from .client import BlockchainClient
from .config import FabricConfig
from .contracts import Contract
from .identity import CertificateAuthority, Identity, MembershipProvider
from .ordering import OrderingService
from .peer import Peer
from .policy import MAJORITY, ConsensusPolicy

__all__ = ["BlockchainNetwork"]


class BlockchainNetwork:
    """A ready-to-run permissioned blockchain deployment.

    Args:
        n_peers: number of peers (one per player in the game setting).
        profile: latency profile (``INTERNET_US`` reproduces the paper's
            SoftLayer deployment; ``LAN_1GBPS`` its LAN testbed).
        config: platform parameters (block size, compute costs, ...).
        policy: consensus-policy expression; defaults to simple majority.
        regions: explicit per-peer regions; default is Swarm-style random
            placement across the US regions.
        seed: drives placement and network jitter.
    """

    def __init__(
        self,
        n_peers: int,
        profile: LatencyProfile = INTERNET_US,
        config: Optional[FabricConfig] = None,
        policy: str = MAJORITY,
        regions: Optional[Sequence[str]] = None,
        seed: int = 0,
        net: Optional[NetworkCore] = None,
        ca: Optional[CertificateAuthority] = None,
        name_prefix: str = "",
    ):
        """Without ``net`` the deployment builds its own simnet
        ``Network``; pass ``repro.realnet.make_network("realnet")`` to run
        it on real sockets.  ``net``/``ca``/``name_prefix`` let several
        chains share one network and certificate authority (the soak
        harness's sessions) or one CA across per-shard networks (the
        sharded deployment, ``repro.blockchain.shardworker``)."""
        if n_peers < 1:
            raise ValueError("need at least one peer")
        self.config = config if config is not None else FabricConfig()
        self.policy = ConsensusPolicy(policy)
        self.net: NetworkCore = (
            net if net is not None else Network(profile=profile, seed=seed)
        )
        self.ca = ca if ca is not None else CertificateAuthority(seed=seed)
        self.msp = MembershipProvider()
        self.msp.trust_ca(self.ca)
        self.name_prefix = name_prefix

        if regions is None:
            regions = place_random(n_peers, profile.region_pool, seed=seed)
        elif len(regions) != n_peers:
            raise ValueError("one region required per peer")

        peer_names = [f"{name_prefix}peer{i}" for i in range(n_peers)]
        genesis_config = {
            "peers": peer_names,
            "policy": policy,
            "max_block_txs": self.config.max_block_txs,
            "ca": self.ca.name,
        }
        self.genesis: Block = make_genesis_block(genesis_config)

        orderer_region = regions[0] if profile.name == "lan-1gbps" else Region.DALLAS
        orderer_identity = self.ca.enroll(f"{name_prefix}orderer")
        self.orderer = OrderingService(
            f"{name_prefix}orderer", orderer_region,
            config=self.config, genesis=self.genesis,
        )
        self.net.register(self.orderer)
        self._orderer_identity = orderer_identity

        self.peers: List[Peer] = []
        for name, region in zip(peer_names, regions):
            identity = self.ca.enroll(name)
            peer = Peer(
                name=name,
                region=region,
                identity=identity,
                msp=self.msp,
                genesis=self.genesis,
                policy=self.policy,
                config=self.config,
            )
            self.net.register(peer)
            self.peers.append(peer)

        for peer in self.peers:
            peer.connect_peers(self.peers)
            peer.orderer = self.orderer
        self.orderer.connect_peers(self.peers)

        self._clients: Dict[str, BlockchainClient] = {}
        #: Optional :class:`repro.telemetry.Telemetry`; set by
        #: ``Telemetry.instrument_chain``.  ``create_client`` propagates
        #: it so late-joining clients are instrumented too.
        self.telemetry = None

    # ------------------------------------------------------------------
    # deployment

    def install_contract(self, factory: Callable[[], Contract]) -> None:
        """Install one fresh contract instance per peer.

        The platform "ensures that the same contract is deployed on every
        peer" (§4.2.2); each peer gets its own instance because contract
        objects may cache state.
        """
        for peer in self.peers:
            peer.install_contract(factory())

    def create_client(
        self,
        name: str,
        identity: Optional[Identity] = None,
        anchor: Optional[Peer] = None,
        region: Optional[str] = None,
        poll_interval_ms: float = 1000.0 / 35.0,
    ) -> BlockchainClient:
        """Create and register a client colocated with its anchor peer."""
        anchor = anchor if anchor is not None else self.peers[0]
        identity = identity if identity is not None else self.ca.enroll(name)
        client = BlockchainClient(
            name=name,
            region=region if region is not None else anchor.region,
            identity=identity,
            orderer=self.orderer,
            anchor_peer=anchor,
            config=self.config,
            poll_interval_ms=poll_interval_ms,
        )
        self.net.register(client)
        self._clients[name] = client
        if self.telemetry is not None:
            client.telemetry = self.telemetry
        return client

    # ------------------------------------------------------------------
    # convenience

    @property
    def scheduler(self) -> ClockCore:
        return self.net.scheduler

    @property
    def now(self) -> float:
        return self.net.now

    def run(self, until: Optional[float] = None) -> None:
        self.net.run(until=until)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        self.net.run_until_idle(max_events=max_events)

    def peer_names(self) -> List[str]:
        return [p.name for p in self.peers]

    def all_synced(self) -> bool:
        """True when every reachable peer has synchronised every block."""
        heights = set()
        for peer in self.peers:
            if self.net.condition(peer.name).down:
                continue
            heights.add(peer.synced_height)
        return len(heights) == 1
