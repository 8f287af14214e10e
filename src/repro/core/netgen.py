"""Network generation (§4.2.2): from roster to a deployed game chain.

"Post peer discovery, the initiator shim creates and distributes a
genesis block to all peers … The initiator shim finally deploys the
game smart contract on every peer."

:func:`build_game_network` performs those steps atop
:class:`~repro.blockchain.network.BlockchainNetwork`: one blockchain
peer per player, the Doom contract (same map everywhere) installed on
every peer, one shim per player colocated with its peer, and the
out-of-band anonymity directory built via multi-party randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..blockchain.config import FabricConfig
from ..blockchain.network import BlockchainNetwork
from ..blockchain.policy import MAJORITY
from ..game.doom import DoomMap
from ..simnet.latency import INTERNET_US, LatencyProfile
from .anonymity import AnonymityDirectory, build_directory
from .codegen import SpecContract
from .doom_contract import DoomContract
from .shim import Shim, ShimConfig

__all__ = ["GameNetwork", "build_game_network"]


@dataclass
class GameNetwork:
    """A ready game deployment: chain, shims and anonymity directory."""

    chain: BlockchainNetwork
    shims: List[Shim]
    directory: AnonymityDirectory
    game_map: DoomMap

    @property
    def scheduler(self):
        return self.chain.scheduler

    @property
    def now(self) -> float:
        return self.chain.now

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        self.chain.run_until_idle(max_events=max_events)

    def run(self, until: Optional[float] = None) -> None:
        self.chain.run(until=until)


def build_game_network(
    n_peers: int,
    n_players: Optional[int] = None,
    profile: LatencyProfile = INTERNET_US,
    fabric_config: Optional[FabricConfig] = None,
    shim_config: Optional[ShimConfig] = None,
    policy: str = MAJORITY,
    game_map: Optional[DoomMap] = None,
    contract_factory: Optional[Callable[[], SpecContract]] = None,
    player_names: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> GameNetwork:
    """Generate the blockchain network for a game room.

    ``n_peers`` blockchain peers are created (the consensus electorate —
    the paper scales this to 64); ``n_players`` shims (≤ 4 for Doom)
    attach to distinct anchor peers.  The shims share one more contract
    instance, for its KVS layout and payload shapes.
    """
    if n_players is None:
        n_players = min(n_peers, 4)
    if n_players < 1:
        raise ValueError("need at least one player")
    if n_players > n_peers:
        raise ValueError("cannot have more players than peers")
    shim_config = shim_config if shim_config is not None else ShimConfig()
    game_map = game_map if game_map is not None else DoomMap.default_map()
    if contract_factory is None:
        contract_factory = lambda: DoomContract(game_map=game_map)  # noqa: E731

    chain = BlockchainNetwork(
        n_peers=n_peers,
        profile=profile,
        config=fabric_config,
        policy=policy,
        seed=seed,
    )
    chain.install_contract(contract_factory)
    contract = contract_factory()

    if player_names is None:
        player_names = [f"p{i + 1}" for i in range(n_players)]
    elif len(player_names) != n_players:
        raise ValueError("one name required per player")

    shims: List[Shim] = []
    for i, player in enumerate(player_names):
        anchor = chain.peers[i % len(chain.peers)]
        identity = chain.ca.enroll(player)
        shim = Shim(
            name=f"shim-{player}",
            region=anchor.region,
            identity=identity,
            orderer=chain.orderer,
            anchor_peer=anchor,
            contract=contract,
            fabric_config=chain.config,
            shim_config=shim_config,
        )
        chain.net.register(shim)
        shims.append(shim)

    directory = build_directory(
        [shim.identity.certificate for shim in shims], session_seed=seed
    )
    return GameNetwork(chain=chain, shims=shims, directory=directory, game_map=game_map)
