"""The paper's primary contribution: constraint spec, codegen, contract,
shim, session orchestration, cheat injection, discovery and anonymity."""

from .anonymity import AnonymityDirectory, AnonymityError, build_directory
from .batching import count_delays
from .cheats import (
    DOOM_CHEATS,
    PROTOCOL_CHEATS,
    CheatDef,
    CheatInjector,
    CheatResult,
    relevant_cheats,
)
from .codegen import compile_contract_source, generate_contract, generate_contract_source
from .discovery import (
    Advertisement,
    DiscoveryListener,
    JoinAccepted,
    JoinRejected,
    JoinRequest,
    JoiningPeer,
)
from .doom_contract import DoomContract, item_key
from .doomspec import DOOM_SPEC_XML, doom_spec
from .monopoly_contract import MonopolyContract, player_key, property_key
from .netgen import GameNetwork, build_game_network
from .session import GameSession, SessionError, ShardedSessionPool
from .shim import MERGEABLE_EVENTS, Batch, ShardRouter, Shim, ShimConfig, ShimStats
from .spec import (
    AffectsSpec,
    AssetSpec,
    EventSpec,
    GameSpec,
    PlayerSpec,
    PowerSpec,
    SpecError,
    parse_spec,
)

__all__ = [
    "AnonymityDirectory",
    "AnonymityError",
    "build_directory",
    "count_delays",
    "DOOM_CHEATS",
    "PROTOCOL_CHEATS",
    "CheatDef",
    "CheatInjector",
    "CheatResult",
    "relevant_cheats",
    "compile_contract_source",
    "generate_contract",
    "generate_contract_source",
    "Advertisement",
    "DiscoveryListener",
    "JoinAccepted",
    "JoinRejected",
    "JoinRequest",
    "JoiningPeer",
    "DoomContract",
    "item_key",
    "DOOM_SPEC_XML",
    "doom_spec",
    "MonopolyContract",
    "player_key",
    "property_key",
    "GameNetwork",
    "build_game_network",
    "GameSession",
    "SessionError",
    "ShardedSessionPool",
    "ShardRouter",
    "MERGEABLE_EVENTS",
    "Batch",
    "Shim",
    "ShimConfig",
    "ShimStats",
    "AffectsSpec",
    "AssetSpec",
    "EventSpec",
    "GameSpec",
    "PlayerSpec",
    "PowerSpec",
    "SpecError",
    "parse_spec",
]
