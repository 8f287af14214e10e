"""Deterministic discrete-event network simulator.

This substrate replaces the paper's physical deployments (SoftLayer
Dallas / San Jose / Toronto over the Internet, and a 1 Gbps LAN testbed)
with simulated time; see DESIGN.md §2 for the substitution argument.
"""

from .bridge import DEFAULT_LOOKAHEAD_MS, BridgeError, ShardGroupPort, TimeBridge
from .clock import ClockCore, Scheduler, SimulationError, Timer
from .ddos import (
    Attack,
    FloodAttack,
    LatencyInjectionAttack,
    PartitionAttack,
    TakedownAttack,
    select_victims,
)
from .latency import (
    INTERCONTINENTAL,
    INTERNET_US,
    LAN_1GBPS,
    LatencyProfile,
    Region,
)
from .topology import Host, Topology, place_random, place_round_robin
from .transport import HostCondition, Message, Network, NetworkCore, NetworkStats

__all__ = [
    "DEFAULT_LOOKAHEAD_MS",
    "BridgeError",
    "ShardGroupPort",
    "TimeBridge",
    "ClockCore",
    "Scheduler",
    "SimulationError",
    "Timer",
    "Attack",
    "FloodAttack",
    "LatencyInjectionAttack",
    "PartitionAttack",
    "TakedownAttack",
    "select_victims",
    "INTERCONTINENTAL",
    "INTERNET_US",
    "LAN_1GBPS",
    "LatencyProfile",
    "Region",
    "Host",
    "Topology",
    "place_random",
    "place_round_robin",
    "HostCondition",
    "Message",
    "Network",
    "NetworkCore",
    "NetworkStats",
]
