"""The chaos scenario catalog.

A :class:`Scenario` fixes everything about a run *except* the seed: the
deployment shape, the workload cadence and the fault mix.  Given a seed
it draws the concrete :class:`~repro.chaos.faults.FaultSchedule`, so
``(scenario, seed)`` fully determines the run and its event timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from .faults import FaultSchedule

__all__ = ["Scenario", "SCENARIOS", "get_scenario"]


@dataclass(frozen=True)
class Scenario:
    """A named chaos experiment: deployment + workload + fault mix."""

    name: str
    description: str
    n_peers: int = 6
    duration_ms: float = 20_000.0
    churn: int = 0
    partitions: int = 0
    ddos_bursts: int = 0
    message_windows: int = 0
    orderer_failovers: int = 0
    workload_interval_ms: float = 60.0
    n_counters: int = 3
    conflict_every: int = 4
    #: the paper's Doom tuning; >1 so same-tick conflicting submissions
    #: can share a block and exercise the block-level KVS lock.
    max_block_txs: int = 5
    #: simulated grace period after faults are lifted before the
    #: liveness probes are injected.
    settle_ms: float = 2_000.0
    #: >1 runs the scenario over the sharded engine (per-shard chains
    #: plus a cross-shard swap workload) instead of one chain; the
    #: fields below only apply then.  All default so the single-chain
    #: catalog's digests are untouched.
    n_shards: int = 1
    #: tradable assets minted before the clock starts (sharded runs).
    n_assets: int = 8
    #: cadence of cross-shard swap attempts (sharded runs).
    swap_interval_ms: float = 900.0
    #: crash the swap coordinator at this simulated time (0 = never);
    #: drawn to land between a swap's prepare and commit so recovery
    #: has real work to do.
    coordinator_crash_ms: float = 0.0
    #: restart + recover() the coordinator this long after the crash.
    coordinator_recover_ms: float = 3_000.0

    def build_schedule(self, seed: int, peer_names: Sequence[str],
                       orderer: str) -> FaultSchedule:
        return FaultSchedule.generate(
            seed=seed,
            duration_ms=self.duration_ms,
            peers=peer_names,
            orderer=orderer,
            churn=self.churn,
            partitions=self.partitions,
            ddos_bursts=self.ddos_bursts,
            message_windows=self.message_windows,
            orderer_failovers=self.orderer_failovers,
        )


_CATALOG = (
    Scenario(
        name="baseline",
        description="No faults at all — calibrates the workload and the "
        "invariant monitor against a healthy deployment.",
    ),
    Scenario(
        name="message-storm",
        description="Drop / duplicate / delay-reorder windows across the "
        "fabric; no process ever dies.",
        message_windows=6,
    ),
    Scenario(
        name="churn",
        description="Peers crash mid-block and restart from their durable "
        "ledger, resyncing the gap from the ordering service.",
        churn=3,
    ),
    Scenario(
        name="partition",
        description="The fabric splits (orderer stays with the majority) "
        "and heals mid-run; the minority must catch up.",
        partitions=2,
    ),
    Scenario(
        name="orderer-failover",
        description="The ordering service itself goes dark and comes back; "
        "clients and peers ride through the outage.",
        orderer_failovers=2,
    ),
    Scenario(
        name="ddos",
        description="Latency-injection and flooding bursts against peer "
        "subsets, via the paper's simnet attack models.",
        ddos_bursts=3,
    ),
    Scenario(
        name="churn-partition-ddos",
        description="The kitchen sink: crash/restart churn, a mid-block "
        "partition-and-heal, a DDoS burst and message tampering, all in "
        "one timeline.",
        n_peers=8,
        churn=2,
        partitions=1,
        ddos_bursts=1,
        message_windows=3,
    ),
    Scenario(
        name="cross-shard-swap",
        description="Two shards trading assets through the two-phase swap "
        "protocol while peers churn and a partition cuts through a swap; "
        "the coordinator crashes between prepare and commit and must "
        "recover without duplicating or destroying an asset.",
        n_peers=8,
        n_shards=2,
        duration_ms=16_000.0,
        churn=2,
        partitions=1,
        workload_interval_ms=120.0,
        coordinator_crash_ms=6_050.0,
        settle_ms=3_000.0,
    ),
    Scenario(
        name="smoke",
        description="Small and fast — the CI gate: one crash/restart and "
        "one tampering window over a 4-peer chain.",
        n_peers=4,
        duration_ms=8_000.0,
        churn=1,
        message_windows=1,
        workload_interval_ms=100.0,
        settle_ms=1_500.0,
    ),
)

SCENARIOS: Dict[str, Scenario] = {s.name: s for s in _CATALOG}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None
