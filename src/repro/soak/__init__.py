"""Sustained multi-session soak runs over either transport backend.

The chaos harness (``repro.chaos``) answers "does one scripted fault
scenario preserve the invariants?" on the deterministic simnet.  This
module answers the operational question the realnet backend exists
for: does the *same deployment code* — peers, ordering, gossip,
clients, fault injection — stay healthy under sustained traffic for a
wall-clock budget, on real sockets, with every invariant the chaos
layer knows about checked at the end?

A soak run (:func:`run_soak`):

1. builds one shared transport (``simnet`` or ``realnet``) and ``N``
   independent game sessions on it, each a full
   :class:`~repro.blockchain.network.BlockchainNetwork` with its own
   orderer, peers, and :class:`~repro.chaos.workload.CounterWorkload`;
2. hands them to the chaos run loop (:func:`repro.chaos.loop
   .run_worlds`), which arms a per-session
   :class:`~repro.chaos.injector.FaultInjector` (drop/delay windows,
   optional crash/restart churn; injectors sharing the transport chain
   on its one ``fault_injector`` hook) and a per-session
   :class:`~repro.chaos.invariants.InvariantMonitor` with
   :class:`~repro.chaos.invariants.CounterConservation`;
3. runs for the requested budget, sampling throughput along the way
   (and, on realnet, serving live ``/metrics`` over HTTP and scraping
   it mid-run);
4. lifts all faults, lets the network settle, submits liveness probes
   after the settle, and runs the end-of-run convergence checks.  On
   realnet one wall budget (run + two settle periods) bounds it all; a
   run that hits it is a ``settle`` violation.  However the run ends,
   the sockets, the clock's loop and ``/metrics`` are closed.

The returned record is JSON-ready and tagged with the backend, so the
perf baseline checker can refuse cross-backend comparisons.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from ..blockchain.identity import CertificateAuthority
from ..blockchain.network import BlockchainNetwork
from ..chaos.faults import FaultSchedule
from ..chaos.invariants import CounterConservation
from ..chaos.loop import run_worlds
from ..chaos.workload import CounterWorkload
from ..realnet import make_network
from ..telemetry import (
    Telemetry,
    fig2_latency_bins,
    prometheus_text,
    stage_summary,
)

__all__ = ["SoakConfig", "run_soak", "write_record"]

SCHEMA = "repro.soak/1"


@dataclass
class SoakConfig:
    """Knobs of one soak run.  Times are seconds of *clock* time —
    wall seconds on realnet, simulated seconds on simnet (where the
    same run completes as fast as the host can turn the crank)."""

    backend: str = "simnet"
    sessions: int = 2
    peers: int = 8
    wall_s: float = 60.0
    seed: int = 0
    #: Workload tick interval per session (one counter update per tick).
    tick_ms: float = 40.0
    #: Drop rate injected over the middle of the run (0 = no window).
    drop: float = 0.0
    #: Extra per-message delay injected over the middle of the run.
    delay_ms: float = 0.0
    #: Crash/restart one non-anchor peer per session per ~minute.
    churn: bool = False
    #: Closed-loop backpressure: a session's tick is shed (not
    #: submitted) while this many of its updates are unresolved.  Keeps
    #: an over-capacity host degrading in throughput instead of
    #: unbounded queueing delay; on simnet commit latency is a few
    #: sim-ms, so the cap never engages.
    max_inflight: int = 32
    #: Budget for the post-workload settle + convergence phases.
    settle_s: float = 15.0
    #: Throughput sample interval.
    sample_s: float = 5.0
    #: realnet only: bind the live ``/metrics`` endpoint here (0 = any).
    metrics_port: int = 0

    def __post_init__(self) -> None:
        if self.backend not in ("simnet", "realnet"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.sessions < 1 or self.peers < 1:
            raise ValueError("need at least one session and one peer")
        if self.wall_s <= 0:
            raise ValueError("wall_s must be positive")


def _build_schedule(config: SoakConfig, chain: BlockchainNetwork, index: int) -> FaultSchedule:
    """Per-session fault timeline: drop/delay windows over the middle
    half of the run, plus optional crash/restart churn rounds."""
    duration_ms = config.wall_s * 1000.0
    names = [p.name for p in chain.peers]
    schedule = FaultSchedule(seed=config.seed + index)
    window_at = 0.25 * duration_ms
    window_len = 0.5 * duration_ms
    if config.drop > 0.0:
        schedule.drop(window_at, names, window_len, config.drop)
    if config.delay_ms > 0.0:
        schedule.delay(window_at, names, window_len, rate=0.5, extra_ms=config.delay_ms)
    if config.churn:
        # Workload anchors are peers[0] and peers[n//2]; churn only the
        # others so client polling always has a live anchor.
        anchors = {0, len(names) // 2}
        candidates = [n for i, n in enumerate(names) if i not in anchors]
        if candidates:
            rounds = max(1, int(duration_ms // 60_000.0))
            for r in range(rounds):
                victim = candidates[(index + r) % len(candidates)]
                start = (r + 0.35) / rounds * duration_ms
                stop = min(start + 0.25 / rounds * duration_ms, duration_ms * 0.9)
                schedule.crash(start, victim).restart(stop, victim)
    return schedule


def run_soak(
    soak: SoakConfig,
    metrics_snapshot_path: Optional[str] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run one soak and return its JSON-ready record.

    ``metrics_snapshot_path``: write a Prometheus text snapshot there —
    on realnet the snapshot is *scraped live over HTTP mid-run* (what a
    real scraper would have seen), on simnet it is exported at the end.
    ``progress``: optional ``print``-like callable for CLI narration.
    """
    say = progress if progress is not None else (lambda msg: None)
    started_wall = time.time()
    duration_ms = soak.wall_s * 1000.0
    backend = soak.backend

    say(f"building {soak.sessions} session(s) x {soak.peers} peers on {backend}")
    net = make_network(backend, seed=soak.seed)
    if backend == "realnet":
        net.start()
    ca = CertificateAuthority(seed=soak.seed)

    chains: List[BlockchainNetwork] = []
    workloads: List[CounterWorkload] = []
    for index in range(soak.sessions):
        chain = BlockchainNetwork(
            soak.peers,
            seed=soak.seed + index,
            net=net,
            ca=ca,
            name_prefix=f"s{index}.",
        )
        Telemetry().instrument_chain(chain)
        workloads.append(CounterWorkload(
            chain,
            duration_ms=duration_ms,
            interval_ms=soak.tick_ms,
            seed=soak.seed + index,
            poll_timeout_ms=min(20_000.0, soak.settle_s * 1000.0),
            max_inflight=soak.max_inflight,
        ).install())
        chains.append(chain)
    telemetry = chains[0].telemetry

    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "backend": backend,
        "config": asdict(soak),
        "samples": [],
        "settle_timeouts": [],
        "faults": [],
        "violations": [],
    }

    # Throughput sampler: absolute tick times, shared scheduler.
    def sample() -> None:
        record["samples"].append({
            "t_ms": round(net.scheduler.now, 1),
            "submitted": sum(w.submitted for w in workloads),
            "resolved": sum(sum(w.codes.values()) for w in workloads),
            "committed_heights": [c.peers[0].committed_height for c in chains],
        })

    t = soak.sample_s * 1000.0
    while t < duration_ms:
        net.scheduler.call_at(t, sample)
        t += soak.sample_s * 1000.0

    # Live /metrics endpoint + mid-run self-scrape (realnet only).
    close = []
    max_wall_s = None
    scrape_holder: Dict[str, str] = {}
    if backend == "realnet":
        from ..realnet.metrics_http import MetricsServer, scrape

        metrics_server = MetricsServer(
            telemetry, net.scheduler, port=soak.metrics_port
        ).start()
        close = [metrics_server.stop, net.close]
        record["metrics_url"] = metrics_server.url

        def store_scrape(task) -> None:
            try:
                scrape_holder["body"] = task.result()
            except Exception:
                pass  # a failed scrape falls back to end-of-run export

        def live_scrape() -> None:
            task = net.scheduler.loop.create_task(
                scrape(metrics_server.host, metrics_server.port)
            )
            task.add_done_callback(store_scrape)

        net.scheduler.call_at(0.6 * duration_ms, live_scrape)
        # One wall budget for the run and both settle periods (a
        # simulated run needs none: it ends when its events do).
        max_wall_s = soak.wall_s + 2 * soak.settle_s
        # Construction burned wall time; restart the clock so tick 1 of
        # the schedules above is "now", not a stale burst.
        net.scheduler.rebase()

    say(f"running workload for {soak.wall_s:.0f}s ({backend} time), "
        "then settling and probing")
    schedules = [_build_schedule(soak, chain, i) for i, chain in enumerate(chains)]
    run = run_worlds(
        net.scheduler,
        [(chain, s if s.events else None) for chain, s in zip(chains, schedules)],
        workloads,
        horizon_ms=duration_ms,
        max_wall_s=max_wall_s,
        invariants=lambda: (CounterConservation(),),
        close=close,
    )

    violations = [v.describe() for v in run.violations]
    if run.truncated:
        timeout = f"run did not quiesce within {max_wall_s:g} s wall"
        record["settle_timeouts"].append(timeout)
        violations.append(f"settle: network failed to quiesce: {timeout}")

    per_session: List[Dict[str, Any]] = []
    for chain, workload, monitor, injector, faults in zip(
        chains, workloads, run.monitors, run.injectors, run.faults
    ):
        per_session.append({
            "name_prefix": chain.name_prefix,
            "submitted": workload.submitted,
            "shed": workload.shed,
            "codes": workload.summary(),
            "probe_codes": list(workload.probe_codes),
            "committed_height": chain.peers[0].committed_height,
            "commits_checked": monitor.commits_checked,
            "counters": workload.expected_totals(),
            "faults_applied": injector.faults_applied if injector else 0,
        })
        record["faults"].extend(
            {"t_ms": t, "kind": kind, "targets": list(targets)}
            for t, kind, targets in faults
        )

    codes: Counter = Counter()
    for workload in workloads:
        codes.update(workload.codes)

    record.update({
        "wall_elapsed_s": round(time.time() - started_wall, 3),
        "clock_ms": round(net.scheduler.now, 1),
        "submitted": sum(w.submitted for w in workloads),
        "shed": sum(w.shed for w in workloads),
        "codes": dict(sorted(codes.items())),
        "per_session": per_session,
        "net": net.stats.as_dict(),
        "violations": violations,
        "ok": not violations,
        "stage_summary": stage_summary(telemetry),
        "fig2": fig2_latency_bins(telemetry),
    })
    if backend == "realnet":
        record["transport"] = net.transport_counters()

    if metrics_snapshot_path is not None:
        if backend == "realnet" and scrape_holder.get("body"):
            snapshot = scrape_holder["body"]
            record["metrics_snapshot"] = "live-scrape"
        else:
            snapshot = prometheus_text(telemetry)
            record["metrics_snapshot"] = "export"
        with open(metrics_snapshot_path, "w") as fh:
            fh.write(snapshot)
    return record


def write_record(record: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
