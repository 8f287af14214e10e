"""The pinned simulated outcome of the engine's headline workloads.

``replay-{4,16,32}p`` replays a prefix of the paper's session #9 (its
longest trace) through the real shim + blockchain + simnet stack: the
Fig. 3c shape at 4/16/32 peers.  ``sharded-replay-{1,4,8}s`` routes one
MMOG-scale event stream across 1/4/8 shard pipelines on the bridged
engine: the sharded scaling figure.

``python -m repro.perf --out FILE`` records each workload's ``params``
and ``sim_metrics`` plus the ``scaling`` summary; ``--check FILE``
re-runs them and requires an exact match and a floor on shard
efficiency.  The committed record is
``benchmarks/engine_sim_metrics.json``.  Host time is the end-to-end
benchmark's job (``python -m e2ebench``), not this package's.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional

from .workloads import WORKLOADS, WorkloadResult

__all__ = [
    "WORKLOADS", "WorkloadResult", "run_suite", "scaling_report",
    "check_against_baseline",
]

#: Absolute floor on every shard count's parallel efficiency.  It is
#: checked on the run itself, never against the record, so regenerating
#: the record cannot ratchet it down.
MIN_EFFICIENCY = 0.375


def run_suite(names: List[str], procs: int = 1) -> Dict[str, Any]:
    """Run the named workloads; return ``{"workloads", "scaling"}``.

    ``procs`` places the sharded replays' shard pipelines across that
    many worker processes; every placement computes the same record.
    """
    workloads: Dict[str, Any] = {}
    for name in names:
        print(f"[perf] running {name} ...", file=sys.stderr)
        result = WORKLOADS[name](procs)
        workloads[name] = {
            "params": result.params,
            "sim_metrics": result.sim_metrics,
        }
    record: Dict[str, Any] = {"workloads": workloads}
    scaling = scaling_report(workloads)
    if scaling is not None:
        record["scaling"] = scaling
    return record


def scaling_report(workloads: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Scaling-efficiency summary over the ``sharded-replay-<n>s`` runs.

    Every shard count runs the same logical workload on the same total
    peer count, and throughput is measured in *simulated* time, so
    ``speedup(n) = throughput(n) / throughput(1)`` isolates the
    pipeline-parallelism win and ``efficiency(n) = speedup(n) / n`` is
    directly comparable across hosts.  Returns None unless the 1-shard
    base and at least one multi-shard run are present.
    """
    prefix = "sharded-replay-"
    throughput = {
        int(name[len(prefix):-1]): entry["sim_metrics"]["throughput_eps"]
        for name, entry in workloads.items()
        if name.startswith(prefix)
    }
    if 1 not in throughput or len(throughput) < 2:
        return None
    speedup = {n: throughput[n] / throughput[1] for n in throughput if n != 1}
    return {
        "base": f"{prefix}1s",
        "throughput_eps": {str(n): round(eps, 6) for n, eps in throughput.items()},
        "speedup": {str(n): round(s, 4) for n, s in speedup.items()},
        "efficiency": {str(n): round(s / n, 4) for n, s in speedup.items()},
    }


def check_against_baseline(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    only: Optional[List[str]] = None,
) -> List[str]:
    """Compare a run against the committed record; return the problems.

    ``params`` and ``sim_metrics`` must match exactly: the engine may
    get faster, never different.  A workload on one side only is a
    problem — except that record entries outside ``only`` (the
    workloads a filtered run selected) were never run and are skipped.
    When the run carries a ``scaling`` section, every shard count's
    efficiency must meet :data:`MIN_EFFICIENCY`.
    """
    base_workloads = baseline.get("workloads")
    if not isinstance(base_workloads, dict):
        return ["record is malformed: no 'workloads' mapping"]
    cur_workloads = current.get("workloads", {})
    problems: List[str] = []
    for shards, efficiency in sorted(
        current.get("scaling", {}).get("efficiency", {}).items()
    ):
        if efficiency < MIN_EFFICIENCY:
            problems.append(
                f"scaling: {shards}-shard efficiency {efficiency:.3f} "
                f"below the {MIN_EFFICIENCY} floor"
            )
    for name in sorted(set(cur_workloads) - set(base_workloads)):
        problems.append(f"{name}: not in the record (regenerate it with --out)")
    for name, base_entry in sorted(base_workloads.items()):
        cur_entry = cur_workloads.get(name)
        if cur_entry is None:
            if only is None or name in only:
                problems.append(f"{name}: missing from current run")
            continue
        if cur_entry["params"] != base_entry.get("params"):
            problems.append(
                f"{name}: params changed {base_entry.get('params')} -> "
                f"{cur_entry['params']} (regenerate the record with --out)"
            )
            continue
        base_sim = base_entry.get("sim_metrics", {})
        cur_sim = cur_entry["sim_metrics"]
        diffs = sorted(
            k for k in set(base_sim) | set(cur_sim)
            if base_sim.get(k) != cur_sim.get(k)
        )
        if diffs:
            problems.append(f"{name}: simulated metrics diverged ({diffs})")
    return problems
