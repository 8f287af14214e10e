"""``--compare A.json B.json``: two sets of recorded runs against the
per-metric bounds of ``BENCHMARK.json``.

One row per (workload, metric): both medians, the ratio with its base,
and a verdict —

* ``worse``: B's median is worse than A's by more than the bound (and
  by more than the run-to-run spread);
* ``unresolved``: the spread of either set is wider than the bound, so
  "no change" cannot be claimed;
* ``ok`` otherwise.

The spread is the inter-quartile range as a share of the median, as
``statistics.quantiles(values, n=4)`` gives it; a set with one run per
workload has no spread to show and can only read ``ok`` or ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Tuple

from . import REPO_ROOT

__all__ = ["load_benchmark_spec", "load_records", "compare_sets", "format_rows"]


def load_benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_records(path: str) -> List[Dict[str, Any]]:
    """Untraced run records written by ``--out`` (a JSON list)."""
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON list of run records")
    return [r for r in records if not r.get("trace")]


def _values(records: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(metric["value"])
    return out


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare_sets(
    a_records: List[Dict[str, Any]], b_records: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    spec = load_benchmark_spec()
    a_values = _values(a_records)
    b_values = _values(b_records)
    rows: List[Dict[str, Any]] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a = statistics.median(a_values[key])
            b = statistics.median(b_values[key])
            change = (b - a) / abs(a) if a else 0.0
            worse_by = -change if metric["better"] == "higher" else change
            spread = max(_spread(a_values[key]), _spread(b_values[key]))
            if worse_by > metric["bound"] and worse_by > spread:
                verdict = "worse"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": a, "b": b, "n_a": len(a_values[key]), "n_b": len(b_values[key]),
                "ratio": b / a if a else float("nan"),
                "worse_by": worse_by, "spread": spread,
                "bound": metric["bound"], "verdict": verdict,
            })
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> List[str]:
    lines = [
        f"{'workload':<12s} {'metric':<18s} {'A (base)':>14s} {'B':>14s} "
        f"{'B/A':>8s} {'spread':>8s} {'bound':>7s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<12s} {row['metric']:<18s} "
            f"{row['a']:>14.4f} {row['b']:>14.4f} "
            f"{row['ratio']:>8.4f} {row['spread']:>8.4f} {row['bound']:>7.4f}  "
            f"{row['verdict']}  ({row['unit']}; base A={row['a']:.4f}, "
            f"n={row['n_a']}/{row['n_b']})"
        )
    return lines
