"""Unit tests for ``repro.perf --check``, the simulated-metric pin.

The check must fail with an actionable message — never a KeyError —
when the run and the committed record differ in ``params``,
``sim_metrics`` or the set of workloads, must skip record entries a
``--workloads`` filter did not select, and must keep the absolute
scaling-efficiency floor.
"""

from __future__ import annotations

import json
import os

from repro.perf import WORKLOADS, check_against_baseline, scaling_report

RECORD = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "engine_sim_metrics.json"
)


def _entry(sim=None, params=None):
    return {
        "sim_metrics": sim if sim is not None else {"accepted": 5},
        "params": params if params is not None else {"n": 1},
    }


def _record(**workloads):
    return {"workloads": workloads}


class TestStaleOrMalformedBaseline:
    def test_workload_missing_from_record_fails(self):
        current = _record(old=_entry(), new=_entry())
        baseline = _record(old=_entry())
        problems = check_against_baseline(current, baseline)
        assert problems == ["new: not in the record (regenerate it with --out)"]

    def test_malformed_baseline_is_flagged_not_raised(self):
        current = _record(wl=_entry())
        for baseline in ({}, {"workloads": None}, {"workloads": [1, 2]}):
            problems = check_against_baseline(current, baseline)
            assert len(problems) == 1
            assert "malformed" in problems[0]

    def test_workload_missing_from_current_still_flagged(self):
        current = _record()
        baseline = _record(wl=_entry())
        problems = check_against_baseline(current, baseline)
        assert any("missing from current run" in p for p in problems)


class TestWorkloadFilter:
    """A filtered run (--workloads) checks only what it ran."""

    def test_baseline_entries_outside_filter_are_skipped(self):
        current = _record(a=_entry())
        baseline = _record(a=_entry(), b=_entry(), c=_entry())
        assert check_against_baseline(current, baseline, only=["a"]) == []

    def test_baseline_entry_inside_filter_but_not_run_still_fails(self):
        current = _record(a=_entry())
        baseline = _record(a=_entry(), b=_entry())
        problems = check_against_baseline(current, baseline, only=["a", "b"])
        assert any(p.startswith("b: missing from current run") for p in problems)

    def test_filtered_run_still_gates_what_it_ran(self):
        current = _record(a=_entry(sim={"accepted": 4}))
        baseline = _record(a=_entry(sim={"accepted": 5}), b=_entry())
        problems = check_against_baseline(current, baseline, only=["a"])
        assert any("simulated metrics diverged" in p for p in problems)


class TestGates:
    def test_identical_records_pass(self):
        assert check_against_baseline(_record(wl=_entry()), _record(wl=_entry())) == []

    def test_sim_metric_divergence_fails(self):
        problems = check_against_baseline(
            _record(wl=_entry(sim={"accepted": 4})),
            _record(wl=_entry(sim={"accepted": 5})),
        )
        assert problems == ["wl: simulated metrics diverged (['accepted'])"]

    def test_param_change_requires_regeneration(self):
        problems = check_against_baseline(
            _record(wl=_entry(params={"n": 2})),
            _record(wl=_entry(params={"n": 1})),
        )
        assert len(problems) == 1 and "params changed" in problems[0]


class TestScalingGate:
    @staticmethod
    def _sharded(eps_by_shards):
        return {
            f"sharded-replay-{n}s": _entry(sim={"throughput_eps": eps})
            for n, eps in eps_by_shards.items()
        }

    def test_report_computes_speedup_and_efficiency(self):
        report = scaling_report(self._sharded({1: 100.0, 4: 300.0, 8: 500.0}))
        assert report["speedup"] == {"4": 3.0, "8": 5.0}
        assert report["efficiency"] == {"4": 0.75, "8": 0.625}

    def test_report_needs_single_shard_base(self):
        assert scaling_report(self._sharded({4: 300.0, 8: 500.0})) is None
        assert scaling_report(self._sharded({1: 100.0})) is None
        assert scaling_report({"replay-4p": _entry()}) is None

    def test_efficiency_below_floor_fails_check(self):
        workloads = self._sharded({1: 100.0, 8: 200.0})  # efficiency 0.25
        current = {"workloads": workloads, "scaling": scaling_report(workloads)}
        problems = check_against_baseline(current, {"workloads": workloads})
        assert any("efficiency" in p and "floor" in p for p in problems)

    def test_efficiency_above_floor_passes(self):
        workloads = self._sharded({1: 100.0, 8: 400.0})  # efficiency 0.5
        current = {"workloads": workloads, "scaling": scaling_report(workloads)}
        assert check_against_baseline(current, {"workloads": workloads}) == []


class TestCommittedRecord:
    def test_record_pins_every_workload_and_nothing_else(self):
        with open(RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
        assert sorted(record) == ["scaling", "workloads"]
        assert sorted(record["workloads"]) == sorted(WORKLOADS)
        for entry in record["workloads"].values():
            assert sorted(entry) == ["params", "sim_metrics"]
        assert record["scaling"] == scaling_report(record["workloads"])

    def test_cli_check_exit_codes(self, tmp_path, monkeypatch):
        from repro.perf import __main__ as cli

        with open(RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
        monkeypatch.setattr(
            cli, "run_suite", lambda names, procs: json.loads(json.dumps(record))
        )
        same = tmp_path / "same.json"
        same.write_text(json.dumps(record))
        assert cli.main(["--check", str(same)]) == 0

        record["workloads"]["replay-4p"]["sim_metrics"]["scheduler_events"] += 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(record))
        record["workloads"]["replay-4p"]["sim_metrics"]["scheduler_events"] -= 1
        assert cli.main(["--check", str(changed)]) == 1
