"""Unit tests for the perf harness's baseline regression gate.

``repro.perf --check`` must fail with an actionable message — never a
KeyError — when the checked-in baseline predates the current suite or is
malformed, must *skip* (and report) workloads the baseline does not
cover, and must keep enforcing the sim-metric / timing / scaling gates
for the workloads both sides share.
"""

from __future__ import annotations

from repro.perf.runner import check_against_baseline, scaling_report


def _entry(wall_s=1.0, normalized=10.0, sim=None, params=None):
    return {
        "wall_s": wall_s,
        "normalized": normalized,
        "sim_metrics": sim if sim is not None else {"accepted": 5},
        "params": params if params is not None else {"n": 1},
    }


def _record(**workloads):
    return {"schema": "repro.perf/1", "workloads": workloads}


class TestStaleOrMalformedBaseline:
    def test_workload_missing_from_baseline_is_skipped_not_failed(self):
        current = _record(old=_entry(), new=_entry())
        baseline = _record(old=_entry())
        ok, problems, skipped = check_against_baseline(current, baseline)
        assert ok and problems == []
        assert any("new" in s and "not in baseline" in s for s in skipped)

    def test_malformed_baseline_is_flagged_not_raised(self):
        current = _record(wl=_entry())
        for baseline in ({}, {"workloads": None}, {"workloads": [1, 2]}):
            ok, problems, _skipped = check_against_baseline(current, baseline)
            assert not ok
            assert len(problems) == 1
            assert "malformed" in problems[0]

    def test_workload_missing_from_current_still_flagged(self):
        current = _record()
        baseline = _record(wl=_entry())
        ok, problems, _skipped = check_against_baseline(current, baseline)
        assert not ok
        assert any("missing from current run" in p for p in problems)


class TestWorkloadFilter:
    """A filtered run (--workloads/--only) gates only what it ran."""

    def test_baseline_entries_outside_filter_are_skipped(self):
        current = _record(a=_entry())
        baseline = _record(a=_entry(), b=_entry(), c=_entry())
        ok, problems, skipped = check_against_baseline(
            current, baseline, only=["a"]
        )
        assert ok and problems == []
        assert sorted(s.split(":")[0] for s in skipped) == ["b", "c"]
        assert all("excluded by the workload filter" in s for s in skipped)

    def test_baseline_entry_inside_filter_but_not_run_still_fails(self):
        current = _record(a=_entry())
        baseline = _record(a=_entry(), b=_entry())
        ok, problems, _skipped = check_against_baseline(
            current, baseline, only=["a", "b"]
        )
        assert not ok
        assert any(p.startswith("b: missing from current run") for p in problems)

    def test_filtered_run_still_gates_what_it_ran(self):
        current = _record(a=_entry(sim={"accepted": 4}))
        baseline = _record(a=_entry(sim={"accepted": 5}), b=_entry())
        ok, problems, _skipped = check_against_baseline(
            current, baseline, only=["a"]
        )
        assert not ok
        assert any("simulated metrics diverged" in p for p in problems)


class TestGates:
    def test_identical_records_pass(self):
        ok, problems, skipped = check_against_baseline(
            _record(wl=_entry()), _record(wl=_entry())
        )
        assert ok and problems == [] and skipped == []

    def test_sim_metric_divergence_fails(self):
        ok, problems, _ = check_against_baseline(
            _record(wl=_entry(sim={"accepted": 4})),
            _record(wl=_entry(sim={"accepted": 5})),
        )
        assert not ok
        assert any("simulated metrics diverged" in p for p in problems)

    def test_timing_regression_fails_beyond_tolerance(self):
        ok, problems, _ = check_against_baseline(
            _record(wl=_entry(normalized=20.0)),
            _record(wl=_entry(normalized=10.0)),
            tolerance=0.25,
        )
        assert not ok
        assert any("regression" in p for p in problems)

    def test_tiny_workloads_skip_timing_gate(self):
        ok, problems, _ = check_against_baseline(
            _record(wl=_entry(wall_s=0.01, normalized=20.0)),
            _record(wl=_entry(wall_s=0.01, normalized=10.0)),
        )
        assert ok and problems == []

    def test_param_change_requires_regeneration(self):
        ok, problems, _ = check_against_baseline(
            _record(wl=_entry(params={"n": 2})),
            _record(wl=_entry(params={"n": 1})),
        )
        assert not ok
        assert any("params changed" in p for p in problems)


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
        current = {
            "schema": "repro.perf/1",
            "workloads": workloads,
            "scaling": scaling_report(workloads),
        }
        baseline = {"schema": "repro.perf/1", "workloads": workloads}
        ok, problems, _ = check_against_baseline(current, baseline)
        assert not ok
        assert any("efficiency" in p and "floor" in p for p in problems)

    def test_efficiency_above_floor_passes(self):
        workloads = self._sharded({1: 100.0, 8: 400.0})  # efficiency 0.5
        current = {
            "schema": "repro.perf/1",
            "workloads": workloads,
            "scaling": scaling_report(workloads),
        }
        baseline = {"schema": "repro.perf/1", "workloads": workloads}
        ok, problems, _ = check_against_baseline(current, baseline)
        assert ok and problems == []


class TestHostContext:
    """Satellite: host metadata rides on records and mismatch messages."""

    def test_host_metadata_reports_cpu_and_load(self):
        from repro.perf.runner import host_metadata

        meta = host_metadata()
        assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
        assert meta["loadavg_1m"] is None or meta["loadavg_1m"] >= 0.0

    def test_run_context_formats_placement(self):
        from repro.perf.runner import run_context

        record = {
            "host": {"cpu_count": 8, "loadavg_1m": 1.25},
            "procs": 4,
        }
        assert run_context(record) == "cpus=8, load1m=1.25, procs=4"
        assert run_context({}) == "no host metadata"

    def test_mismatch_messages_carry_both_hosts(self):
        current = _record(w=_entry(sim={"accepted": 5}))
        current["host"] = {"cpu_count": 1, "loadavg_1m": 3.5}
        current["procs"] = 8
        baseline = _record(w=_entry(sim={"accepted": 6}))
        baseline["host"] = {"cpu_count": 16, "loadavg_1m": 0.1}
        ok, problems, _ = check_against_baseline(current, baseline)
        assert not ok
        message = next(p for p in problems if "diverged" in p)
        assert "current: cpus=1, load1m=3.5, procs=8" in message
        assert "baseline: cpus=16, load1m=0.1" in message

    def test_timing_regression_carries_context(self):
        current = _record(w=_entry(wall_s=9.0, normalized=90.0))
        current["host"] = {"cpu_count": 2, "loadavg_1m": None}
        baseline = _record(w=_entry(wall_s=1.0, normalized=10.0))
        ok, problems, _ = check_against_baseline(current, baseline)
        assert not ok
        assert any("regression" in p and "cpus=2" in p for p in problems)


class TestBackendAndPlacementContext:
    """Satellite: records carry their transport backend; the gate
    refuses cross-backend comparisons and surfaces placement drift."""

    def test_run_context_includes_backend(self):
        from repro.perf.runner import run_context

        assert run_context({"backend": "simnet"}) == "backend=simnet"

    def test_cross_backend_check_refused(self):
        current = _record(w=_entry())
        current["backend"] = "realnet"
        baseline = _record(w=_entry())
        baseline["backend"] = "simnet"
        ok, problems, _ = check_against_baseline(current, baseline)
        assert not ok
        assert len(problems) == 1
        assert "backend mismatch" in problems[0]
        assert "'realnet'" in problems[0] and "'simnet'" in problems[0]

    def test_missing_backend_defaults_to_simnet(self):
        # Old baselines predate the tag; they gate against simnet runs.
        current = _record(w=_entry())
        current["backend"] = "simnet"
        baseline = _record(w=_entry())
        ok, problems, skipped = check_against_baseline(current, baseline)
        assert ok and problems == [] and skipped == []

    def test_procs_difference_warns_via_skipped(self):
        current = _record(w=_entry())
        current["procs"] = 4
        baseline = _record(w=_entry())
        baseline["procs"] = 1
        ok, problems, skipped = check_against_baseline(current, baseline)
        assert ok and problems == []
        assert any("procs differs" in s and "current=4" in s for s in skipped)

    def test_matching_placement_emits_no_warning(self):
        current = _record(w=_entry())
        current["procs"] = 4
        baseline = _record(w=_entry())
        baseline["procs"] = 4
        ok, problems, skipped = check_against_baseline(current, baseline)
        assert ok and problems == [] and skipped == []

    def test_run_suite_records_are_tagged(self):
        from repro.perf.runner import run_suite

        # An empty selection skips every workload but still builds the
        # record envelope run_suite stamps.
        record = run_suite(quick=True, only=[], verbose=False)
        assert record["backend"] == "simnet"
        assert record["workloads"] == {}


class TestOverwriteGuard:
    """Satellite: the CLI refuses to clobber a full record with less."""

    @staticmethod
    def _write_record(path, mode="full", workloads=("a", "b")):
        import json

        record = {
            "schema": "repro.perf/1",
            "mode": mode,
            "workloads": {name: _entry() for name in workloads},
        }
        path.write_text(json.dumps(record))
        return record

    @staticmethod
    def _stub_suite(monkeypatch, calls):
        from repro.perf import __main__ as cli

        def fake_run_suite(**kwargs):
            calls.append(kwargs)
            return {
                "schema": "repro.perf/1",
                "mode": "quick" if kwargs.get("quick") else "full",
                "host": {"cpu_count": 1, "loadavg_1m": None},
                "workloads": {"a": _entry()},
            }

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        return cli

    def test_quick_run_refuses_to_clobber_full_record(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "BENCH.json"
        before = self._write_record(out, mode="full")
        calls = []
        cli = self._stub_suite(monkeypatch, calls)
        assert cli.main(["--quick", "--out", str(out)]) == 2
        assert calls == []  # refused before spending time on the suite
        import json

        assert json.loads(out.read_text()) == before
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_filtered_run_dropping_workloads_refused(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "BENCH.json"
        self._write_record(out, mode="full", workloads=("a", "b"))
        calls = []
        cli = self._stub_suite(monkeypatch, calls)
        assert cli.main(["--only", "a", "--out", str(out)]) == 2
        assert calls == []
        assert "dropping ['b']" in capsys.readouterr().err

    def test_force_allows_the_overwrite(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH.json"
        self._write_record(out, mode="full")
        calls = []
        cli = self._stub_suite(monkeypatch, calls)
        assert cli.main(["--quick", "--force", "--out", str(out)]) == 0
        assert len(calls) == 1
        import json

        assert json.loads(out.read_text())["mode"] == "quick"

    def test_quick_over_quick_record_is_fine(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH.json"
        self._write_record(out, mode="quick")
        calls = []
        cli = self._stub_suite(monkeypatch, calls)
        assert cli.main(["--quick", "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_full_unfiltered_run_may_replace_full_record(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "BENCH.json"
        self._write_record(out, mode="full")
        calls = []
        cli = self._stub_suite(monkeypatch, calls)
        assert cli.main(["--out", str(out)]) == 0
        assert len(calls) == 1
