"""End-to-end chaos over the sharded deployment.

The catalog's ``cross-shard-swap`` scenario is the acceptance test for
the whole swap stack: churn + a partition through in-flight swaps + a
coordinator crash between prepare and commit, with global asset
conservation checked mid-run and at quiescence.  Runs must also stay
bit-identical per seed — the chaos subsystem's core promise.
"""

from dataclasses import replace

import pytest

from repro.chaos import get_scenario, run_scenario

SCENARIO = get_scenario("cross-shard-swap")

#: A trimmed copy for the repeated-run tests (same shape, shorter).
MINI = replace(
    SCENARIO, name="mini-cross-shard", duration_ms=8_000.0,
    coordinator_crash_ms=3_050.0, coordinator_recover_ms=2_000.0,
    settle_ms=1_500.0, swap_interval_ms=700.0,
)


class TestCrossShardSwapScenario:
    def test_catalog_run_all_green(self):
        result = run_scenario("cross-shard-swap", seed=7)
        assert result.ok, [v.describe() for v in result.violations]
        assert result.probe_codes == ["VALID", "VALID", "VALID"]
        assert result.faults_applied == result.faults_in_schedule > 0
        summary = result.workload_summary
        # The run must actually exercise the interesting machinery:
        # committed swaps AND a coordinator outage that skipped some.
        assert summary.get("swap_committed", 0) > 0
        assert summary.get("swap_skipped_while_crashed", 0) > 0
        kinds = {entry[0] for entry in result.timeline}
        assert {"fault", "commit", "swap", "conservation",
                "coordinator-crash", "coordinator-recover"} <= kinds
        # Worlds and control plane run on separate clocks; the timeline
        # is still one history in time order.
        times = [entry[1] for entry in result.timeline]
        assert times == sorted(times)

    def test_same_seed_is_bit_identical(self):
        a = run_scenario(MINI, seed=7)
        b = run_scenario(MINI, seed=7)
        assert a.timeline_digest() == b.timeline_digest()
        assert a.workload_summary == b.workload_summary

    def test_different_seeds_differ(self):
        a = run_scenario(MINI, seed=7)
        b = run_scenario(MINI, seed=8)
        assert a.timeline_digest() != b.timeline_digest()

    def test_many_seeds_conserve_assets(self):
        for seed in (1, 2, 3):
            result = run_scenario(MINI, seed=seed, record_timeline=False)
            assert result.ok, (seed, [v.describe() for v in result.violations])

    def test_wall_budget_truncates(self):
        result = run_scenario(MINI, seed=7, max_wall_s=1e-9)
        assert result.truncated
        # A truncated run is not judged: no convergence/liveness verdict.
        assert result.violations == []


class TestGuards:
    def test_unknown_buggy_fixture_rejected(self):
        with pytest.raises(KeyError):
            run_scenario(MINI, seed=1, buggy="no-such-bug")
