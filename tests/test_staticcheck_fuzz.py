"""Fuzz-differential coverage harness (acceptance: every shipped
contract at >= 3 seeds x >= 200 events with 100% RWSet coverage), plus
the CLI and SARIF export."""

import json

import pytest

from repro.staticcheck.__main__ import main as staticcheck_main
from repro.staticcheck.fuzz import default_cases, fuzz_case, run_fuzz

SEEDS = (1, 2, 3)
N_EVENTS = 200

CASES = default_cases()


class TestFuzzSoundness:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_contract_sound_at_seed(self, case, seed):
        outcome = fuzz_case(case, n_events=N_EVENTS, seed=seed)
        assert outcome.ok, [
            f"{v.kind}: {v.detail}" for v in outcome.violations[:5]
        ]
        # the trace must actually exercise the interesting regimes
        assert outcome.codes.get("VALID", 0) > 0
        assert outcome.codes.get("CONTRACT_REJECTED", 0) > 0
        assert outcome.keys_checked > 0

    def test_doom_trace_reaches_a_valid_weapon_pickup(self):
        # Each fuzzed pickup names one map weapon item and its integer
        # weapon id, so the handler's weapon and ammunition writes run.
        doom = next(c for c in CASES if c.name == "doom")
        assert any(
            fuzz_case(doom, n_events=N_EVENTS, seed=seed)
            .valid_by_function.get("pickup_weapon", 0) > 0
            for seed in SEEDS
        )

    def test_traces_hit_mvcc_conflicts(self):
        # Batched blocks must produce MVCC downgrades, so coverage is
        # also checked on RWSets read through in-block speculative writes.
        outcomes = run_fuzz(n_events=N_EVENTS, seed=SEEDS[0])
        assert sum(
            o.codes.get("MVCC_READ_CONFLICT", 0) for o in outcomes
        ) > 0

    def test_outcome_json_shape(self):
        outcome = fuzz_case(CASES[0], n_events=40, seed=0)
        payload = json.loads(json.dumps(outcome.to_json()))
        assert payload["case"] == CASES[0].name
        assert payload["ok"] is True
        assert set(payload) >= {
            "seed", "n_events", "blocks", "codes", "violations",
            "keys_checked",
        }

    def test_deterministic_given_seed(self):
        first = fuzz_case(CASES[1], n_events=60, seed=9).to_json()
        second = fuzz_case(CASES[1], n_events=60, seed=9).to_json()
        assert first == second


class TestCli:
    def test_fuzz_subcommand_exits_zero(self, capsys):
        assert staticcheck_main(["--fuzz", "40", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("SOUND") == len(CASES)

    def test_multi_target_json(self, capsys):
        code = staticcheck_main([
            "repro.core.doom_contract:DoomContract",
            "repro.core.monopoly_contract:MonopolyContract",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["contract"] for entry in payload] == [
            "DoomContract", "MonopolyContract",
        ]
        assert all(entry["ok"] for entry in payload)

    def test_sarif_export_shape(self, tmp_path, capsys):
        sarif_path = tmp_path / "findings.sarif"
        code = staticcheck_main([
            "repro.core.doom_contract:DoomContract",
            "--sarif", str(sarif_path),
        ])
        assert code == 0
        log = json.loads(sarif_path.read_text())
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-staticcheck"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"DET001", "CHT001", "CHT004"} <= rule_ids
        assert run["results"] == []  # Doom is clean

    def test_sarif_results_carry_locations_and_suppressions(self, tmp_path):
        from repro.staticcheck import to_sarif
        from repro.staticcheck.vulnfixtures import FIXTURES
        from repro.staticcheck import taint_source

        vuln = next(f for f in FIXTURES if f.name == "unguarded-grant")
        waived = next(f for f in FIXTURES if f.name == "waived-mint")
        report = taint_source(vuln.source, class_name=vuln.class_name)
        waived_report = taint_source(
            waived.source, class_name=waived.class_name
        )
        log = to_sarif([
            {"uri": "fixtures/vuln.py", "diagnostics": report.diagnostics},
            {"uri": "fixtures/waived.py", "waived": waived_report.waived},
        ])
        results = log["runs"][0]["results"]
        active = [r for r in results if "suppressions" not in r]
        suppressed = [r for r in results if "suppressions" in r]
        assert active and suppressed
        for result in results:
            location = result["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert location["artifactLocation"]["uri"].startswith("fixtures/")
        assert all(r["ruleId"].startswith("CHT") for r in results)

    def test_target_without_handlers_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            staticcheck_main(["repro.blockchain.swaps:ShardAssetContract"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "found no handler" in captured.err
        assert "Verdict" not in captured.out

    def test_fuzz_rejects_targets(self):
        with pytest.raises(SystemExit) as excinfo:
            staticcheck_main([
                "repro.core.doom_contract:DoomContract", "--fuzz", "10",
            ])
        assert excinfo.value.code == 2
