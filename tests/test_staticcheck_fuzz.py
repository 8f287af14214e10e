"""Fuzz-differential soundness harness (acceptance: every shipped
contract at >= 3 seeds x >= 200 events with 100% RWSet coverage and
full conflict-verdict agreement), the pairwise conflict verdict it
checks, plus the CLI and SARIF export."""

import json

import pytest

from repro.blockchain.identity import CertificateAuthority
from repro.blockchain.transaction import Proposal, Transaction
from repro.core import DoomContract
from repro.staticcheck import infer_footprints, predict_conflicts
from repro.staticcheck.__main__ import main as staticcheck_main
from repro.staticcheck.fuzz import _may_conflict, default_cases, fuzz_case, run_fuzz

SEEDS = (1, 2, 3)
N_EVENTS = 200

CASES = default_cases()


_CA = CertificateAuthority(name="fuzz-test-ca")
_IDENTITIES = {}


def make_tx(function, creator, contract="doom", n=[0]):
    if creator not in _IDENTITIES:
        _IDENTITIES[creator] = _CA.enroll(creator)
    identity = _IDENTITIES[creator]
    n[0] += 1
    proposal = Proposal(
        tx_id=f"pt{n[0]}",
        contract=contract,
        function=function,
        args=({},),
        nonce=f"n{n[0]}",
        creator=creator,
        timestamp=float(n[0]),
    )
    return Transaction(
        proposal=proposal,
        certificate=identity.certificate,
        signature=identity.sign(proposal.digest()),
    )


@pytest.fixture(scope="module")
def may_conflict():
    matrix = predict_conflicts(infer_footprints(DoomContract))
    return lambda a, b: _may_conflict(matrix, DoomContract.name, a, b)


class TestMayConflict:
    def test_same_player_conflict_needs_same_creator(self, may_conflict):
        a = make_tx("location", "alice")
        b = make_tx("location", "bob")
        c = make_tx("location", "alice")
        assert not may_conflict(a, b)
        assert may_conflict(a, c)

    def test_disjoint_functions_are_independent(self, may_conflict):
        # location only touches POSITION; shoot touches weapon/ammo.
        a = make_tx("location", "alice")
        b = make_tx("shoot", "alice")
        assert not may_conflict(a, b)

    def test_always_conflicts_cross_players(self, may_conflict):
        # addPlayer writes the shared roster key.
        a = make_tx("addPlayer", "alice")
        b = make_tx("addPlayer", "bob")
        assert may_conflict(a, b)

    def test_unknown_function_is_conservative(self, may_conflict):
        a = make_tx("location", "alice")
        b = make_tx("mystery_fn", "bob")
        assert may_conflict(a, b)

    def test_foreign_contract_is_conservative(self, may_conflict):
        a = make_tx("location", "alice")
        b = make_tx("location", "bob", contract="other")
        assert may_conflict(a, b)


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
        assert outcome.pairs_checked > 0

    def test_traces_hit_mvcc_conflicts(self):
        # MVCC downgrades are the whole point of the attribution check;
        # across the default cases at one seed they must occur.
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
            "keys_checked", "pairs_checked",
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

    def test_fuzz_rejects_targets(self):
        with pytest.raises(SystemExit) as excinfo:
            staticcheck_main([
                "repro.core.doom_contract:DoomContract", "--fuzz", "10",
            ])
        assert excinfo.value.code == 2
