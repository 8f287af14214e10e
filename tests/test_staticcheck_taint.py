"""Taint rules (CHT001–CHT005): seeded-vulnerable fixtures must flag
their intended rule, shipped contracts must stay finding-free, and the
waiver mechanism must report-not-drop."""

import importlib.util
import inspect
import pathlib

import pytest

from repro.core import DoomContract, MonopolyContract, parse_spec
from repro.core import monopoly_contract
from repro.core.cheats import relevant_cheats
from repro.core.codegen import generate_contract_source
from repro.core.doomspec import doom_spec
from repro.staticcheck import (
    CHT_RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    analyze_source,
    taint_contract,
    taint_source,
)
from repro.staticcheck.vulnfixtures import (
    CHEAT_RULE_MAP,
    FIXTURES,
    RUNTIME_ONLY_CHEATS,
)

FIXTURE_BY_NAME = {fixture.name: fixture for fixture in FIXTURES}


def rule_codes(report):
    return sorted({d.code for d in report.diagnostics})


# ----------------------------------------------------------------------
# true positives: each seeded vulnerability trips its intended rule


class TestSeededVulnerabilities:
    @pytest.mark.parametrize(
        "fixture", [f for f in FIXTURES if not f.name.startswith("waived")],
        ids=lambda f: f.name,
    )
    def test_fixture_flags_intended_rule(self, fixture):
        report = taint_source(fixture.source, class_name=fixture.class_name)
        assert fixture.rule in rule_codes(report), (
            f"{fixture.name} should trip {fixture.rule}, "
            f"got {rule_codes(report)}"
        )

    def test_unguarded_grant_is_error_per_handler(self):
        fixture = FIXTURE_BY_NAME["unguarded-grant"]
        report = taint_source(fixture.source, class_name=fixture.class_name)
        cht1 = [d for d in report.diagnostics if d.code == "CHT001"]
        # one finding per vulnerable handler (health, weapon, power-up)
        assert len(cht1) >= 3
        assert all(d.severity == SEVERITY_ERROR for d in cht1)

    def test_teleport_bounds_finding_is_warning(self):
        fixture = FIXTURE_BY_NAME["teleport-no-bounds"]
        report = taint_source(fixture.source, class_name=fixture.class_name)
        cht2 = [d for d in report.diagnostics if d.code == "CHT002"]
        assert cht2 and all(d.severity == SEVERITY_WARNING for d in cht2)
        # the existence guard means this is NOT a CHT001
        assert "CHT001" not in rule_codes(report)

    def test_mint_flags_non_conservation_as_error(self):
        fixture = FIXTURE_BY_NAME["ammo-mint"]
        report = taint_source(fixture.source, class_name=fixture.class_name)
        cht3 = [d for d in report.diagnostics if d.code == "CHT003"]
        assert cht3 and all(d.severity == SEVERITY_ERROR for d in cht3)

    def test_unauthenticated_target_flags_key_taint(self):
        fixture = FIXTURE_BY_NAME["unauthenticated-target"]
        report = taint_source(fixture.source, class_name=fixture.class_name)
        assert "CHT004" in rule_codes(report)


    def test_undeclared_field_read_in_a_helper_is_an_error(self):
        fixture = FIXTURE_BY_NAME["undeclared-field"]
        report = taint_source(fixture.source, class_name=fixture.class_name)
        cht5 = [d for d in report.diagnostics if d.code == "CHT005"]
        assert [d.severity for d in cht5] == [SEVERITY_ERROR]
        assert "'burst'" in cht5[0].message  # "count" is declared

    def test_monopoly_roll_without_round_declared_trips_cht005(self):
        source = inspect.getsource(monopoly_contract).replace(
            ', "round": ((int,), True)', ""
        )
        report = taint_source(source, class_name="MonopolyContract")
        assert [
            (d.context, d.message.split(",")[0])
            for d in report.diagnostics
            if d.code == "CHT005"
        ] == [("roll", "handler 'roll' reads payload['round']")]


# ----------------------------------------------------------------------
# zero false positives on every shipped contract


class TestShippedContractsAreClean:
    def test_doom_contract_clean(self):
        report = taint_contract(DoomContract)
        assert report.diagnostics == [], [str(d) for d in report.diagnostics]

    def test_monopoly_contract_clean(self):
        report = taint_contract(MonopolyContract)
        assert report.diagnostics == [], [str(d) for d in report.diagnostics]

    @pytest.mark.parametrize("split_kvs", [True, False])
    def test_generated_contract_clean(self, split_kvs):
        source = generate_contract_source(doom_spec(), split_kvs=split_kvs)
        report = taint_source(source)
        assert report.diagnostics == [], [str(d) for d in report.diagnostics]

    def test_modded_spec_contract_clean(self):
        path = pathlib.Path(__file__).parent.parent / "examples" / "custom_weapon_mod.py"
        spec = importlib.util.spec_from_file_location("custom_weapon_mod", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        source = generate_contract_source(
            parse_spec(module.MODDED_SPEC), class_name="ModdedDoomContract"
        )
        report = taint_source(source)
        assert report.diagnostics == [], [str(d) for d in report.diagnostics]


# ----------------------------------------------------------------------
# waivers: reported, never dropped; integrated into the full report


class TestWaivers:
    def test_waived_findings_move_to_waived_list(self):
        fixture = FIXTURE_BY_NAME["waived-mint"]
        report = taint_source(fixture.source, class_name=fixture.class_name)
        assert report.diagnostics == []
        assert {d.code for d in report.waived} == {"CHT002", "CHT003"}
        assert "CHT003" in report.waivers

    def test_waiver_only_covers_named_codes(self):
        # A waiver for CHT003 must not silence an unrelated CHT001.
        source = FIXTURE_BY_NAME["unguarded-grant"].source.replace(
            'name = "vuln-grant"',
            'name = "vuln-grant"\n'
            '    STATICCHECK_WAIVERS = {"CHT003": "not the rule that fires"}',
        )
        report = taint_source(source, class_name="UnguardedGrantContract")
        assert "CHT001" in rule_codes(report)

    def test_analyze_source_carries_waived_and_gates_on_active(self):
        fixture = FIXTURE_BY_NAME["waived-mint"]
        report = analyze_source(fixture.source, class_name=fixture.class_name)
        assert report.ok
        assert {d.code for d in report.waived} == {"CHT002", "CHT003"}
        assert report.to_json()["waived"]

    def test_analyze_source_fails_on_active_taint_finding(self):
        fixture = FIXTURE_BY_NAME["unguarded-grant"]
        report = analyze_source(fixture.source, class_name=fixture.class_name)
        assert not report.ok
        assert any(d.code == "CHT001" for d in report.failures())


# ----------------------------------------------------------------------
# the cheat taxonomy is fully accounted for


class TestCheatRuleMap:
    def test_every_relevant_cheat_is_mapped(self):
        mapped = set(CHEAT_RULE_MAP)
        taxonomy = {cheat.code for cheat in relevant_cheats()}
        assert taxonomy <= mapped, taxonomy - mapped

    def test_mapped_rules_exist(self):
        for code, rule in CHEAT_RULE_MAP.items():
            if rule is not None:
                assert rule in CHT_RULES, f"{code} maps to unknown {rule}"

    def test_every_static_rule_has_a_fixture_and_cheat(self):
        by_rule = {}
        for fixture in FIXTURES:
            by_rule.setdefault(fixture.rule, []).append(fixture)
        for rule in CHT_RULES:
            assert rule in by_rule, f"no seeded fixture exercises {rule}"
        for code, rule in CHEAT_RULE_MAP.items():
            if rule is None:
                assert code in RUNTIME_ONLY_CHEATS
            else:
                assert any(
                    code in fixture.cheats for fixture in by_rule[rule]
                ) or code in RUNTIME_ONLY_CHEATS, (
                    f"cheat {code} mapped to {rule} but no fixture models it"
                )
