"""Lifecycle-trace properties: span completeness, determinism, exporters.

The span-completeness property is the telemetry system's core contract:
every transaction committed on an 8-peer replay carries the full
``submit → ordering → gossip → endorsement → validation → commit`` chain
at the witness peer, and every MVCC-aborted transaction the same chain
ending in ``validation-abort``.  Alongside it: telemetry must be
invisible to the simulation (identical timeline digests and simulated
metrics with and without), and the exporters must produce parseable,
named-stage output.
"""

import dataclasses
import json

import pytest

from repro.chaos.runner import run_scenario
from repro.chaos.scenarios import get_scenario
from repro.perf.workloads import session_replay
from repro.telemetry import (
    TX_CHAIN_STAGES,
    Telemetry,
    fig2_latency_bins,
    stage_summary,
    trace_records,
    write_trace_jsonl,
)

SEED = 11


@pytest.fixture(scope="module")
def traced_8p():
    """One traced 8-peer fault-free run; the workload's conflicting
    increments guarantee MVCC aborts alongside commits."""
    scenario = dataclasses.replace(
        get_scenario("baseline"),
        name="baseline-8p",
        n_peers=8,
        duration_ms=6000.0,
        settle_ms=1000.0,
    )
    telemetry = Telemetry()
    result = run_scenario(scenario, seed=SEED, telemetry=telemetry)
    return telemetry, result


def _witness_outcomes(telemetry):
    """(committed, aborted) tx-id lists from the e2e/commit spans'
    recorded validation codes at the witness peer."""
    committed, aborted = [], []
    for span in telemetry.tracer.spans:
        if span.host != telemetry.witness:
            continue
        if span.stage == "commit":
            committed.append(span.trace_id)
        elif span.stage == "validation-abort":
            aborted.append(span.trace_id)
    return committed, aborted


def test_span_completeness_committed_8p(traced_8p):
    telemetry, result = traced_8p
    assert result.ok
    committed, aborted = _witness_outcomes(telemetry)
    assert len(committed) > 20, "workload should commit plenty of txs"
    expected = TX_CHAIN_STAGES + ("commit",)
    for tx_id in committed:
        chain = telemetry.tracer.stage_chain(tx_id, host=telemetry.witness)
        core = tuple(s for s in chain if s in expected)
        assert core == expected, f"{tx_id}: incomplete chain {chain}"


def test_span_completeness_aborted_ends_in_validation_abort(traced_8p):
    telemetry, result = traced_8p
    committed, aborted = _witness_outcomes(telemetry)
    assert aborted, "conflict_every workload should produce MVCC aborts"
    expected = TX_CHAIN_STAGES + ("validation-abort",)
    for tx_id in aborted:
        chain = telemetry.tracer.stage_chain(tx_id, host=telemetry.witness)
        core = tuple(s for s in chain if s in expected + ("commit",))
        assert core == expected, f"{tx_id}: aborted tx chain {chain}"


def test_witness_outcomes_match_ledger(traced_8p):
    telemetry, result = traced_8p
    committed, aborted = _witness_outcomes(telemetry)
    # The spans' verdicts are the committed heights the result reports:
    # every tx is accounted for exactly once at the witness.
    assert len(set(committed) & set(aborted)) == 0
    assert result.workload_summary.get("VALID", 0) <= len(committed)


def test_armed_attestations_gauge_explains_the_event_count(traced_8p):
    """``peer_attestations_armed`` reads the peers' own counters at
    collect time; next to the delivery count it says how much of the
    gossip got a scheduler event of its own (DESIGN.md §16).  On a
    fault-free 8-peer run that is well under half of it: at most the
    two or three attestations around each quorum, of seven per stage."""
    telemetry, _result = traced_8p
    metrics = telemetry.registry.as_dict()
    armed = metrics["peer_attestations_armed"]
    assert armed == sum(p.attestations_armed for p in telemetry._peers) > 0
    assert len(telemetry._peers) == 8
    assert armed * 2 < metrics["net_messages_delivered"]


def test_trace_jsonl_round_trips(traced_8p, tmp_path):
    telemetry, _ = traced_8p
    path = tmp_path / "trace.jsonl"
    n = write_trace_jsonl(telemetry, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == n == len(trace_records(telemetry))
    first = json.loads(lines[0])
    assert {"trace_id", "stage", "host", "t_start", "t_end"} <= set(first)


def test_stage_summary_names_pipeline_stages(traced_8p):
    telemetry, _ = traced_8p
    summary = stage_summary(telemetry)
    for stage in ("submit", "ordering", "gossip", "endorsement",
                  "validation", "commit"):
        assert stage in summary, f"missing stage {stage}"
        assert summary[stage]["count"] > 0
        assert summary[stage]["p50_ms"] <= summary[stage]["p95_ms"]
        assert summary[stage]["p95_ms"] <= summary[stage]["max_ms"]


@pytest.fixture(scope="module")
def traced_replay():
    """A traced shim-stack replay (the Fig. 2 histogram is shim-fed —
    the chaos workload's plain clients never ack game events)."""
    telemetry = Telemetry()
    result = session_replay(n_peers=4, n_events=120, seed=7, telemetry=telemetry)
    return telemetry, result


def test_fig2_bins_cover_all_acked_events(traced_replay):
    telemetry, _ = traced_replay
    bins = fig2_latency_bins(telemetry)
    assert bins["count"] > 0
    assert sum(bins["counts"]) == bins["count"]
    assert sum(bins["fractions"]) == pytest.approx(1.0, abs=0.01)
    assert bins["bins"][:-1] == [50.0, 100.0, 150.0, 250.0, 350.0, 600.0]


# ----------------------------------------------------------------------
# telemetry is invisible to the simulation


def test_chaos_digest_identical_with_and_without_telemetry():
    plain = run_scenario("smoke", seed=7)
    traced = run_scenario("smoke", seed=7, telemetry=Telemetry())
    assert plain.timeline_digest() == traced.timeline_digest()
    assert plain.network_stats == traced.network_stats
    assert plain.workload_summary == traced.workload_summary


def test_replay_sim_metrics_identical_with_and_without_telemetry(traced_replay):
    telemetry, traced = traced_replay
    plain = session_replay(n_peers=4, n_events=120, seed=7)
    assert plain.sim_metrics == traced.sim_metrics
    assert len(telemetry.tracer.spans) > 0
