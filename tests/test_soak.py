"""Soak harness tests: record shape, invariants, CLI, both backends.

Durations here are deliberately tiny — the soak harness's correctness
(session wiring, chained fault injectors, record fields, exit codes)
does not need CI minutes; the long runs live in the workflow jobs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.soak as soak
from repro.chaos.workload import CounterWorkload
from repro.realnet import metrics_http
from repro.soak import SoakConfig, run_soak, write_record
from repro.soak.__main__ import main

GOLDEN_RECORD = Path(__file__).parent / "golden" / "soak_simnet_tiny.json"


def test_config_validation():
    with pytest.raises(ValueError):
        SoakConfig(backend="carrier-pigeon")
    with pytest.raises(ValueError):
        SoakConfig(sessions=0)
    with pytest.raises(ValueError):
        SoakConfig(wall_s=0.0)


def test_simnet_soak_clean(tmp_path):
    config = SoakConfig(
        backend="simnet", sessions=2, peers=4, wall_s=3.0, seed=5
    )
    record = run_soak(config, metrics_snapshot_path=str(tmp_path / "m.prom"))
    assert record["ok"], record["violations"]
    assert record["schema"] == "repro.soak/1"
    assert record["backend"] == "simnet"
    assert record["submitted"] > 0
    # Simulated commit latency is a few sim-ms: backpressure never sheds.
    assert record["shed"] == 0
    assert record["codes"].get("VALID", 0) > 0
    assert len(record["per_session"]) == 2
    for session in record["per_session"]:
        assert session["probe_codes"] == ["VALID"] * 3
        assert session["committed_height"] > 0
    # Sessions are independent deployments: distinct name prefixes.
    assert {s["name_prefix"] for s in record["per_session"]} == {"s0.", "s1."}
    assert record["metrics_snapshot"] == "export"
    assert "client_txs_submitted" in (tmp_path / "m.prom").read_text()


def test_simnet_soak_with_faults_still_converges(tmp_path):
    config = SoakConfig(
        backend="simnet", sessions=1, peers=4, wall_s=3.0,
        drop=0.05, delay_ms=10.0, seed=6,
    )
    record = run_soak(config, metrics_snapshot_path=str(tmp_path / "m.prom"))
    assert record["ok"], record["violations"]
    assert record["net"]["messages_dropped_fault"] > 0
    assert any(f["kind"] == "msg-drop" for f in record["faults"])
    # The injections reach the session's telemetry, as in chaos runs.
    snapshot = (tmp_path / "m.prom").read_text()
    assert 'chaos_faults_applied{kind="msg-drop"} 1' in snapshot
    assert 'chaos_faults_applied{kind="lift-all"} 1' in snapshot


def test_simnet_soak_with_churn():
    config = SoakConfig(
        backend="simnet", sessions=1, peers=5, wall_s=3.0, churn=True, seed=7
    )
    record = run_soak(config)
    assert record["ok"], record["violations"]
    kinds = {f["kind"] for f in record["faults"]}
    assert "peer-crash" in kinds and "peer-restart" in kinds


def test_simnet_soak_record_is_pinned():
    # Drop and delay windows plus one crash/restart: every simulated
    # field of the record (samples, codes, faults, net, stage summary,
    # fig2 bins) is pinned; only the host wall time is left out.
    config = SoakConfig(
        backend="simnet", sessions=1, peers=4, wall_s=3.0,
        drop=0.05, delay_ms=10.0, churn=True, seed=6,
    )
    record = run_soak(config)
    record.pop("wall_elapsed_s")
    assert json.loads(json.dumps(record)) == json.loads(GOLDEN_RECORD.read_text())


def test_realnet_soak_tiny(tmp_path):
    config = SoakConfig(
        backend="realnet", sessions=1, peers=3, wall_s=2.0,
        settle_s=10.0, seed=8,
    )
    record = run_soak(config, metrics_snapshot_path=str(tmp_path / "m.prom"))
    assert record["ok"], record["violations"]
    assert record["backend"] == "realnet"
    assert record["transport"]["connects"] > 0
    assert record["transport"]["frame_errors"] == 0
    # No fault ran: every frame built was written, once.
    assert record["transport"]["frames_sent"] > 0
    assert record["transport"]["socket_writes"] == record["transport"]["frames_sent"]
    assert record["transport"]["wire_bytes_sent"] > record["transport"]["frames_sent"]
    assert record["metrics_url"].startswith("http://127.0.0.1:")
    # The snapshot was scraped live over HTTP mid-run.
    assert record["metrics_snapshot"] == "live-scrape"
    snapshot = (tmp_path / "m.prom").read_text()
    assert "client_txs_submitted" in snapshot
    for counter in record["transport"]:
        assert f"realnet_{counter} " in snapshot


def test_realnet_soak_closes_its_deployment_when_the_run_raises(monkeypatch):
    submit = CounterWorkload._submit
    calls = []

    def failing_submit(self, *args):
        calls.append(args)
        if len(calls) == 20:
            raise RuntimeError("workload bug")
        submit(self, *args)

    nets, servers = [], []
    make_network = soak.make_network
    start = metrics_http.MetricsServer.start
    monkeypatch.setattr(
        soak, "make_network",
        lambda *args, **kwargs: nets.append(make_network(*args, **kwargs)) or nets[-1],
    )
    monkeypatch.setattr(
        metrics_http.MetricsServer, "start",
        lambda self: servers.append(self) or start(self),
    )
    monkeypatch.setattr(CounterWorkload, "_submit", failing_submit)
    config = SoakConfig(backend="realnet", sessions=1, peers=3, wall_s=2.0, seed=8)
    with pytest.raises(RuntimeError, match="workload bug"):
        run_soak(config)
    (net,), (server,) = nets, servers
    assert net._closed
    assert net.scheduler.loop.is_closed()
    assert server._server is None


def test_record_roundtrips_as_json(tmp_path):
    config = SoakConfig(backend="simnet", sessions=1, peers=3, wall_s=2.0)
    record = run_soak(config)
    path = tmp_path / "soak.json"
    write_record(record, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == "repro.soak/1"
    assert loaded["ok"] is True
    assert loaded["samples"] == record["samples"]


def test_cli_exit_codes_and_artifacts(tmp_path, capsys):
    record_path = tmp_path / "r.json"
    code = main([
        "--backend", "simnet", "--sessions", "1", "--peers", "3",
        "--wall-s", "2", "--record", str(record_path), "-q",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert record_path.exists()
    assert "all invariants held" in out
