"""Golden pin of the windowed batching model on session #9.

``count_delays`` produces Figs. 3d-3f and Table 4.  This test records
what it returns on the paper's session #9 at the validation windows the
figures use, with batching on and off, single-threaded, and at the
Table 4 tickrate compressions, so a rewrite of the model must give the
same counts and throughputs to 6 decimal places.

Regenerate ``tests/golden/batching_session9.json`` only for a change
that is meant to move the figures::

    json.dump(_make_record(), open(GOLDEN_PATH, "w"), indent=1, sort_keys=True)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import count_delays
from repro.game import GameEvent, generate_session

GOLDEN_PATH = Path(__file__).parent / "golden" / "batching_session9.json"

#: The validation windows (ms) of the 1..32-peer setups in Figs. 3d-3f.
WINDOWS_MS = (29.0, 83.0, 86.0, 115.0, 143.0)
#: Table 4 tickrates replayed from the session's native 35 Hz.
TICKRATES = (90, 150)


def _cases():
    yield "native", WINDOWS_MS, (True, False), (True,)
    yield "native", (143.0,), (True, False), (False,)
    for tickrate in TICKRATES:
        yield f"tickrate-{tickrate}", (143.0,), (True,), (True,)


def _compress(events, factor: float):
    return [
        GameEvent(e.t_ms / factor, e.player, e.etype, e.payload, e.seq)
        for e in events
    ]


def _summary(stats) -> dict:
    return {
        "delayed_events": stats.delayed_events,
        "txs_dispatched": stats.txs_dispatched,
        "batches_dispatched": stats.batches_dispatched,
        "batched_events": stats.batched_events,
        "max_batch_size": stats.max_batch_size,
        "throughput_tx_per_s": round(stats.throughput_tx_per_s, 6),
        "throughput_events_per_s": round(stats.throughput_events_per_s, 6),
    }


def _make_record() -> dict:
    demo = generate_session("#9", 24 * 60_000.0, seed=2018 + 8)
    record = {"n_events": len(demo.events)}
    traces = {"native": demo.events}
    for tickrate in TICKRATES:
        traces[f"tickrate-{tickrate}"] = _compress(
            demo.events, tickrate / demo.tickrate
        )
    for trace, windows, batchings, threadings in _cases():
        for window in windows:
            for batching in batchings:
                for multithreaded in threadings:
                    key = (
                        f"{trace}/w={window:g}/batching={batching}"
                        f"/multithreaded={multithreaded}"
                    )
                    record[key] = _summary(count_delays(
                        traces[trace], window, batching=batching,
                        multithreaded=multithreaded,
                    ))
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    return json.loads(json.dumps(_make_record()))


def test_session9_size(replayed):
    assert replayed["n_events"] == 28_678


def test_model_matches_golden(golden, replayed):
    assert sorted(replayed) == sorted(golden)
    for key in golden:
        assert replayed[key] == golden[key], key
