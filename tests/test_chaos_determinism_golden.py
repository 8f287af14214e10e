"""Golden-file determinism regression for the chaos harness.

The engine optimisations (incremental state hashing, digest/signature
memoisation, COW world state, scheduler and transport fast paths) are
required to be *behaviour-preserving*: a pinned-seed chaos run must
produce the exact same simulated history before and after.  The golden
record in ``tests/golden/chaos_determinism_8p.json`` was captured from
the pre-optimisation engine; this test replays the same scenario and
asserts the full record — commit timeline, fault applications, workload
outcomes, probe results and network statistics — is bit-identical.

If a deliberate, behaviour-changing engine modification lands (e.g. a
different latency model), regenerate the golden with the snippet in
this file's ``_make_record`` docstring rather than loosening asserts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.chaos.runner import run_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "chaos_determinism_8p.json"


def _make_record(res) -> dict:
    """Build the comparison record exactly as the golden was generated::

        res = run_scenario("churn-partition-ddos", seed=7)
        json.dump(_make_record(res), open(GOLDEN_PATH, "w"),
                  indent=1, sort_keys=True)
    """
    return {
        "scenario": res.scenario,
        "seed": res.seed,
        "faults_in_schedule": res.faults_in_schedule,
        "faults_applied": res.faults_applied,
        # Commit entries carry a state-hash in position 4; the hash scheme
        # changed with the incremental bucketed hasher, so the golden pins
        # the scheme-independent prefix [kind, t, peer, height].
        "timeline": [e[:4] if e[0] == "commit" else e for e in res.timeline],
        "violations": [[v.at_ms, v.invariant, v.peer] for v in res.violations],
        "workload_summary": res.workload_summary,
        "probe_codes": res.probe_codes,
        "submitted": res.submitted,
        "committed_height": res.committed_height,
        "network_stats": res.network_stats,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    res = run_scenario("churn-partition-ddos", seed=7)
    # Round-trip through JSON so tuples/lists and int/float widths compare
    # on the same footing as the stored golden.
    return json.loads(json.dumps(_make_record(res)))


def test_run_is_clean_and_makes_progress(replayed):
    assert replayed["violations"] == []
    assert replayed["submitted"] > 0
    assert replayed["committed_height"] > 0


def test_timeline_matches_golden(golden, replayed):
    assert len(replayed["timeline"]) == len(golden["timeline"])
    for i, (got, want) in enumerate(zip(replayed["timeline"], golden["timeline"])):
        assert got == want, f"timeline diverges at event {i}: {got!r} != {want!r}"


def test_full_record_matches_golden(golden, replayed):
    assert replayed == golden


#: Full timeline digests (commit state hashes included) of one sharded
#: and two single-chain catalog runs.  Whatever drives a scenario must
#: replay these event for event.
PINNED_DIGESTS = {
    ("cross-shard-swap", 7):
        "9113f00a3b9f37e388cb9b9ecc35d0a95669408464c41f67a36905db76532bcf",
    ("smoke", 7):
        "eb93e28f656c8f448466796b10cc74b0338ab87f565d2910e7a7be7a761a7b9f",
    ("smoke", 42):
        "bc00c0d30ce383a04d79ff98d70f159488c2145a1d575507d5c070afb011e1b8",
}


@pytest.mark.parametrize("scenario,seed", sorted(PINNED_DIGESTS))
def test_timeline_digest_is_pinned(scenario, seed):
    result = run_scenario(scenario, seed=seed)
    assert result.ok
    assert result.timeline_digest() == PINNED_DIGESTS[scenario, seed]
