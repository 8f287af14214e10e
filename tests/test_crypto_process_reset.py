"""Crypto memo caches across process boundaries.

The verify/keypair/decoded-object caches are pure memos, but a
forked worker would inherit them pre-warmed while a spawned worker
starts cold — a timing (and, if a memo were ever wrong, a verdict)
asymmetry between shard placements.  ``reset_crypto_caches()`` is the
equalizer: the process-parallel shard engine's workers call it at
bootstrap so every placement starts from the same cold state.  Pinned
here: the reset really empties every cache, reports what it dropped,
changes no verdict, and a spawned child observes cold caches on arrival.
"""

from __future__ import annotations

import subprocess
import sys

from repro.blockchain.codec import decode, encode
from repro.blockchain.crypto import (
    crypto_cache_sizes,
    generate_keypair,
    reset_crypto_caches,
)
from repro.blockchain.identity import Certificate

COLD = {"verify": 0, "keypair": 0, "decoded": 0}


def _warm():
    pair = generate_keypair("cache-test-seed", bits=256)
    signature = pair.private.sign("hello")
    assert pair.public.verify("hello", signature)
    # A certificate crossing the codec lands in the decoded-object memo.
    decode(encode(Certificate("warm", pair.public, "ca", 1, signature)))
    return pair, signature


def test_reset_empties_both_caches_and_reports_prior_sizes():
    reset_crypto_caches()
    _warm()
    before = crypto_cache_sizes()
    assert before["verify"] >= 1
    assert before["keypair"] >= 1
    assert before["decoded"] == 1
    dropped = reset_crypto_caches()
    assert dropped == before
    assert crypto_cache_sizes() == COLD


def test_reset_changes_no_verdict():
    pair, signature = _warm()
    reset_crypto_caches()
    # same key, cold cache: the memo never decided the answer
    assert pair.public.verify("hello", signature)
    assert not pair.public.verify("tampered", signature)
    assert pair.public.verify_uncached("hello", signature)


def test_repeated_reset_is_idempotent():
    reset_crypto_caches()
    assert reset_crypto_caches() == COLD


def test_spawned_process_starts_with_cold_caches():
    """What shard workers rely on: a fresh interpreter has empty memos,
    and warming the parent cannot leak into the child."""
    _warm()  # parent caches are demonstrably warm now
    assert crypto_cache_sizes()["verify"] >= 1
    assert crypto_cache_sizes()["decoded"] >= 1
    script = (
        "from repro.blockchain.crypto import crypto_cache_sizes, "
        "reset_crypto_caches\n"
        "sizes = crypto_cache_sizes()\n"
        f"assert sizes == {COLD!r}, sizes\n"
        "assert reset_crypto_caches() == sizes\n"
        "print('cold')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "cold"
