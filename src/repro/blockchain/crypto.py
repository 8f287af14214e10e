"""Cryptographic primitives: hashing, Merkle trees and RSA signatures.

The blockchain substrate needs (a) tamper-evident hash chaining, (b) a
Merkle root over block transactions and (c) real public-key signatures so
that PKI certificates and endorsements are verifiable by anyone holding
the public key (the paper binds peer identities to the blockchain with
PKI certificates, §5).

We implement textbook RSA over 512-bit moduli with deterministic key
generation from a seed.  512 bits is of course not secure against a 2026
adversary — it is chosen so that key generation and signing stay fast in
pure Python while every verification in the system is a *real*
asymmetric check, not a stub.  Swapping in a stronger scheme only means
changing this module.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "sha256_hex",
    "canonical_digest",
    "merkle_root",
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "generate_keypair",
    "verify_batch",
    "cached_decoding",
    "reset_crypto_caches",
    "crypto_cache_sizes",
]

_DEFAULT_KEY_BITS = 512


def sha256_hex(data) -> str:
    """SHA-256 hex digest of ``data`` (str is encoded UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _reject_non_native(obj: Any) -> Any:
    """Refuse to digest objects json cannot represent natively.

    The previous ``default=str`` fallback silently collided distinct
    objects (two dataclasses with equal ``str()`` digested equally) and
    made digests depend on ``repr`` stability.  Anything hashed into the
    chain must be explicitly reduced to JSON-native types first.
    """
    raise TypeError(
        f"canonical_digest: {type(obj).__name__} is not JSON-native; convert "
        "it explicitly (e.g. to_dict()/list) before hashing"
    )


#: ``json.dumps`` with non-default arguments builds an encoder per call;
#: the canonical form is fixed, so one encoder serves every digest.
_canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_reject_non_native
).encode


def canonical_digest(obj: Any) -> str:
    """Digest of a JSON-native object tree, with sorted keys so logically
    equal objects hash equally.  Raises ``TypeError`` on non-native types
    (no silent ``str()`` fallback)."""
    return sha256_hex(_canonical_json(obj))


def merkle_root(leaves: Sequence[str]) -> str:
    """Merkle root over a sequence of hex-digest leaves.

    An empty sequence hashes to the digest of the empty string; odd levels
    duplicate the final node (Bitcoin-style).
    """
    if not leaves:
        return sha256_hex(b"")
    level: List[str] = [sha256_hex(leaf) for leaf in leaves]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            sha256_hex(level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


# ----------------------------------------------------------------------
# RSA

def _miller_rabin(n: int, rng: random.Random, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _miller_rabin(candidate, rng):
            return candidate


#: Process-wide memo of verification verdicts keyed by
#: ``(n, e, message, signature)``.  In the simulator every peer is handed
#: the *same* gossiped transaction/certificate objects, so N peers
#: re-checking one signature would otherwise each pay the modexp; the
#: verdict is a pure function of the key material, message and signature,
#: so caching cannot change any result.  Bounded: cleared when full.
_VERIFY_CACHE: dict = {}
_VERIFY_CACHE_MAX = 1 << 17


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    def verify(self, message, signature: int) -> bool:
        """True iff ``signature`` is a valid RSA signature over ``message``.

        Verdicts are memoised process-wide (see :data:`_VERIFY_CACHE`);
        :meth:`verify_uncached` bypasses the memo for audit paths.
        """
        if not isinstance(signature, int) or not 0 < signature < self.n:
            return False
        try:
            key = (self.n, self.e, message, signature)
            cached = _VERIFY_CACHE.get(key)
        except TypeError:  # unhashable message (e.g. bytearray)
            return self.verify_uncached(message, signature)
        if cached is None:
            cached = self.verify_uncached(message, signature)
            if len(_VERIFY_CACHE) >= _VERIFY_CACHE_MAX:
                _VERIFY_CACHE.clear()
            _VERIFY_CACHE[key] = cached
        return cached

    def verify_uncached(self, message, signature: int) -> bool:
        """The real asymmetric check, no memoisation."""
        if not isinstance(signature, int) or not 0 < signature < self.n:
            return False
        h = int(sha256_hex(message), 16) % self.n
        return pow(signature, self.e, self.n) == h

    def fingerprint(self) -> str:
        """Stable identifier for this key (hash of its components)."""
        return sha256_hex(f"{self.n:x}:{self.e:x}")[:16]

    def to_dict(self) -> dict:
        return {"n": f"{self.n:x}", "e": self.e}

    @classmethod
    def from_dict(cls, d: dict) -> "PublicKey":
        return cls(n=int(d["n"], 16), e=int(d["e"]))


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key; keep it secret (the paper's attack model assumes an
    honest majority that does not share private keys, §3.2).

    When the prime factors ``p``/``q`` are retained (they are for keys
    from :func:`generate_keypair`), signing uses the standard CRT
    shortcut — two half-size modexps recombined with Garner's formula —
    which produces the *same* signature value roughly 3–4× faster.
    Keys built from ``(n, d)`` alone keep the single full-size modexp.
    """

    n: int
    d: int
    p: Optional[int] = None
    q: Optional[int] = None

    def sign(self, message) -> int:
        h = int(sha256_hex(message), 16) % self.n
        p, q = self.p, self.q
        if p is None or q is None:
            return pow(h, self.d, self.n)
        # CRT: sign modulo each prime, then recombine.  Bit-identical to
        # pow(h, d, n) by the Chinese Remainder Theorem.  The per-prime
        # exponents and Garner coefficient are constants of the key, so
        # they are computed once and memoised on the frozen instance.
        consts = getattr(self, "_crt_memo", None)
        if consts is None:
            consts = (self.d % (p - 1), self.d % (q - 1), pow(q, -1, p))
            object.__setattr__(self, "_crt_memo", consts)
        dp, dq, qinv = consts
        m1 = pow(h % p, dp, p)
        m2 = pow(h % q, dq, q)
        return m2 + ((m1 - m2) * qinv % p) * q


@dataclass(frozen=True)
class KeyPair:
    public: PublicKey
    private: PrivateKey

    def sign(self, message) -> int:
        return self.private.sign(message)

    def verify(self, message, signature: int) -> bool:
        return self.public.verify(message, signature)


#: Memoised key pairs.  ``generate_keypair`` is a pure function of
#: ``(seed, bits)`` and the produced objects are immutable, so identical
#: requests can share one key pair.  Re-creating a session (the
#: differential replays, golden tests, repeated benchmarks) derives the
#: same keys again; a prime search costs ~25 ms at 512 bits, so the memo
#: pays for itself at the second session.  Only the CA and the principals
#: that sign (clients) derive a key: identities are lazy
#: (:class:`~repro.blockchain.identity.Identity`).
_KEYPAIR_CACHE: Dict[Tuple[str, int], KeyPair] = {}
_KEYPAIR_CACHE_MAX = 512


def generate_keypair(seed, bits: int = _DEFAULT_KEY_BITS) -> KeyPair:
    """Deterministically generate an RSA key pair from ``seed``.

    Determinism keeps simulation runs reproducible; distinct seeds yield
    distinct keys with overwhelming probability.
    """
    if bits < 64:
        raise ValueError("key size too small to be meaningful")
    # The RNG below is seeded with str(seed), so (str(seed), bits) keys
    # the memo exactly as finely as the function's own determinism.
    cache_key = (f"repro-rsa:{seed}", bits)
    cached = _KEYPAIR_CACHE.get(cache_key)
    if cached is not None:
        return cached
    rng = random.Random(cache_key[0])
    e = 65537
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        d = pow(e, -1, phi)
        pair = KeyPair(
            public=PublicKey(n=n, e=e),
            private=PrivateKey(n=n, d=d, p=p, q=q),
        )
        if len(_KEYPAIR_CACHE) >= _KEYPAIR_CACHE_MAX:
            _KEYPAIR_CACHE.clear()
        _KEYPAIR_CACHE[cache_key] = pair
        return pair


#: Decoded wire objects (certificates; broadcast votes, sync hashes and
#: blocks) by exact encoding: the peers of a realnet process receive equal
#: bytes and share one object instead of a copy each.  Sound because a key
#: is a whole codec encoding, tag first, and no verdict is stored
#: (DESIGN.md §17).  Bounded: cleared when full.
_DECODED_CACHE: Dict[bytes, Any] = {}
_DECODED_CACHE_MAX = 256


def cached_decoding(data: bytes, build: Callable[[bytes], Any]) -> Any:
    """The object ``build(data)`` made earlier in this process for these
    exact bytes, else a new one, remembered.  ``data`` is a whole codec
    encoding and ``build`` decodes it; ``build`` raises on malformed
    bytes, which are then not remembered."""
    obj = _DECODED_CACHE.get(data)
    if obj is None:
        obj = build(data)
        if len(_DECODED_CACHE) >= _DECODED_CACHE_MAX:
            _DECODED_CACHE.clear()
        _DECODED_CACHE[data] = obj
    return obj


def crypto_cache_sizes() -> Dict[str, int]:
    """Current entry counts of the process-global memo caches."""
    return {
        "verify": len(_VERIFY_CACHE),
        "keypair": len(_KEYPAIR_CACHE),
        "decoded": len(_DECODED_CACHE),
    }


def reset_crypto_caches() -> Dict[str, int]:
    """Drop every process-global crypto memo; returns the prior sizes.

    The verify/keypair/decoded caches are pure memos — they can
    never change a verdict, a key or a decoded field — but they *do*
    change wall-clock timings and memory and, in a forked worker, would
    start pre-warmed with whatever the parent had verified or decoded.
    Worker processes of the process-parallel shard engine
    call this at bootstrap so every worker starts cold deterministically
    regardless of start method (fork inherits the parent's caches; spawn
    starts empty; after the reset both look identical).
    """
    sizes = crypto_cache_sizes()
    _VERIFY_CACHE.clear()
    _KEYPAIR_CACHE.clear()
    _DECODED_CACHE.clear()
    return sizes


def verify_batch(items: Sequence[Tuple["PublicKey", Any, int]]) -> List[bool]:
    """:meth:`PublicKey.verify` of each ``(public_key, message, signature)``
    triple, in order.  No peer calls it; it stays importable because
    e2ebench's frozen import surface names it."""
    return [key.verify(message, sig) for key, message, sig in items]
