"""Unit tests for hashing, Merkle trees, RSA keys and certificates."""

import json
import random

import pytest

from repro.blockchain import (
    CertificateAuthority,
    MembershipProvider,
    canonical_digest,
    generate_keypair,
    merkle_root,
    sha256_hex,
)


class TestHashing:
    def test_sha256_known_vector(self):
        assert sha256_hex("abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_str_and_bytes_agree(self):
        assert sha256_hex("abc") == sha256_hex(b"abc")

    def test_canonical_digest_key_order_invariant(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})

    def test_canonical_digest_differs_on_value(self):
        assert canonical_digest({"a": 1}) != canonical_digest({"a": 2})

    def test_canonical_digest_is_the_sorted_compact_json_form(self):
        """The canonical form is chain format: digests must equal the
        plain ``json.dumps`` spelling whatever builds the string."""
        tree = {
            "player/ζ": {"ammo": 49, "pos": [1.5, -0.25, 1e-9], "name": "Zoë ✓"},
            "game": {"started": True, "roster": ["p0", "p1"], "winner": None},
            "big": 2**70, "ratio": 0.1 + 0.2, "nested": [{"b": [], "a": {}}],
        }

        def shuffled(obj, rng):
            if isinstance(obj, dict):
                items = [(k, shuffled(v, rng)) for k, v in obj.items()]
                rng.shuffle(items)
                return dict(items)
            if isinstance(obj, list):
                return [shuffled(v, rng) for v in obj]
            return obj

        want = sha256_hex(json.dumps(tree, sort_keys=True, separators=(",", ":")))
        assert want == (
            "ad071ca234609e003d0a23febb8931cfac38028fb9347171ddca64d8b6027a1f"
        )
        for seed in range(5):
            assert canonical_digest(shuffled(tree, random.Random(seed))) == want
        for leaf in (object(), {1, 2}, b"raw", 1j):
            with pytest.raises(TypeError, match="not JSON-native"):
                canonical_digest({"ok": [1, {"deep": leaf}]})

    def test_merkle_root_empty(self):
        assert merkle_root([]) == sha256_hex(b"")

    def test_merkle_root_order_sensitive(self):
        assert merkle_root(["a", "b"]) != merkle_root(["b", "a"])

    def test_merkle_root_odd_leaf_count(self):
        # Odd levels duplicate the last node; must not raise and must be
        # distinct from the even-sized prefix.
        assert merkle_root(["a", "b", "c"]) != merkle_root(["a", "b"])

    def test_merkle_root_deterministic(self):
        leaves = [f"leaf{i}" for i in range(7)]
        assert merkle_root(leaves) == merkle_root(list(leaves))


class TestRSA:
    def test_sign_verify_roundtrip(self):
        kp = generate_keypair("alice")
        sig = kp.sign("attack at dawn")
        assert kp.verify("attack at dawn", sig)

    def test_verify_rejects_tampered_message(self):
        kp = generate_keypair("alice")
        sig = kp.sign("attack at dawn")
        assert not kp.verify("attack at dusk", sig)

    def test_verify_rejects_other_key(self):
        alice, bob = generate_keypair("alice"), generate_keypair("bob")
        sig = alice.sign("hello")
        assert not bob.verify("hello", sig)

    def test_deterministic_from_seed(self):
        assert generate_keypair("s1").public == generate_keypair("s1").public
        assert generate_keypair("s1").public != generate_keypair("s2").public

    def test_verify_rejects_garbage_signature(self):
        kp = generate_keypair("alice")
        assert not kp.verify("hello", 12345)
        assert not kp.verify("hello", 0)
        assert not kp.verify("hello", kp.public.n + 1)

    def test_fingerprint_stable_and_distinct(self):
        a, b = generate_keypair("a"), generate_keypair("b")
        assert a.public.fingerprint() == a.public.fingerprint()
        assert a.public.fingerprint() != b.public.fingerprint()

    def test_key_size_floor(self):
        with pytest.raises(ValueError):
            generate_keypair("x", bits=32)

    def test_public_key_serialization_roundtrip(self):
        from repro.blockchain import PublicKey

        pk = generate_keypair("ser").public
        assert PublicKey.from_dict(pk.to_dict()) == pk


class TestCertificates:
    def test_enroll_and_verify(self):
        ca = CertificateAuthority()
        identity = ca.enroll("peer0")
        assert ca.verify(identity.certificate)

    def test_duplicate_enrollment_rejected(self):
        ca = CertificateAuthority()
        ca.enroll("peer0")
        with pytest.raises(ValueError):
            ca.enroll("peer0")

    def test_msp_validates_trusted_ca(self):
        ca = CertificateAuthority()
        msp = MembershipProvider()
        msp.trust_ca(ca)
        cert = ca.enroll("peer0").certificate
        assert msp.validate(cert)

    def test_msp_rejects_untrusted_issuer(self):
        good, evil = CertificateAuthority("good"), CertificateAuthority("evil", seed=9)
        msp = MembershipProvider()
        msp.trust_ca(good)
        assert not msp.validate(evil.enroll("mallory").certificate)

    def test_msp_rejects_forged_subject(self):
        import dataclasses

        ca = CertificateAuthority()
        msp = MembershipProvider()
        msp.trust_ca(ca)
        cert = ca.enroll("peer0").certificate
        forged = dataclasses.replace(cert, subject="admin")
        assert not msp.validate(forged)

    def test_msp_verify_signature_end_to_end(self):
        ca = CertificateAuthority()
        msp = MembershipProvider()
        msp.trust_ca(ca)
        identity = ca.enroll("peer0")
        sig = identity.sign("payload")
        assert msp.verify_signature(identity.certificate, "payload", sig)
        assert not msp.verify_signature(identity.certificate, "other", sig)

    def test_serial_numbers_increase(self):
        ca = CertificateAuthority()
        c1 = ca.enroll("a").certificate
        c2 = ca.enroll("b").certificate
        assert c2.serial > c1.serial
