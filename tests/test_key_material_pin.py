"""Pin the RSA key material a session derives from its seeds.

Every key pair feeds every signature, codec byte and golden file, so a
change to how or when keys are made (eager or on first use, cached or
not) must leave these values exactly as they are.
"""

import pytest

from repro.blockchain import CertificateAuthority, generate_keypair, sha256_hex

KEYPAIR_FINGERPRINTS = [
    ("pin-a", "e308bd6fdc0ec4f7"),
    (7, "adc10660053c2513"),
    (("id", "pin", 3, "x"), "8239a4fd89a57b37"),
]

#: (subject, serial, public-key fingerprint, sha256 of the CA signature)
#: for ``CertificateAuthority("pin-ca", seed=5)`` enrolling in this order.
CERTIFICATES = [
    ("alice", 1, "42261d5846dfcdcc",
     "fbca2f66971f44665641f2976bb20516ef86200bac6e680fe52727ed33cf1580"),
    ("bob", 2, "3ec52c42d4471331",
     "0b24c64411da74c8844d0546c0d61258cd75bc164ccc71027b1c90d5d436a5f9"),
    ("carol", 3, "820670ad5941fe09",
     "5cf816479e701b765d67b955d01cad62ab61abd1c10164060f51af9f85f6a7d1"),
]


@pytest.mark.parametrize("seed,fingerprint", KEYPAIR_FINGERPRINTS)
def test_generate_keypair_is_pinned(seed, fingerprint):
    assert generate_keypair(seed).public.fingerprint() == fingerprint


def test_enrolled_certificates_are_pinned():
    ca = CertificateAuthority("pin-ca", seed=5)
    identities = [ca.enroll(subject) for subject, *_ in CERTIFICATES]
    for identity, (subject, serial, fingerprint, sig_hash) in zip(identities, CERTIFICATES):
        cert = identity.certificate
        assert cert.subject == subject
        assert cert.serial == serial
        assert cert.public_key.fingerprint() == fingerprint
        assert sha256_hex(str(cert.signature)) == sig_hash
        assert ca.verify(cert)
