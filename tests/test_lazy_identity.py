"""Identities derive their key pair and certificate on first use.

Enrolment reserves a subject and its serial number; only a principal
that signs (a client) pays for the RSA prime search.  The derived
material must equal what eager enrolment produced, whatever order the
identities are first read in.
"""

import pytest

from repro.blockchain import BlockchainNetwork, CertificateAuthority, generate_keypair
from repro.blockchain.crypto import crypto_cache_sizes, reset_crypto_caches
from repro.core import GameSession
from repro.simnet import LAN_1GBPS


def test_a_network_derives_only_the_ca_key():
    reset_crypto_caches()
    BlockchainNetwork(32, seed=11)
    assert crypto_cache_sizes()["keypair"] == 1


def test_a_session_derives_the_ca_and_one_key_per_player():
    reset_crypto_caches()
    session = GameSession(n_peers=32, n_players=4, profile=LAN_1GBPS, seed=11)
    session.setup()
    assert crypto_cache_sizes()["keypair"] == 5


def test_reading_in_reverse_order_matches_eager_enrolment():
    subjects = ["orderer", "peer0", "peer1", "client0"]
    lazy_ca = CertificateAuthority("order-ca", seed=4)
    identities = [lazy_ca.enroll(subject) for subject in subjects]
    lazy = {i.name: i.certificate for i in reversed(identities)}

    eager_ca = CertificateAuthority("order-ca", seed=4)
    for subject in subjects:
        keypair = generate_keypair(("id", "order-ca", 4, subject))
        assert eager_ca.issue(subject, keypair.public) == lazy[subject]
        assert lazy_ca.verify(lazy[subject])


def test_duplicate_enrolment_raises_at_the_call():
    ca = CertificateAuthority("dup-ca", seed=2)
    first = ca.enroll("peer0")
    with pytest.raises(ValueError):
        ca.enroll("peer0")
    assert first.certificate.serial == 1
