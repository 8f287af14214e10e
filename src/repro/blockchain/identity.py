"""PKI certificates and membership (the permissioned blockchain's MSP).

The shim's peer-discovery step has interested peers send "their
credentials, i.e., PKI certificates and IP address, to the initiator
shim" (§4.2.1).  The certificates here are real: a session
:class:`CertificateAuthority` signs ``(subject, public key, serial)``
tuples with its own RSA key, and a :class:`MembershipProvider` (Fabric's
MSP) validates presented certificates against trusted CA roots.

Enrolment is cheap: it reserves a subject and a serial number, and the
RSA key pair and certificate are derived on first use.  Peers and the
orderer never sign, so a session pays a prime search only for its CA
and its clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from .crypto import KeyPair, PublicKey, canonical_digest, generate_keypair

__all__ = ["Certificate", "Identity", "CertificateAuthority", "MembershipProvider"]


@dataclass(frozen=True)
class Certificate:
    """An issued certificate binding ``subject`` to ``public_key``."""

    subject: str
    public_key: PublicKey
    issuer: str
    serial: int
    signature: int

    def tbs(self, fresh: bool = False) -> str:
        """The to-be-signed content digest (memoised on the frozen
        certificate; ``fresh=True`` recomputes for audit paths)."""
        if not fresh:
            cached = getattr(self, "_tbs_memo", None)
            if cached is not None:
                return cached
        digest = canonical_digest(
            {
                "subject": self.subject,
                "public_key": self.public_key.to_dict(),
                "issuer": self.issuer,
                "serial": self.serial,
            }
        )
        if not fresh:
            object.__setattr__(self, "_tbs_memo", digest)
        return digest


class Identity:
    """A named principal: key pair plus CA-issued certificate.

    :meth:`CertificateAuthority.enroll` reserves the subject and its
    serial number; the key pair and certificate are derived on first
    use.  Both are pure functions of the CA, the subject and that
    serial, so a principal that never signs (a peer, the orderer) never
    pays for a prime search, and one that does gets the same key and
    certificate whenever it first asks.
    """

    def __init__(self, name: str, ca: CertificateAuthority, serial: int):
        self.name = name
        self._ca = ca
        self._serial = serial

    @cached_property
    def keypair(self) -> KeyPair:
        return self._ca._derive_keypair(self.name)

    @cached_property
    def certificate(self) -> Certificate:
        return self._ca._certify(self.name, self.keypair.public, self._serial)

    def sign(self, message) -> int:
        return self.keypair.sign(message)

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public


class CertificateAuthority:
    """The game session's certificate authority.

    One CA is created per game session (the blockchain is ephemeral and
    torn down at session end, §4.2.6); every participating peer enrols to
    receive an identity.
    """

    def __init__(self, name: str = "session-ca", seed: int = 0):
        self.name = name
        self._seed = seed
        self._keypair = generate_keypair(("ca", name, seed))
        self._serial = 0
        #: Serial number reserved for each enrolled or issued subject.
        self._serials: Dict[str, int] = {}

    @property
    def public_key(self) -> PublicKey:
        return self._keypair.public

    def _reserve(self, subject: str) -> int:
        self._serial += 1
        self._serials[subject] = self._serial
        return self._serial

    def enroll(self, subject: str) -> Identity:
        """Reserve ``subject`` and its serial number; the identity's key
        pair and certificate are derived when first read."""
        if subject in self._serials:
            raise ValueError(f"subject {subject!r} already enrolled")
        return Identity(name=subject, ca=self, serial=self._reserve(subject))

    def issue(self, subject: str, public_key: PublicKey) -> Certificate:
        """Issue a certificate over an externally generated public key."""
        return self._certify(subject, public_key, self._reserve(subject))

    def _derive_keypair(self, subject: str) -> KeyPair:
        return generate_keypair(("id", self.name, self._seed, subject))

    def _certify(self, subject: str, public_key: PublicKey, serial: int) -> Certificate:
        """The certificate over ``(subject, public_key, serial)``; the CA
        signature is deterministic, so signing late changes no bit."""
        unsigned = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            signature=0,
        )
        return Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            signature=self._keypair.sign(unsigned.tbs()),
        )

    def verify(self, cert: Certificate) -> bool:
        return cert.issuer == self.name and self._keypair.public.verify(
            cert.tbs(), cert.signature
        )


class MembershipProvider:
    """Validates certificates against a set of trusted CAs (Fabric's MSP)."""

    def __init__(self) -> None:
        self._roots: Dict[str, PublicKey] = {}

    def trust(self, ca_name: str, ca_public_key: PublicKey) -> None:
        self._roots[ca_name] = ca_public_key

    def trust_ca(self, ca: CertificateAuthority) -> None:
        self.trust(ca.name, ca.public_key)

    def validate(self, cert: Certificate) -> bool:
        """True iff ``cert`` was signed by a trusted CA."""
        root = self._roots.get(cert.issuer)
        if root is None:
            return False
        return root.verify(cert.tbs(), cert.signature)

    def verify_signature(self, cert: Certificate, message, signature: int) -> bool:
        """Validate the certificate chain *and* a signature under it."""
        return self.validate(cert) and cert.public_key.verify(message, signature)
