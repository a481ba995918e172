"""Simulated digital signatures with key erasure.

Substitution note (see DESIGN.md): real asymmetric cryptography is not in
the Python standard library and its constant factors are irrelevant to the
reproduced results, so signatures are *simulated*: a signature is
``SHA-256(seed || data)`` and a :class:`KeyRegistry` — a stand-in for the
mathematics that lets anyone verify with the public key — holds the
verification material.  The properties the paper relies on hold by
construction inside the simulation:

- **Unforgeability**: only code holding the live :class:`KeyPair` object can
  produce valid signatures; adversarial test code models key compromise by
  *taking the object*.
- **Third-party verifiability**: anyone can verify a signature given the
  public key string via the registry.
- **Erasure** (the forgetting protocol of Section V-D): ``erase()`` destroys
  the private seed inside the key pair; a later compromise of the owner
  yields nothing, while previously produced signatures remain verifiable.

The CPU cost of sign/verify is charged by the *caller* on its simulated CPU
resources using :class:`CryptoCosts`; these functions are computationally
trivial on purpose.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from repro.crypto import hashing as _hashing
from repro.errors import CryptoError

__all__ = ["Signature", "KeyPair", "KeyRegistry", "CryptoCosts"]


@dataclass(frozen=True)
class Signature:
    """A signature: who signed (public key id) and the MAC-style value."""

    signer: str          # public key (hex id)
    value: bytes

    def to_canonical(self) -> tuple:
        return ("sig", self.signer, self.value)

    #: Serialized size of an individual signature on the wire/ledger, bytes.
    WIRE_SIZE = 72


class KeyPair:
    """A public/private key pair whose private half can be erased."""

    def __init__(self, registry: "KeyRegistry", seed: bytes, public: str, label: str):
        self._registry = registry
        self._seed: bytes | None = seed
        self.public = public
        self.label = label

    @property
    def is_erased(self) -> bool:
        return self._seed is None

    def sign(self, data: bytes) -> Signature:
        """Sign ``data``.  Raises :class:`CryptoError` if the key was erased."""
        if self._seed is None:
            raise CryptoError(f"key {self.label} ({self.public[:8]}…) was erased")
        value = hashlib.sha256(self._seed + data).digest()
        return Signature(self.public, value)

    def erase(self) -> None:
        """Destroy the private seed (forgetting protocol).

        Signatures already produced remain verifiable; no new signature can
        ever be produced with this key, even by an attacker who captures the
        owner afterwards.
        """
        self._seed = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "erased" if self.is_erased else "live"
        return f"KeyPair({self.label}, {self.public[:8]}…, {state})"


class KeyRegistry:
    """Generates key pairs and verifies signatures.

    One registry per simulation; it is the 'mathematics oracle' — the
    verification side of the simulated scheme.  It never *signs*, so holding
    a reference to it grants no forging power to protocol code.
    """

    #: Bound on the per-registry verify cache; the quorum working set of a
    #: Table-scale run is a few thousand distinct (key, payload) pairs.
    VERIFY_CACHE_MAX = 8192

    def __init__(self, seed: int = 0):
        self._counter = itertools.count(1)
        self._master = seed
        self._verification: dict[str, bytes] = {}
        # (public, data, sig value) -> bool.  Safe to memoize because a
        # key's verification seed never changes once generated; results are
        # cached only for *known* keys, so a signature probed before its key
        # registers is re-checked (never a stale False).
        self._verify_cache = _hashing.Memo(
            self.VERIFY_CACHE_MAX, "verify_cache", shared=False)

    def generate(self, label: str = "") -> KeyPair:
        """Create a fresh key pair."""
        index = next(self._counter)
        seed = hashlib.sha256(f"key:{self._master}:{index}:{label}".encode()).digest()
        public = hashlib.sha256(b"pub:" + seed).hexdigest()
        self._verification[public] = seed
        return KeyPair(self, seed, public, label or f"key-{index}")

    def verify(self, public: str, data: bytes, signature: Signature) -> bool:
        """Check ``signature`` over ``data`` against ``public``.

        Results for known keys are memoized: the same certificate signature
        is re-checked by the replica, the PERSIST tally, the auditor and the
        third-party verifier, and the underlying hash only needs computing
        once.  The modeled CPU time (:class:`CryptoCosts`) is charged by the
        caller regardless, so caching never changes simulated timing.
        """
        if signature.signer != public:
            return False
        if _hashing.caches_enabled():
            key = (public, data, signature.value)
            cached = self._verify_cache.get(key)
            if cached is not None:
                _hashing.CACHE_COUNTERS["verify_cache_hits"] += 1
                return cached
            seed = self._verification.get(public)
            if seed is None:
                # Unknown key: do not cache — it may register later.
                return False
            return self._verify_cache.add(
                key, hashlib.sha256(seed + data).digest() == signature.value)
        seed = self._verification.get(public)
        if seed is None:
            return False
        expected = hashlib.sha256(seed + data).digest()
        return expected == signature.value


@dataclass
class CryptoCosts:
    """CPU service times for cryptographic operations (charged by callers).

    Calibrated so a single core verifies ≈3k signatures/second — consistent
    with RSA-1024/ECDSA verification on the paper's 2.27 GHz Xeon E5520 and
    with the sequential-verification throughput of Table I.
    """

    sign_time: float = 450e-6        # seconds per signature creation
    verify_time: float = 330e-6      # seconds per signature verification
    hash_time_per_kb: float = 3e-6   # seconds per KiB hashed
