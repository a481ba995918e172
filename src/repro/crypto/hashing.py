"""Cryptographic hashing and canonical serialization.

All hash-chaining in the ledger uses real SHA-256 over a canonical byte
encoding, so tamper-detection in tests is genuine: flipping any bit of a
stored block changes its digest and breaks the chain.

Hot-path engineering (see docs/performance.md)
----------------------------------------------
All n replicas live in one process and derive the same digests, so every
*replicated* digest is content-addressed — hashed once per process, looked
up n-1 times — with the bytes produced unchanged:

- :func:`canonical_bytes` dispatches on the exact type and inlines the
  dominant shapes (str/bytes/int leaves inside flat tuples).
- :class:`Memo` is the one bounded, counted memo table; :func:`memoized`
  keeps one keyed by :func:`content_key` behind :func:`hash_obj_cached`,
  Merkle roots, storage checksums and batch hashes.  The key *is* the
  content: ``1``/``True``/``1.0`` are three keys, lists and dicts have
  keys, a rotted payload is another key, and no payload is pinned.

Every table obeys :func:`set_caches_enabled` (the determinism tests prove
cached and uncached runs export identical bytes) and counts into
:func:`cache_stats` (``digest_cache_hits``/``_misses``).
"""

from __future__ import annotations

import hashlib
import struct
from itertools import islice
from marshal import dumps as _marshal
from typing import Any, Callable

from repro.errors import CryptoError

__all__ = [
    "digest",
    "digest_hex",
    "canonical_bytes",
    "hash_obj",
    "hash_obj_cached",
    "content_key",
    "memoized",
    "Memo",
    "EMPTY_DIGEST",
    "set_caches_enabled",
    "caches_enabled",
    "cache_stats",
    "reset_cache_stats",
    "clear_caches",
    "CACHE_COUNTERS",
]

_sha256 = hashlib.sha256


def digest(data: bytes) -> bytes:
    """SHA-256 digest of raw bytes."""
    return _sha256(data).digest()


def digest_hex(data: bytes) -> str:
    return _sha256(data).hexdigest()


#: Digest of the empty byte string — used as ``hash(∅)`` for the genesis
#: block's previous-hash field (Algorithm 1, line 6).
EMPTY_DIGEST = digest(b"")

_pack_u32 = struct.Struct(">I").pack
_pack_f64 = struct.Struct(">d").pack


# ----------------------------------------------------------------------
# Cache switch and statistics
# ----------------------------------------------------------------------
#: Cross-module cache counter table.  ``repro.crypto.keys`` records its
#: signature-verify cache here too, so one snapshot covers all crypto
#: caches; the bench harness diffs it around a run and exposes the deltas
#: as run metrics.
CACHE_COUNTERS: dict[str, int] = {
    "digest_cache_hits": 0,
    "digest_cache_misses": 0,
    "verify_cache_hits": 0,
    "verify_cache_misses": 0,
}

_caches_enabled = True

#: Default bound on a memo table (entries are a 32-byte key and a digest).
_MEMO_MAX = 16384
#: Every process-wide :class:`Memo`, so the master switch clears them all.
_tables: list["Memo"] = []


class Memo(dict):
    """The one bounded memo table.  A plain dict to its readers (hot paths
    inline ``table.get`` and count the hit); :meth:`add` counts the miss
    and, at ``capacity``, evicts the older half in insertion order, so
    hit/miss counts are exact per seed.  :func:`clear_caches` empties the
    ``shared`` ones; a per-run owner (the verify cache) passes False."""

    def __init__(self, capacity: int = _MEMO_MAX,
                 counter: str = "digest_cache", shared: bool = True):
        super().__init__()
        self.capacity = capacity
        self._misses = counter + "_misses"
        if shared:
            _tables.append(self)

    def add(self, key: Any, value: Any) -> Any:
        """Count a miss and remember ``value`` (unless disabled)."""
        if _caches_enabled:
            CACHE_COUNTERS[self._misses] += 1
            if len(self) >= self.capacity:
                for old in list(islice(self, self.capacity // 2)):
                    del self[old]
            self[key] = value
        return value


#: Content key (:func:`content_key`) -> digest of that content.
_digests = Memo()

#: Interning tables for encoded int / short-str *elements*.  Unlike the
#: digest memo these cache an encoding, not a result: the bytes stored are
#: exactly what :func:`_encode` would produce, so they cannot affect output
#: even in principle.  They still honor the master switch (stores are gated
#: on ``_caches_enabled`` and disabling clears them) so the determinism
#: tests exercise a genuinely cache-free encoder.  Client ids, request ids
#: and tag strings ("coin", "accept", addresses) recur across hundreds of
#: thousands of otherwise-unique payloads, which is where encoding time
#: goes on a Table I run.
_INTERN_MAX = 4096
_INTERN_STR_LEN = 24
_int_enc: dict[int, bytes] = {}
_str_enc: dict[str, bytes] = {}


def set_caches_enabled(enabled: bool) -> None:
    """Master switch for the crypto caches (every :class:`Memo`, per-object
    digest slots, the interning tables).  Disabling clears the memos so a
    later re-enable starts cold; used by tests to prove determinism under
    caching."""
    global _caches_enabled
    _caches_enabled = bool(enabled)
    if not _caches_enabled:
        clear_caches()


def clear_caches() -> None:
    """Empty every shared memo table and the interning tables without
    touching the enabled flag or the counters.

    The bench harness calls this at the start of each run so per-run cache
    hit/miss deltas are cold-start deterministic — a run's reported metrics
    must not depend on which runs happened earlier in the same process."""
    _int_enc.clear()
    _str_enc.clear()
    for table in _tables:
        table.clear()


def caches_enabled() -> bool:
    return _caches_enabled


def cache_stats() -> dict[str, int]:
    """Copy of the cumulative cache counters (process-wide; diff around a
    run for per-run numbers)."""
    return dict(CACHE_COUNTERS)


def reset_cache_stats() -> None:
    for key in CACHE_COUNTERS:
        CACHE_COUNTERS[key] = 0


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
def canonical_bytes(obj: Any) -> bytes:
    """Deterministically encode nested Python values to bytes.

    Supports ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and
    (nested) tuples, lists and dicts with sortable keys.  The encoding is
    type-tagged and length-prefixed, so distinct values never collide
    structurally (e.g. ``["ab"]`` vs ``["a", "b"]``).
    """
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _encode(obj: Any, out: bytearray) -> None:
    # Exact-type dispatch with the dominant shapes inlined: protocol
    # payloads are overwhelmingly flat tuples of str/int/bytes, which this
    # loop encodes without a function call per element.  Anything else
    # (bool/None/float/dict, subclasses, to_canonical objects) takes the
    # general path; the bytes produced are identical either way.
    t = obj.__class__
    if t is tuple or t is list:
        out += b"L" + _pack_u32(len(obj))
        for item in obj:
            it = item.__class__
            if it is str:
                enc = _str_enc.get(item)
                if enc is None:
                    body = item.encode("utf-8")
                    enc = b"S" + _pack_u32(len(body)) + body
                    if (_caches_enabled and len(item) <= _INTERN_STR_LEN
                            and len(_str_enc) < _INTERN_MAX):
                        _str_enc[item] = enc
                out += enc
            elif it is int:
                enc = _int_enc.get(item)
                if enc is None:
                    body = str(item).encode()
                    enc = b"I" + _pack_u32(len(body)) + body
                    if _caches_enabled and len(_int_enc) < _INTERN_MAX:
                        _int_enc[item] = enc
                out += enc
            elif it is bytes:
                out += b"B" + _pack_u32(len(item)) + item
            else:
                _encode(item, out)
    elif t is str:
        body = obj.encode("utf-8")
        out += b"S" + _pack_u32(len(body)) + body
    elif t is bytes:
        out += b"B" + _pack_u32(len(obj)) + obj
    elif t is int:
        body = str(obj).encode()
        out += b"I" + _pack_u32(len(body)) + body
    else:
        _encode_general(obj, out)


def _encode_general(obj: Any, out: bytearray) -> None:
    # The original isinstance chain: handles bool/None/float/dict, the
    # subclasses the fast path deliberately skips (IntEnum, str subclasses)
    # and objects exposing ``to_canonical``.
    if obj is None:
        out += b"N"
    elif obj is True:
        out += b"T"
    elif obj is False:
        out += b"F"
    elif isinstance(obj, int):
        body = str(obj).encode()
        out += b"I" + _pack_u32(len(body)) + body
    elif isinstance(obj, float):
        out += b"D" + _pack_f64(obj)
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out += b"S" + _pack_u32(len(body)) + body
    elif isinstance(obj, bytes):
        out += b"B" + _pack_u32(len(obj)) + obj
    elif isinstance(obj, (tuple, list)):
        out += b"L" + _pack_u32(len(obj))
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: canonical_bytes(kv[0]))
        out += b"M" + _pack_u32(len(items))
        for key, value in items:
            _encode(key, out)
            _encode(value, out)
    elif hasattr(obj, "to_canonical"):
        _encode(obj.to_canonical(), out)
    else:
        raise CryptoError(f"cannot canonically encode {type(obj).__name__}")


def hash_obj(obj: Any) -> bytes:
    """SHA-256 over the canonical encoding of ``obj``."""
    out = bytearray()
    _encode(obj, out)
    return _sha256(out).digest()


#: Exact types :func:`_plain` passes through untouched.
_ATOMS = frozenset({str, int, bytes, bool, float, type(None)})


def _plain(obj: Any) -> Any:
    """``obj`` with the ``to_canonical`` members of its containers swapped
    for their canonical forms; tuples become lists, which encode the same."""
    t = obj.__class__
    if t is tuple or t is list:
        return [x if x.__class__ in _ATOMS else _plain(x) for x in obj]
    if t is dict:
        return {k: _plain(v) for k, v in obj.items()}
    return obj if t in _ATOMS else obj.to_canonical()


def content_key(obj: Any) -> bytes | None:
    """Type-exact content key of ``obj``, or ``None`` if it is not data.

    SHA-256 over ``marshal`` version 2: type-tagged and length-prefixed
    like the canonical encoding, so equal keys imply equal encodings
    (``1``/``True``/``1.0`` differ; so do tuple and list, which only costs
    a miss), a function of the value alone (no object ids or interning
    flags) and written in C.  ``to_canonical`` objects inside containers
    are keyed by their canonical forms.  A memo key within one process,
    never a digest anybody stores or compares."""
    try:
        return _sha256(_marshal(obj, 2)).digest()
    except ValueError:  # holds objects: key their canonical forms
        try:
            return _sha256(_marshal(_plain(obj), 2)).digest()
        except (ValueError, AttributeError):
            return None


def memoized(compute: Callable[[Any], Any], obj: Any, domain: bytes = b"",
             table: Memo = _digests) -> Any:
    """``compute(obj)`` through a content-addressed table.  ``compute`` is
    a pure function of ``obj``'s canonical content and ``domain`` names it
    (one table serves digests and Merkle roots).  Content without a key,
    and everything while the caches are disabled, is computed afresh."""
    if _caches_enabled:
        key = content_key(obj)
        if key is not None:
            key += domain
            cached = table.get(key)
            if cached is not None:
                CACHE_COUNTERS["digest_cache_hits"] += 1
                return cached
            return table.add(key, compute(obj))
    return compute(obj)


def hash_obj_cached(obj: Any) -> bytes:
    """:func:`hash_obj`, hashing each piece of content once per process."""
    return memoized(hash_obj, obj)
