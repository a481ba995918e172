"""Stable storage with explicit sync semantics.

This module is where the paper's durability distinctions become executable:

- data *appended* to a log lives in a volatile buffer (the OS page cache)
  until a **sync** completes — a crash before the sync loses it;
- data that a completed sync covers is **stable** — it survives any number of
  recoverable crashes (Section III: "any data successfully stored in such a
  device will not be lost in the advent of a recoverable crash fault");
- an :class:`AsyncFlusher` periodically syncs in the background, which is
  exactly the paper's *λ-Persistence*: a small, environment-dependent suffix
  of the history can be lost.

A :class:`StableStore` belongs to a *machine*, not to a replica object: when
a replica crashes and a new instance recovers on the same machine, it reads
the survivor state from the machine's store.  Byzantine replicas may truncate
or corrupt their own store (``corrupt_suffix``), which the model permits —
stable storage protects against crashes, not against the owner.

Stable media also fails in ways that are *not* crashes.  Every record
carries a content checksum computed at :meth:`StableStore.append` time, and
:meth:`StableStore.inject_fault` models the classic storage pathologies —
``bit-rot`` (a stable payload is silently corrupted, its checksum left
stale), ``torn-write`` (a sync barrier commits only a prefix of its group
while still reporting success), ``fsync-lie`` (the barrier reports success
but the data stays in the volatile cache) and ``gray-disk`` (sync latency
inflates by a factor over a window; see :meth:`Disk.degrade`).  Verified
recovery (``docs/faults.md``, "Storage faults & verified recovery") replays
only the longest checksum- and linkage-valid prefix.  Checksums are pure
host-side bookkeeping: they charge no simulated time, so fault-free runs
are byte-identical with or without them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.hashing import hash_obj, hash_obj_cached
from repro.crypto.merkle import merkle_root
from repro.errors import CryptoError, StorageError
from repro.sim.engine import Simulator
from repro.storage.disk import Disk, DiskConfig

__all__ = ["LogEntry", "StableStore", "AsyncFlusher", "STORAGE_FAULT_KINDS",
           "checksum"]

#: Injectable storage pathologies (see :meth:`StableStore.inject_fault`).
STORAGE_FAULT_KINDS = ("bit-rot", "torn-write", "gray-disk", "fsync-lie")


def _fingerprint(payload: Any, store: "StableStore | None" = None) -> bytes:
    """Content checksum of a record payload.

    The canonical digest of the record, with every *table* in it — a field
    that is a non-empty tuple of tuples, such as the transactions or the
    results of a block — committed by its Merkle root.  The block header
    carries the roots of those same tables, so their rows are hashed once
    for both.  Digests and roots come through the content-addressed memo:
    the n replicas logging the same record hash it once, and so does
    verification — the memo key is the payload's present content, so a
    rotted payload is another key, misses, and is re-hashed.

    Anything the canonical encoder rejects — application snapshots,
    checkpoint dataclasses — falls back to hashing its ``repr``, which is
    stable within a run and is only ever compared against a checksum
    computed by the same process; the stamping ``store`` counts those,
    since a record off the canonical path is hashed by every replica.
    """
    try:
        if payload.__class__ is tuple:
            payload = [
                ("merkle-root", merkle_root(field))
                if field.__class__ is tuple and field
                and field[0].__class__ is tuple else field
                for field in payload]
        return hash_obj_cached(payload)
    except CryptoError:
        if store is not None:
            store.repr_checksums += 1
        return hash_obj(repr(payload))


#: The checksum under its public name: delivery layers commit to state
#: packages — content the store never holds — the way it commits to records.
checksum = _fingerprint


def _bitrot(value: Any, rng) -> Any:
    """Return a copy of ``value`` with one spot flipped.

    Walks containers to a leaf and perturbs it, preserving the overall
    shape (a corrupted oplog record still parses — that is what makes
    unverified replay dangerous rather than crash-on-read).  Dataclasses
    prefer their identity fields so the corruption is visible in the
    record's canonical encoding, not just in cost-model metadata.
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << rng.randrange(16))
    if isinstance(value, float):
        return value + 1.0 + rng.random()
    if isinstance(value, str):
        if not value:
            return "\x00"
        i = rng.randrange(len(value))
        return value[:i] + chr(ord(value[i]) ^ 1) + value[i + 1:]
    if isinstance(value, bytes):
        if not value:
            return b"\x01"
        i = rng.randrange(len(value))
        return value[:i] + bytes([value[i] ^ 1]) + value[i + 1:]
    if isinstance(value, (tuple, list)):
        if not value:
            return type(value)((0,))
        i = rng.randrange(len(value))
        items = list(value)
        items[i] = _bitrot(items[i], rng)
        return items if isinstance(value, list) else tuple(items)
    if isinstance(value, dict):
        if not value:
            return {"bit-rot": 1}
        keys = sorted(value, key=repr)
        key = keys[rng.randrange(len(keys))]
        out = dict(value)
        out[key] = _bitrot(out[key], rng)
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in dataclasses.fields(value) if f.init]
        preferred = [n for n in ("client_id", "req_id") if n in names]
        candidates = preferred or [
            n for n in names if isinstance(getattr(value, n), (int, str))]
        if candidates:
            name = candidates[rng.randrange(len(candidates))]
            return dataclasses.replace(
                value, **{name: _bitrot(getattr(value, name), rng)})
    return ("bit-rot", repr(value))


@dataclass
class LogEntry:
    """One record appended to a named log."""

    payload: Any
    nbytes: int
    seq: int = field(default=0)
    #: Content checksum computed at append time; re-checked by verified
    #: recovery.  Bit-rot corrupts the payload and leaves this stale.
    checksum: bytes = b""


class StableStore:
    """Named append-only logs and key cells with stable/volatile regions."""

    def __init__(self, sim: Simulator, disk: Disk | None = None,
                 disk_config: DiskConfig | None = None, name: str = "store"):
        self.sim = sim
        self.disk = disk or Disk(sim, disk_config, name=f"{name}.disk")
        self.name = name
        #: Owning machine/replica id (set by the replica; -1 = unbound).
        self.node = -1
        self._stable_logs: dict[str, list[LogEntry]] = {}
        self._volatile_logs: dict[str, list[LogEntry]] = {}
        self._stable_cells: dict[str, tuple[Any, int, bytes]] = {}
        self._volatile_cells: dict[str, tuple[Any, int, bytes]] = {}
        self._pending_bytes = 0
        self._seq = 0
        # Injected-fault state (inert in fault-free runs).
        self._torn_write_armed = False
        self._torn_write_keep: int | None = None
        self._fsync_lies = 0
        self._fault_rng = None
        #: Checksum mismatches detected on this store (verified recovery).
        self.bitrot_detected = 0
        #: Entries lost to torn sync barriers.
        self.torn_entries_lost = 0
        #: Records stamped with the ``repr`` checksum because the canonical
        #: encoder rejected them (see :func:`_fingerprint`).
        self.repr_checksums = 0

    def metrics(self) -> dict[str, int]:
        """Storage health: checksum mismatches caught, gray windows opened
        on the device, and records the canonical encoder rejected (hashed
        by ``repr`` on every replica: checkpoints legitimately, anything on
        the delivery path by accident)."""
        return {
            "storage.bitrot_detected": self.bitrot_detected,
            "storage.gray_periods": self.disk.gray_periods,
            "storage.repr_checksums": self.repr_checksums,
        }

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, log: str, payload: Any, nbytes: int) -> LogEntry:
        """Buffer an append to ``log``.  Volatile until a sync covers it."""
        if nbytes < 0:
            raise StorageError("entry size must be non-negative")
        self._seq += 1
        entry = LogEntry(payload, nbytes, self._seq,
                         _fingerprint(payload, self))
        self._volatile_logs.setdefault(log, []).append(entry)
        self._pending_bytes += nbytes
        return entry

    def put(self, key: str, payload: Any, nbytes: int) -> None:
        """Buffer a write to a named cell (snapshot pointer, view file, ...)."""
        if nbytes < 0:
            raise StorageError("cell size must be non-negative")
        self._volatile_cells[key] = (
            payload, nbytes, _fingerprint(payload, self))
        self._pending_bytes += nbytes

    def sync(self, fn: Callable[..., Any] | None = None, *args: Any) -> None:
        """Write every buffered byte to stable media with one barrier.

        All appends and puts issued before this call are stable when ``fn``
        fires.  This is the group-commit primitive: cost is one sync latency
        plus the bandwidth term for the accumulated bytes.
        """
        # Snapshot the volatile sets now; later appends belong to the next sync.
        logs = {name: list(entries) for name, entries in self._volatile_logs.items()}
        cells = dict(self._volatile_cells)
        nbytes = self._pending_bytes
        self._volatile_logs.clear()
        self._volatile_cells.clear()
        self._pending_bytes = 0
        self.disk.write(nbytes, True, self._commit, logs, cells, fn, args)

    def write_snapshot(self, key: str, payload: Any, nbytes: int,
                       fn: Callable[..., Any] | None = None, *args: Any) -> None:
        """Write a large snapshot directly to stable media (own barrier)."""
        if nbytes < 0:
            raise StorageError("snapshot size must be non-negative")
        self.disk.write_snapshot(
            nbytes, self._commit, {},
            {key: (payload, nbytes, _fingerprint(payload, self))}, fn, args)

    def _commit(self, logs: dict[str, list[LogEntry]],
                cells: dict[str, tuple[Any, int, bytes]],
                fn: Callable[..., Any] | None, args: tuple) -> None:
        if self._fsync_lies > 0 and (logs or cells):
            # fsync-lie: the barrier reports success but nothing reached
            # stable media — the data silently re-enters the volatile
            # buffer (in front, preserving append order) and is lost if a
            # crash lands before an honest sync covers it.
            self._fsync_lies -= 1
            for name, entries in logs.items():
                self._volatile_logs[name] = (
                    entries + self._volatile_logs.get(name, []))
                self._pending_bytes += sum(e.nbytes for e in entries)
            for key, cell in cells.items():
                if key not in self._volatile_cells:
                    self._volatile_cells[key] = cell
                    self._pending_bytes += cell[1]
            if fn is not None:
                fn(*args)
            return
        flat = sorted((e for entries in logs.values() for e in entries),
                      key=lambda e: e.seq)
        if self._torn_write_armed and flat:
            # torn-write: the barrier commits only a proper prefix of the
            # group (in append order) yet still reports success; the lost
            # suffix leaves a hole that later syncs append past.
            self._torn_write_armed = False
            if self._torn_write_keep is not None:
                keep = max(0, min(self._torn_write_keep, len(flat) - 1))
            else:
                keep = self._fault_rng.randrange(len(flat))
            kept = {e.seq for e in flat[:keep]}
            self.torn_entries_lost += len(flat) - keep
            logs = {name: [e for e in entries if e.seq in kept]
                    for name, entries in logs.items()}
        for name, entries in logs.items():
            self._stable_logs.setdefault(name, []).extend(entries)
        self._stable_cells.update(cells)
        if fn is not None:
            fn(*args)

    # ------------------------------------------------------------------
    # Fault injection (seeded; see docs/faults.md)
    # ------------------------------------------------------------------
    def inject_fault(self, kind: str, rng, **params: Any) -> dict:
        """Apply one storage pathology; returns a description of what hit.

        ``rng`` is the caller's private random stream (the fault injector
        derives one per spec), so honest-path randomness is untouched and
        the same plan + seed reproduces the same corruption bit for bit.
        """
        if kind == "bit-rot":
            cell = params.get("cell")
            if cell is not None:
                stored = self._stable_cells.get(cell)
                if stored is None:
                    return {"applied": False, "kind": kind}
                payload, nbytes, checksum = stored
                self._stable_cells[cell] = (
                    _bitrot(payload, rng), nbytes, checksum)
                return {"applied": True, "kind": kind, "cell": cell}
            log = params.get("log")
            if log is None:
                candidates = [n for n, e in self._stable_logs.items() if e]
                if not candidates:
                    return {"applied": False, "kind": kind}
                log = max(candidates,
                          key=lambda n: len(self._stable_logs[n]))
            entries = self._stable_logs.get(log, [])
            if not entries:
                return {"applied": False, "kind": kind, "log": log}
            index = params.get("index")
            if index is None:
                index = rng.randrange(len(entries))
            index = int(index) % len(entries)
            entry = entries[index]
            entry.payload = _bitrot(entry.payload, rng)
            # The checksum is deliberately left stale: that is the fault.
            return {"applied": True, "kind": kind, "log": log, "index": index}
        if kind == "torn-write":
            self._torn_write_armed = True
            keep = params.get("keep")
            self._torn_write_keep = None if keep is None else int(keep)
            self._fault_rng = rng
            return {"applied": True, "kind": kind}
        if kind == "fsync-lie":
            count = int(params.get("count", 1))
            if count <= 0:
                raise StorageError("fsync-lie count must be positive")
            self._fsync_lies += count
            return {"applied": True, "kind": kind, "count": count}
        if kind == "gray-disk":
            factor = float(params.get("factor", 8.0))
            duration = float(params.get("duration", 0.5))
            if factor <= 1.0 or duration <= 0:
                raise StorageError(
                    "gray-disk needs factor > 1 and duration > 0")
            budget = params.get("budget")
            until = self.sim.now + duration
            self.disk.degrade(factor, until,
                              None if budget is None else float(budget))
            return {"applied": True, "kind": kind, "factor": factor,
                    "until": until}
        raise StorageError(f"unknown storage fault kind: {kind!r}")

    # ------------------------------------------------------------------
    # Crash semantics
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Drop everything not yet covered by a completed sync."""
        self._volatile_logs.clear()
        self._volatile_cells.clear()
        self._pending_bytes = 0

    def corrupt_suffix(self, log: str, keep: int) -> list[LogEntry]:
        """Byzantine owner truncates its own stable log to ``keep`` entries.

        Returns the removed suffix (so adversarial tests can replay it).
        """
        return self.truncate_log(log, keep)

    def truncate_log(self, log: str, keep: int) -> list[LogEntry]:
        """Drop the stable suffix of ``log`` past the first ``keep`` entries
        (verified recovery cuts at the first invalid record).  Returns the
        removed suffix."""
        entries = self._stable_logs.get(log, [])
        removed = entries[keep:]
        self._stable_logs[log] = entries[:keep]
        return removed

    # ------------------------------------------------------------------
    # Reads (recovery path — only stable data is visible)
    # ------------------------------------------------------------------
    def read_log(self, log: str) -> list[Any]:
        """Stable entries of ``log``, in append order."""
        return [entry.payload for entry in self._stable_logs.get(log, [])]

    def read_entries(self, log: str) -> list[LogEntry]:
        """Stable records of ``log`` with their checksums, in append order."""
        return list(self._stable_logs.get(log, []))

    @staticmethod
    def verify_entry(entry: LogEntry) -> bool:
        """Does the record's payload still match its append-time checksum?"""
        return _fingerprint(entry.payload) == entry.checksum

    def verify_cell(self, key: str) -> bool:
        """Checksum-check a stable cell; absent cells are vacuously valid."""
        cell = self._stable_cells.get(key)
        if cell is None:
            return True
        return _fingerprint(cell[0]) == cell[2]

    def read_cell(self, key: str, default: Any = None) -> Any:
        if key in self._stable_cells:
            return self._stable_cells[key][0]
        return default

    def log_length(self, log: str) -> int:
        return len(self._stable_logs.get(log, []))

    def volatile_length(self, log: str) -> int:
        return len(self._volatile_logs.get(log, []))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet scheduled for a sync."""
        return self._pending_bytes

    def stable_bytes(self) -> int:
        total = sum(e.nbytes for entries in self._stable_logs.values() for e in entries)
        total += sum(cell[1] for cell in self._stable_cells.values())
        return total


class AsyncFlusher:
    """Background flusher implementing asynchronous (λ-Persistence) writes.

    Calls :meth:`StableStore.sync` every ``interval`` simulated seconds while
    there is buffered data.  The loss window after a full crash is therefore
    bounded by roughly one interval of appended blocks — the paper's small
    integer λ > 0.
    """

    def __init__(self, store: StableStore, interval: float = 0.05):
        if interval <= 0:
            raise StorageError(
                f"flush interval must be positive, got {interval!r} "
                "(a zero or negative interval busy-loops the simulator)")
        self.store = store
        self.interval = interval
        self._timer = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._timer = self.store.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        if self.store.pending_bytes > 0:
            self.store.sync()
        self._timer = self.store.sim.schedule(self.interval, self._tick)
