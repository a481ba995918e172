"""Micro-timings: direct timed calls into public functions of single layers.

Each timing is the median of ``PASSES`` passes over a corpus generated from
the benchmark seed; the program receives only the generated inputs.  The
numbers are host times and noisy; they exist so a per-call cost change in
one layer is visible apart from how often a workload makes the call.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable

PASSES = 5
DISPATCH_EVENTS = 200_000
HASH_ITEMS = 20_000
VERIFY_ITEMS = 20_000
APPEND_ITEMS = 5_000
APPEND_BYTES = 1024


def _median_ns_per_item(make_pass: Callable[[], Callable[[], None]],
                        items: int) -> float:
    """``make_pass()`` builds fresh state outside the clock and returns the
    thunk to time."""
    samples = []
    for _ in range(PASSES):
        timed = make_pass()
        start = time.perf_counter_ns()
        timed()
        samples.append((time.perf_counter_ns() - start) / items)
    return statistics.median(samples)


def _noop() -> None:
    return None


def sim_dispatch_ns() -> float:
    """Schedule then run no-op events, per event."""
    from repro.sim.engine import Simulator

    def make_pass():
        sim = Simulator(seed=0)

        def timed():
            schedule = sim.schedule
            for index in range(DISPATCH_EVENTS):
                schedule(index * 1e-6, _noop)
            sim.run()
        return timed

    return _median_ns_per_item(make_pass, DISPATCH_EVENTS)


def crypto_hash_obj_ns(rng: random.Random) -> float:
    """``hash_obj`` over protocol-shaped payloads (flat str/int/bytes
    tuples, one in eight a nested SPEND-like record), per call."""
    from repro.crypto.hashing import hash_obj
    corpus = []
    for index in range(HASH_ITEMS):
        digest = rng.randbytes(32)
        if index % 8 == 0:
            corpus.append(("spend", f"addr:{rng.randrange(10_000)}",
                           ((digest.hex(), rng.randrange(1000)),),
                           ((f"addr:{rng.randrange(10_000)}",
                             rng.randrange(1000)),)))
        else:
            corpus.append(("accept", rng.randrange(1_000_000), digest))

    def make_pass():
        def timed():
            for item in corpus:
                hash_obj(item)
        return timed

    return _median_ns_per_item(make_pass, HASH_ITEMS)


def crypto_verify_ns(rng: random.Random) -> float:
    """``KeyRegistry.verify`` of distinct valid signatures (every call a
    cache miss, as for a request seen for the first time), per call."""
    from repro.crypto.keys import KeyRegistry
    seed = rng.randrange(1 << 30)
    payloads = [rng.randbytes(32) for _ in range(VERIFY_ITEMS)]

    def make_pass():
        registry = KeyRegistry(seed=seed)
        keys = [registry.generate(f"micro-{i}") for i in range(4)]
        signed = [(keys[i % 4].public, data, keys[i % 4].sign(data))
                  for i, data in enumerate(payloads)]

        def timed():
            verify = registry.verify
            for public, data, signature in signed:
                if not verify(public, data, signature):
                    raise AssertionError("valid signature rejected")
        return timed

    return _median_ns_per_item(make_pass, VERIFY_ITEMS)


def storage_append_ns(rng: random.Random) -> float:
    """``StableStore.append`` of a 1 KB payload followed by ``sync`` (and
    the simulated disk completing it), per append."""
    from repro.sim.engine import Simulator
    from repro.storage.stable import StableStore
    payloads = [("entry", index, rng.randbytes(APPEND_BYTES))
                for index in range(APPEND_ITEMS)]

    def make_pass():
        sim = Simulator(seed=0)
        store = StableStore(sim, name="micro")

        def timed():
            for payload in payloads:
                store.append("micro-log", payload, APPEND_BYTES)
                store.sync()
            sim.run()
            if store.log_length("micro-log") != APPEND_ITEMS:
                raise AssertionError("appends did not reach stable storage")
        return timed

    return _median_ns_per_item(make_pass, APPEND_ITEMS)


def run_all(seed: int) -> dict[str, float]:
    rng = random.Random(f"e2e-micro:{seed}")
    return {
        "sim.dispatch_ns": sim_dispatch_ns(),
        "crypto.hash_obj_ns": crypto_hash_obj_ns(rng),
        "crypto.verify_ns": crypto_verify_ns(rng),
        "storage.append_ns": storage_append_ns(rng),
    }
