"""Profiler hook owned by the benchmark: fold a cProfile run by layer.

The program under test carries no host-time instrumentation, so the traced
pass T2 measures from outside: ``cProfile`` records every call edge
(caller function -> callee function, calls, inclusive and own seconds), and
:func:`fold` collapses functions into the layers of ``src/repro`` — giving
one *boundary span* aggregate per (caller layer -> callee layer) edge.

Attribution rules:

- a Python function belongs to the ``src/repro/<package>/`` its file is in;
  code generated at class-definition time (dataclass ``__init__``/``__eq__``,
  file name ``<string>``) belongs to the layer that defines the class;
  everything else — the harness, workload generators, the standard library,
  this benchmark — is ``other``;
- a built-in (C function) has no layer of its own: its time is charged to
  the layer of the function that called it, and a Python callback it makes
  (``sorted(key=...)``, a generator driven by ``sum``) is not a boundary
  crossing;
- a layer's *self* seconds are the seconds spent in its own frames plus the
  built-ins they call, so self shares sum to 1 over all layers and ``other``;
- a layer's *inclusive* seconds are the inclusive seconds on every edge
  entering it from a different layer.  Nested re-entry (A -> B -> A -> B) is
  counted each time it crosses, so inclusive shares overlap and can add up
  to more than 1; self = inclusive in - inclusive out holds up to the
  profiler's handling of recursive functions.
"""

from __future__ import annotations

import cProfile
import os
import sys
from typing import Any, Callable

from spec import LAYERS, OTHER

_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep


def _layer_of_file(filename: str) -> str | None:
    """``sim`` for ``.../src/repro/sim/engine.py``; None if not a layer."""
    at = filename.rfind(_SRC_MARK)
    if at < 0:
        return None
    head, sep, _rest = filename[at + len(_SRC_MARK):].partition(os.sep)
    return head if sep and head in LAYERS else None


def _generated_code_layers() -> dict[Any, str]:
    """Map code objects with no source file (dataclass-generated methods)
    to the layer of the ``repro`` class that owns them."""
    owners: dict[Any, str] = {}
    for name, module in list(sys.modules.items()):
        parts = name.split(".")
        if module is None or parts[0] != "repro" or len(parts) < 2:
            continue
        if parts[1] not in LAYERS:
            continue
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr in vars(cls).values():
                fn = getattr(attr, "__func__", attr)
                fn = getattr(fn, "fget", fn) or fn
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename.startswith("<"):
                    owners[code] = parts[1]
    return owners


def profile(fn: Callable[[], Any]) -> tuple[Any, list]:
    """Run ``fn()`` under the profiler; returns (its result, raw stats)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, profiler.getstats()


def fold(stats: list) -> dict[str, Any]:
    """Collapse raw ``cProfile`` entries into per-layer seconds and edges."""
    generated = _generated_code_layers()

    def layer_of(code: Any) -> str | None:
        """Layer name, ``other``, or None for a built-in."""
        if isinstance(code, str):
            return None
        found = _layer_of_file(code.co_filename) or generated.get(code)
        return found or OTHER

    names = LAYERS + (OTHER,)
    self_s = dict.fromkeys(names, 0.0)
    incl_in = dict.fromkeys(names, 0.0)
    incl_out = dict.fromkeys(names, 0.0)
    edges: dict[tuple[str, str], list[float]] = {}
    total = 0.0
    for entry in stats:
        total += entry.inlinetime
        caller = layer_of(entry.code)
        if caller is not None:
            self_s[caller] += entry.inlinetime
        for sub in entry.calls or ():
            callee = layer_of(sub.code)
            if callee is None:
                # Built-in: its own time goes to the Python frame that
                # called it.
                if caller is not None:
                    self_s[caller] += sub.inlinetime
                continue
            if caller is None or caller == callee:
                continue
            edge = edges.setdefault((caller, callee), [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.totaltime
            incl_in[callee] += sub.totaltime
            incl_out[caller] += sub.totaltime
    # Built-ins reached only from the profiler's root or from another
    # built-in have no Python caller to charge; they belong to ``other``.
    self_s[OTHER] += total - sum(self_s.values())
    shares = {
        layer: {
            "self_s": self_s[layer],
            "self_share": self_s[layer] / total if total else 0.0,
            "incl_s": incl_in[layer],
            "incl_share": incl_in[layer] / total if total else 0.0,
            "out_s": incl_out[layer],
        }
        for layer in names
    }
    return {
        "total_s": total,
        "layers": shares,
        "edges": [
            {"from": src, "to": dst, "calls": calls, "incl_s": seconds}
            for (src, dst), (calls, seconds) in sorted(
                edges.items(), key=lambda item: -item[1][1])
        ],
    }
