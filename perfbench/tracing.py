"""In-memory span tracer that wraps stacky's public layer functions.

Only the traced run installs it.  Each wrapped function is replaced at every
name a caller looks it up by (for example ``stacky.census.discriminant`` and
``stacky.heights.discriminant`` both point at the wrapper of
``kummer.discriminant``), so calls between layers are seen without touching
the library's source.  Spans are kept as columns of plain arrays and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer, function, is_generator): the layer boundaries the benchmark traces.
LAYER_FUNCTIONS = (
    ("arith", "factor", False),
    ("arith", "primes_up_to", False),
    ("kummer", "canonical", False),
    ("kummer", "discriminant", False),
    ("kummer", "is_irreducible", False),
    ("heights", "darda_global", False),
    ("heights", "eszb_height", False),
    ("heights", "D_aprime", False),
    ("census", "count", False),
    ("census", "enumerate_mu", True),
    ("census", "enumerate_cyclic", True),
    ("census", "fit", False),
    ("permgrp", "closure", False),
    ("permgrp", "conjugacy_classes", False),
    ("permgrp", "gamma_orbits", False),
    ("malle", "malle_invariants", False),
    ("cli", "main", False),
)


class Tracer:
    """Records (name, start, end, parent, op) spans at the layer boundaries.

    A generator (a census enumerator) gets one span per resumption, so
    its consumer's work between two items is not charged to it; its call
    count and the number of items it yielded are kept in ``calls`` and
    ``yields``.
    """

    def __init__(self):
        self.names: list[str] = [f"{layer}.{fn}" for layer, fn, _ in LAYER_FUNCTIONS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qual: str, name_id: int, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _wrap_gen(self, qual: str, name_id: int, fn):
        calls, yields = self.calls, self.yields

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yields[qual] += 1
                yield item

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace each layer function at every stacky name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "stacky" or key.startswith("stacky."))]
        for name_id, (layer, fn_name, is_gen) in enumerate(LAYER_FUNCTIONS):
            qual = self.names[name_id]
            orig = getattr(sys.modules[f"stacky.{layer}"], fn_name)
            wrapped = (self._wrap_gen if is_gen else self._wrap)(qual, name_id, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def self_seconds(self) -> dict[str, float]:
        """Per function: span time minus the time of its child spans."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = np.bincount(cols["name"], weights=dur - child, minlength=len(self.names))
        return {q: float(own[i]) for i, q in enumerate(self.names)}

    def child_calls(self, parent_qual: str, child_qual: str) -> int:
        """Number of ``child_qual`` spans opened directly under ``parent_qual``."""
        cols = self.columns()
        pid = self.names.index(parent_qual)
        cid = self.names.index(child_qual)
        par = cols["parent"]
        sel = (cols["name"] == cid) & (par >= 0)
        return int(np.count_nonzero(cols["name"][par[sel]] == pid))

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())
