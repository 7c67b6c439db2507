"""Spans around clustercat's public names, recorded from outside the package.

A probe names one function or method by its dotted path inside the package,
for example ``laurent.seed_mutate`` or ``laurent.LaurentPoly.__mul__``. The
first component is the layer (the module). Installing a tracer replaces the
probed object everywhere a clustercat module or class binds it, so the span
is taken where the caller resolves the name: ``explore_exchange_graph`` reads
``seed_mutate`` from the globals of ``clustercat.laurent``, and the CLI reads
``theorem1_injectivity`` from its own globals, and both see the wrapper.

Each span records its probe, start, end and parent span. Spans stay in
compact arrays in memory until ``summary`` turns them into per-probe call
counts and inclusive time, and per-layer self time: a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass

# (dotted path inside clustercat, repeat key or None). A repeat key maps the
# call's arguments to a hashable value; a call whose value was seen before in
# the same traced sweep counts as a repeat.
PROBES = (
    ("laurent.explore_exchange_graph", None),
    ("laurent.den_injectivity_check", None),
    ("laurent.seed_mutate", None),
    ("laurent.LaurentPoly.__mul__", None),
    ("laurent.LaurentPoly.exact_div", None),
    ("laurent.Seed.cluster_key", None),
    ("category.theorem1_injectivity", None),
    ("category.GammaC.__init__", None),
    ("category.mutate_tilting", None),
    ("category.GammaC.ext1_c_dim", None),
    ("category.dim_vector_mod_B", None),
    ("reps.hom_space", None),
    ("reps.ext1_dim", None),
    ("reps.indecomposable_from_root", None),
    ("linalg.rref", None),
    ("linalg.nullspace", None),
    ("tilting.enumerate_tilting_modules", None),
    ("tilting.prop8_descent", None),
    ("tilting.torsion_class", lambda quiver, t: (quiver, t.dims)),
    ("tilting.complement_and_sequence", None),
    ("bound.counterexample_report", None),
    ("bound.syzygy", None),
    ("bound.hom_bqa", None),
    ("bound.ext1_bqa", None),
    ("cli.main", None),
    ("cli.render_report", None),
    ("quivers.mutate_matrix", None),
    ("quivers.classify_diagram", None),
)

LAYERS = ("laurent", "category", "reps", "linalg", "tilting", "bound", "cli", "quivers")


def _resolve(path: str):
    """The object a dotted path names, or None when the package no longer
    defines it."""
    module_name, *attrs = path.split(".")
    obj = sys.modules.get(f"clustercat.{module_name}")
    for name in attrs:
        obj = getattr(obj, name, None)
    return obj


def _bindings(obj):
    """Every (namespace owner, name) under which a clustercat module or class
    holds ``obj``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "clustercat" or mod_name.startswith("clustercat.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is obj:
                found.append((mod, name))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in list(vars(value).items()):
                    if member is obj:
                        found.append((value, attr))
    return found


@dataclass
class ProbeStats:
    calls: int
    inclusive_s: float
    self_s: float
    repeats: int


class Tracer:
    """Records spans for PROBES while installed; use as a context manager."""

    def __init__(self):
        self.paths = [p for p, _ in PROBES]
        self.keys = [k for _, k in PROBES]
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.pid = array("H")
        self.parent = array("l")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._active = [0] * len(self.paths)
        self._seen = [set() for _ in self.paths]
        self._repeats = [0] * len(self.paths)

    def __enter__(self):
        self._reset()
        self.missing = []
        for pid, path in enumerate(self.paths):
            fn = _resolve(path)
            if fn is None:
                self.missing.append(path)
                continue
            wrapper = self._wrap(pid, fn, self.keys[pid])
            for owner, name in _bindings(fn):
                self._patched.append((owner, name, fn))
                setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()
        return False

    def _wrap(self, pid, fn, key):
        pids, parents, outers = self.pid, self.parent, self.outer
        starts, ends = self.start, self.end
        stack, active = self._stack, self._active
        seen, repeats = self._seen[pid], self._repeats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    repeats[pid] += 1
                else:
                    seen.add(k)
            i = len(starts)
            pids.append(pid)
            parents.append(stack[-1] if stack else -1)
            outers.append(active[pid] == 0)
            active[pid] += 1
            stack.append(i)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                active[pid] -= 1

        traced.__wrapped__ = fn
        return traced

    @property
    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, ProbeStats]:
        """Per-probe calls, inclusive time (outermost spans only, so a probe
        that calls itself is not counted twice) and self time."""
        n = len(self.start)
        starts, ends, parents = self.start, self.end, self.parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.paths)
        incl = [0.0] * len(self.paths)
        own = [0.0] * len(self.paths)
        pids, outers = self.pid, self.outer
        for i in range(n):
            pid = pids[i]
            d = ends[i] - starts[i]
            calls[pid] += 1
            if outers[i]:
                incl[pid] += d
            own[pid] += d - child[i]
        return {
            path: ProbeStats(calls[j], incl[j], own[j], self._repeats[j])
            for j, path in enumerate(self.paths)
        }
