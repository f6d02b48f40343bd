"""Spans around the public functions of each kickspec layer, from outside.

Installing a ``Tracer`` wraps every public function of the layer modules and
rebinds the wrapper wherever a kickspec module imported the function by name
(``counting.theta_sequence`` and ``spectral.theta_sequence`` are the same
function and both get the wrapper).  Each call records a span: name, start,
end, parent span and work counts.  A layer's self time is its span's duration
minus the union of its children's intervals, so overlapping children from
worker threads are not subtracted twice; a span opened on a thread with no
open span of its own is parented to the innermost open span of the thread
that installed the tracer (the caller blocked in the thread pool).

``rationals.unit_float`` runs once per sequence point, about 10**6 times per
step; a span around it would cost more than the function, so it stays
unwrapped and its time lands in its caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("rationals", "equidistribution", "spectral", "floquet", "counting",
          "runio")
UNWRAPPED = frozenset({"rationals.unit_float"})
# (class, method) pairs traced besides the module-level functions.
METHODS = (("runio", "CellCache", "get"), ("runio", "CellCache", "put"))


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


# Work counts per call, keyed by span name: f(bound arguments, result) -> dict.
COUNTERS = {
    "rationals.polynomial_fractional_parts":
        lambda a, r: {"points": a["n_terms"]},
    "equidistribution.discrepancy_exact": lambda a, r: {"points": r.n_points},
    "equidistribution.erdos_turan_bound":
        lambda a, r: {"points": len(a["points"])},
    "spectral.theta_sequence": lambda a, r: {"points": a["n_terms"]},
    "floquet.eigen_decompose": lambda a, r: {"dim3_sum": a["matrix"].dim ** 3},
    "floquet.build_floquet": lambda a, r: {"dim": a["dim"]},
    "floquet.evolve":
        lambda a, r: {"kick_dim": a["n_kicks"] * a["matrix"].dim},
    "counting.gamma_sweep": lambda a, r: {"cells": len(r.cells)},
    "runio.write_csv": lambda a, r: {"rows": len(a["table"].rows),
                                     "bytes": os.path.getsize(a["path"])},
    "runio.CellCache.get": lambda a, r: {"hits": int(r is not None),
                                         "misses": int(r is None)},
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - union_length(children[span.id], span.start, span.end)
            for span in spans}


def summarize(spans) -> dict[str, float]:
    """Flat metrics of one set of spans.

    ``<name>.self_s``, ``<name>.calls`` and ``<name>.<count>`` per traced
    function, ``<layer>.self_s`` per layer (the root ``cli.main`` is the cli
    layer), plus the named counters ``counting.cells``, ``runio.cache_hits``
    and ``runio.cache_misses``.
    """
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for span in spans:
        out[f"{span.name}.self_s"] += own[span.id]
        out[f"{span.name}.calls"] += 1
        out[f"{span.layer}.self_s"] += own[span.id]
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] += value
    out["counting.cells"] = out.pop("counting.gamma_sweep.cells", 0)
    out["runio.cache_hits"] = out.pop("runio.CellCache.get.hits", 0)
    out["runio.cache_misses"] = out.pop("runio.CellCache.get.misses", 0)
    points = out.get("rationals.polynomial_fractional_parts.points", 0)
    if points:
        out["rationals.polynomial_fractional_parts.ns_per_point"] = (
            1e9 * out["rationals.polynomial_fractional_parts.self_s"] / points)
    return dict(out)


def attributed_s(flat: dict[str, float]) -> float:
    """Sum of the layer self times of ``summarize`` output, cli included."""
    return sum(flat.get(f"{layer}.self_s", 0.0) for layer in LAYERS + ("cli",))


class Tracer:
    """Records spans while installed; ``spans`` is cleared by ``reset``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._owner_stack and self._owner_stack:
            parent = self._owner_stack[-1].id
        else:
            parent = None
        span = Span(id=next(self._ids), name=name, parent=parent,
                    start=time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        bind = _bound(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                try:
                    span.counts = counter(bind(args, kwargs), result)
                except (AttributeError, KeyError, TypeError):
                    pass  # a changed signature loses the counts, not the call
            return result

        return traced

    def reset(self) -> None:
        self.spans = []

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every traced function; returns the span names installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._owner_stack = self._stack()
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "kickspec" or n.startswith("kickspec.")]
        targets: dict[int, tuple[str, object]] = {}
        for layer in LAYERS + ("cli",):
            module = sys.modules[f"kickspec.{layer}"]
            exported = ["main"] if layer == "cli" else module.__all__
            for attr in exported:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in UNWRAPPED):
                    targets[id(fn)] = (name, self.wrap(name, fn))
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in targets and inspect.isfunction(value):
                    self._set(module, attr, targets[id(value)][1])
        names = sorted(name for name, _ in targets.values())
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"kickspec.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{method}"
            self._set(cls, method, self.wrap(name, getattr(cls, method)))
            names.append(name)
        return names

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
