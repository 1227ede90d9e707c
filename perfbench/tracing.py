"""Traced runs: spans around the calls into each module's public functions.

``Tracer`` rebinds every traced function, by name, in each ``homothetics``
module namespace that holds it, and wraps ``Container.__post_init__``.
All originals are captured from their defining modules before any name is
rebound; leaving the ``with`` block restores every binding.  Spans stay in
memory (name, start, end, parent span, op id) and ``layer_metrics`` turns
them into the per-layer metrics.  Single-threaded: one span stack.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from math import comb

from homothetics.experiments import experiment_ids
from homothetics.geometry import Container, ContainerKind

# (defining module, function); the span is "<module>.<function>", except
# that min_containment appends its route and run_experiment its id.
TRACED = (
    ("lp", "solve_lp"),
    ("lp", "in_convex_hull"),
    ("meb", "minimum_enclosing_ball"),
    ("geometry", "gauge"),
    ("containment", "min_containment"),
    ("containment", "make_certificate"),
    ("containment", "support_points"),
    ("radii", "core_radius"),
    ("radii", "minkowski_asymmetry"),
    ("radii", "intersection_radius_check"),
    ("radii", "cylinder_radius_check"),
    ("coresets", "optimal_coreset_size"),
    ("coresets", "greedy_coreset"),
    ("coresets", "validate_coreset"),
    ("coresets", "extract_zero_coreset"),
    ("instances", "vertex_enumeration"),
    ("experiments", "run_experiment"),
)
CONTAINER_INIT = "geometry.container_init"
EXPERIMENT_IDS = tuple(experiment_ids())

# Every per-layer metric of a traced run, with its unit.  `self_s` is a
# span's time minus its traced child spans, `total_s` the whole span
# (nested spans of the same name counted once).  `subsets_total` sums
# C(n, k+1) over the core_radius calls that enumerate subsets, and
# `subset_solves` counts the min_containment spans whose parent is one of
# those calls, so `solve_ratio` compares the two over the same calls.
PER_LAYER = (
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.self_s", "s"),
    ("lp.solve_lp.errors", "count"),
    ("lp.solve_lp.rows_max", "count"),
    ("lp.solve_lp.cells", "count"),
    ("lp.in_convex_hull.calls", "count"),
    ("lp.in_convex_hull.self_s", "s"),
    ("meb.minimum_enclosing_ball.calls", "count"),
    ("meb.minimum_enclosing_ball.self_s", "s"),
    ("meb.minimum_enclosing_ball.points", "count"),
    ("geometry.container_init.calls", "count"),
    ("geometry.container_init.total_s", "s"),
    ("geometry.gauge.calls", "count"),
    ("geometry.gauge.total_s", "s"),
    *(
        (f"containment.min_containment.{route}.{stat}", unit)
        for route in ("ball", "hrep", "vrep")
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
    ),
    ("containment.make_certificate.calls", "count"),
    ("containment.make_certificate.total_s", "s"),
    ("containment.support_points.calls", "count"),
    ("containment.support_points.total_s", "s"),
    ("radii.core_radius.calls", "count"),
    ("radii.core_radius.self_s", "s"),
    ("radii.core_radius.total_s", "s"),
    ("radii.core_radius.subsets_total", "count"),
    ("radii.core_radius.subset_solves", "count"),
    ("radii.core_radius.solve_ratio", "ratio"),
    ("radii.minkowski_asymmetry.total_s", "s"),
    ("radii.intersection_radius_check.total_s", "s"),
    ("radii.cylinder_radius_check.total_s", "s"),
    ("coresets.optimal_coreset_size.total_s", "s"),
    ("coresets.greedy_coreset.total_s", "s"),
    ("coresets.validate_coreset.total_s", "s"),
    ("coresets.extract_zero_coreset.total_s", "s"),
    ("instances.vertex_enumeration.calls", "count"),
    ("instances.vertex_enumeration.total_s", "s"),
    *((f"experiments.{eid}.s", "s") for eid in EXPERIMENT_IDS),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("machine.ref_ms", "ms"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _min_containment_name(args, kwargs) -> str:
    method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
    if method == "auto":
        C = _arg(args, kwargs, 1, "C")
        if C.kind is ContainerKind.BALL:
            method = "ball"
        else:
            method = "hrep" if C.normals is not None else "vrep"
    return f"containment.min_containment.{method}"


def _lp_shape(args, kwargs) -> tuple[int, int]:
    return _arg(args, kwargs, 0, "lp").lhs.shape


def _meb_points(args, kwargs) -> int:
    return len(_arg(args, kwargs, 0, "points"))


def _subsets_enumerated(args, kwargs) -> int:
    """C(n, k+1) when core_radius enumerates subsets, else 0 (the calls
    that solve P itself or take the closed-form pair route)."""
    P, C, k = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "C"), _arg(args, kwargs, 2, "k")
    n = len(P)
    if not 1 <= k < P.dim or n <= k + 1:
        return 0
    if k == 1 and (C.kind is ContainerKind.BALL or (C.normals is not None and C.is_symmetric())):
        return 0
    return comb(n, k + 1)


_NAMERS = {
    "min_containment": _min_containment_name,
    "run_experiment": lambda args, kwargs: f"experiments.{_arg(args, kwargs, 0, 'experiment')}",
}
_COUNTERS = {
    "solve_lp": _lp_shape,
    "minimum_enclosing_ball": _meb_points,
    "core_radius": _subsets_enumerated,
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child", "info", "outer", "error")

    def __init__(self, name, parent, op, info, outer):
        self.name, self.parent, self.op, self.info, self.outer = name, parent, op, info, outer
        self.start = self.end = self.child = 0.0
        self.error = False


class Tracer:
    """Context manager that records a span per traced call.  Set ``op`` to
    the current op id before each op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "homothetics"]
        originals = [
            (getattr(sys.modules[f"homothetics.{mod}"], fn), mod, fn) for mod, fn in TRACED
        ]
        post_init = Container.__post_init__
        for orig, mod, fn in originals + [(post_init, None, None)]:
            if hasattr(orig, "__wrapped__"):
                raise RuntimeError(f"{mod}.{fn} is already traced")
        try:
            for orig, mod, fn in originals:
                namer = _NAMERS.get(fn, lambda args, kwargs, s=f"{mod}.{fn}": s)
                wrapper = self._wrap(orig, namer, _COUNTERS.get(fn))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapper)
            self._undo.append((Container, "__post_init__", post_init))
            Container.__post_init__ = self._wrap(post_init, lambda args, kwargs: CONTAINER_INIT, None)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def _wrap(self, fn, namer, counter):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(args, kwargs)
            info = counter(args, kwargs) if counter else 0
            span = Span(name, stack[-1] if stack else None, self.op, info, depth[name] == 0)
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                depth[name] -= 1
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child += span.end - span.start

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON rows [name, start, end, parent, op],
        times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, s.start - t0, s.end - t0, s.parent, s.op] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, f)


def layer_metrics(spans: list[Span], op_seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of ops that took `op_seconds` in
    total, as ({name: value}, {ratio name: its base}).  Names under
    ``trace.overhead_frac`` and ``machine.`` come from the run, not the
    spans, and are left out."""
    stats: dict[str, Counter] = {}
    for s in spans:
        st = stats.setdefault(s.name, Counter())
        st["calls"] += 1
        st["errors"] += s.error
        st["self_s"] += s.end - s.start - s.child
        if s.outer:
            st["total_s"] += s.end - s.start

    lp = [s.info for s in spans if s.name == "lp.solve_lp"]
    enumerating = {i for i, s in enumerate(spans) if s.name == "radii.core_radius" and s.info}
    subsets = sum(spans[i].info for i in enumerating)
    solves = sum(
        1
        for s in spans
        if s.name.startswith("containment.min_containment.") and s.parent in enumerating
    )
    attributed = sum(
        st["self_s"] for name, st in stats.items() if not name.startswith("experiments.")
    )
    values = {
        "lp.solve_lp.rows_max": max((r for r, _ in lp), default=0),
        "lp.solve_lp.cells": sum(r * c for r, c in lp),
        "meb.minimum_enclosing_ball.points": sum(
            s.info for s in spans if s.name == "meb.minimum_enclosing_ball"
        ),
        "radii.core_radius.subsets_total": subsets,
        "radii.core_radius.subset_solves": solves,
        "radii.core_radius.solve_ratio": solves / subsets if subsets else 0.0,
        "trace.attributed_frac": attributed / op_seconds if op_seconds > 0 else 0.0,
    }
    bases = {
        "radii.core_radius.solve_ratio": f"{solves} subset solves / {subsets} subsets, "
        f"over {len(enumerating)} enumerating calls",
        "trace.attributed_frac": f"{attributed:.6g} s of span self time outside experiments.* "
        f"/ {op_seconds:.6g} s traced op time",
    }
    for name, _unit in PER_LAYER:
        if name in values or name in ("trace.overhead_frac", "machine.ref_ms"):
            continue
        span, _, stat = name.rpartition(".")
        values[name] = stats.get(span, Counter())["total_s" if stat == "s" else stat]
    return values, bases
