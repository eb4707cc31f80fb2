"""Spans around the library's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the traced
modules, in every module of the package that holds it under some name (so
``cks.exact_rank_int`` and ``numerology.reduced_homology`` are wrapped as well
as the definitions), plus the methods listed in ``METHODS``.  A wrapper keeps
a span (name, start, end, parent span, item id, sizes) in memory; functions
called too often for a span each are only counted.  ``layer_metrics`` turns
the spans into the per-layer metrics of ``BENCHMARK.json``.  Span times are
raw seconds and include the worker's speed-probe samples (about 2 %).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("multigraph", "complexes", "homology", "cks", "symgroup", "numerology")

# Hot leaf helpers: a span per call would cost more than the work it times.
COUNTED = frozenset(
    {
        "cks.apply_derivation",
        "cks.nilpotent_columns",
        "homology.normalize_int_vec",
        "multigraph.Multigraph.is_connected",
        "symgroup.compose",
        "symgroup.inverse",
    }
)

# Public methods that carry a layer's work (defined in the first module).
METHODS = {
    "multigraph": {"Multigraph": ("is_connected",)},
    "homology": {"TopHomologyAction": ("__init__", "matrix")},
}

EXACT_SIDE_LIMIT = 500  # the library's documented exact/modular switch


def _faces(args, kwargs, result):
    return {"faces": sum(len(level) for level in result.faces_by_dim)}


def _rank_shape(args, kwargs, result):
    cols, n_rows = args[0], args[1]
    live = sum(1 for c in cols if c)
    return {"rows": n_rows, "cols": len(cols), "live": live, "rank": result}


def _nnz(args, kwargs, result):
    return {"nnz": sum(m.nnz for m in result.boundaries)}


def _cks_size(args, kwargs, result):
    return {
        "blocks": sum(len(blocks) for blocks in result.terms.values()),
        "term_dim": sum(result.term_dimension(k) for k in result.terms),
    }


SIZES = {
    "complexes.cographic_complex": _faces,
    "complexes.nonspanning_complex": _faces,
    "complexes.partition_order_complex": _faces,
    "homology.exact_rank_int": _rank_shape,
    "homology.boundary_complex": _nnz,
    "cks.build_cks": _cks_size,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, item, sizes]
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock, size = self.spans, self._stack, time.perf_counter, SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, fn):
        return self._counter(name, fn) if name in COUNTED else self._span(name, fn)

    # -- installation -----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of ``MODULES`` wherever the package binds them."""
        prefix = package.__name__ + "."
        loaded = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        wrappers: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[prefix + short]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", original))
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item, sizes in self.spans:
                fh.write(json.dumps([name, start, end, parent, item, sizes]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list, counts) -> dict[str, float]:
    """Per-layer busy time, work counts and ratios from one traced batch."""
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[3], []).append(idx)

    def dur(idx: int) -> float:
        return spans[idx][2] - spans[idx][1]

    def under(idx: int, prefix: str) -> bool:
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0].startswith(prefix):
                return True
            parent = spans[parent][3]
        return False

    def named(*names: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[0] in names]

    def total(idxs) -> float:
        return sum(dur(i) for i in idxs)

    def descendants_named(idx: int, name: str) -> float:
        out, todo = 0.0, list(children.get(idx, ()))
        while todo:
            child = todo.pop()
            if spans[child][0] == name:
                out += dur(child)
            else:
                todo.extend(children.get(child, ()))
        return out

    def self_time(idx: int) -> float:
        return dur(idx) - total(children.get(idx, ()))

    def size(idx: int, key: str) -> int:
        # a call that raised recorded no sizes
        return (spans[idx][5] or {}).get(key, 0)

    m: dict[str, float] = {}

    builders = named("complexes.cographic_complex", "complexes.nonspanning_complex", "complexes.partition_order_complex")
    graph_builders = [i for i in builders if spans[i][0] != "complexes.partition_order_complex"]
    calls = counts.get("multigraph.Multigraph.is_connected", 0)
    m["complexes.enumerate_s"] = total(builders)
    m["complexes.faces"] = sum(size(i, "faces") for i in builders)
    m["multigraph.connectivity_calls"] = calls
    m["complexes.keep_ratio"] = sum(size(i, "faces") for i in graph_builders) / calls if calls else 0.0

    boundaries = named("homology.boundary_complex")
    m["homology.boundary_s"] = total(boundaries)
    m["homology.boundary_nnz"] = sum(size(i, "nnz") for i in boundaries)
    # exact_rank outside its rank routine: the Fraction -> int conversion
    m["homology.to_int_s"] = sum(
        dur(i) - descendants_named(i, "homology.exact_rank_int") for i in named("homology.exact_rank")
    )

    ranks = named("homology.exact_rank_int")
    cks_ranks = [i for i in ranks if under(i, "cks.")]
    hom_ranks = [i for i in ranks if not under(i, "cks.")]
    m["homology.rank_s"] = total(hom_ranks)
    m["homology.rank_calls"] = len(hom_ranks)
    m["homology.rank_cells"] = sum(size(i, "rows") * size(i, "cols") for i in hom_ranks)
    columns = sum(size(i, "cols") for i in hom_ranks)
    m["homology.rank_ratio"] = sum(size(i, "rank") for i in hom_ranks) / columns if columns else 0.0
    m["homology.rank_small_s"] = sum(
        dur(i) for i in hom_ranks if max(size(i, "rows"), size(i, "live")) <= EXACT_SIDE_LIMIT
    )
    m["homology.rank_large_s"] = m["homology.rank_s"] - m["homology.rank_small_s"]
    m["homology.top_cycles_s"] = total(named("homology.top_cycle_basis"))
    m["homology.action_s"] = total(named("homology.TopHomologyAction.matrix"))

    builds = named("cks.build_cks")
    cohomologies = named("cks.cks_cohomology")
    m["cks.build_s"] = total(builds)
    m["cks.blocks"] = sum(size(i, "blocks") for i in builds)
    m["cks.term_dim"] = sum(size(i, "term_dim") for i in builds)
    m["cks.cohomology_s"] = total(cohomologies)
    m["cks.assembly_s"] = sum(dur(i) - descendants_named(i, "homology.exact_rank_int") for i in cohomologies)
    m["cks.rank_s"] = total(cks_ranks)
    m["cks.derivation_calls"] = counts.get("cks.apply_derivation", 0)

    m["symgroup.character_s"] = sum(self_time(i) for i in named("symgroup.top_homology_character"))
    m["symgroup.oracle_s"] = total(named("symgroup.induced_character_oracle"))
    m["numerology.top_betti_s"] = total(named("numerology.cographic_top_betti"))
    return m
