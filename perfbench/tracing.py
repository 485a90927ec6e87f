"""Spans and counts taken around mixcluster's layer entry points.

Nothing here edits the package on disk.  Sample counts come from thin
wrappers around the samplers the benchmark hands to the learners; layer
spans come from wrapping the package's functions and methods at run time,
for the duration of one traced learner call, and restoring them afterwards.
Every wrapper passes its arguments and results through unchanged, so a
traced call draws exactly the same random streams as an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

perf = time.perf_counter

MIXTURE_DRAW = "mixture_gen.mixture_draw"
BASE_DRAW = "mixture_gen.base_draw"
REJECTION = "gaussian_cluster.rejection"


class Tracer:
    """In-memory span log: one ``[name, start, end, parent, counts]`` record
    per call into a wrapped entry point; ``parent`` indexes the enclosing
    span (-1 at the top)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, name, fn, args, kwargs, counts=None, after=None):
        rec = [name, perf(), 0.0, self._stack[-1] if self._stack else -1, counts or {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = perf()
            self._stack.pop()
        if after is not None:
            after(out, rec[4])
        return out


class CountingSampler:
    """Passes ``draw`` through to an inner sampler and counts the rows it
    returns; with a tracer it also records one span per draw."""

    def __init__(self, inner, name: str, tracer: Tracer | None = None):
        self.inner = inner
        self.name = name
        self.tracer = tracer
        self.rows = 0
        self.d = inner.d

    def draw(self, n: int):
        if self.tracer is None:
            out = self.inner.draw(n)
        else:
            out = self.tracer.call(self.name, self.inner.draw, (n,), {}, {"rows": 0}, after=_count_rows)
        self.rows += len(out)
        return out

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def _count_rows(out, counts: dict) -> None:
    counts["rows"] = len(out)


class _Tally:
    """Counts the rows a rejection loop pulls from its inner stream."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.rows = 0

    def draw(self, n: int):
        out = self.inner.draw(n)
        self.rows += len(out)
        return out

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


# ---------------------------------------------------------------------------
# Counts computed from argument shapes
# ---------------------------------------------------------------------------


def _widths(chain) -> list:
    return [stage.shape[0] for stage in chain.stages]


def rank1_flops(chain, n: int, s: int, d: int) -> int:
    """Multiply-adds (x2) of apply_rank1_batch on an (n, s, d) block: one
    (d -> c_1) product, then per later stage an outer product and a
    (d c_i -> c_{i+1}) product."""
    c = _widths(chain)
    flops = 2 * n * d * c[0]
    for i in range(1, s):
        flops += n * d * c[i - 1] + 2 * n * d * c[i - 1] * c[i]
    return flops


def _rank1_counts(args, kwargs) -> dict:
    chain, factors = _arg(args, kwargs, 0, "np_"), _arg(args, kwargs, 1, "factors")
    n, s, d = factors.shape
    return {"rows": n, "flop_computed": rank1_flops(chain, n, s, d)}


def _kron_counts(args, kwargs) -> dict:
    chain, factors = _arg(args, kwargs, 0, "np_"), _arg(args, kwargs, 1, "factors")
    n, s, d = factors.shape
    flops = 0
    if s > 1:
        flops = rank1_flops(chain, n, s - 1, d) + n * d * _widths(chain)[-1]
    return {"rows": n, "flop_computed": flops}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _bound(fn, key: str):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[key]

    return get


# ---------------------------------------------------------------------------
# Run-time patching
# ---------------------------------------------------------------------------


class Patches:
    """Replaces package functions and methods by span-recording wrappers and
    puts the originals back on exit.  A function is replaced under every
    name a ``mixcluster`` module binds it to, so ``from .x import f`` copies
    are covered.  Entry points missing from the package are skipped."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def function(self, module, attr: str, name: str, counts=None):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self.tracer

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs, counts(args, kwargs) if counts else None)

        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "mixcluster"]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, wrapper)

    def rejection_method(self, cls, attr: str = "draw"):
        """Wraps a rejection sampler's ``draw``: its inner stream is swapped
        for a tally for the duration of the call."""
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            return
        tracer = self.tracer

        @functools.wraps(orig)
        def wrapper(obj, n):
            inner = obj.inner
            tally = _Tally(inner)
            obj.inner = tally
            try:
                return tracer.call(REJECTION, orig, (obj, n), {}, {"drawn": 0, "kept": 0},
                                   after=lambda out, c: c.update(drawn=tally.rows, kept=len(out)))
            finally:
                obj.inner = inner

        self._set(cls, attr, wrapper)

    def rejection_function(self, module, attr: str):
        """Wraps a rejection helper whose first argument is the stream."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self.tracer

        @functools.wraps(orig)
        def wrapper(sampler, *args, **kwargs):
            tally = _Tally(sampler)
            return tracer.call(REJECTION, orig, (tally,) + args, kwargs, {"drawn": 0, "kept": 0},
                               after=lambda out, c: c.update(drawn=tally.rows, kept=len(out)))

        self._set(module, attr, wrapper)

    def factory(self, module, attr: str, name: str):
        """Wraps a sampler class the package instantiates itself, so every
        instance it builds is a counting sampler."""
        orig = getattr(module, attr, None)
        if orig is None:
            return
        tracer = self.tracer

        def build(*args, **kwargs):
            return CountingSampler(orig(*args, **kwargs), name, tracer)

        self._set(module, attr, build)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


@contextmanager
def traced_layers(tracer: Tracer):
    """Installs the layer wrappers for one traced learner call."""
    from mixcluster import gaussian_cluster as gc
    from mixcluster import moment_pipeline as mp
    from mixcluster import nested_projection as npj
    from mixcluster import poincare_cluster as pc
    from mixcluster import sample_test as st

    p = Patches(tracer)
    try:
        p.function(npj, "apply_rank1_batch", "nested_projection.apply_rank1_batch", _rank1_counts)
        p.function(npj, "apply_kron_block_batch", "nested_projection.apply_kron_block_batch", _kron_counts)
        p.function(mp, "iterative_projection", "moment_pipeline.iterative_projection")
        n_of = _bound(mp.estimate_moment_matrix, "n")
        p.function(mp, "estimate_moment_matrix", "moment_pipeline.estimate_moment_matrix",
                   lambda a, k: {"samples": int(n_of(a, k))})
        others_of = _bound(st.pair_test_batch, "others")
        p.function(st, "pair_test_batch", "sample_test.pair_test_batch",
                   lambda a, k: {"pairs": len(others_of(a, k))})
        p.function(pc, "learn_means", "poincare_cluster.learn_means")
        p.function(pc, "majority_vote", "poincare_cluster.majority_vote")
        xs_of = _bound(pc.assign_batch, "xs")
        p.function(pc, "assign_batch", "poincare_cluster.assign_batch",
                   lambda a, k: {"rows": len(xs_of(a, k))})
        for attr in ("recursive_cluster", "reduce_bounded_means", "find_signal_direction",
                     "full_cluster_bounded", "test_max_separation", "refine_checker",
                     "isolate_component"):
            p.function(gc, attr, f"gaussian_cluster.{attr}")
        for cls in ("ReducedSampler", "_FilteredSampler", "_NearestGroupSampler"):
            p.rejection_method(getattr(gc, cls, None))
        p.rejection_function(gc, "_draw_contained")
        p.factory(gc, "BaseSampler", BASE_DRAW)
        yield
    finally:
        p.restore()


# ---------------------------------------------------------------------------
# Per-layer totals
# ---------------------------------------------------------------------------


def layer_totals(spans: list) -> dict:
    """Per span name: ``calls``, ``s`` (wall time covered, nested spans of the
    same name counted once), ``self_s`` (duration minus the time covered by
    child spans) and the summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += end - start
        for key, value in counts.items():
            agg[key] = agg.get(key, 0) + value
    return out
