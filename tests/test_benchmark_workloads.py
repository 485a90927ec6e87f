"""The benchmark's call sites into the package, run once per workload.

``perfbench/workloads.py`` calls the package by name and signature; a change
to either would fail every benchmark op, so one op of each workload runs
here exactly as ``perfbench/run.py`` runs it.  ``perfbench/tracing.py``
wraps the package's functions by name and signature too, so the same op
also runs traced, as ``run.py --trace 1`` runs it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import mixcluster as mc
from mixcluster import gaussian_cluster as gc
from mixcluster import poincare_cluster as pc

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", _PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
tracing = _load("tracing")


def _first_op(name):
    wl = WORKLOADS[name]
    op = next(wl.rounds(0))[0]
    spec = wl.spec(mc, op)
    wl.tables_warmup(mc, spec, op.tag)
    return wl, op, spec


def _learn(wl, op, spec, tracer=None):
    """One learner call on fresh samplers, as ``run.py``'s ``run_op`` makes it."""
    mix = mc.sample_stream(spec, op.seed)
    base = mc.base_sampler(op.tag, spec.d, op.seed, 1)
    if tracer is None:
        return wl.learn(mc, op, mix, base)
    mix = tracing.CountingSampler(mix, tracing.MIXTURE_DRAW, tracer)
    base = tracing.CountingSampler(base, tracing.BASE_DRAW, tracer)
    with tracing.traced_layers(tracer):
        return wl.learn(mc, op, mix, base)


def _package_bindings() -> dict:
    """Every name the package's modules bind, and every attribute of the
    classes among them, keyed by where it is bound."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "mixcluster":
            continue
        for key, value in vars(module).items():
            out[name, key] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[name, key, attr] = member
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_passes_its_checks(name):
    wl, op, spec = _first_op(name)
    learned = _learn(wl, op, spec)
    problems, _, _ = wl.check(spec, learned)
    assert problems == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_learns_the_same_bits(monkeypatch, name):
    wl, op, spec = _first_op(name)
    plain = _learn(wl, op, spec)
    wrapped = []  # (module, span name) of each function the tracer wraps
    function = tracing.Patches.function

    def spy(self, module, attr, span, counts=None):
        wrapped.append((module, span))
        return function(self, module, attr, span, counts)

    monkeypatch.setattr(tracing.Patches, "function", spy)
    before = _package_bindings()
    tracer = tracing.Tracer()
    traced = _learn(wl, op, spec, tracer)
    assert np.array_equal(traced.means, plain.means)
    assert np.array_equal(traced.weights, plain.weights)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    # every function the tracer wraps in the learner's module records a
    # span, so a function moved out of it would show here, not as a metric of 0
    learner = gc if name == "recursive-c9" else pc
    entry_points = {span for module, span in wrapped if module is learner}
    assert entry_points
    assert entry_points - {span[0] for span in tracer.spans} == set()
