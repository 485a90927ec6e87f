"""The benchmark's call sites into the package, run once per workload.

``perfbench/workloads.py`` calls the package by name and signature; a change
to either would fail every benchmark op, so one op of each workload runs
here exactly as ``perfbench/run.py`` runs it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import mixcluster as mc

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_op_passes_its_checks(name):
    wl = WORKLOADS[name]
    op = next(wl.rounds(0))[0]
    spec = wl.spec(mc, op)
    wl.tables_warmup(mc, spec, op.tag)
    mix = mc.sample_stream(spec, op.seed)
    base = mc.base_sampler(op.tag, spec.d, op.seed, 1)
    learned = wl.learn(mc, op, mix, base)
    problems, _, _ = wl.check(spec, learned)
    assert problems == []
