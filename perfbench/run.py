"""End-to-end benchmark of mixcluster's two learners.

Usage, from the repository root:

    python3 perfbench/run.py --workload poincare-c8 --seed 1 --seconds 40 --trace 0

Runs whole rounds of learner calls (one call per op, see workloads.py) for
about ``--seconds`` seconds in this process, checks every learned mixture
against the true spec, and prints one JSON object as the last line of
stdout: ``correct``, ``attempted`` and ``failed`` learner calls, and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` each op runs untraced and then traced on the same seed, and
the metrics are the per-layer ones from the traced calls.  Spans and op
records are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import BASE_DRAW, MIXTURE_DRAW, CountingSampler, Tracer, layer_totals, traced_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3  # cold set-ups per run; setup_s is their median
MAX_RUN_S = 120.0  # start no round after this, to end well within 180 s


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def probe_setup(workload: str) -> dict:
    """Times one cold set-up in a fresh interpreter (see setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_op(wl, mc, op, tracer=None) -> dict:
    """One learner call on fresh samplers; returns its record."""
    spec = wl.spec(mc, op)
    mix = CountingSampler(mc.sample_stream(spec, op.seed), MIXTURE_DRAW, tracer)
    base = CountingSampler(mc.base_sampler(op.tag, spec.d, op.seed, 1), BASE_DRAW, tracer)
    rec = {"seed": op.seed, "tag": op.tag, "traced": tracer is not None, "learned": None}
    start = time.perf_counter()
    try:
        if tracer is None:
            learned = wl.learn(mc, op, mix, base)
        else:
            with traced_layers(tracer):
                learned = wl.learn(mc, op, mix, base)
    except Exception as err:  # a learner that raises is a failed op, not a crash
        rec["learn_s"] = time.perf_counter() - start
        rec["problems"] = [f"{type(err).__name__}: {err}"]
        traceback.print_exc(file=sys.stderr)
        return rec
    rec["learn_s"] = time.perf_counter() - start
    rec["samples_drawn"] = mix.rows
    rec["learned"] = learned
    rec["problems"], rec["max_mean_error"], rec["max_weight_error"] = wl.check(spec, learned)
    return rec


def _same_output(a, b) -> bool:
    import numpy as np

    return np.array_equal(a.means, b.means) and np.array_equal(a.weights, b.weights)


def _report(plain: dict, last: dict) -> None:
    problems = plain["problems"] + (last["problems"] if last is not plain else [])
    print(
        f"op seed={plain['seed']} {plain['tag']} learn_s={plain['learn_s']:.3f} "
        f"samples_drawn={plain.get('samples_drawn', 0)} "
        f"max_mean_error={plain.get('max_mean_error')} "
        f"max_weight_error={plain.get('max_weight_error')} "
        + ("ok" if not problems else "FAILED: " + "; ".join(problems)),
        flush=True,
    )


def layer_metrics(totals: dict, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced call (see BENCHMARK.json per_layer)."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    m = {}
    for draw in ("mixture_draw", "base_draw"):
        m[f"mixture_gen.{draw}.rows"] = get(f"mixture_gen.{draw}", "rows")
        m[f"mixture_gen.{draw}.s"] = get(f"mixture_gen.{draw}", "s")
    for kernel in ("apply_rank1_batch", "apply_kron_block_batch"):
        for key in ("calls", "rows", "flop_computed", "self_s"):
            m[f"nested_projection.{kernel}.{key}"] = get(f"nested_projection.{kernel}", key)
    for key in ("calls", "s", "self_s"):
        m[f"moment_pipeline.iterative_projection.{key}"] = get("moment_pipeline.iterative_projection", key)
    for key in ("calls", "samples", "s", "self_s"):
        m[f"moment_pipeline.estimate_moment_matrix.{key}"] = get("moment_pipeline.estimate_moment_matrix", key)
    pt = "sample_test.pair_test_batch"
    for key in ("calls", "pairs", "s", "self_s"):
        m[f"{pt}.{key}"] = get(pt, key)
    m[f"{pt}.pairs_per_s"] = get(pt, "pairs") / get(pt, "s") if get(pt, "s") else 0.0
    m["poincare_cluster.majority_vote.s"] = get("poincare_cluster.majority_vote", "s")
    m["poincare_cluster.assign_batch.rows"] = get("poincare_cluster.assign_batch", "rows")
    m["poincare_cluster.assign_batch.s"] = get("poincare_cluster.assign_batch", "s")
    m["poincare_cluster.learn_means.self_s"] = get("poincare_cluster.learn_means", "self_s")
    gc = "gaussian_cluster"
    m[f"{gc}.recursive_cluster.self_s"] = get(f"{gc}.recursive_cluster", "self_s")
    m[f"{gc}.reduce_bounded_means.s"] = get(f"{gc}.reduce_bounded_means", "s")
    for fn in ("find_signal_direction", "full_cluster_bounded", "test_max_separation",
               "refine_checker", "isolate_component"):
        for key in ("calls", "s", "self_s"):
            m[f"{gc}.{fn}.{key}"] = get(f"{gc}.{fn}", key)
    rj = f"{gc}.rejection"
    m[f"{rj}.drawn"], m[f"{rj}.kept"], m[f"{rj}.s"] = get(rj, "drawn"), get(rj, "kept"), get(rj, "s")
    m[f"{rj}.accept_ratio"] = get(rj, "kept") / get(rj, "drawn") if get(rj, "drawn") else 0.0
    m["trace.overhead_s"] = traced["learn_s"] - untraced["learn_s"]
    m["check.max_mean_error"] = untraced["max_mean_error"]
    m["check.max_weight_error"] = untraced["max_weight_error"]
    return m


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.perf_counter()
    if not (SRC / "mixcluster" / "__init__.py").is_file():
        print(f"perfbench: no mixcluster package under {SRC}", file=sys.stderr)
        return 2

    # BLAS threads: one per core this process may use, for this process and
    # the set-up probes alike; numpy must not be imported before this.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    units = _units()

    probes = [probe_setup(wl.name) for _ in range(SETUP_PROBES)]

    import mixcluster as mc

    # Fill the estimator caches before timing, as any long-lived caller would.
    first = next(wl.rounds(args.seed))[0]
    wl.tables_warmup(mc, wl.spec(mc, first), first.tag)

    records, layers, spans = [], [], []
    mismatch = False
    rounds = wl.rounds(args.seed)
    # A fixed number of whole rounds per run (see Workload.round_s), so that
    # one seed always runs the same ops; the time guard only matters on a
    # much slower machine.
    n_rounds = max(1, int(args.seconds // (wl.round_s * (1 + args.trace))))
    for _ in range(n_rounds):
        if time.perf_counter() - t_begin > MAX_RUN_S:
            break
        for op in next(rounds):
            plain = run_op(wl, mc, op)
            records.append(plain)
            if args.trace:
                tracer = Tracer()
                traced = run_op(wl, mc, op, tracer)
                records.append(traced)
                spans.extend([len(records) - 1] + s for s in tracer.spans)
                if not plain["problems"] and not traced["problems"]:
                    if _same_output(plain["learned"], traced["learned"]):
                        layers.append(layer_metrics(layer_totals(tracer.spans), plain, traced))
                    else:
                        mismatch = True
                        traced["problems"].append("traced output differs from the untraced call")
            _report(plain, records[-1])

    ok = [r for r in records if not r["problems"] and not r["traced"]]
    if args.trace:
        metrics = {name: _median(m[name] for m in layers) for name in layers[0]} if layers else {}
        metrics["setup.import_s"] = _median(p["import_s"] for p in probes)
        metrics["setup.tables_s"] = _median(p["tables_s"] for p in probes)
    else:
        metrics = {
            "setup_s": _median(p["import_s"] + p["spec_s"] + p["tables_s"] for p in probes),
            "learn_s": _mean(r["learn_s"] for r in ok),
            "samples_drawn": _mean(r["samples_drawn"] for r in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"ops-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump([{k: v for k, v in r.items() if k != "learned"} for r in records], fh, indent=1)
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for op_index, name, t0, t1, parent, counts in spans:
                fh.write(json.dumps({"op": op_index, "name": name, "start": t0, "end": t1,
                                     "parent": parent, **counts}) + "\n")

    result = {
        "correct": bool(ok) and not mismatch,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["problems"]),
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
