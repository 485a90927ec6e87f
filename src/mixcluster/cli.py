"""Experiment harness: generate, cluster, validate, and bench subcommands.

Configs are JSON documents validated against a strict schema (unknown keys
are rejected); ``--set dotted.path=value`` overrides leaf keys.  Reports are
JSON with sorted keys; every elapsed time lives under the ``timings`` key so
re-runs can be compared byte-for-byte after dropping it.  Exit codes:
0 success, 1 algorithmic failure (report still written), 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy
from scipy.cluster.vq import kmeans2
from scipy.optimize import linear_sum_assignment

from . import __version__
from . import gaussian_cluster as gc
from . import sample_test as st
from .mixture_gen import BaseSampler, GenConfig, MixtureSampler, PlacementError, build_spec
from .moment_pipeline import MAX_DEGREE, MixtureSpec
from .nested_projection import apply_rank1_batch, word_images
from .oracles import (
    adjusted_poly_recursive,
    base_moments,
    dense_matrix,
    exact_projection_chain,
    hermite_tensor,
    hermite_univariate,
    r_poly_dense_oracle,
    r_poly_terms,
)
from .poincare_cluster import LearnedMixture, default_band, learn_means, nearest, write_assignments_csv

OUT_ENV = "MIXCLUSTER_OUT"

class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema

@dataclass(frozen=True)
class Key:
    """A config value's type and the interval it must lie in: [lo, hi], or
    (lo, hi] with lo_open; a bound left None is not checked."""

    type: type
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False

    def holds(self, value) -> bool:
        above = self.lo is None or value > self.lo or (value == self.lo and not self.lo_open)
        return above and (self.hi is None or value <= self.hi)

    def interval(self) -> str:
        if self.hi is None:
            return f"{'>' if self.lo_open else '>='} {self.lo}"
        return f"in {'(' if self.lo_open else '['}{self.lo}, {self.hi}]"


COUNT = Key(int, 1)
SEED = Key(int, 0)
POSITIVE = Key(float, 0, lo_open=True)
DEGREE = Key(int, 1, MAX_DEGREE)

MIXTURE_SCHEMA = {
    "k": COUNT,
    "d": COUNT,
    "separation": POSITIVE,
    "profile": Key(str),
    "ratios": [POSITIVE],
    "weight_profile": Key(str),
    "weights": [Key(float, 0)],
    "dist_tag": Key(str),
    "seed": SEED,
}

SCHEMAS = {
    "generate": {
        "mixture": MIXTURE_SCHEMA,
        "n": Key(int, 0),
    },
    "cluster": {
        "mixture": MIXTURE_SCHEMA,
        "variant": Key(str),  # "poincare" | "gaussian-recursive"
        "w_min": Key(float, 0, 1, lo_open=True),
        "c": POSITIVE,
        "alpha": POSITIVE,
        "sep": POSITIVE,
        "sep_hint": POSITIVE,
        "t": DEGREE,
        "reps": COUNT,
        "n_per_stage": COUNT,
        "eval_samples": COUNT,
        "seed": SEED,
    },
    "bench": {
        "mixture": MIXTURE_SCHEMA,
        "separations": [POSITIVE],
        "degrees": [DEGREE],
        "seeds_per_cell": COUNT,
        "eval_samples": COUNT,
        "reps": COUNT,
        "n_per_stage": COUNT,
        "seed": SEED,
    },
    "validate": {"suite": Key(str)},
}

MIXTURE = ("mixture", "mixture.k", "mixture.d")  # dotted paths, each after the one it extends
REQUIRED = {
    "generate": (*MIXTURE, "n"),
    "cluster": (*MIXTURE, "variant"),
    "bench": (*MIXTURE, "separations"),
    "validate": ("suite",),
}

# each learner's own default trade-off constant c, also used for the band
DEFAULT_C = {"poincare": 0.5, "gaussian-recursive": 1.0}
# the cluster keys only one variant reads; the other rejects them
VARIANT_KEYS = {"poincare": ("sep", "t", "reps", "n_per_stage"), "gaussian-recursive": ("sep_hint",)}
# the mixture key each profile leaves unread, which a config may not set
UNREAD_BY = {
    "profile": {"uniform": "ratios", "hierarchical": "separation"},
    "weight_profile": {"uniform": "weights", "dirichlet": "weights"},
}


@dataclass(frozen=True)
class Run:
    """A valid config with its master seed and what its command runs on."""

    cfg: dict
    seed: int
    spec: MixtureSpec | None = None  # generate, cluster
    w_min: float | None = None  # cluster
    grid: dict | None = None  # bench: the sweep, its defaults filled in
    cells: tuple = ()  # bench: (separation, t, seed, spec) per cell


def _check(value, expect, path: str) -> None:
    """Type- and range-check value against a schema entry: a dict of entries
    (unknown keys are errors), ``[entry]`` for a non-empty list of entry, or
    a Key."""
    if isinstance(expect, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        for key, item in value.items():
            here = f"{path}.{key}" if path else key
            if key not in expect:
                raise ConfigError(f"unknown config key {here!r}")
            _check(item, expect[key], here)
    elif isinstance(expect, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list")
        for i, item in enumerate(value):
            _check(item, expect[0], f"{path}[{i}]")
    elif expect.type is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path} must be a number")
        # json.load accepts NaN and Infinity, which no config value may be
        if not math.isfinite(value):
            raise ConfigError(f"{path} must be a finite number")
    elif not isinstance(value, expect.type) or isinstance(value, bool):
        raise ConfigError(f"{path} must be {expect.type.__name__}")
    if isinstance(expect, Key) and not expect.holds(value):
        raise ConfigError(f"{path} must be {expect.interval()}")


def _mixture(mix: dict, **overrides):
    """(GenConfig, spec) of a mixture block, its lists as tuples; the
    generator's errors, an unplaceable mixture included, are config errors."""
    kwargs = {key: tuple(v) if isinstance(v, list) else v for key, v in {**mix, **overrides}.items()}
    try:
        gen = GenConfig(**kwargs)
        return gen, build_spec(gen)
    except (ValueError, PlacementError) as err:
        raise ConfigError(str(err)) from err


def validate_config(cfg: dict, command: str, seed: int | None = None) -> Run:
    """The one check of a command's config and ``--seed``, made before it
    creates its output directory or draws a sample: each value against the
    table, the rules beside it, and every mixture spec the run builds."""
    _check(cfg, SCHEMAS[command], "")
    for path in REQUIRED[command]:
        head, _, key = path.rpartition(".")
        if key not in (cfg[head] if head else cfg):
            raise ConfigError(f"missing required config key {path!r}")
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be >= 0")
    if command == "validate":
        if cfg["suite"] not in VALIDATE_SUITES:
            raise ConfigError(f"unknown suite {cfg['suite']!r}; choose from {', '.join(VALIDATE_SUITES)}")
        return Run(cfg, 0 if seed is None else seed)
    mix = cfg["mixture"]
    if command == "bench":
        for key, source in (("separation", "one of separations"), ("seed", "its own seed")):
            if key in mix:
                raise ConfigError(f"config key 'mixture.{key}' is not read by bench: each cell takes {source}")
        if mix.get("profile") == "hierarchical":
            raise ConfigError("bench sweeps separations, which profile 'hierarchical' does not read")
    for selector, unread in UNREAD_BY.items():
        choice = mix.get(selector, getattr(GenConfig, selector))  # GenConfig's default
        if unread.get(choice) in mix:
            raise ConfigError(f"config key 'mixture.{unread[choice]}' is not read by {selector} {choice!r}")

    if command == "generate":
        gen, spec = _mixture(mix, **({} if seed is None else {"seed": seed}))
        return Run(cfg, gen.seed, spec)
    if command == "cluster":
        variant = cfg["variant"]
        if variant not in DEFAULT_C:
            raise ConfigError(f"unknown variant {variant!r}")
        ignored = [key for other, keys in VARIANT_KEYS.items() if other != variant for key in keys if key in cfg]
        if ignored:
            raise ConfigError(f"config key {ignored[0]!r} is not read by variant {variant!r}")
        gen, spec = _mixture(mix)
        if variant == "gaussian-recursive" and spec.dist_tag != "gaussian":
            raise ConfigError("the recursive variant requires a gaussian base distribution")
        if variant == "poincare" and "sep" not in cfg and spec.k == 1:
            raise ConfigError("sep defaults to the least distance between mixture means, which k = 1 lacks: set sep")
        # the learner and the assignment band share one w_min
        w_min = float(cfg.get("w_min", spec.w_min))
        if w_min == 0:
            raise ConfigError("w_min defaults to the smallest mixture weight, which is 0: set w_min in (0, 1]")
        return Run(cfg, seed if seed is not None else cfg.get("seed", gen.seed), spec, w_min)

    seed = seed if seed is not None else cfg.get("seed", 0)
    grid = {"separations": [float(sep) for sep in cfg["separations"]],
            "degrees": cfg.get("degrees", [st.PAIR_DEGREE]), "seeds_per_cell": cfg.get("seeds_per_cell", 3)}
    cells = []
    for i, sep in enumerate(grid["separations"]):
        for j in range(grid["seeds_per_cell"]):
            _, spec = _mixture(mix, separation=sep, seed=seed + 1000 * i + j)
            if spec.w_min == 0:
                raise ConfigError("bench runs at the smallest mixture weight, which is 0")
            cells += [(sep, t, seed + 1000 * i + j, spec) for t in grid["degrees"]]
    return Run(cfg, seed, grid=grid, cells=tuple(cells))


def apply_overrides(cfg: dict, overrides) -> dict:
    """Set leaf keys by dotted path; values parse as JSON, falling back to str."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {}) if isinstance(node, dict) else node
        if not isinstance(node, dict):
            raise ConfigError(f"override path {path!r} crosses a non-object key")
        node[parts[-1]] = value
    return cfg


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _numpy_value(obj):
    """json.dumps' fallback: a numpy array or scalar as the Python value it holds."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_report(path: str, report: dict) -> None:
    # serialize first, so a report that cannot be written leaves no partial file
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False, default=_numpy_value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _base_report(command: str, cfg: dict, seed: int) -> dict:
    return {
        "command": command,
        "config": cfg,
        "seed": seed,
        "versions": {
            "mixcluster": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def match_means(estimated, true_means):
    """Hungarian matching of estimated to true means.

    Returns (perm over true indices -> estimated index or -1, per-true errors).
    Unmatched true means get error inf.
    """
    estimated = np.asarray(estimated, dtype=float)
    true_means = np.asarray(true_means, dtype=float)
    n_est, n_true = len(estimated), len(true_means)
    errors = np.full(n_true, np.inf)
    perm = np.full(n_true, -1, dtype=int)
    if n_est == 0:
        return perm, errors
    cost = np.linalg.norm(true_means[:, None, :] - estimated[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    for i, j in zip(rows, cols):
        perm[i] = int(j)
        errors[i] = float(cost[i, j])
    return perm, errors


def _error_or_null(error) -> float | None:
    """A match_means error as report JSON: null for an unmatched mean, whose
    error is inf, which strict JSON cannot hold."""
    return float(error) if np.isfinite(error) else None


def evaluate(spec, learned: LearnedMixture, seed: int, n: int):
    """Scores learned means on n labeled samples from the evaluation stream
    (stream id 17): returns the samples, their labels, the Hungarian
    matching and per-true-mean errors of :func:`match_means`, and the share
    of samples whose nearest learned mean is their own component's match."""
    xs, labels = MixtureSampler(spec, seed=seed, stream_id=17).draw_labeled(n)
    est = np.asarray(learned.means, dtype=float)
    perm, errors = match_means(est, spec.means)
    accuracy = 0.0
    if len(est):
        accuracy = float(np.mean(nearest(xs, est) == perm[labels]))
    return xs, labels, perm, errors, accuracy


# ---------------------------------------------------------------------------
# generate

def cmd_generate(run: Run, args) -> int:
    out = _out_dir(args)
    cfg, spec = run.cfg, run.spec
    n = cfg["n"]
    xs, labels = MixtureSampler(spec, seed=run.seed).draw_labeled(n)

    samples_path = os.path.join(out, "samples.csv")
    with open(samples_path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"x_{j}" for j in range(spec.d))
        fh.write(f"id,{cols},label\n")
        for i in range(n):
            coords = ",".join(repr(float(v)) for v in xs[i])
            fh.write(f"{i},{coords},{int(labels[i])}\n")

    spec_path = os.path.join(out, "spec.json")
    doc = {"config": cfg, "seed": run.seed, "spec": spec.to_dict()}
    _write_report(spec_path, doc)
    print(f"wrote {samples_path} ({n} rows) and {spec_path}")
    return 0


# ---------------------------------------------------------------------------
# cluster

def _learn(spec, cfg: dict, seed: int, w_min: float) -> LearnedMixture:
    """The cluster variant's learner on the spec's mixture stream."""
    mix = MixtureSampler(spec, seed=seed)
    alpha = float(cfg.get("alpha", 2.0))
    c = float(cfg.get("c", DEFAULT_C[cfg["variant"]]))
    if cfg["variant"] == "gaussian-recursive":
        params = gc.ClusterParams(sep_hint=cfg.get("sep_hint"))
        return gc.recursive_cluster(mix, spec.k, w_min, c, alpha, params=params, seed=seed)
    base = BaseSampler(spec.dist_tag, spec.d, seed, 7)
    sep = float(cfg.get("sep", spec.min_separation()))
    # learn_means's own defaults apply to the keys the config leaves out
    overrides = {key: cfg[key] for key in ("t", "reps", "n_per_stage") if key in cfg}
    return learn_means(mix, base, spec.k, w_min, sep, alpha, c, **overrides)


def cmd_cluster(run: Run, args) -> int:
    out = _out_dir(args)
    cfg, seed, spec, w_min = run.cfg, run.seed, run.spec, run.w_min
    variant = cfg["variant"]
    report = _base_report("cluster", cfg, seed)
    report["variant"] = variant
    # keys the config leaves out that the run fills in from the ground-truth spec
    from_spec = ("sep", "w_min") if variant == "poincare" else ("w_min",)
    report["oracle_defaults"] = sorted(key for key in from_spec if key not in cfg)
    report_path = os.path.join(out, "report.json")
    t0 = time.perf_counter()
    try:
        learned = _learn(spec, cfg, seed, w_min)
    except Exception as err:  # pipeline failure: report it, exit 1
        report["error"] = f"{type(err).__name__}: {err}"
        report["timings"] = {"cluster_s": time.perf_counter() - t0}
        _write_report(report_path, report)
        print(f"cluster failed: {report['error']}", file=sys.stderr)
        return 1
    cluster_s = time.perf_counter() - t0

    xs, _, perm, errors, accuracy = evaluate(spec, learned, seed, int(cfg.get("eval_samples", 2_000)))
    found = len(learned.means)
    weight_errors = [
        abs(float(learned.weights[perm[i]]) - float(spec.weights[i])) if perm[i] >= 0 else 1.0
        for i in range(spec.k)
    ]

    report["metrics"] = {
        "recovered_components": found,
        "mean_errors": [_error_or_null(e) for e in errors],
        "max_mean_error": _error_or_null(np.max(errors)),
        "weight_errors": weight_errors,
        "accuracy": accuracy,
    }
    report["learner_metadata"] = learned.metadata
    report["timings"] = {"cluster_s": cluster_s}
    _write_report(report_path, report)

    assign_path = os.path.join(out, "assignments.csv")
    band = default_band(spec.k, w_min, float(cfg.get("c", DEFAULT_C[variant])))
    if found:
        write_assignments_csv(assign_path, xs, learned, band)
    else:
        with open(assign_path, "w", encoding="utf-8") as fh:
            fh.write("id,assigned,flags\n")

    print(
        f"recovered {found}/{spec.k} components, accuracy {accuracy:.4f}; "
        f"wrote {report_path}"
    )
    # a true component left unmatched is a failed run, even with a report
    return 0 if np.all(perm >= 0) else 1


# ---------------------------------------------------------------------------
# validate

def _suite_rank1(rng: np.random.Generator) -> dict:
    worst = 0.0
    for t in range(1, 5):
        for d in range(1, 4):
            bm = base_moments("gaussian", t, d)
            for _ in range(10):
                samples = rng.standard_normal((2 * t, d))
                lazy = r_poly_terms(samples, t).dense_sum()
                dense = r_poly_dense_oracle(samples, t, bm)
                worst = max(worst, float(np.max(np.abs(lazy - dense))))
    return {"max_deviation": worst, "tolerance": 1e-9, "passed": worst <= 1e-9}


def _suite_hermite(rng: np.random.Generator) -> dict:
    worst = 0.0
    for t in range(1, 6):
        for d in range(1, 4):
            bm = base_moments("gaussian", t, d)
            for _ in range(10):
                x = rng.standard_normal(d)
                dev = np.max(np.abs(hermite_tensor(x, t) - adjusted_poly_recursive(x, t, bm)))
                worst = max(worst, float(dev))
    roots_ok = True
    for t in range(1, 13):
        bound = 2.0 * np.sqrt(t)
        grid = np.linspace(bound, 50.0 * bound, 4_000)
        vals = np.array([hermite_univariate(a, t) for a in grid])
        if np.any(vals <= 0):
            roots_ok = False
    passed = worst <= 1e-9 and roots_ok
    return {
        "max_deviation": worst,
        "roots_within_bound": roots_ok,
        "tolerance": 1e-9,
        "passed": passed,
    }


def _suite_projection(rng: np.random.Generator) -> dict:
    """The lazy kernels against the dense Gamma of the same exact chain:
    apply_rank1_batch on random rank-1 tensors and word_images on every word
    over random vectors; and the dense Gamma's rows orthonormal."""
    worst = worst_gram = 0.0
    for trial in range(5):
        k, d = 3, 4
        means = rng.standard_normal((k, d)) * 3.0
        spec = MixtureSpec(np.full(k, 1.0 / k), means, "gaussian")
        chain = exact_projection_chain(spec, 3, k)
        gamma = dense_matrix(chain)
        worst_gram = max(worst_gram, float(np.max(np.abs(gamma @ gamma.T - np.eye(len(gamma))))))
        factors = rng.standard_normal((8, chain.stage_count, d))
        dense = np.array([functools.reduce(np.kron, row) for row in factors]) @ gamma.T
        worst = max(worst, float(np.max(np.abs(apply_rank1_batch(chain, factors) - dense))))
        blocks = rng.standard_normal((4, 3, d))
        words = list(itertools.product(range(3), repeat=chain.stage_count))
        dense = np.array([[functools.reduce(np.kron, row[list(w)]) for w in words] for row in blocks]) @ gamma.T
        worst = max(worst, float(np.max(np.abs(word_images(chain, blocks) - dense))))
    return {
        "max_deviation": worst,
        "max_row_orthonormality_error": worst_gram,
        "tolerance": 1e-10,
        "passed": worst <= 1e-10 and worst_gram <= 1e-10,
    }


VALIDATE_SUITES = {"rank1-identity": _suite_rank1, "hermite": _suite_hermite, "projection": _suite_projection}


def cmd_validate(run: Run, args) -> int:
    out = _out_dir(args)
    rng = np.random.default_rng(run.seed)
    t0 = time.perf_counter()
    result = VALIDATE_SUITES[args.suite](rng)
    elapsed = time.perf_counter() - t0

    report = _base_report("validate", run.cfg, run.seed)
    report["result"] = result
    report["timings"] = {"suite_s": elapsed}
    path = os.path.join(out, f"validate_{args.suite}.json")
    _write_report(path, report)
    print(f"suite {args.suite}: {'pass' if result['passed'] else 'FAIL'}; wrote {path}")
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# bench

def _bench_cell(sep: float, t: int, seed: int, spec: MixtureSpec, cfg: dict) -> dict:
    mix = MixtureSampler(spec, seed=seed)
    base = BaseSampler(spec.dist_tag, spec.d, seed, 7)
    cell = {"separation": sep, "t": t, "seed": seed}

    t0 = time.perf_counter()
    try:
        learned = learn_means(
            mix,
            base,
            spec.k,
            spec.w_min,
            sep,
            alpha=max(2.0, 0.2 * sep),
            t=t,
            reps=cfg.get("reps", 16),
            n_per_stage=cfg.get("n_per_stage", 8_000),
            probes=40,
            batch=120,
        )
    except Exception as err:  # learner failure: the cell reports it, the run exits 1
        metrics = ("accuracy", "max_mean_error", "recovered_components", "baseline_accuracy")
        cell.update(dict.fromkeys(metrics), error=f"{type(err).__name__}: {err}")
        cell["timings"] = {"learn_s": time.perf_counter() - t0}
        return cell
    learn_s = time.perf_counter() - t0
    xs, labels, _, errors, accuracy = evaluate(spec, learned, seed, cfg.get("eval_samples", 1_000))

    # PCA + k-means baseline for context; a batch with fewer than k distinct
    # rows (a point_mass base, or eval_samples below k) has no k-clustering
    # to fit, so the cell reports no baseline.
    base_acc, baseline_s = None, 0.0
    if len(np.unique(xs, axis=0)) >= spec.k:
        centered = xs - xs.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        proj = centered @ vt[: spec.k].T
        tb = time.perf_counter()
        _, kmlabels = kmeans2(proj, spec.k, minit="++", seed=seed)
        baseline_s = time.perf_counter() - tb
        base_acc = _best_label_accuracy(kmlabels, labels, spec.k)

    cell.update(
        accuracy=accuracy,
        max_mean_error=_error_or_null(np.max(errors)),
        recovered_components=len(learned.means),
        baseline_accuracy=base_acc,
        timings={"learn_s": learn_s, "baseline_s": baseline_s},
    )
    return cell


def _best_label_accuracy(pred: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Accuracy of an unlabeled clustering under the best label permutation."""
    conf = np.zeros((k, k))
    for p, t in zip(pred, truth):
        if 0 <= p < k:
            conf[t, p] += 1
    rows, cols = linear_sum_assignment(-conf)
    return float(conf[rows, cols].sum() / len(truth))


def cmd_bench(run: Run, args) -> int:
    out = _out_dir(args)
    cfg, cells = run.cfg, run.cells
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(lambda cell: _bench_cell(*cell, cfg), cells))
    total_s = time.perf_counter() - t0
    results.sort(key=lambda r: (r["separation"], r["t"], r["seed"]))

    timings = {"total_s": total_s}
    for i, r in enumerate(results):
        timings[f"cell_{i}"] = r.pop("timings")
    report = _base_report("bench", cfg, run.seed)
    report["grid"] = {**run.grid, "cells": len(cells)}
    report["cells"] = results
    report["timings"] = timings
    path = os.path.join(out, "bench.json")
    _write_report(path, report)
    failed = [r for r in results if "error" in r]
    for r in failed:
        print(f"cell separation={r['separation']} t={r['t']} seed={r['seed']} failed: {r['error']}", file=sys.stderr)
    print(f"ran {len(cells)} cells, {len(failed)} failed; wrote {path}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point

def _worker_count(text: str) -> int:
    """--workers as argparse reads it: an int >= 1, else a usage error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixcluster",
        description="Moment-based mixture learning harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
            p.add_argument(
                "--set",
                dest="overrides",
                action="append",
                metavar="PATH=VALUE",
                help="override a leaf config key by dotted path",
            )
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--out", default=None, help=f"output directory (default ${OUT_ENV} or cwd)"
        )

    common(sub.add_parser("generate", help="write a labeled sample CSV + spec JSON"))
    common(sub.add_parser("cluster", help="run a learner and write report + assignments"))
    p_val = sub.add_parser("validate", help="run an oracle suite")
    p_val.add_argument("suite", help=f"one of: {', '.join(VALIDATE_SUITES)}")
    common(p_val, needs_config=False)
    p_bench = sub.add_parser("bench", help="sweep separation x degree with a k-means baseline")
    common(p_bench)
    p_bench.add_argument("--workers", type=_worker_count, default=1, help="worker pool cap, >= 1")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            cfg = {"suite": args.suite}
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
            cfg = apply_overrides(cfg, args.overrides)
        run = validate_config(cfg, args.command, args.seed)
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    commands = {"generate": cmd_generate, "cluster": cmd_cluster, "validate": cmd_validate, "bench": cmd_bench}
    return commands[args.command](run, args)


if __name__ == "__main__":
    sys.exit(main())
