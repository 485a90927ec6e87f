"""Experiment harness: generate, cluster, validate, and bench subcommands.

Configs are JSON documents validated against a strict schema (unknown keys
are rejected); ``--set dotted.path=value`` overrides leaf keys.  Reports are
JSON with sorted keys; every elapsed time lives under the ``timings`` key so
re-runs can be compared byte-for-byte after dropping it.  Exit codes:
0 success, 1 algorithmic failure (report still written), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy
from scipy.cluster.vq import kmeans2
from scipy.optimize import linear_sum_assignment

from . import __version__
from . import gaussian_cluster as gc
from .mixture_gen import BaseSampler, GenConfig, MixtureSampler, build_spec
from .moment_pipeline import MixtureSpec
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
from .poincare_cluster import LearnedMixture, default_band, learn_means, write_assignments_csv

OUT_ENV = "MIXCLUSTER_OUT"

VALIDATE_SUITES = ("rank1-identity", "hermite", "projection")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config schema

MIXTURE_SCHEMA = {
    "k": int,
    "d": int,
    "separation": float,
    "profile": str,
    "ratios": [float],
    "weight_profile": str,
    "weights": [float],
    "dist_tag": str,
    "seed": int,
}

SCHEMAS = {
    "generate": {
        "mixture": MIXTURE_SCHEMA,
        "n": int,
    },
    "cluster": {
        "mixture": MIXTURE_SCHEMA,
        "variant": str,  # "poincare" | "gaussian-recursive"
        "w_min": float,
        "c": float,
        "alpha": float,
        "sep": float,
        "sep_hint": float,
        "t": int,
        "reps": int,
        "n_per_stage": int,
        "eval_samples": int,
        "seed": int,
    },
    "bench": {
        "mixture": MIXTURE_SCHEMA,
        "separations": [float],
        "degrees": [int],
        "seeds_per_cell": int,
        "eval_samples": int,
        "reps": int,
        "n_per_stage": int,
        "seed": int,
    },
}

REQUIRED = {
    "generate": ("mixture", "n"),
    "cluster": ("mixture", "variant"),
    "bench": ("mixture", "separations"),
}


def validate_config(cfg: dict, command: str) -> dict:
    """Type-check against the command schema; unknown keys are errors.  A
    schema entry ``[T]`` is a list whose every element is a ``T``."""
    schema = SCHEMAS[command]

    def check(value, expect, path):
        if isinstance(expect, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path or 'config'} must be an object")
            for key, item in value.items():
                here = f"{path}.{key}" if path else key
                if key not in expect:
                    raise ConfigError(f"unknown config key {here!r}")
                check(item, expect[key], here)
        elif isinstance(expect, list):
            if not isinstance(value, list):
                raise ConfigError(f"{path} must be a list")
            for i, item in enumerate(value):
                check(item, expect[0], f"{path}[{i}]")
        elif expect is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{path} must be a number")
            # json.load accepts NaN and Infinity, which no config value may be
            if not math.isfinite(value):
                raise ConfigError(f"{path} must be a finite number")
        elif not isinstance(value, expect) or isinstance(value, bool) != (expect is bool):
            raise ConfigError(f"{path} must be {expect.__name__}")

    check(cfg, schema, "")
    for key in REQUIRED[command]:
        if key not in cfg:
            raise ConfigError(f"missing required config key {key!r}")
    for key in ("t", "reps", "n_per_stage", "seeds_per_cell", "eval_samples"):
        if cfg.get(key, 1) < 1:
            raise ConfigError(f"{key} must be >= 1")
    for key in ("sep", "sep_hint", "alpha", "c"):
        if cfg.get(key, 1) <= 0:
            raise ConfigError(f"{key} must be > 0")
    # each becomes a cell's mixture separation; checked here so that no cell runs
    if any(sep <= 0 for sep in cfg.get("separations", ())):
        raise ConfigError("separations must be > 0")
    if not 0 < cfg.get("w_min", 1) <= 1:
        raise ConfigError("w_min must be in (0, 1]")
    if cfg.get("n", 0) < 0:
        raise ConfigError("n must be >= 0")
    return cfg


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
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object key")
        node[parts[-1]] = value
    return cfg


def _gen_config(mix_cfg: dict, seed_override: int | None) -> GenConfig:
    kwargs = dict(mix_cfg)
    if "ratios" in kwargs:
        kwargs["ratios"] = tuple(kwargs["ratios"])
    if "weights" in kwargs:
        kwargs["weights"] = tuple(kwargs["weights"])
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return GenConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _spec_config(mix_cfg: dict, seed_override: int | None) -> GenConfig:
    """The mixture block of a run that builds its spec from the block as
    given.  A hierarchical profile places its means by ``ratios`` alone, so
    a ``separation`` next to it would be ignored: it exits 2 instead, after
    the generator's own range checks."""
    gen = _gen_config(mix_cfg, seed_override)
    if gen.profile == "hierarchical" and "separation" in mix_cfg:
        raise ConfigError("config key 'mixture.separation' is not read by profile 'hierarchical'")
    return gen


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_report(path: str, report: dict) -> None:
    # serialize first, so a report that cannot be written leaves no partial file
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
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
        assigned = np.argmin(np.linalg.norm(xs[:, None, :] - est[None, :, :], axis=2), axis=1)
        accuracy = float(np.mean(assigned == perm[labels]))
    return xs, labels, perm, errors, accuracy


# ---------------------------------------------------------------------------
# generate

def cmd_generate(cfg: dict, args) -> int:
    out = _out_dir(args)
    gen = _spec_config(cfg["mixture"], args.seed)
    spec = build_spec(gen)
    n = int(cfg["n"])
    sampler = MixtureSampler(spec, seed=gen.seed)
    xs, labels = sampler.draw_labeled(n)

    samples_path = os.path.join(out, "samples.csv")
    with open(samples_path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"x_{j}" for j in range(spec.d))
        fh.write(f"id,{cols},label\n")
        for i in range(n):
            coords = ",".join(repr(float(v)) for v in xs[i])
            fh.write(f"{i},{coords},{int(labels[i])}\n")

    spec_path = os.path.join(out, "spec.json")
    doc = {"config": cfg, "seed": gen.seed, "spec": spec.to_dict()}
    _write_report(spec_path, doc)
    print(f"wrote {samples_path} ({n} rows) and {spec_path}")
    return 0


# ---------------------------------------------------------------------------
# cluster

# each learner's own default trade-off constant c, also used for the band
DEFAULT_C = {"poincare": 0.5, "gaussian-recursive": 1.0}
# the cluster keys only one variant reads; the other rejects them
VARIANT_KEYS = {"poincare": ("sep", "t", "reps", "n_per_stage"), "gaussian-recursive": ("sep_hint",)}


def _run_poincare(spec, cfg: dict, seed: int, w_min: float) -> LearnedMixture:
    mix = MixtureSampler(spec, seed=seed)
    base = BaseSampler(spec.dist_tag, spec.d, seed, 7)
    sep = float(cfg.get("sep", spec.min_separation()))
    # learn_means's own defaults apply to the keys the config leaves out
    overrides = {key: int(cfg[key]) for key in ("reps", "n_per_stage") if key in cfg}
    return learn_means(
        mix,
        base,
        spec.k,
        w_min,
        sep,
        float(cfg.get("alpha", 2.0)),
        float(cfg.get("c", DEFAULT_C["poincare"])),
        t=cfg.get("t"),
        **overrides,
    )


def _run_gaussian(spec, cfg: dict, seed: int, w_min: float) -> LearnedMixture:
    mix = MixtureSampler(spec, seed=seed)
    params = gc.desk_params(spec.k, w_min, sep_hint=cfg.get("sep_hint"))
    return gc.recursive_cluster(
        mix,
        spec.k,
        w_min,
        float(cfg.get("c", DEFAULT_C["gaussian-recursive"])),
        float(cfg.get("alpha", 2.0)),
        params=params,
        seed=seed,
    )


def cmd_cluster(cfg: dict, args) -> int:
    out = _out_dir(args)
    gen = _spec_config(cfg["mixture"], None)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", gen.seed))
    spec = build_spec(gen)
    variant = cfg["variant"]
    if variant not in DEFAULT_C:
        raise ConfigError(f"unknown variant {variant!r}")
    ignored = [key for other, keys in VARIANT_KEYS.items() if other != variant for key in keys if key in cfg]
    if ignored:
        raise ConfigError(f"config key {ignored[0]!r} is not read by variant {variant!r}")
    if variant == "gaussian-recursive" and spec.dist_tag != "gaussian":
        raise ConfigError("the recursive variant requires a gaussian base distribution")
    # the learner and the assignment band share one w_min
    w_min = float(cfg.get("w_min", spec.w_min))

    report = _base_report("cluster", cfg, seed)
    report["variant"] = variant
    # keys the config leaves out that the run fills in from the ground-truth spec
    from_spec = ("sep", "w_min") if variant == "poincare" else ("w_min",)
    report["oracle_defaults"] = sorted(key for key in from_spec if key not in cfg)
    report_path = os.path.join(out, "report.json")
    t0 = time.perf_counter()
    try:
        if variant == "poincare":
            learned = _run_poincare(spec, cfg, seed, w_min)
        else:
            learned = _run_gaussian(spec, cfg, seed, w_min)
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
    report["learner_metadata"] = _jsonable(learned.metadata)
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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


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
    worst = 0.0
    for trial in range(5):
        k, d = 3, 4
        means = rng.standard_normal((k, d)) * 3.0
        weights = np.full(k, 1.0 / k)
        spec = MixtureSpec(weights, means, "gaussian")
        chain = exact_projection_chain(spec, 3, k)
        gamma = dense_matrix(chain)
        gram = gamma @ gamma.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(gram))))))
    return {"max_row_orthonormality_error": worst, "tolerance": 1e-10, "passed": worst <= 1e-10}


def cmd_validate(args) -> int:
    if args.suite not in VALIDATE_SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {', '.join(VALIDATE_SUITES)}",
            file=sys.stderr,
        )
        return 2
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    if args.suite == "rank1-identity":
        result = _suite_rank1(rng)
    elif args.suite == "hermite":
        result = _suite_hermite(rng)
    else:
        result = _suite_projection(rng)
    elapsed = time.perf_counter() - t0

    report = _base_report("validate", {"suite": args.suite}, seed)
    report["result"] = result
    report["timings"] = {"suite_s": elapsed}
    path = os.path.join(out, f"validate_{args.suite}.json")
    _write_report(path, report)
    print(f"suite {args.suite}: {'pass' if result['passed'] else 'FAIL'}; wrote {path}")
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# bench

def _bench_cell(mix_cfg: dict, sep: float, t: int, seed: int, cfg: dict) -> dict:
    gen_kwargs = dict(mix_cfg)
    gen_kwargs["separation"] = sep
    gen_kwargs["seed"] = seed
    gen = _gen_config(gen_kwargs, None)
    spec = build_spec(gen)
    mix = MixtureSampler(spec, seed=seed)
    base = BaseSampler(spec.dist_tag, spec.d, seed, 7)
    cell = {"separation": float(sep), "t": int(t), "seed": int(seed)}

    t0 = time.perf_counter()
    try:
        # A deliberately loose weight floor: bench cells run with small probe
        # counts, where the nominal support threshold rejects true components.
        learned = learn_means(
            mix,
            base,
            spec.k,
            0.6 * spec.w_min,
            sep,
            alpha=max(2.0, 0.2 * sep),
            t=t,
            reps=int(cfg.get("reps", 16)),
            n_per_stage=int(cfg.get("n_per_stage", 8_000)),
            probes=40,
            batch=120,
        )
    except Exception as err:  # learner failure: the cell reports it, the run exits 1
        metrics = ("accuracy", "max_mean_error", "recovered_components", "baseline_accuracy")
        cell.update(dict.fromkeys(metrics), error=f"{type(err).__name__}: {err}")
        cell["timings"] = {"learn_s": time.perf_counter() - t0}
        return cell
    learn_s = time.perf_counter() - t0
    xs, labels, _, errors, accuracy = evaluate(spec, learned, seed, int(cfg.get("eval_samples", 1_000)))

    # PCA + k-means baseline for context.
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


def cmd_bench(cfg: dict, args) -> int:
    if "separation" in cfg["mixture"]:
        raise ConfigError("config key 'mixture.separation' is not read by bench: each cell takes one of separations")
    # a hierarchical profile places its means by ratios alone, so every cell
    # would run one mixture under its own separation label
    if cfg["mixture"].get("profile") == "hierarchical":
        raise ConfigError("bench sweeps separations, which profile 'hierarchical' does not read")
    out = _out_dir(args)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    separations = [float(s) for s in cfg["separations"]]
    degrees = [int(t) for t in cfg.get("degrees", [2])]
    per_cell = int(cfg.get("seeds_per_cell", 3))
    cells = [
        (sep, t, seed + 1000 * i + j)
        for i, sep in enumerate(separations)
        for t in degrees
        for j in range(per_cell)
    ]

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max(1, args.workers)) as pool:
        results = list(
            pool.map(lambda c: _bench_cell(cfg["mixture"], c[0], c[1], c[2], cfg), cells)
        )
    total_s = time.perf_counter() - t0
    results.sort(key=lambda r: (r["separation"], r["t"], r["seed"]))

    timings = {"total_s": total_s}
    for i, r in enumerate(results):
        timings[f"cell_{i}"] = r.pop("timings")
    report = _base_report("bench", cfg, seed)
    report["grid"] = {
        "separations": separations,
        "degrees": degrees,
        "seeds_per_cell": per_cell,
        "cells": len(cells),
    }
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
    p_bench.add_argument("--workers", type=int, default=1, help="worker pool cap")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg = apply_overrides(cfg, getattr(args, "overrides", None))
        cfg = validate_config(cfg, args.command)
        if args.command == "generate":
            return cmd_generate(cfg, args)
        if args.command == "cluster":
            return cmd_cluster(cfg, args)
        return cmd_bench(cfg, args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
