"""The CLI's config contract: every config either runs, or exits 2 with a
``config error`` line before the command creates its output directory.

A run that starts ends in exit 0 or 1 with its report written.  The fuzz
test draws configs from the schema table itself, so a key added to the
table is fuzzed at its bounds with no edit here.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from mixcluster.cli import REQUIRED, SCHEMAS, Key, main
from mixcluster.moment_pipeline import MAX_DEGREE

REPORTS = {"generate": "spec.json", "cluster": "report.json", "bench": "bench.json"}


def _run(command, doc, seed=None):
    """(exit code, stderr, whether --out exists) of one CLI run on doc,
    with a --out path that does not exist beforehand."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        argv = [command, "--config", cfg, "--out", out] + ([] if seed is None else ["--seed", str(seed)])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        wrote = os.path.exists(out)
        report = os.path.exists(os.path.join(out, REPORTS[command]))
    return code, err.getvalue(), wrote, report


def _mix(**keys):
    return {"k": 2, "d": 2, "seed": 1, **keys}


def _cluster(variant="poincare", mixture=None, **keys):
    doc = {"mixture": mixture or _mix(separation=12.0), "variant": variant, "eval_samples": 50}
    if variant == "poincare":
        doc.update(reps=2, n_per_stage=200)
    return {**doc, **keys}


def _bench(mixture=None, **keys):
    # each bench cell takes its own mixture seed, so a bench mixture sets none
    mixture = {key: value for key, value in (mixture or _mix()).items() if key != "seed"}
    doc = {"mixture": mixture, "separations": [8.0], "degrees": [1], "seeds_per_cell": 1}
    return {**doc, "reps": 2, "n_per_stage": 200, "eval_samples": 50, **keys}


ZERO_WEIGHT = _mix(separation=12.0, weight_profile="explicit", weights=[1.0, 0.0])

# Each of these ran or crashed before the contract; each must exit 2 with
# nothing written.  (command, config, --seed)
REJECTED = {
    "zero weight, no w_min, poincare": ("cluster", _cluster(mixture=ZERO_WEIGHT), None),
    "zero weight, no w_min, recursive": ("cluster", _cluster("gaussian-recursive", ZERO_WEIGHT), None),
    "zero weight in bench": ("bench", _bench(_mix(weight_profile="explicit", weights=[1.0, 0.0])), None),
    "negative weight": ("generate", {"mixture": _mix(weight_profile="explicit", weights=[1.5, -0.5]), "n": 5}, None),
    "unplaceable means, generate": ("generate", {"mixture": _mix(k=3, d=1), "n": 5}, None),
    "unplaceable means, bench": ("bench", _bench(_mix(k=3, d=1)), None),
    "degree 0 in bench": ("bench", _bench(degrees=[0]), None),
    "negative mixture seed, generate": ("generate", {"mixture": _mix(seed=-1), "n": 5}, None),
    "negative mixture seed, cluster": ("cluster", _cluster(mixture=_mix(separation=12.0, seed=-1)), None),
    "negative seed, cluster": ("cluster", _cluster(seed=-1), None),
    "negative seed, bench": ("bench", _bench(seed=-1), None),
    "negative --seed, generate": ("generate", {"mixture": _mix(), "n": 5}, -1),
    "negative --seed, cluster": ("cluster", _cluster(), -1),
    "negative --seed, bench": ("bench", _bench(), -1),
    "weights with uniform weight_profile": ("generate", {"mixture": _mix(weights=[0.9, 0.1]), "n": 5}, None),
    "weights with dirichlet weight_profile": (
        "cluster", _cluster(mixture=_mix(weight_profile="dirichlet", weights=[0.9, 0.1])), None
    ),
    "ratios with uniform profile": ("cluster", _cluster(mixture=_mix(profile="uniform", ratios=[5.0])), None),
    "ratios with default profile in bench": ("bench", _bench(_mix(ratios=[5.0])), None),
    "unknown variant": ("cluster", _cluster("spectral"), None),
    "degree past the bound": ("cluster", _cluster(t=9), None),
    "single component, no sep": ("cluster", _cluster(mixture=_mix(k=1), reps=1), None),
    "no mixture.k, generate": ("generate", {"mixture": {"d": 2}, "n": 5}, None),
    "no mixture.d, generate": ("generate", {"mixture": {"k": 2}, "n": 5}, None),
    "no mixture.k, cluster": ("cluster", _cluster(mixture={"d": 2, "separation": 12.0}), None),
    "no mixture.k, bench": ("bench", _bench({"d": 2}), None),
}


class TestRejected:
    @pytest.mark.parametrize("command, doc, seed", REJECTED.values(), ids=REJECTED.keys())
    def test_exits_2_before_touching_disk(self, command, doc, seed):
        code, err, wrote, _ = _run(command, doc, seed)
        assert code == 2
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not wrote

    @pytest.mark.parametrize(
        "mixture, named",
        [
            (_mix(weights=[0.9, 0.1]), "'mixture.weights' is not read by weight_profile 'uniform'"),
            (_mix(profile="uniform", ratios=[5.0]), "'mixture.ratios' is not read by profile 'uniform'"),
        ],
    )
    def test_unread_mixture_key_is_named(self, mixture, named):
        _, err, _, _ = _run("generate", {"mixture": mixture, "n": 5})
        assert named in err

    def test_missing_mixture_key_is_named(self):
        _, err, _, _ = _run("bench", _bench({"d": 2}))
        assert "missing required config key 'mixture.k'" in err

    def test_unknown_suite_is_a_config_error(self, tmp_path, capsys):
        assert main(["validate", "nosuch", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown suite 'nosuch'")
        assert not (tmp_path / "out").exists()

    def test_degree_bound_is_max_degree(self):
        assert SCHEMAS["cluster"]["t"] == Key(int, 1, MAX_DEGREE) == SCHEMAS["bench"]["degrees"][0]
        _, err, _, _ = _run("cluster", _cluster(t=MAX_DEGREE + 1))
        assert f"t must be in [1, {MAX_DEGREE}]" in err


def _leaves(schema, path=()):
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from _leaves(entry, path + (key,))
        else:
            yield path + (key,), entry


def _edge_values(key: Key) -> list:
    """Each bound of key, and the value just past it."""
    step = 1 if key.type is int else 1e-9
    values = [] if key.lo is None else [key.lo, key.lo - step]
    return values + ([] if key.hi is None else [key.hi, key.hi + step])


def _bad_values(key: Key) -> list:
    wrong = ["x", True, None, [1], {"a": 1}] + ([1.5] if key.type is int else [])
    return wrong + ([math.nan, math.inf, -math.inf] if key.type is float else ["bogus"])


def _valid(command):
    """Small configs every learner runs in well under a second."""
    optional = {
        "dist_tag": hst.sampled_from(["gaussian", "laplace", "uniform_cube", "point_mass"]),
        "weight_profile": hst.just("dirichlet"),
    }
    if command != "bench":  # each bench cell takes its own mixture seed
        optional["seed"] = hst.integers(0, 50)
    mixture = hst.fixed_dictionaries({"k": hst.integers(1, 3), "d": hst.integers(2, 3)}, optional=optional)
    if command == "generate":
        return hst.fixed_dictionaries({"mixture": mixture, "n": hst.integers(0, 500)})
    counts = {
        "reps": hst.integers(1, 4),
        "n_per_stage": hst.integers(50, 500),
        "eval_samples": hst.integers(10, 200),
        "seed": hst.integers(0, 50),
    }
    if command == "bench":
        return hst.fixed_dictionaries(
            {"mixture": mixture, "separations": hst.lists(hst.floats(6.0, 20.0), min_size=1, max_size=2)},
            optional={"degrees": hst.lists(hst.integers(1, 2), min_size=1, max_size=2),
                      "seeds_per_cell": hst.integers(1, 2), **counts},
        )
    shared = {"w_min": hst.floats(0.2, 1.0), "c": hst.floats(0.1, 2.0), "alpha": hst.floats(0.5, 4.0),
              "eval_samples": counts["eval_samples"], "seed": counts["seed"]}
    poincare = hst.fixed_dictionaries(
        {"mixture": mixture.map(lambda m: {**m, "separation": 12.0}), "variant": hst.just("poincare"),
         "sep": hst.floats(8.0, 20.0), "reps": counts["reps"], "n_per_stage": counts["n_per_stage"]},
        optional={"t": hst.integers(1, 2), **shared},
    )
    recursive = hst.fixed_dictionaries(
        {"mixture": mixture.map(lambda m: {**m, "separation": 12.0, "dist_tag": "gaussian"}),
         "variant": hst.just("gaussian-recursive")},
        optional={"sep_hint": hst.floats(6.0, 20.0), **shared},
    )
    return hst.one_of(poincare, recursive)


@hst.composite
def _configs(draw):
    """A valid small config, or one with a single value moved to a bound of
    its schema entry, just past it, or to a wrong type, NaN or infinity, or
    with one required key left out."""
    command = draw(hst.sampled_from(sorted(REPORTS)))
    doc = draw(_valid(command))
    change = draw(hst.sampled_from(["none", "edge", "bad", "drop"]))
    if change == "drop":
        *head, last = draw(hst.sampled_from(REQUIRED[command])).split(".")
        del (doc[head[0]] if head else doc)[last]
    elif change != "none":
        path, entry = draw(hst.sampled_from(list(_leaves(SCHEMAS[command]))))
        key = entry[0] if isinstance(entry, list) else entry
        edges = _edge_values(key) if change == "edge" else []
        value = draw(hst.sampled_from(edges or _bad_values(key)))
        node = doc
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = [value] if isinstance(entry, list) else value
    return command, doc, draw(hst.sampled_from([None, 0, 3, -1]))


class TestFuzz:
    @given(case=_configs())
    @example(case=REJECTED["zero weight, no w_min, poincare"])
    @example(case=REJECTED["zero weight, no w_min, recursive"])
    @example(case=REJECTED["negative weight"])
    @example(case=REJECTED["unplaceable means, bench"])
    @example(case=REJECTED["degree 0 in bench"])
    @example(case=REJECTED["negative mixture seed, generate"])
    @example(case=REJECTED["negative --seed, cluster"])
    @example(case=REJECTED["weights with uniform weight_profile"])
    @example(case=REJECTED["ratios with uniform profile"])
    @example(case=REJECTED["unknown variant"])
    @example(case=REJECTED["degree past the bound"])
    @example(case=REJECTED["single component, no sep"])
    @example(case=REJECTED["no mixture.k, cluster"])
    @settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    def test_every_config_runs_or_exits_2_untouched(self, case):
        command, doc, seed = case
        code, err, wrote, report = _run(command, doc, seed)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("config error: ") and not wrote
        else:
            assert report
