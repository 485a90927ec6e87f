import functools
import importlib
import inspect
import itertools
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import mixcluster
from conftest import RowCounter
from mixcluster import gaussian_cluster as gc
from mixcluster import mixture_gen
from mixcluster.mixture_gen import (
    BASE_TAGS,
    LAPLACE_SCALE,
    BaseSampler,
    GenConfig,
    MixtureSampler,
    PlacementError,
    UnsupportedDistributionError,
    base_sampler,
    build_spec,
    sample_stream,
)
from mixcluster.moment_pipeline import MixtureSpec
from mixcluster.rng import stream as rng_stream
from mixcluster.poincare_cluster import DifferenceSampler


class TestGenConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            GenConfig(k=0, d=2)
        with pytest.raises(ValueError):
            GenConfig(k=2, d=0)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            GenConfig(k=2, d=2, profile="spiral")

    def test_hierarchical_needs_ratios(self):
        with pytest.raises(ValueError):
            GenConfig(k=2, d=2, profile="hierarchical", ratios=())

    @pytest.mark.parametrize(
        "kwargs",
        [{"separation": -3.0}, {"separation": 0.0}, {"separation": float("nan")},
         {"profile": "hierarchical", "ratios": (10.0, 0.0)}, {"profile": "hierarchical", "ratios": (-1.0,)}],
    )
    def test_rejects_nonpositive_separation_or_ratio(self, kwargs):
        with pytest.raises(ValueError, match="must be > 0"):
            GenConfig(k=2, d=2, **kwargs)

    def test_explicit_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GenConfig(k=2, d=2, weight_profile="explicit", weights=(0.5, 0.2))

    def test_explicit_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            GenConfig(k=2, d=2, weight_profile="explicit", weights=(1.5, -0.5))


# a non-finite value in either weight position: NaN slips past both the
# sign test and the sum test, so it needs its own check
_NON_FINITE_WEIGHTS = [
    pytest.param(w, id=f"{v}-at-{i}")
    for v in (math.nan, math.inf, -math.inf)
    for i, w in enumerate([(v, 1.0), (1.0, v)])
]


class TestNonFiniteWeights:
    @pytest.mark.parametrize("weights", _NON_FINITE_WEIGHTS)
    def test_spec_rejects(self, weights):
        with pytest.raises(ValueError, match="finite"):
            MixtureSpec(np.array(weights), np.zeros((2, 2)))

    @pytest.mark.parametrize("weights", _NON_FINITE_WEIGHTS)
    def test_explicit_config_rejects(self, weights):
        with pytest.raises(ValueError, match="finite"):
            GenConfig(k=2, d=2, weight_profile="explicit", weights=weights)


class TestBuildSpec:
    def test_k1_mean_at_origin(self):
        spec = build_spec(GenConfig(k=1, d=3, seed=0))
        assert np.allclose(spec.means, 0.0)

    def test_pairwise_distance_window(self):
        spec = build_spec(GenConfig(k=2, d=4, separation=10.0, seed=1))
        dist = np.linalg.norm(np.asarray(spec.means)[0] - np.asarray(spec.means)[1])
        assert 10.0 - 1e-9 <= dist <= 12.0 + 1e-9

    def test_hierarchical_level_separations(self):
        spec = build_spec(
            GenConfig(k=4, d=8, profile="hierarchical", ratios=(10.0, 500.0), seed=2)
        )
        means = np.asarray(spec.means)
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        within = [dists[0, 1], dists[2, 3]]
        across = [dists[0, 2], dists[0, 3], dists[1, 2], dists[1, 3]]
        assert all(10.0 - 1e-9 <= w <= 12.0 + 1e-9 for w in within)
        assert all(a >= 400.0 for a in across)

    def test_deterministic_from_seed(self):
        cfg = GenConfig(k=3, d=3, separation=8.0, seed=9)
        a, b = build_spec(cfg), build_spec(cfg)
        assert np.array_equal(np.asarray(a.means), np.asarray(b.means))

    def test_dirichlet_weights_normalized(self):
        spec = build_spec(GenConfig(k=4, d=6, weight_profile="dirichlet", seed=3))
        assert np.asarray(spec.weights).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "cfg",
        [
            GenConfig(k=3, d=3, separation=12.0, seed=7),  # C8
            GenConfig(k=4, d=16, profile="hierarchical", ratios=(10.0, 1000.0), seed=0),  # C9
            GenConfig(k=4, d=16, profile="hierarchical", ratios=(7.0, 1000.0), seed=0),  # C9-sep7
            GenConfig(k=4, d=8, profile="hierarchical", ratios=(10.0, 500.0), weight_profile="dirichlet", seed=2),
            GenConfig(k=4, d=2, seed=0),  # unplaceable: both raise
        ]
        + [GenConfig(k=4, d=6, separation=12.0, seed=s) for s in range(20)]  # poincare-deg3
        + [GenConfig(k=k, d=d, seed=s) for k, d in [(2, 3), (3, 3), (4, 3), (3, 6), (4, 6), (4, 16), (6, 16)] for s in range(3)]
        + [GenConfig(k=3, d=2, seed=s) for s in range(3)],
    )
    def test_placement_equals_the_per_pair_loop(self, monkeypatch, cfg):
        try:
            spec = build_spec(cfg)
        except PlacementError:
            spec = None
        monkeypatch.setattr(mixture_gen, "_place_points", _place_points_loop)
        if spec is None:
            with pytest.raises(PlacementError):
                build_spec(cfg)
            return
        ref = build_spec(cfg)
        assert np.array_equal(spec.means, ref.means) and np.array_equal(spec.weights, ref.weights)


def _place_points_loop(n, d, sep, rng):
    """Reference placement: every retry checks its pair distances in a loop."""
    if n == 1:
        return np.zeros((1, d))
    for _ in range(20_000):
        pts = rng.standard_normal((n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        dists = [np.linalg.norm(pts[i] - pts[j]) for i, j in itertools.combinations(range(n), 2)]
        lo, hi = min(dists), max(dists)
        if lo >= 1e-9 and hi / lo <= 1.2:
            return pts * (sep / lo)
    raise PlacementError(f"could not place {n} points at ratio <= 1.2 in d={d}")


class TestStreams:
    def test_point_mass_samples_equal_their_mean(self):
        spec = build_spec(GenConfig(k=3, d=3, separation=10.0, dist_tag="point_mass", seed=4))
        xs, labels = sample_stream(spec, seed=0).draw_labeled(200)
        assert np.allclose(xs, np.asarray(spec.means)[labels])

    def test_empirical_weights_within_binomial_bound(self):
        spec = build_spec(GenConfig(k=3, d=2, separation=10.0, seed=5))
        n = 100_000
        _, labels = sample_stream(spec, seed=1).draw_labeled(n)
        for i, w in enumerate(np.asarray(spec.weights)):
            emp = (labels == i).mean()
            assert abs(emp - w) <= 4 * math.sqrt(w / n)

    def test_per_component_covariance_identity(self):
        spec = build_spec(GenConfig(k=2, d=3, separation=20.0, seed=6))
        xs, labels = sample_stream(spec, seed=2).draw_labeled(60_000)
        for i in range(2):
            grp = xs[labels == i] - np.asarray(spec.means)[i]
            cov = grp.T @ grp / len(grp)
            assert np.max(np.abs(cov - np.eye(3))) < 0.06

    @pytest.mark.parametrize("weights", [(0.25, 0.25, 0.5), (0.1, 0.0, 0.3, 0.6), (1 / 7,) * 7])
    @pytest.mark.parametrize("n", [0, 1, 7, 512, 4_096, 60_000])
    def test_labels_are_generator_choice_bits(self, weights, n):
        # the labels are Generator.choice's on the same stream, call after call
        spec = MixtureSpec(np.array(weights), np.zeros((len(weights), 2)))
        stream, reference = MixtureSampler(spec, 9), rng_stream(9, 2)
        for size in (n, 5):
            labels = stream.draw_labeled(size)[1]
            want = reference.choice(spec.k, size=size, p=spec.weights)
            assert labels.dtype == want.dtype
            assert np.array_equal(labels, want)

    def test_bit_identical_streams(self):
        spec = build_spec(GenConfig(k=2, d=2, separation=10.0, seed=7))
        a = sample_stream(spec, seed=3).draw(100)
        b = sample_stream(spec, seed=3).draw(100)
        assert np.array_equal(a, b)

    def test_different_stream_ids_differ(self):
        spec = build_spec(GenConfig(k=2, d=2, separation=10.0, seed=7))
        a = sample_stream(spec, seed=3, stream_id=2).draw(10)
        b = sample_stream(spec, seed=3, stream_id=4).draw(10)
        assert not np.array_equal(a, b)


class TestBaseSamplers:
    @pytest.mark.parametrize("tag", ["gaussian", "laplace", "uniform_cube"])
    def test_mean_zero(self, tag):
        n = 200_000
        draws = base_sampler(tag, 3, 11).draw(n)
        sd = draws.std(axis=0)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * sd / math.sqrt(n))

    def test_laplace_coordinate_variance_calibrated(self):
        draws = base_sampler("laplace", 1, 12).draw(400_000)
        assert draws.var() == pytest.approx(2 * LAPLACE_SCALE**2, rel=0.02)

    def test_point_mass_all_zero(self):
        assert np.array_equal(base_sampler("point_mass", 2, 0).draw(10), np.zeros((10, 2)))

    def test_unsupported_tag(self):
        with pytest.raises(UnsupportedDistributionError):
            BaseSampler("cauchy", 2, 0)

    @pytest.mark.parametrize("tag", ["gaussian", "laplace", "uniform_cube"])
    def test_linear_poincare_smoke(self, tag, rng):
        # Var[f(z)] <= ||grad f||^2 + 4 MC standard errors for linear f
        n = 50_000
        draws = base_sampler(tag, 3, 13).draw(n)
        for _ in range(50):
            a = rng.standard_normal(3)
            vals = draws @ a
            var = vals.var()
            se = vals.var() * math.sqrt(2.0 / n)  # approximate SE of a variance
            assert var <= a @ a + 4 * se

    @pytest.mark.parametrize("tag", ["gaussian", "laplace", "uniform_cube"])
    def test_exponential_tail_bound(self, tag, rng):
        # Pr[|f - E f| >= tau] <= 6 e^{-tau} + MC slack for 1-Lipschitz linear f
        n = 200_000
        draws = base_sampler(tag, 3, 14).draw(n)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        vals = draws @ a
        vals -= vals.mean()
        for tau in (2.0, 4.0, 8.0):
            rate = (np.abs(vals) >= tau).mean()
            bound = 6 * math.exp(-tau)
            assert rate <= bound + 4 * math.sqrt(max(bound, 1e-12) / n) + 1e-4


class TestMixtureSamplerInterface:
    def test_draw_matches_labeled(self):
        spec = build_spec(GenConfig(k=2, d=2, separation=10.0, seed=8))
        a = MixtureSampler(spec, seed=5).draw(20)
        b, _ = MixtureSampler(spec, seed=5).draw_labeled(20)
        assert np.array_equal(a, b)


_SPEC = MixtureSpec(np.full(2, 0.5), np.array([[2.0, 0.0, 1.0], [-2.0, 1.0, 0.0]]))
_CHECKER = gc.Checker(np.array([[1.0], [1.0], [0.0]]) / math.sqrt(2.0), np.array([1.5]), 1.5)
_AXES = np.array([[0.6, 0.8, 0.0], [0.0, 0.6, -0.8]])


def _root():
    return RowCounter(MixtureSampler(_SPEC, 5))


# name -> a fresh stream; a stream over another reads it through a
# RowCounter, its ``inner``
_STREAMS = {
    **{f"base-{tag}": functools.partial(BaseSampler, tag, 3, 5, 1) for tag in BASE_TAGS},
    "mixture": lambda: MixtureSampler(_SPEC, 5),
    "difference": lambda: DifferenceSampler(_root()),
    "reduced": lambda: gc.ReducedSampler(_root(), functools.partial(gc.checker_contains_batch, _CHECKER)),
    "reduced-basis": lambda: gc.reduce_by_checker(_root(), _CHECKER),
    "projected": lambda: gc.ReducedSampler(_root(), None, _AXES.T, np.array([0.5, -1.0, 2.0])),
}


class TestStreamContract:
    @pytest.mark.parametrize("name", sorted(_STREAMS))
    @settings(max_examples=25, deadline=None)
    @given(sizes=hst.lists(hst.integers(0, 150), min_size=1, max_size=6))
    @example(sizes=[1, 120] * 48)
    def test_any_split_gives_the_rows_of_one_draw(self, name, sizes):
        make = _STREAMS[name]
        split, one = make(), make()
        got = np.concatenate([split.draw(n) for n in sizes])
        want = one.draw(sum(sizes))
        assert np.array_equal(got, want)
        # and it has taken the same rows from the stream it reads
        if hasattr(split, "inner"):
            assert split.inner.rows == one.inner.rows

    def test_every_stream_type_is_covered(self):
        # a class that defines draw is a stream, and must meet the contract above
        streams = {
            cls
            for info in pkgutil.iter_modules(mixcluster.__path__)
            for _, cls in inspect.getmembers(importlib.import_module(f"mixcluster.{info.name}"), inspect.isclass)
            if cls.__module__.startswith("mixcluster.") and "draw" in vars(cls)
        }
        assert streams <= {type(make()) for make in _STREAMS.values()}
