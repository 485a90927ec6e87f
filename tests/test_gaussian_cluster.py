import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.linalg import null_space
from scipy.stats import chi2, ncx2, norm

import mixcluster.gaussian_cluster as gc
from mixcluster import moment_pipeline as mp
from mixcluster import nested_projection as npj
from mixcluster.cli import match_means
from mixcluster.moment_pipeline import MixtureSpec
from mixcluster.mixture_gen import BaseSampler, GenConfig, MixtureSampler, build_spec
from mixcluster import sample_test as st
from mixcluster.poincare_cluster import assign_batch, learn_means, margin_matrix

from conftest import RowCounter


def _spec(weights, means, tag="gaussian"):
    return MixtureSpec(np.asarray(weights, float), np.asarray(means, float), tag)


# References the production code is checked against.


def checker_contains(ch: gc.Checker, x) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (ch.d,):
        raise ValueError(f"point has shape {x.shape}, expected ({ch.d},)")
    if ch.a == 0:
        return True
    return bool(np.linalg.norm(x @ ch.basis - ch.p) <= ch.r)


def two_step_rule(test: gc.ComponentTest, xs):
    """(labels, accept) by the rule isolate_component and accept_batch each
    wrote out before ComponentTest.labels: on the rows inside the checker,
    the margin argmin first, then the margin bound; -1 labels every other
    row."""
    inside = gc.checker_contains_batch(test.checker, xs)
    labels = np.full(len(xs), -1)
    accept = inside.copy()
    if inside.any():
        at = np.flatnonzero(inside)
        margins = margin_matrix(xs[inside] @ test.comp, test.means)
        closest = np.argmin(margins, axis=1)
        ok = margins[np.arange(len(at)), closest] <= test.margin
        labels[at] = np.where(ok, closest, -1)
        accept[at] = (closest == test.target) & (margins[:, test.target] <= test.margin)
    return labels, accept


@dataclass(frozen=True)
class TruncatedWeights:
    relevant: tuple  # indices whose projected mean lies within r + theta
    weights: np.ndarray  # renormalized weights over `relevant`
    accept_probs: np.ndarray  # per-component probability of passing the checker


def _checker_accept_prob(a: int, r: float, dist_sq: float) -> float:
    """Probability that a unit-covariance Gaussian whose projected mean sits
    at squared distance ``dist_sq`` from the center passes an a-dimensional
    radius-r checker (a noncentral chi-square tail)."""
    if a == 0 or math.isinf(r):
        return 1.0
    if dist_sq <= 0:
        return float(chi2.cdf(r * r, df=a))
    return float(ncx2.cdf(r * r, df=a, nc=dist_sq))


def truncated_weights_oracle(spec: MixtureSpec, ch: gc.Checker, theta: float) -> TruncatedWeights:
    """Ground-truth relevant set and renormalized weights of the truncated
    reduction (testing path only)."""
    means = np.asarray(spec.means, dtype=float)
    if means.shape[1] != ch.d:
        raise ValueError("spec dimension does not match the checker")
    w = np.asarray(spec.weights, dtype=float)
    if ch.a == 0:
        dists = np.zeros(len(means))
    else:
        dists = np.linalg.norm(means @ ch.basis - ch.p, axis=1)
    probs = np.array([_checker_accept_prob(ch.a, ch.r, di * di) for di in dists])
    relevant = tuple(int(i) for i in np.flatnonzero(dists <= ch.r + theta))
    if relevant:
        raw = w[list(relevant)] * probs[list(relevant)]
        weights = raw / raw.sum()
    else:
        weights = np.zeros(0)
    return TruncatedWeights(relevant, weights, probs)


def _checker_1d(d, axis, center, r):
    basis = np.zeros((d, 1))
    basis[axis, 0] = 1.0
    return gc.Checker(basis, np.array([center]), r)


class _ArraySampler:
    """Cycles deterministically through a fixed sample array."""

    def __init__(self, xs):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self.d = self.xs.shape[1]
        self._pos = 0

    def draw(self, n):
        idx = (self._pos + np.arange(n)) % len(self.xs)
        self._pos = (self._pos + n) % len(self.xs)
        return self.xs[idx]


class _NormalSampler:
    """Standard-normal rows; counts the rows drawn."""

    def __init__(self, d, seed):
        self.d = d
        self.rows = 0
        self._rng = np.random.default_rng(seed)

    def draw(self, n):
        self.rows += n
        return self._rng.standard_normal((n, self.d))


class _BrokenSampler:
    d = 2

    def draw(self, n):
        raise RuntimeError("inner stream failed")


class TestChecker:
    def test_trivial_contains_everything(self, rng):
        ch = gc.trivial_checker(4)
        assert checker_contains(ch, rng.standard_normal(4) * 100)
        assert gc.checker_contains_batch(ch, rng.standard_normal((10, 4))).all()

    def test_contains_is_projected_distance(self):
        ch = _checker_1d(3, 0, 1.0, 0.5)
        assert checker_contains(ch, np.array([1.2, 99.0, -99.0]))
        assert not checker_contains(ch, np.array([2.0, 0.0, 0.0]))

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            gc.Checker(np.array([[1.0], [1.0]]), np.zeros(1), 1.0)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            _checker_1d(2, 0, 0.0, 0.0)

    def test_with_radius(self):
        ch = _checker_1d(2, 0, 0.0, 1.0).with_radius(5.0)
        assert ch.r == 5.0

    @given(seed=hst.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_single(self, seed):
        r = np.random.default_rng(seed)
        q, _ = np.linalg.qr(r.standard_normal((4, 2)))
        ch = gc.Checker(q, r.standard_normal(2), float(abs(r.standard_normal()) + 0.1))
        xs = r.standard_normal((16, 4)) * 3
        batch = gc.checker_contains_batch(ch, xs)
        assert all(batch[i] == checker_contains(ch, xs[i]) for i in range(16))

    def test_complement_basis_orthogonality(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        ch = gc.Checker(q, np.zeros(2), 1.0)
        comp = gc.complement_basis(ch)
        assert comp.shape == (5, 3)
        assert np.max(np.abs(comp.T @ comp - np.eye(3))) < 1e-10
        assert np.max(np.abs(ch.basis.T @ comp)) < 1e-10

    def test_complement_of_trivial_is_identity(self):
        assert np.array_equal(gc.complement_basis(gc.trivial_checker(3)), np.eye(3))

    @given(seed=hst.integers(0, 2**32 - 1), d=hst.integers(1, 12), data=hst.data())
    @settings(max_examples=200, deadline=None)
    def test_complement_matches_scipy_null_space(self, seed, d, data):
        # the reduced streams emit coordinates in this basis, so it must equal
        # scipy's null_space, sign-fixed the same way, bit for bit
        a = data.draw(hst.integers(1, d))
        r = np.random.default_rng(seed)
        q, _ = np.linalg.qr(r.standard_normal((d, a)))
        ch = gc.Checker(q, np.zeros(a), 1.0)
        want = null_space(ch.basis.T)
        for j in range(want.shape[1]):
            lead = np.argmax(np.abs(want[:, j]))
            if want[lead, j] < 0:
                want[:, j] = -want[:, j]
        assert np.array_equal(gc.complement_basis(ch), want)


class TestReduction:
    def test_rejection_and_projection(self):
        xs = np.array([[0.0, 1.0], [0.0, -2.0], [10.0, 3.0], [0.1, 4.0]])
        ch = _checker_1d(2, 0, 0.0, 1.0)
        red = gc.reduce_by_checker(_ArraySampler(xs), ch)
        got = red.draw(3)
        # survivors are rows with |x_0| <= 1, projected onto the x_1 axis
        assert sorted(got.ravel().tolist()) == [-2.0, 1.0, 4.0]

    def test_starvation_raises(self):
        xs = np.full((8, 2), 100.0)
        ch = _checker_1d(2, 0, 0.0, 1.0)
        red = gc.reduce_by_checker(_ArraySampler(xs), ch)
        with mock.patch.object(gc, "MAX_DRAW_FACTOR", 2), pytest.raises(gc.StarvationError):
            red.draw(4)

    def test_trivial_checker_leaves_stream(self):
        inner = _ArraySampler(np.zeros((4, 3)))
        assert gc.reduce_by_checker(inner, gc.trivial_checker(3)) is inner

    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 700),
        rate=hst.sampled_from([0.0, 0.001, 0.02, 0.3, 1.0]),
        factor=hst.integers(1, 8),
    )
    @settings(max_examples=120, deadline=None)
    def test_returns_kept_rows_or_starves_within_budget(self, seed, n, rate, factor):
        inner = _NormalSampler(2, seed)
        cut = norm.ppf(rate)

        def keep(x):
            return x[:, 0] <= cut

        sampler = gc.ReducedSampler(inner, keep)
        try:
            with mock.patch.object(gc, "MAX_DRAW_FACTOR", factor):
                out = sampler.draw(n)
        except gc.StarvationError:
            # the block that crosses the budget is the last one drawn
            assert inner.rows <= factor * max(n, 64) + gc.REJECTION_BLOCK
            return
        assert out.shape == (n, 2) and keep(out).all()

    @given(
        seed=hst.integers(0, 2**32 - 1),
        sizes=hst.lists(hst.one_of(hst.sampled_from([1, 2]), hst.integers(1, 700)), min_size=1, max_size=12),
        rate=hst.sampled_from([0.02, 0.3, 1.0]),
        nested=hst.booleans(),
        wide=hst.booleans(),
    )
    @example(seed=3, sizes=[1, 120] * 48, rate=0.3, nested=False, wide=False)
    @example(seed=3, sizes=[1, 120] * 48, rate=0.3, nested=True, wide=False)
    # one read of 32 and one of 31 full blocks through a C-ordered (16, 4)
    # basis, whose single gemm rounds rows differently from per-block gemms
    @example(seed=5, sizes=[16_000, 15_872], rate=1.0, nested=False, wide=True)
    @example(seed=5, sizes=[1, 16_000], rate=0.3, nested=True, wide=True)
    # blocks that keep one row, whose product BLAS computes on another path
    @example(seed=5, sizes=[3_000], rate=0.005, nested=False, wide=True)
    @settings(max_examples=120, deadline=None)
    def test_output_is_the_kept_rows_whatever_the_request_sizes(self, seed, sizes, rate, nested, wide):
        cut = norm.ppf(rate)
        d, a = (16, 4) if wide else (3, 2)
        # the basis spans axes 1 to d - 1, so the outer filter is independent
        # of the inner one and never starves
        basis = np.zeros((d, a))
        basis[1:], _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d - 1, a)))

        def keep_inner(x):
            return x[:, 0] <= cut

        def keep_outer(y):
            return y[:, 1] >= -1.0

        def reduced(root):
            sampler = gc.ReducedSampler(root, keep_inner, basis)
            return gc.ReducedSampler(sampler, keep_outer) if nested else sampler

        inner = _NormalSampler(d, seed)
        sampler = reduced(inner)
        out = np.concatenate([sampler.draw(n) for n in sizes])
        # the root is read in whole blocks, and each block's kept rows are
        # projected together
        ref = _NormalSampler(d, seed).draw(inner.rows)
        blocks = np.split(ref, range(gc.REJECTION_BLOCK, len(ref), gc.REJECTION_BLOCK))
        want = np.concatenate([block[keep_inner(block)] @ basis for block in blocks])
        if nested:
            want = want[keep_outer(want)]
        assert len(out) == sum(sizes) <= len(want)
        assert np.array_equal(out, want[: len(out)])
        # one request for the total takes the same root rows
        root = _NormalSampler(d, seed)
        reduced(root).draw(sum(sizes))
        assert root.rows == inner.rows

    def test_inner_starvation_keeps_the_outer_requests_rows(self):
        # root row i holds i; the inner sampler keeps rows below 600 and from
        # 2,048 on, so it starves after 1,536 root rows (600 kept, limit
        # 1,200), by which time the outer request has kept the 256 even rows
        # of its first read
        root = _ArraySampler(np.arange(4_096.0)[:, None])

        def keep_inner(x):
            return (x[:, 0] < 600) | (x[:, 0] >= 2_048)

        def keep_outer(y):
            return y[:, 0] % 2 == 0

        sampler = gc.ReducedSampler(gc.ReducedSampler(root, keep_inner), keep_outer)
        with mock.patch.object(gc, "MAX_DRAW_FACTOR", 2):
            with pytest.raises(gc.StarvationError):
                sampler.draw(512)
            # the held rows serve a later request
            out = sampler.draw(256)
            # and the starved inner stream refuses what they cannot serve
            with pytest.raises(gc.StarvationError):
                sampler.draw(1)
        assert np.array_equal(out, np.arange(0.0, 512.0, 2.0)[:, None])
        assert root._pos == 1_536

    @given(
        seed=hst.integers(0, 2**32 - 1),
        sizes=hst.lists(hst.integers(1, 120), min_size=1, max_size=10),
        cuts=hst.lists(hst.booleans(), min_size=10, max_size=10),
    )
    # a budget per request, of MAX_DRAW_FACTOR * max(n, 64) rows, starves a
    # 60-row request about one time in three and the merged 600 rows less
    @example(seed=0, sizes=[60] * 10, cuts=[False] * 10)
    @settings(max_examples=60, deadline=None)
    def test_where_a_nested_stream_starves_is_independent_of_the_split(self, seed, sizes, cuts):
        # the inner filter keeps about 1 row in 1,000, at the limit of
        # acceptance 1/MAX_DRAW_FACTOR, so streams starve on some seeds
        cut = norm.ppf(0.001)

        def run(requests):
            root = _NormalSampler(2, seed)
            sampler = gc.ReducedSampler(gc.ReducedSampler(root, lambda x: x[:, 0] <= cut), lambda y: y[:, 1] >= -1.0)
            out = []
            with mock.patch.object(gc, "MAX_DRAW_FACTOR", 1_000):
                for i, n in enumerate(requests):
                    try:
                        out.append(sampler.draw(n))
                    except gc.StarvationError:
                        return out, i, root.rows
            return out, None, root.rows

        # each request alone, and runs of consecutive requests merged into one
        groups = [[sizes[0]]]
        for n, cut_here in zip(sizes[1:], cuts):
            if cut_here:
                groups.append([n])
            else:
                groups[-1].append(n)
        fine, fine_failed, fine_rows = run(sizes)
        coarse, coarse_failed, coarse_rows = run([sum(g) for g in groups])
        # the same root rows are taken before the first starvation or by the end
        assert coarse_rows == fine_rows
        group_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        assert coarse_failed == (None if fine_failed is None else group_of[fine_failed])
        # and the rows returned are those of the requests in the served groups
        served = sum(len(g) for g in groups[: len(coarse)])
        want = np.concatenate([np.zeros((0, 2))] + fine[:served])
        assert np.array_equal(np.concatenate([np.zeros((0, 2))] + coarse), want)

    def test_reads_every_block_it_needs_in_one_inner_draw(self):
        inner = RowCounter(_NormalSampler(2, 0))
        out = gc.ReducedSampler(inner, None).draw(5_000)
        assert len(out) == 5_000 and inner.requests == [10 * gc.REJECTION_BLOCK]

    def test_oracle_weights_trivial_checker(self):
        spec = _spec([0.3, 0.7], [[0.0, 0.0], [5.0, 0.0]])
        tw = truncated_weights_oracle(spec, gc.trivial_checker(2), theta=1.0)
        assert tw.relevant == (0, 1)
        assert np.allclose(tw.weights, [0.3, 0.7])
        assert np.allclose(tw.accept_probs, 1.0)

    def test_oracle_matches_monte_carlo(self):
        spec = _spec([0.5, 0.5], [[0.0, 0.0], [2.0, 0.0]])
        ch = _checker_1d(2, 0, 0.0, 1.5)
        tw = truncated_weights_oracle(spec, ch, theta=5.0)
        n = 200_000
        mix = MixtureSampler(spec, seed=4)
        xs, labels = mix.draw_labeled(n)
        inside = gc.checker_contains_batch(ch, xs)
        for i in tw.relevant:
            rate = inside[labels == i].mean()
            count = (labels == i).sum()
            se = math.sqrt(rate * (1 - rate) / count)
            assert abs(rate - tw.accept_probs[i]) <= 4 * se + 1e-4

    def test_centered_acceptance_is_chi2(self):
        ch = _checker_1d(3, 0, 0.0, 1.0)
        spec = _spec([1.0], [[0.0, 0.0, 0.0]])
        tw = truncated_weights_oracle(spec, ch, theta=1.0)
        assert tw.accept_probs[0] == pytest.approx(chi2.cdf(1.0, df=1))


def _count_chain_builds(monkeypatch) -> list:
    calls = []
    build = gc.iterative_projection

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(gc, "iterative_projection", counting)
    return calls


class TestDifferenceChain:
    # one Gaussian has no split, so the separation test walks every gamma
    spec = _spec([1.0], [[0.0, 0.0]])
    scales = gc.group_scales(2, 0.5, 1.0, 4.0)

    @pytest.fixture(autouse=True)
    def _small_searches(self, monkeypatch):
        for name, value in [
            ("N_PER_STAGE", 2_000), ("GRID_STEPS", 2), ("SIGNAL_TRIALS", 1)
        ]:
            monkeypatch.setattr(gc, name, value)

    def test_scopes_of_one_checker_share_one_chain(self, monkeypatch):
        calls = _count_chain_builds(monkeypatch)
        radii = []
        reduce = gc.reduce_by_checker

        def recording(sampler, ch):
            radii.append(ch.r)
            return reduce(sampler, ch)

        monkeypatch.setattr(gc, "reduce_by_checker", recording)
        stream = MixtureSampler(self.spec, seed=3)
        ch = _checker_1d(2, 0, 0.0, 1.0)
        chain = gc._checker_chain(stream, ch, self.scales, seed=0)
        # the separation test scopes to 31 and 32 theta, refinement to
        # beta + gamma theta at both gammas (seed 2 walks gamma 2 first) and
        # isolation to 19 theta
        assert gc.test_max_separation(stream, ch, self.scales, chain=chain) is True
        with pytest.raises(gc.RefineFailedError, match="^refinement exhausted gamma attempts: no verified signal"):
            gc.refine_checker(stream, ch, self.scales, chain=chain, seed=2)
        test = gc.isolate_component(stream, ch, self.scales, chain=chain)
        assert np.linalg.norm(test.approx_mean) < 0.5
        assert len(calls) == 1
        # the chain's source scope is the widest a search at the checker uses
        theta = self.scales.theta
        assert radii[0] == self.scales.source_radius == max(radii)
        beta = self.scales.beta
        assert radii[1:] == [31 * theta, 32 * theta, beta + 2 * theta, beta + theta, 19 * theta]

    def test_chain_draws_its_gaussian_base_directly(self, monkeypatch):
        rows = []

        class CountingBase(BaseSampler):
            def draw(self, n):
                rows.append(n)
                return super().draw(n)

        monkeypatch.setattr(gc, "BaseSampler", CountingBase)
        monkeypatch.setattr(gc, "N_PER_STAGE", 500)
        gc._checker_chain(MixtureSampler(self.spec, seed=3), gc.trivial_checker(2), self.scales, seed=0)
        # a stage at degree 2s draws 4s - 1 base rows per mixture row
        assert sum(rows) == 500 * sum(4 * s - 1 for s in range(2, st.PAIR_DEGREE + 1))

    def test_chain_draws_two_scope_rows_per_stage_sample(self, monkeypatch):
        # a pair-test chain estimates one stage, of at most N_PER_STAGE
        # difference rows, and each difference reads two rows of the scope
        # stream
        drawn = []
        estimate = mp.estimate_moment_matrix

        def recording(mix_sampler, base_sampler, s, chain, n):
            drawn.append(n)
            return estimate(mix_sampler, base_sampler, s, chain, n)

        monkeypatch.setattr(mp, "estimate_moment_matrix", recording)
        scope = RowCounter(MixtureSampler(self.spec, seed=3))
        gc._checker_chain(scope, gc.trivial_checker(2), self.scales, seed=0)
        assert scope.rows == 2 * sum(drawn) <= 2 * gc.N_PER_STAGE


class TestRecursiveDeterminism:
    # the hierarchical pair forces a refined checker, whose scopes share one
    # chain
    spec = build_spec(GenConfig(k=3, d=4, separation=10.0, profile="hierarchical", ratios=(10.0, 1000.0), seed=0))
    params = gc.desk_params(3, 1 / 3, sep_hint=10.0)

    @pytest.fixture(autouse=True)
    def _small_chains(self, monkeypatch):
        monkeypatch.setattr(gc, "N_PER_STAGE", 3_000)

    def _run(self, seed):
        stream = MixtureSampler(self.spec, seed=seed)
        return gc.recursive_cluster(stream, 3, 1 / 3, 1.0, 2.0, params=self.params, seed=seed)

    def test_same_seed_same_result_after_other_calls(self):
        first = self._run(3)
        assert any(e["action"] == "refine" for e in first.metadata["trail"])
        again = [self._run(3)]
        poincare = _spec([1.0], [[2.0, -1.0]])
        learn_means(MixtureSampler(poincare, seed=3), BaseSampler("gaussian", 2, 3, 7), 1, 1.0, 12.0, 2.0, 0.5)
        again.append(self._run(3))
        self._run(4)
        again.append(self._run(3))
        for run in again:
            assert np.array_equal(run.means, first.means)
            assert np.array_equal(run.weights, first.weights)
            assert run.metadata["trail"] == first.metadata["trail"]

    def test_same_result_under_a_tiny_working_set(self, monkeypatch):
        # every pairwise scan of this module then runs one row at a time; the
        # estimators chunk their sums by the same constant, and a sum's
        # rounding depends on its chunks, so only this module sees the change
        first = self._run(3)
        monkeypatch.setattr(gc, "nested_projection", SimpleNamespace(WORKING_SET=1))
        again = self._run(3)
        assert any(e["action"] == "refine" for e in again.metadata["trail"])
        assert np.array_equal(again.means, first.means)
        assert np.array_equal(again.weights, first.weights)
        assert again.metadata["trail"] == first.metadata["trail"]

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_one_chain_build_per_checker(self, monkeypatch, seed):
        calls = _count_chain_builds(monkeypatch)
        learned = self._run(seed)
        assert learned.metadata["warnings"] == []
        trail = learned.metadata["trail"]
        actions = [e["action"] for e in trail]
        # each level's trivial checker and each refined checker; the
        # remainder is the rows no predicate accepts and builds none
        assert len(calls) == actions.count("isolate") + actions.count("refine")
        levels = [e["level"] for e in trail if e["action"] not in ("split", "project")]
        assert levels == sorted(levels) and levels[0] == 0

    @staticmethod
    def _fail_on_call(monkeypatch, name, call, outcome):
        """Replaces gc's ``name`` by a wrapper whose ``call``-th call returns
        ``outcome(*args)`` instead of calling through."""
        real = getattr(gc, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(1)
            return outcome(*args) if len(calls) == call else real(*args, **kwargs)

        monkeypatch.setattr(gc, name, wrapper)

    def test_failed_isolation_ends_the_levels(self, monkeypatch):
        def fail(*args):
            raise gc.IsolateFailedError("no cluster qualified")

        self._fail_on_call(monkeypatch, "isolate_component", 2, fail)
        calls = _count_chain_builds(monkeypatch)
        learned = self._run(3)
        assert learned.metadata["warnings"] == ["level 1: no cluster qualified"]
        assert len(learned.means) == 2
        actions = [e["action"] for e in learned.metadata["trail"]]
        # the failed level's trivial checker builds one chain too
        assert len(calls) == actions.count("isolate") + actions.count("refine") + 1

    def test_few_rows_outside_every_predicate_emit_no_remainder(self, monkeypatch):
        # the last level's predicate accepts every row: one candidate leaves
        # every margin zero
        def accept_all(mix, *args):
            return gc.ComponentTest(gc.trivial_checker(mix.d), np.eye(mix.d), np.zeros((1, mix.d)), 0, 1.0)

        self._fail_on_call(monkeypatch, "isolate_component", 2, accept_all)
        learned = self._run(3)
        assert learned.metadata["warnings"] == [
            "remainder: 0 rows outside every predicate; no remainder component emitted"
        ]
        assert len(learned.means) == 2

    def test_candidate_mean_nearest_to_no_row_is_dropped(self, monkeypatch):
        # the last level's predicate accepts no row, so its provisional mean
        # is its candidate, 1e6 out along the first axis
        def accept_none(mix, *args):
            ch = _checker_1d(mix.d, 0, 1e6, 1.0)
            return gc.ComponentTest(ch, gc.complement_basis(ch), np.zeros((1, mix.d - 1)), 0, 1.0)

        self._fail_on_call(monkeypatch, "isolate_component", 2, accept_none)
        learned = self._run(3)
        assert learned.metadata["warnings"] == [
            "component 1: predicate matched too few samples; using its candidate",
            "component 1: only 0 assigned samples; dropped",
        ]
        assert len(learned.means) == 2


class TestOneComponentGroups:
    # two means 1e11 apart: the gap split gives two groups of k_g = 1, which
    # run the final pass with no predicates
    spec = build_spec(GenConfig(k=2, d=4, profile="hierarchical", ratios=(1e11,), seed=0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_mean_is_its_batch_mean(self, monkeypatch, seed):
        passes = []
        real = gc._final_estimates

        def spy(sampler, tests, warnings):
            draws = []

            def draw(n, inner=sampler.draw):
                draws.append(inner(n))
                return draws[-1]

            sampler.draw = draw
            means, weights = real(sampler, tests, warnings)
            passes.append((tests, draws, means, weights))
            return means, weights

        monkeypatch.setattr(gc, "_final_estimates", spy)
        learned = gc.recursive_cluster(MixtureSampler(self.spec, seed=seed), 2, 0.5, 1.0, 2.0,
                                       params=gc.desk_params(2, 0.5), seed=seed)
        assert learned.metadata["groups"] == 2 and learned.metadata["warnings"] == []
        assert len(passes) == 2
        for tests, draws, means, weights in passes:
            assert tests == [] and len(draws) == 1 and len(draws[0]) == gc.MEAN_SAMPLES
            assert np.array_equal(means, draws[0].mean(axis=0, keepdims=True))
            assert np.array_equal(weights, [1.0])
        _, errors = match_means(learned.means, self.spec.means)
        assert np.all(errors <= 0.3)


class TestMultiGroupRecursion:
    # two pairs of means 10 apart, the pairs 1e11 apart: the gap split gives
    # two groups, each clustered at its own k_g = 2 under the mixture's params
    spec = build_spec(GenConfig(k=4, d=4, separation=10, profile="hierarchical", ratios=(10.0, 1e11), seed=0))
    params = gc.desk_params(4, 0.25, sep_hint=10.0)

    def _run(self, seed):
        stream = MixtureSampler(self.spec, seed=seed)
        return gc.recursive_cluster(stream, 4, 0.25, 1.0, 2.0, params=self.params, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_group_recovers_its_means(self, seed):
        learned = self._run(seed)
        assert learned.metadata["groups"] == 2
        assert learned.metadata["warnings"] == []
        _, errors = match_means(learned.means, self.spec.means)
        assert len(learned.means) == 4 and np.all(errors <= 0.3)
        again = self._run(seed)
        assert np.array_equal(again.means, learned.means)
        assert np.array_equal(again.weights, learned.weights)
        assert again.metadata["trail"] == learned.metadata["trail"]


def test_wide_spread_keeps_the_inner_directions():
    # C9's spec with its pairs 1e9 apart: below the gap split's threshold, so
    # one group, whose covariance basis must hold the inner directions under
    # an outer one about 1e18 larger in the second moment
    spec = build_spec(GenConfig(k=4, d=16, profile="hierarchical", ratios=(10.0, 1e9), seed=0))
    learned = gc.recursive_cluster(MixtureSampler(spec, seed=0), 4, 0.25, 1.0, 2.0,
                                   params=gc.desk_params(4, 0.25, sep_hint=10.0), seed=0)
    assert learned.metadata["groups"] == 1
    _, errors = match_means(learned.means, spec.means)
    assert len(learned.means) == 4 and np.all(errors <= 0.3)


class TestOnePairTestPerGroup:
    # C9's spec at inner separation 7: one group, whose vote and signal
    # searches all test at its one config (0.2 s)^2, whatever the grid guess
    spec = build_spec(GenConfig(k=4, d=16, profile="hierarchical", ratios=(7.0, 1000.0), seed=0))
    params = gc.desk_params(4, 0.25, sep_hint=7.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_pair_test_reads_the_group_config(self, monkeypatch, seed):
        configs = []
        for name in ("probe_candidates", "probe_batch_vote"):
            def spy(*args, real=getattr(gc, name), **kwargs):
                configs.append(args[3])  # both take the config fourth
                return real(*args, **kwargs)

            monkeypatch.setattr(gc, name, spy)
        learned = gc.recursive_cluster(MixtureSampler(self.spec, seed=seed), 4, 0.25, 1.0, 2.0,
                                       params=self.params, seed=seed)
        assert learned.metadata["groups"] == 1
        assert len(configs) > 2
        assert set(configs) == {st.TestConfig(st.PAIR_DEGREE, (0.2 * 7.0) ** st.PAIR_DEGREE)}


class TestOneSpacingPerGroup:
    # C9's spec: one group of k_g = 4 at w_min = 0.25, so ln = ln 16
    spec = build_spec(GenConfig(k=4, d=16, profile="hierarchical", ratios=(10.0, 1000.0), seed=0))

    @pytest.mark.parametrize("hint", [10.0, None])
    def test_vote_radius_and_refinement_floor_come_from_the_spacing(self, monkeypatch, hint):
        ln = math.log(16.0)
        s = hint if hint is not None else ln**1.5
        scales = gc.group_scales(4, 0.25, 1.0, hint)
        assert scales.s == s
        assert scales.refine_delta == max(0.04 * ln**4, 2.0 * s)
        alphas = []

        def spy(*args, real=gc.probe_batch_vote, **kwargs):
            alphas.append(args[6])  # the dedup radius, seventh
            return real(*args, **kwargs)

        monkeypatch.setattr(gc, "probe_batch_vote", spy)
        gc.recursive_cluster(MixtureSampler(self.spec, seed=0), 4, 0.25, 1.0, 2.0,
                             params=gc.ClusterParams(sep_hint=hint), seed=0)
        assert alphas and set(alphas) == {0.5 * s}


class TestSignalDirection:
    def test_two_clusters_is_signal(self, rng):
        xs = np.concatenate([rng.standard_normal(300) - 10, rng.standard_normal(300) + 10])
        samples = np.column_stack([xs, rng.standard_normal(600)])
        split = gc.split_rows(samples, np.array([1.0, 0.0]), 0.4, 5.0)
        assert split is not None and abs(split) < 5.0

    def test_single_cluster_is_not(self, rng):
        samples = rng.standard_normal((600, 2))
        assert gc.split_rows(samples, np.array([1.0, 0.0]), 0.4, 5.0) is None

    def test_draws_at_least_twenty_per_mass_level(self):
        assert gc._verification_rows(0.004) == 5_000
        assert gc._verification_rows(0.4) == gc.SIGNAL_SAMPLES

    def test_one_verification_pool_per_search(self, monkeypatch):
        monkeypatch.setattr(gc, "N_PER_STAGE", 2_000)
        spec = _spec([1.0], [[0.0, 0.0]])
        scales = gc.group_scales(2, 0.5, 1.0, 4.0)
        chain = gc._checker_chain(MixtureSampler(spec, seed=5), gc.trivial_checker(2), scales, seed=0)
        stream = RowCounter(MixtureSampler(spec, seed=3))
        pools = []
        real = gc.split_rows

        def spy(rows, *args):
            pools.append(rows)
            return real(rows, *args)

        monkeypatch.setattr(gc, "split_rows", spy)
        # one Gaussian has no split, so every trial reaches a failing verification
        p_level = 0.8 * scales.w_star
        assert gc.find_signal_direction(stream, scales, [3.2], p_level, chain=chain) is None
        assert len(pools) == gc.SIGNAL_TRIALS
        assert all(rows is pools[0] for rows in pools)
        search = gc.SIGNAL_TRIALS * (2 + 2 * gc.SIGNAL_BATCH)
        assert stream.rows == search + gc._verification_rows(p_level)


    def test_draw_schedule_of_one_trial_is_pinned(self, monkeypatch):
        # one trial: one request for two anchors and their batches, then one
        # base request for both anchors' pair tests, then the call's
        # verification pool
        monkeypatch.setattr(gc, "N_PER_STAGE", 2_000)
        monkeypatch.setattr(gc, "SIGNAL_TRIALS", 1)
        spec = _spec([1.0], [[0.0, 0.0]])
        scales = gc.group_scales(2, 0.5, 1.0, 4.0)
        chain, base = gc._checker_chain(MixtureSampler(spec, seed=5), gc.trivial_checker(2), scales, seed=0)
        log = []
        stream = RowCounter(MixtureSampler(spec, seed=3), "mix", log)
        base = RowCounter(base, "base", log)
        assert gc.find_signal_direction(stream, scales, [3.2], 0.8 * scales.w_star, chain=(chain, base)) is None
        m = gc.SIGNAL_BATCH
        assert log == [
            ("mix", 2 + 2 * m),
            ("base", 2 * st.DEFAULT_REPS * (2 * st.PAIR_DEGREE - 1)),
            ("mix", gc._verification_rows(0.8 * scales.w_star)),
        ]

    def test_separation_test_rejects_at_its_first_verified_scope(self, monkeypatch):
        # two Gaussians 20 apart across the checker's complement split at
        # gamma 1, so the test never scopes to gamma 2
        monkeypatch.setattr(gc, "N_PER_STAGE", 2_000)
        spec = _spec([0.5, 0.5], [[0.0, -10.0, 0.0], [0.0, 10.0, 0.0]])
        scales = gc.group_scales(2, 0.5, 1.0, 4.0)
        ch = _checker_1d(3, 0, 0.0, 1.0)
        chain = gc._checker_chain(MixtureSampler(spec, seed=5), ch, scales, seed=0)
        radii = []
        reduce = gc.reduce_by_checker

        def recording(sampler, ch):
            radii.append(ch.r)
            return reduce(sampler, ch)

        monkeypatch.setattr(gc, "reduce_by_checker", recording)
        assert gc.test_max_separation(MixtureSampler(spec, seed=3), ch, scales, chain=chain) is False
        assert radii == [scales.separation_radius(1)]


class TestBoundedMeansSplit:
    def test_no_split_below_threshold(self, rng):
        samples = rng.standard_normal((500, 3)) * 10
        groups = gc.reduce_bounded_means(samples, k=2, w_min=0.5)
        assert len(groups) == 1
        assert np.array_equal(groups[0].offset, samples.mean(axis=0))

    def test_huge_gap_splits_cleanly(self, rng):
        lo = rng.standard_normal((300, 2))
        hi = rng.standard_normal((300, 2)) + np.array([1e9, 0.0])
        samples = np.vstack([lo, hi])
        groups = gc.reduce_bounded_means(samples, k=2, w_min=0.5)
        assert len(groups) == 2
        for g in groups:
            labels = set((g.indices >= 300).tolist())
            assert len(labels) == 1  # never separates a true component

    def test_groups_partition_the_indices(self, rng):
        samples = np.vstack(
            [rng.standard_normal((100, 2)), rng.standard_normal((100, 2)) + 5e8]
        )
        groups = gc.reduce_bounded_means(samples, k=2, w_min=0.5)
        all_idx = np.sort(np.concatenate([g.indices for g in groups]))
        assert np.array_equal(all_idx, np.arange(200))


def _far_pair_scan(pts, threshold):
    """The all-pairs scan in one block, without the bounding-box shortcut."""
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    hit = np.argwhere(dists >= threshold)
    return (int(hit[0][0]), int(hit[0][1])) if len(hit) else None


class TestFarPairShortcut:
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 40),
        d=hst.integers(1, 5),
        scale=hst.sampled_from([1e-3, 1.0, 1e3, 1e9]),
        anchor=hst.sampled_from(["diameter", "diagonal"]),
        factor=hst.sampled_from([0.5, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 2.0]),
        working_set=hst.sampled_from([1, 50, npj.WORKING_SET]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_scan(self, seed, n, d, scale, anchor, factor, working_set):
        r = np.random.default_rng(seed)
        pts = r.standard_normal((n, d)) * scale
        if anchor == "diameter":
            ref = np.max(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))
        else:
            ref = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        threshold = ref * factor if ref > 0 else factor
        with mock.patch.object(npj, "WORKING_SET", working_set):
            assert gc._far_pair(pts, threshold) == _far_pair_scan(pts, threshold)


class TestNeighbourFractions:
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 60),
        d=hst.integers(1, 3),
        scale=hst.sampled_from([1e-3, 1.0, 1e3, 1e6]),
        ties=hst.booleans(),
        radius=hst.sampled_from(["gap", "scaled"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_distance_scan(self, seed, n, d, scale, ties, radius):
        r = np.random.default_rng(seed)
        pts = r.standard_normal((n, d)) * scale
        if ties:
            pts = pts[r.integers(max(1, n // 4), size=n)]
        if radius == "gap":
            # a computed pairwise distance: searchsorted on x +- theta alone
            # puts the far end off by one on about a quarter of such draws
            i, j = r.integers(n, size=2)
            theta = float(np.linalg.norm(pts[i] - pts[j]))
        else:
            theta = float(r.uniform(0.0, 3.0)) * scale
        want = np.concatenate([(dists <= theta).mean(axis=1) for _, dists in gc._distance_blocks(pts)])
        assert np.array_equal(gc._neighbour_fractions(pts, theta), want)


class TestDimensionReduction:
    def test_exact_covariance_preserves_mean_distances(self, rng):
        k, d = 3, 10
        means = rng.standard_normal((k, d)) * 5
        weights = np.full(k, 1 / k)
        cov_diff = sum(w * np.outer(m, m) for w, m in zip(weights, means))
        basis = gc.dimension_basis(cov_diff, k)
        proj = means @ basis.T
        before = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        after = np.linalg.norm(proj[:, None] - proj[None, :], axis=2)
        assert np.max(np.abs(before - after)) < 1e-6

    # k >= d asks for more directions than there are dimensions
    @pytest.mark.parametrize("d,k", [(6, 3), (6, 6), (4, 7), (1, 3)])
    def test_basis_rows_orthonormal(self, rng, d, k):
        cov = rng.standard_normal((d, d))
        basis = gc.dimension_basis(cov + cov.T, k)
        rows = min(k, d)
        assert basis.shape == (rows, d)
        assert np.max(np.abs(basis @ basis.T - np.eye(rows))) < 1e-10

    # 3,000 rows span six 512-row blocks, the last one short
    def test_row_basis_is_the_covariance_basis(self, rng):
        rows = rng.standard_normal((3_000, 6)) * [5.0, 1.0, 3.0, 1.0, 2.0, 1.0]
        basis = gc._row_basis(rows, 3)
        assert basis.shape == (3, 6)
        assert np.max(np.abs(basis - gc.dimension_basis(rows.T @ rows, 3))) < 1e-8

    def test_row_basis_keeps_inner_directions_at_wide_spread(self, rng):
        # two pairs of points 10 apart along one direction, the pairs 2e9
        # apart along another, both oblique to the axes: the inner variance
        # is 1e-16 of the outer one's, under a Gram matrix's rounding
        n = 4_000
        rows = rng.standard_normal((n, 4))
        rows[:, 0] += 1e9 * rng.choice([-1.0, 1.0], n)
        rows[:, 1] += 5.0 * rng.choice([-1.0, 1.0], n)
        rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        basis = gc._row_basis(rows @ rot.T, 2)
        assert abs(basis[0] @ rot[:, 0]) > 1 - 1e-12
        assert abs(basis[1] @ rot[:, 1]) > 0.9999


class TestParams:
    def test_desk_params_overrides(self):
        # the benchmark's and the gates' params are the CLI's
        for hint in (10.0, None):
            assert gc.desk_params(4, 0.25, sep_hint=hint) == gc.ClusterParams(sep_hint=hint)

    def test_fields_are_the_values_callers_vary(self):
        # a value every caller leaves at one setting belongs in a module
        # constant or a group's scales, and the hint has no default
        names = [f.name for f in dataclasses.fields(gc.ClusterParams)]
        assert names == ["sep_hint"]
        with pytest.raises(TypeError):
            gc.ClusterParams()


class TestClusterWithMeans:
    # a margin band of 0.1*s around two means s = 10 apart
    def test_margin_assignment(self):
        means = np.array([[0.0, 0.0], [10.0, 0.0]])
        idx, flags = assign_batch(np.array([[0.3, 0.0]]), means, 0.1 * 10.0)
        assert idx[0] == 0 and not flags[0]

    def test_midpoint_flagged(self):
        means = np.array([[0.0, 0.0], [10.0, 0.0]])
        _, flags = assign_batch(np.array([[5.0, 0.0]]), means, 0.1 * 10.0)
        assert flags[0]


class TestComponentLabels:
    # small integer coordinates make tied margins, coincident means and rows
    # exactly on the margin bound common
    @given(data=hst.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_step_rule(self, data):
        d = data.draw(hst.integers(1, 3))
        a = data.draw(hst.integers(0, min(1, d - 1)))
        r = data.draw(hst.integers(1, 4))
        n = data.draw(hst.integers(1, 12))

        def ints(size):
            return np.array(data.draw(hst.lists(hst.integers(-3, 3), min_size=size, max_size=size)), dtype=float)

        radius = data.draw(hst.sampled_from([0.5, 1.0, 2.0]))
        ch = gc.trivial_checker(d) if a == 0 else _checker_1d(d, 0, float(ints(1)[0]), radius)
        test = gc.ComponentTest(
            ch,
            gc.complement_basis(ch),
            ints(r * (d - a)).reshape(r, d - a),
            data.draw(hst.integers(0, r - 1)),
            data.draw(hst.sampled_from([0.0, 0.5, 1.0, 2.0])),
        )
        xs = ints(n * d).reshape(n, d)
        labels, accept = two_step_rule(test, xs)
        assert np.array_equal(test.labels(xs), labels)
        assert np.array_equal(test.accept_batch(xs), accept)

    def test_ties_outside_rows_and_the_margin_bound(self):
        # means 0 and 1 coincide, so every margin ties between them
        ch = _checker_1d(2, 0, 0.0, 1.0)
        test = gc.ComponentTest(ch, gc.complement_basis(ch), np.array([[0.0], [0.0], [4.0]]), 1, 1.0)
        xs = np.array([[0.0, 0.5], [5.0, 0.0], [0.0, 3.0], [0.0, 4.0], [0.0, 1.0]])
        assert test.labels(xs).tolist() == [0, -1, 2, 2, 0]
        assert test.accept_batch(xs).tolist() == [False] * 5
        assert two_step_rule(test, xs)[0].tolist() == [0, -1, 2, 2, 0]


class TestTypedFailures:
    @pytest.mark.parametrize(
        "k, w_min, hint",
        [(4, 0.25, math.nan), (4, 0.25, 0.0), (4, 0.25, -3.0), (4, 0.25, math.inf),
         (4, 0.0, 10.0), (4, -0.1, 10.0), (4, 1.5, 10.0), (0, 0.25, 10.0)],
    )
    def test_invalid_inputs_raise_before_any_draw(self, k, w_min, hint):
        spec = build_spec(GenConfig(k=4, d=16, profile="hierarchical", ratios=(10.0, 1000.0), seed=0))
        stream = RowCounter(MixtureSampler(spec, seed=0))
        with pytest.raises(ValueError):
            gc.recursive_cluster(stream, k, w_min, 1.0, 2.0, params=gc.ClusterParams(sep_hint=hint), seed=0)
        assert stream.rows == 0

    @pytest.mark.parametrize("checker", [gc.trivial_checker(2), _checker_1d(2, 0, 0.0, 1.0)])
    def test_separation_test_propagates_stream_errors(self, monkeypatch, checker):
        # only starvation and a missing signal count as "no split found"
        monkeypatch.setattr(gc, "GAMMA_COUNT", 1)
        scales = gc.group_scales(2, 0.5, 1.0, 4.0)
        chain = gc._checker_chain(_NormalSampler(2, 0), checker, scales, seed=0)
        with pytest.raises(RuntimeError, match="inner stream failed"):
            gc.test_max_separation(_BrokenSampler(), checker, scales, chain=chain)
