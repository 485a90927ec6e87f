import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import mixcluster.gaussian_cluster as gc
import mixcluster.nested_projection as npj
import mixcluster.sample_test as st
from conftest import RowCounter, random_nested_projection
from mixcluster.cli import match_means
from mixcluster.mixture_gen import BaseSampler, GenConfig, MixtureSampler, build_spec
from mixcluster.moment_pipeline import MAX_DEGREE, MixtureSpec, SizeLimitError
from mixcluster.poincare_cluster import (
    SUPPORT_FACTOR,
    DifferenceSampler,
    LearnedMixture,
    assign_batch,
    default_band,
    difference_noise,
    learn_means,
    majority_vote,
    probe_batch_vote,
    probe_candidates,
    vote_sizes,
    write_assignments_csv,
)


def _spec(weights, means, tag="gaussian"):
    return MixtureSpec(np.asarray(weights, float), np.asarray(means, float), tag)


# probe_batch_vote's earlier loop, the reference for its merged request:
# one probe row, then its batch, probe by probe
def _interleaved_probe_batch_vote(mix, test, probes, batch, alpha, w_min):
    d = mix.d
    points = np.empty((probes, d))
    batches = np.empty((probes, batch, d))
    for i in range(probes):
        points[i] = np.asarray(mix.draw(1), dtype=float)[0]
        batches[i] = np.asarray(mix.draw(batch), dtype=float)
    accept = st.pair_test_batch(points, batches.reshape(-1, d), test).reshape(probes, batch)
    candidates = np.full((probes, d), np.nan)
    for i in range(probes):
        if accept[i].any():
            candidates[i] = batches[i][accept[i]].mean(axis=0)
    return majority_vote(candidates, alpha, SUPPORT_FACTOR * w_min * probes)


class TestProbeBatchVote:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_draw_schedule_is_pinned(self, t):
        # the pair test's build makes the one base request, of
        # COEFF_BLOCKS * reps blocks; then one mixture request holds every
        # probe row and its batch, and the probes' pair tests draw nothing
        d, probes, batch, reps = 2, 5, 7, 3
        spec = _spec([0.5, 0.5], [[0.0, 0.0], [12.0, 0.0]])
        chain = random_nested_projection(d, [2] * t, np.random.default_rng(t))
        log = []
        mix = RowCounter(MixtureSampler(spec, seed=2), "mix", log)
        base = RowCounter(BaseSampler("gaussian", d, 2, 7), "base", log)
        cfg = st.TestConfig(t, tau=1.0, reps=reps)
        probe_batch_vote(mix, st.build_pair_test(chain, cfg, base), probes, batch, 2.0, 0.4)
        assert mix.requests == [probes * (batch + 1)]
        assert base.rows == st.COEFF_BLOCKS * reps * (2 * t - 1)
        assert log == [("base", st.COEFF_BLOCKS * reps * (2 * t - 1)), ("mix", probes * (batch + 1))]

    @pytest.mark.parametrize("t", [1, 2])
    def test_merged_request_learns_what_the_interleaved_loop_did(self, t):
        # on a rejection-sampled stream the one request returns the rows the
        # probe-by-probe requests did and leaves the root at the same row
        d, probes, batch = 3, 12, 40
        spec = _spec([0.5, 0.5], [[0.0, 0.0, 0.0], [6.0, 2.0, 0.0]])
        checker = gc.Checker(np.array([[0.0], [0.0], [1.0]]), np.array([0.0]), 1.0)
        chain = random_nested_projection(d - 1, [2] * t, np.random.default_rng(t))
        cfg = st.TestConfig(t, tau=1.0, reps=3)
        results = []
        for vote in (probe_batch_vote, _interleaved_probe_batch_vote):
            root = RowCounter(MixtureSampler(spec, seed=4))
            stream = gc.reduce_by_checker(root, checker)
            test = st.build_pair_test(chain, cfg, BaseSampler("gaussian", d - 1, 4, 7))
            means, support = vote(stream, test, probes, batch, 2.0, 1 / 6)
            results.append((means, support, root.rows))
        (means, support, rows), (ref_means, ref_support, ref_rows) = results
        assert len(means) > 0
        assert np.array_equal(means, ref_means)
        assert np.array_equal(support, ref_support)
        assert rows == ref_rows


    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("working_set", [1, 2**14])
    def test_passes_learn_what_one_request_did(self, monkeypatch, t, working_set):
        # a small working set splits the vote into passes of 1 probe, or of 8
        # (t = 1) and 6 (t = 2); each pass's mixture request is its own
        # probes' rows, and on a rejection-sampled stream the passes return
        # the rows of one request and leave the root at the same row; no
        # pass draws base rows
        d, probes, batch = 3, 12, 40
        spec = _spec([0.5, 0.5], [[0.0, 0.0, 0.0], [6.0, 2.0, 0.0]])
        checker = gc.Checker(np.array([[0.0], [0.0], [1.0]]), np.array([0.0]), 1.0)
        chain = random_nested_projection(d - 1, [2] * t, np.random.default_rng(t))
        cfg = st.TestConfig(t, tau=1.0, reps=3)
        monkeypatch.setattr(npj, "WORKING_SET", working_set)
        per_pass = st.probes_per_pass(batch, chain)
        assert per_pass == (1 if working_set == 1 else (8, 6)[t - 1])
        noise = RowCounter(BaseSampler("gaussian", d - 1, 4, 7))
        test = st.build_pair_test(chain, cfg, noise)
        root = RowCounter(MixtureSampler(spec, seed=4))
        mix = RowCounter(gc.reduce_by_checker(root, checker))
        means, support = probe_batch_vote(mix, test, probes, batch, 2.0, 1 / 6)
        assert mix.requests == [min(per_pass, probes - s) * (batch + 1) for s in range(0, probes, per_pass)]
        assert noise.requests == [st.COEFF_BLOCKS * cfg.reps * (2 * t - 1)]
        # the reference draws every probe's rows in one request
        ref_root = RowCounter(MixtureSampler(spec, seed=4))
        rows = gc.reduce_by_checker(ref_root, checker).draw(probes * (batch + 1)).reshape(probes, batch + 1, d - 1)
        candidates = probe_candidates(rows[:, 0], rows[:, 1:], test)
        ref_means, ref_support = majority_vote(candidates, 2.0, SUPPORT_FACTOR * (1 / 6) * probes)
        assert len(means) > 0
        assert np.array_equal(means, ref_means)
        assert np.array_equal(support, ref_support)
        assert root.rows == ref_root.rows


class TestDifferenceSampler:
    def test_point_mass_single_component_all_zero(self):
        spec = _spec([1.0], [[1.0, 2.0]], "point_mass")
        diff = DifferenceSampler(MixtureSampler(spec, seed=0))
        assert np.allclose(diff.draw(50), 0.0)

    def test_gaussian_difference_covariance_identity(self):
        spec = _spec([1.0], [[3.0, -1.0]], "gaussian")
        diff = DifferenceSampler(MixtureSampler(spec, seed=1))
        draws = diff.draw(60_000)
        cov = draws.T @ draws / len(draws)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05


class _Untagged:
    """Passes draws through to a stream and hides its ``dist_tag``."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d

    def draw(self, n):
        return self.inner.draw(n)


class TestDifferenceNoise:
    @pytest.mark.parametrize("tag", ["gaussian", "point_mass"])
    def test_own_difference_law_is_the_base_itself(self, tag):
        # the object passed in, not an inner stream, so a counting wrapper sees every draw
        base = BaseSampler(tag, 2, 0, 7)
        assert difference_noise(base) is base
        wrapped = RowCounter(base)
        assert difference_noise(wrapped) is wrapped

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RowCounter(BaseSampler("laplace", 2, 0, 7)),
            lambda: RowCounter(BaseSampler("uniform_cube", 2, 0, 7)),
            lambda: _Untagged(BaseSampler("gaussian", 2, 0, 7)),
        ],
        ids=["laplace", "uniform_cube", "untagged"],
    )
    def test_any_other_stream_takes_the_difference(self, make):
        base = make()
        noise = difference_noise(base)
        assert isinstance(noise, DifferenceSampler) and noise.inner is base

    def test_point_mass_run_learns_the_difference_paths_bits(self):
        # zeros are their own difference rows, so reading them directly changes no learned bit
        means = np.array([[0.0, 0.0, 0.0], [12.0, 0.0, 0.0], [0.0, 12.0, 0.0]])
        spec = _spec(np.full(3, 1 / 3), means, "point_mass")
        learned = []
        for wrap in (RowCounter, _Untagged):
            base = RowCounter(wrap(BaseSampler("point_mass", 3, 5, 7)))
            run = learn_means(MixtureSampler(spec, seed=5), base, 3, 0.25, 12.0, 2.0, 0.5, reps=2, n_per_stage=500)
            learned.append((run, base.rows))
        (direct, direct_rows), (difference, difference_rows) = learned
        assert difference_rows == 2 * direct_rows
        assert np.array_equal(direct.means, difference.means)
        assert np.array_equal(direct.weights, difference.weights)


# Reference for majority_vote in its loop form: one norm per candidate for
# its support, then the same sequential admission over the valid candidates
# in stable decreasing-support order, then each admitted candidate's mean
# over the valid candidates in its 0.2*alpha ball (the second pass
# probe_batch_vote once made after the vote), then the alpha floor over the
# means in admission order (the loop full_cluster_bounded once ran).
def _reference_majority_vote(candidates, alpha, support_threshold):
    valid = ~np.isnan(candidates[:, 0])
    support = np.zeros(len(candidates), dtype=int)
    for i in np.flatnonzero(valid):
        dists = np.linalg.norm(candidates[valid] - candidates[i], axis=1)
        support[i] = int(np.sum(dists <= 0.2 * alpha))
    accepted = []
    for i in sorted(np.flatnonzero(valid), key=lambda i: -support[i]):
        if support[i] < support_threshold:
            continue
        if any(np.linalg.norm(candidates[j] - candidates[i]) < alpha for j in accepted):
            continue
        accepted.append(i)
    points = candidates[valid]
    means = np.zeros((len(accepted), candidates.shape[1]))
    for row, i in enumerate(accepted):
        means[row] = points[np.linalg.norm(points - candidates[i], axis=1) <= 0.2 * alpha].mean(axis=0)
    kept = []
    for row in range(len(accepted)):
        if all(np.linalg.norm(means[row] - means[j]) >= alpha for j in kept):
            kept.append(row)
    return means[kept], support[accepted][kept]


class TestMajorityVote:
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 40),
        d=hst.integers(1, 4),
        clusters=hst.integers(1, 4),
        failed=hst.floats(0.0, 0.5),
        threshold=hst.floats(0.0, 12.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, seed, n, d, clusters, failed, threshold):
        rng = np.random.default_rng(seed)
        centers = 6.0 * rng.standard_normal((clusters, d))
        cands = centers[rng.integers(0, clusters, n)] + 0.3 * rng.standard_normal((n, d))
        cands[rng.random(n) < failed] = np.nan
        means, support = majority_vote(cands, 2.0, threshold)
        want_means, want_support = _reference_majority_vote(cands, 2.0, threshold)
        assert means.shape == (len(want_support), d)
        assert np.array_equal(means, want_means)
        np.testing.assert_array_equal(support, want_support)

    def test_supported_candidate_admitted(self):
        cands = np.vstack([np.zeros((10, 2)) + 0.01 * np.arange(10)[:, None], [[50.0, 0.0]]])
        means, support = majority_vote(cands, alpha=2.0, support_threshold=5.0)
        assert any(np.linalg.norm(a) < 1.0 for a in means)
        # the singleton far candidate lacks support
        assert all(np.linalg.norm(a - [50.0, 0.0]) > 1.0 for a in means)

    def test_stronger_candidate_admitted_before_a_weaker_one_in_its_ball(self):
        # the first candidate sits at the ball's edge with 4 in its ball; the
        # second, 0.3 further in, has all 5 and is admitted in its place
        cands = np.array([[-0.3, 0.0], [0.0, 0.0], [0.05, 0.0], [-0.05, 0.0], [0.15, 0.0]])
        means, support = majority_vote(cands, alpha=2.0, support_threshold=3.0)
        assert support.tolist() == [5]
        assert np.array_equal(means, cands.mean(axis=0, keepdims=True))

    def test_accepted_pairwise_separated(self):
        cands = np.vstack([np.zeros((8, 2)), np.full((8, 2), 10.0)])
        means, _ = majority_vote(cands, alpha=2.0, support_threshold=4.0)
        assert len(means) == 2
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                assert np.linalg.norm(means[i] - means[j]) >= 2.0

    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 40),
        d=hst.integers(1, 3),
        spread=hst.sampled_from([0.3, 1.0, 3.0]),
        failed=hst.floats(0.0, 0.5),
        alpha=hst.sampled_from([0.5, 2.0, 5.0]),
        threshold=hst.floats(0.0, 6.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_means_pairwise_at_least_alpha_apart(self, seed, n, d, spread, failed, alpha, threshold):
        # candidates scattered on the scale of alpha, so ball means often sit
        # closer than the candidates that were admitted
        rng = np.random.default_rng(seed)
        cands = spread * rng.standard_normal((n, d))
        cands[rng.random(n) < failed] = np.nan
        means, support = majority_vote(cands, alpha, threshold)
        assert len(means) == len(support)
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        assert np.all(dists[np.triu_indices(len(means), 1)] >= alpha)
        assert np.all(np.diff(support) <= 0)

    def test_ball_means_closer_than_alpha_keep_the_stronger(self):
        # 0 and 2 are alpha apart and both admitted, but each ball's other
        # candidate pulls its mean in: 0.15 and 1.85 are 1.7 apart
        cands = np.array([[0.0], [0.3], [2.0], [1.7]])
        means, support = majority_vote(cands, alpha=2.0, support_threshold=2.0)
        assert np.array_equal(means, [[0.15]])
        assert support.tolist() == [2]

    def test_nan_candidates_skipped(self):
        cands = np.vstack([np.full((3, 2), np.nan), np.zeros((6, 2))])
        means, support = majority_vote(cands, alpha=1.0, support_threshold=4.0)
        assert np.array_equal(means, np.zeros((1, 2)))
        assert support.tolist() == [6]

    @given(seed=hst.integers(0, 2**32 - 1), failed=hst.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_failed_probes_do_not_change_admitted_means(self, seed, failed):
        g = np.random.default_rng(seed)
        centers = g.standard_normal((3, 2)) * 5
        cands = centers[g.integers(0, 3, 24)] + 0.1 * g.standard_normal((24, 2))
        padded = np.insert(cands, g.integers(0, len(cands) + 1, failed), np.nan, axis=0)
        plain = majority_vote(cands, alpha=1.0, support_threshold=4.0)
        with_nan = majority_vote(padded, alpha=1.0, support_threshold=4.0)
        assert np.array_equal(plain[0], with_nan[0])
        assert np.array_equal(plain[1], with_nan[1])


# The row-by-row classifier that assign_batch replaced, kept as its reference.
def assign_sample(z, learned: LearnedMixture, band: float):
    """Index of the mean consistent with z along all inter-mean directions.

    Returns (index, ambiguous): ambiguous is set when zero or several means
    satisfy every margin; the minimax margin (lexicographic on ties) decides.
    """
    means = np.asarray(learned.means, dtype=float)
    r = len(means)
    if r == 0:
        raise ValueError("learned mixture has no means")
    z = np.asarray(z, dtype=float)
    dirs = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            v = means[j1] - means[j2]
            nv = np.linalg.norm(v)
            if nv > 0:
                dirs.append(v / nv)
    if not dirs:
        return 0, False
    dirs = np.array(dirs)
    margins = np.max(np.abs((means - z[None, :]) @ dirs.T), axis=1)
    qualifying = np.flatnonzero(margins <= band)
    if len(qualifying) == 1:
        return int(qualifying[0]), False
    return int(np.argmin(margins)), True


class TestAssignSample:
    def test_exact_mean_unflagged(self):
        means = np.array([[0.0, 0.0], [10.0, 0.0]])
        idx, flags = assign_batch(np.array([[10.0, 0.0]]), means, band=2.0)
        assert idx[0] == 1 and not flags[0]

    def test_symmetric_tie_flagged_to_first(self):
        means = np.array([[-5.0, 0.0], [5.0, 0.0]])
        idx, flags = assign_batch(np.zeros((1, 2)), means, band=1.0)
        assert idx[0] == 0 and flags[0]

    def test_batch_matches_single(self, rng):
        means = rng.standard_normal((3, 2)) * 6
        xs = rng.standard_normal((20, 2)) * 4
        idx, flags = assign_batch(xs, means, band=1.5)
        for i, x in enumerate(xs):
            j, f = assign_batch(x[None, :], means, band=1.5)
            assert idx[i] == j[0] and flags[i] == f[0]

    @given(
        seed=hst.integers(0, 2**32 - 1),
        r=hst.integers(1, 5),
        d=hst.integers(1, 4),
        n=hst.integers(1, 60),
        spread=hst.sampled_from([0.1, 1.0, 5.0]),
        band=hst.sampled_from([0.0, 0.5, 1.5, 4.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_row_by_row_reference(self, seed, r, d, n, spread, band):
        # distinct mean rows: with r > 1 coincident means the reference returns
        # (0, False) where the batch form flags the row ambiguous
        g = np.random.default_rng(seed)
        means = g.standard_normal((r, d)) * 4
        xs = means[g.integers(0, r, n)] + spread * g.standard_normal((n, d))
        idx, flags = assign_batch(xs, means, band)
        learned = LearnedMixture(means, np.full(r, 1.0 / r))
        for i, x in enumerate(xs):
            assert (idx[i], flags[i]) == assign_sample(x, learned, band)


class TestLearnMeans:
    def test_k1_returns_empirical_mean(self):
        spec = _spec([1.0], [[2.0, -1.0]], "gaussian")
        mix = MixtureSampler(spec, seed=3)
        base = BaseSampler("gaussian", 2, 3, 7)
        learned = learn_means(mix, base, 1, 1.0, 12.0, 2.0, 0.5, reps=8, n_per_stage=3_000)
        assert len(learned.means) == 1
        assert np.linalg.norm(np.asarray(learned.means)[0] - [2.0, -1.0]) < 0.5

    def test_point_mass_noise_free_recovery(self):
        means = np.array([[0.0, 0.0, 0.0], [12.0, 0.0, 0.0], [0.0, 12.0, 0.0]])
        spec = _spec(np.full(3, 1 / 3), means, "point_mass")
        mix = MixtureSampler(spec, seed=5)
        base = BaseSampler("point_mass", 3, 5, 7)
        learned = learn_means(mix, base, 3, 0.25, 12.0, 2.0, 0.5, reps=2, n_per_stage=500)
        _, errors = match_means(learned.means, means)
        assert len(learned.means) == 3
        assert np.max(errors) < 1e-9

    def test_below_regime_flagged_not_fatal(self):
        spec = _spec([1.0], [[0.0, 0.0]], "gaussian")
        mix = MixtureSampler(spec, seed=0)
        base = BaseSampler("gaussian", 2, 0, 7)
        learned = learn_means(mix, base, 1, 0.1, 0.9, 2.0, 0.5, t=1, reps=4, n_per_stage=1_000)
        assert any("regime" in w or "below" in w for w in learned.metadata["warnings"])

    def test_deterministic_given_seed(self):
        spec = _spec([1.0], [[4.0, 0.0]], "gaussian")
        results = []
        for _ in range(2):
            mix = MixtureSampler(spec, seed=8)
            base = BaseSampler("gaussian", 2, 8, 7)
            results.append(
                learn_means(mix, base, 1, 1.0, 12.0, 2.0, 0.5, t=1, reps=4, n_per_stage=1_000)
            )
        assert np.array_equal(np.asarray(results[0].means), np.asarray(results[1].means))

    @pytest.mark.parametrize("tag", ["gaussian", "laplace", "uniform_cube"])
    @pytest.mark.parametrize("t", [2, 3])
    def test_vote_reads_the_chains_difference_noise(self, t, tag):
        # the chain's stages and then its coefficients, in one last request of
        # COEFF_BLOCKS * reps * (2t-1) rows, read the difference noise: one
        # base row each for a Gaussian base, two for any other law, so raw
        # base rows in the coefficients would leave a non-Gaussian count
        # short; the vote's probes draw none
        n_per_stage, probes, batch, reps = 200, 5, 7, 3
        spec = _spec([0.5, 0.5], [[0.0, 0.0], [12.0, 0.0]], tag)
        base = RowCounter(BaseSampler(tag, 2, 4, 7))
        learn_means(MixtureSampler(spec, seed=4), base, 2, 0.4, 12.0, 2.0, 0.5,
                    t=t, reps=reps, probes=probes, batch=batch, n_per_stage=n_per_stage)
        stages = n_per_stage * sum(4 * s - 1 for s in range(2, t + 1))
        base_rows_per_noise_row = 1 if tag == "gaussian" else 2
        coefficients = st.COEFF_BLOCKS * reps * (2 * t - 1)
        assert base.rows == base_rows_per_noise_row * (stages + coefficients)
        assert base.requests[-1] == base_rows_per_noise_row * coefficients

    @pytest.mark.parametrize(
        "k, w_min, sizes",
        [(0, 0.25, {}), (3, 0.0, {}), (3, -0.1, {}), (3, 1.5, {}), (3, math.nan, {}),
         (3, 0.25, {"probes": 0}), (3, 0.25, {"batch": 0}), (3, 0.25, {"probes": -2, "batch": 300})],
    )
    def test_invalid_sizes_raise_before_any_draw(self, k, w_min, sizes):
        # once, w_min 0 divided by zero, w_min 1.5 drew 3,170 rows and
        # returned no means, and probes 0 drew 2,048 rows before numpy failed
        spec = build_spec(GenConfig(k=3, d=3, separation=12.0, seed=7))
        mix = RowCounter(MixtureSampler(spec, seed=0))
        base = RowCounter(BaseSampler("gaussian", 3, 0, 1))
        with pytest.raises(ValueError):
            learn_means(mix, base, k, w_min, 12.0, 2.0, 0.5, reps=32, n_per_stage=15_000, **sizes)
        assert mix.rows == base.rows == 0

    def test_degree_past_max_raises_before_any_draw(self):
        spec = _spec([0.5, 0.5], [[0.0, 0.0], [12.0, 0.0]])
        mix = RowCounter(MixtureSampler(spec, seed=2))
        with pytest.raises(SizeLimitError):
            learn_means(mix, BaseSampler("gaussian", 2, 2, 7), 2, 0.4, 12.0, 2.0, t=MAX_DEGREE + 1)
        assert mix.rows == 0

    @pytest.mark.parametrize("t", [None, 2])
    def test_nan_separation_raises_before_any_draw(self, t):
        # on C8's spec a NaN separation once got past every threshold check
        # and learned 1 mean of 3 with tau NaN and no warning; t=None leaves t out
        spec = build_spec(GenConfig(k=3, d=3, separation=12.0, seed=7))
        mix = RowCounter(MixtureSampler(spec, seed=0))
        degree = {} if t is None else {"t": t}
        with pytest.raises(ValueError, match="separation"):
            learn_means(mix, BaseSampler("gaussian", 3, 0, 1), 3, 0.25, math.nan, 2.0, 0.5, reps=32,
                        n_per_stage=15_000, **degree)
        assert mix.rows == 0

    @pytest.mark.parametrize("sep", [5.0, 12.0])
    def test_default_degree_is_the_pair_degree(self, sep):
        # left out, t is st.PAIR_DEGREE at every separation, 5 included,
        # which lies below ln(k/(w_min DELTA)) = 5.48 on this call
        spec = build_spec(GenConfig(k=3, d=3, separation=12.0, seed=7))
        runs = [
            learn_means(MixtureSampler(spec, seed=0), BaseSampler("gaussian", 3, 0, 1), 3, 0.25, sep, 2.0, 0.5,
                        reps=32, n_per_stage=15_000, **degree)
            for degree in ({}, {"t": st.PAIR_DEGREE})
        ]
        assert np.array_equal(runs[0].means, runs[1].means)
        assert np.array_equal(runs[0].weights, runs[1].weights)

    def test_c8_spec_at_its_true_w_min(self):
        # C8's Gaussian call with w_min at the spec's true weight 1/3: the vote
        # must admit a component that wins only about its expected share of probes
        spec = build_spec(GenConfig(k=3, d=3, separation=12.0, seed=7))
        assert np.allclose(spec.weights, 1 / 3)
        wins = 0
        for seed in range(20):
            learned = learn_means(MixtureSampler(spec, seed), BaseSampler("gaussian", 3, seed, 1), 3, 1 / 3,
                                  12.0, 2.0, 0.5, reps=32, n_per_stage=15_000)
            perm, errors = match_means(learned.means, spec.means)
            wins += bool(np.all(errors <= 0.25) and np.all(np.abs(learned.weights[perm] - spec.weights) <= 0.05))
        assert wins >= 18, f"{wins}/20 seeds"


class TestVoteSizes:
    def test_c8_call_runs_the_least_vote(self):
        # l = ceil(32 ln 60) = 132 and m = ceil(12 / (0.25 * 0.4^2)) = 300, where
        # the float quotient is 299.99999999999994; mixture rows are the chain's
        # 2 * 1,024 (its one stage settles on its first two halves of 512,
        # well under the 15,000 cap), the vote's 132 * 301 and the weights' 2,000
        spec = build_spec(GenConfig(k=3, d=3, separation=12.0, seed=7))
        mix = RowCounter(MixtureSampler(spec, seed=0))
        learned = learn_means(mix, BaseSampler("gaussian", 3, 0, 1), 3, 0.25, 12.0, 2.0, 0.5,
                              reps=32, n_per_stage=15_000)
        assert (learned.metadata["probes"], learned.metadata["batch"]) == (132, 300)
        assert mix.rows == 43_780

    def test_explicit_sizes_win(self):
        # the poincare-deg3 call: its 60 probes of 120 rows, not the rule's;
        # mixture rows are the chain's 2 * (2,048 + 2,048), each of its two
        # stages settling on its third half, the vote's 60 * 121 and the
        # weights' 2,000
        spec = build_spec(GenConfig(k=4, d=6, separation=12.0, seed=0))
        mix = RowCounter(MixtureSampler(spec, seed=0))
        learned = learn_means(mix, BaseSampler("gaussian", 6, 0, 1), 4, 0.15, 12.0, 4.0, 0.5, t=3, reps=16,
                              n_per_stage=20_000, probes=60, batch=120)
        assert vote_sizes(4, 6, 0.15, 4.0) != (60, 120)
        assert (learned.metadata["probes"], learned.metadata["batch"]) == (60, 120)
        assert mix.rows == 17_452

    @given(k=hst.integers(1, 64), w_min=hst.floats(1e-3, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_probes_are_the_least_count_the_chernoff_tail_allows(self, k, w_min):
        probes, _ = vote_sizes(k, 3, w_min, 2.0)

        def tail(l):
            return math.exp(-((1.0 - SUPPORT_FACTOR) ** 2) * w_min * l / 2.0)

        assert tail(probes) <= st.DELTA / k < tail(probes - 1)


class TestExports:
    def test_assignments_csv_columns(self, tmp_path, rng):
        learned = LearnedMixture(np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.5, 0.5]))
        path = tmp_path / "assign.csv"
        write_assignments_csv(path, rng.standard_normal((5, 2)), learned, band=2.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,assigned,flags"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "0"

    def test_default_band_form(self):
        assert default_band(4, 0.25, 1.0) == pytest.approx(np.log(16.0) ** 1.5)
