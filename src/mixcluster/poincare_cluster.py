"""End-to-end learner for mixtures of translated 1-Poincare distributions.

Works on the difference mixture: a chain built for (z - z')/sqrt(2)
(:func:`difference_chain`) carries the pair tests that decide same-component
membership, accepted batches are averaged into candidate means, and majority
voting dedups them into means pairwise >= alpha apart.  Weights come from
assigning a fresh batch to the voted means by worst-direction margins.  The
recursive Gaussian learner reuses all of it but the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sample_test as st
from .moment_pipeline import iterative_projection

WEIGHT_SAMPLES = 2_000  # fresh rows assigned to estimate the weights
SUPPORT_FACTOR = 0.5  # the vote admits at SUPPORT_FACTOR * w_min * probes


@dataclass(frozen=True)
class LearnedMixture:
    means: np.ndarray  # (r, d)
    weights: np.ndarray
    metadata: dict = field(default_factory=dict)


class DifferenceSampler:
    """Stream of (z - z')/sqrt(2) over independent pairs from an inner stream.

    Each pair is two adjacent inner rows, so the output keeps the stream
    contract (mixture_gen): its rows do not depend on the request sizes."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d

    def draw(self, n: int) -> np.ndarray:
        x = np.asarray(self.inner.draw(2 * n), dtype=float)
        return (x[0::2] - x[1::2]) / math.sqrt(2.0)


def difference_noise(base):
    """The difference noise (g - g')/sqrt(2) of a base stream, which is all
    of the base law the estimators read.

    A law that is its own difference law is read directly: the standard
    normal ("gaussian"), since (g - g')/sqrt(2) of two independent standard
    normals is a standard normal, and "point_mass", whose draws are all
    zeros.  Such a base is returned as it is, not an inner stream, so a
    wrapper that counts its draws still sees every row.  Any other base, or
    a stream with no ``dist_tag``, gets a ``DifferenceSampler``, which is
    valid for every law."""
    if getattr(base, "dist_tag", None) in ("gaussian", "point_mass"):
        return base
    return DifferenceSampler(base)


def difference_chain(stream, base, k: int, cfg: st.TestConfig, cap: int) -> st.PairTest:
    """The test ``cfg`` under a chain for ``k`` components built on
    difference rows of ``stream``, at most ``cap`` a stage, with the
    statistic's coefficients cached on it.  The chain and then the
    coefficients (:func:`st.build_pair_test`: one request of
    ``st.COEFF_BLOCKS * cfg.reps * (2t-1)`` rows) read ``base`` through
    :func:`difference_noise`; no test under the returned ``PairTest``
    draws again."""
    noise = difference_noise(base)
    return st.build_pair_test(iterative_projection(DifferenceSampler(stream), noise, cfg.t, k, cap), cfg, noise)


def majority_vote(candidates: np.ndarray, alpha: float, support_threshold: float):
    """Admit candidates (l, d; a NaN row per failed probe), strongest
    0.2*alpha-ball support first (ties in candidate order), that have at
    least ``support_threshold`` support and are at least alpha away from
    everything admitted so far.  Each ball thus keeps its most central
    candidate.  A mean averages the valid candidates in its ball: they come
    from disjoint probe batches, so this cuts the variance by the support
    count.  Averaging can pull two admitted balls' means closer than alpha,
    so a mean within alpha of a stronger kept one is dropped.  Returns the
    kept means, pairwise at least alpha apart, and their support counts in
    admission order, which is decreasing support."""
    points = candidates[~np.isnan(candidates[:, 0])]
    # dists[i, j] = ||points[j] - points[i]||, one pairwise matrix over the valid candidates
    dists = np.linalg.norm(points[None, :, :] - points[:, None, :], axis=2)
    ball = dists <= 0.2 * alpha
    support = np.count_nonzero(ball, axis=1)
    admitted, kept, means = [], [], []
    for row in np.argsort(-support, kind="stable"):
        if support[row] >= support_threshold and not np.any(dists[row, admitted] < alpha):
            admitted.append(row)
            mean = points[ball[row]].mean(axis=0)
            if all(np.linalg.norm(mean - other) >= alpha for other in means):
                kept.append(row)
                means.append(mean)
    return np.array(means).reshape(len(kept), candidates.shape[1]), support[kept]


def margin_matrix(xs, means) -> np.ndarray:
    """(n, r) worst-direction margins: entry (i, j) is the largest deviation
    of x_i from mean j along any inter-mean unit direction (all zero when no
    two means differ)."""
    r = len(means)
    dirs = []
    for j1 in range(r):
        for j2 in range(j1 + 1, r):
            diff = means[j1] - means[j2]
            norm = np.linalg.norm(diff)
            if norm > 0:
                dirs.append(diff / norm)
    if not dirs:
        return np.zeros((len(xs), r))
    dirs = np.array(dirs)  # (D, d)
    # |(x_i - mu_j) . v_D| maximized over D
    proj_x = xs @ dirs.T  # (n, D)
    proj_m = means @ dirs.T  # (r, D)
    return np.max(np.abs(proj_x[:, None, :] - proj_m[None, :, :]), axis=2)


def nearest(xs, centers) -> np.ndarray:
    """Index of each row's nearest center in Euclidean distance (the lowest
    on ties)."""
    return np.argmin(np.linalg.norm(xs[:, None, :] - centers[None, :, :], axis=2), axis=1)


def assign_batch(xs, means, band: float):
    """Index of the mean consistent with each row of xs along all inter-mean
    directions.

    Returns (indices, ambiguous): each row goes to its minimax margin
    (lowest index on ties), which is the one mean satisfying every margin
    when there is one; ambiguous is set where zero or several means do.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if len(means) == 0:
        raise ValueError("no means to assign to")
    margins = margin_matrix(xs, means)
    return np.argmin(margins, axis=1), np.count_nonzero(margins <= band, axis=1) != 1


def probe_candidates(points, batches, test: st.PairTest) -> np.ndarray:
    """The probe step: each probe's accepted batch rows averaged, (P, d),
    with a NaN row for a probe that accepts none.

    points (P, d) holds the probes and batches (P, m, d) their batches.  One
    :func:`st.pair_test_batch` call runs ``test`` on every probe: it
    evaluates the chain's cached polynomial at each pair, one chain row a
    pair, and draws nothing."""
    probes, m, d = batches.shape
    accept = st.pair_test_batch(points, batches.reshape(-1, d), test).reshape(probes, m)
    candidates = np.full((probes, d), np.nan)
    for i in range(probes):
        if accept[i].any():
            candidates[i] = batches[i][accept[i]].mean(axis=0)
    return candidates


def probe_batch_vote(mix_sampler, test: st.PairTest, probes: int, batch: int, alpha: float, w_min: float):
    """Probe/batch/vote mean recovery under the pair test ``test``, the one
    vote rule of both learners.

    The probes are drawn and tested in passes of :func:`st.probes_per_pass`
    probes, the statistic's own, so the vote's memory is bounded at any
    size; a pass's mixture request holds each probe's row followed by its
    batch.  :func:`probe_candidates` turns each probe into a candidate and
    :func:`majority_vote` admits candidates with support of at least
    ``SUPPORT_FACTOR * w_min * probes``, half the probes a component of
    weight ``w_min`` is expected to win.  Returns the vote's ball means,
    pairwise at least ``alpha`` apart, in admission order,
    strongest-supported first, and their support counts.
    """
    d = mix_sampler.d
    per_pass = st.probes_per_pass(batch, test.chain)
    candidates = []
    for start in range(0, probes, per_pass):
        p = min(per_pass, probes - start)
        rows = np.asarray(mix_sampler.draw(p * (batch + 1)), dtype=float).reshape(p, batch + 1, d)
        candidates.append(probe_candidates(rows[:, 0], rows[:, 1:], test))
    return majority_vote(np.concatenate(candidates), alpha, SUPPORT_FACTOR * w_min * probes)


def vote_sizes(k: int, d: int, w_min: float, alpha: float) -> tuple:
    """The least (probes, batch) the vote's admission rule needs, for k
    components of weight at least ``w_min`` in d dimensions and a vote ball
    of 0.2*alpha: :func:`learn_means`'s defaults, whose docstring gives both
    rules."""
    probes = math.ceil(2.0 * math.log(k / st.DELTA) / ((1.0 - SUPPORT_FACTOR) ** 2 * w_min))
    batch = math.ceil(4.0 * d / (w_min * (0.2 * alpha) ** 2))
    return probes, batch


def default_band(k: int, w_min: float, c: float) -> float:
    return math.log(k / w_min) ** (1.0 + 0.5 * c)


def learn_means(
    mix_sampler,
    base_sampler,
    k: int,
    w_min: float,
    sep: float,
    alpha: float,
    c: float = 0.5,
    *,
    t: int = st.PAIR_DEGREE,
    reps: int = st.DEFAULT_REPS,
    probes: int | None = None,
    batch: int | None = None,
    n_per_stage: int = 50_000,
) -> LearnedMixture:
    """Recover the component means and weights of a 1-Poincare mixture.

    ``t`` defaults to ``st.PAIR_DEGREE``, the recursive learner's degree
    too.  The vote admits a mean by the rule of :func:`probe_batch_vote`, so
    ``w_min`` may be a true weight, and ``probes`` and ``batch`` default to
    the least sizes that rule needs (:func:`vote_sizes`):

    - probes l = ceil(2 ln(k/DELTA) / ((1 - SUPPORT_FACTOR)^2 w_min)), the
      least l whose Chernoff lower tail exp(-(1 - SUPPORT_FACTOR)^2 w_min l/2)
      for a component's support to miss the threshold is at most DELTA/k;
    - batch m = ceil(4d / (w_min (0.2 alpha)^2)): two candidates of one
      component sit about sqrt(2d/(m w)) apart, which this keeps under the
      vote ball 0.2*alpha divided by sqrt(2).

    Weights come from ``WEIGHT_SAMPLES`` rows.

    The chain is built on difference rows of the mixture stream, each stage
    from at most ``n_per_stage`` of them: a stage stops earlier once two
    halves of its draws agree (:func:`moment_pipeline.stage_matrix`).  Both
    the chain and the vote read the base law through
    :func:`difference_noise` (:func:`difference_chain`), so a Gaussian base
    is drawn directly.  ``reps`` is the statistic's coefficient blocks over
    ``st.COEFF_BLOCKS``: the chain's Far/Close polynomial averages
    ``st.COEFF_BLOCKS * reps`` blocks of 2t-1 noise rows, drawn once after
    the chain, and every pair test of the vote evaluates it.  The returned
    means are pairwise at least ``alpha`` apart.

    k < 1, ``w_min`` outside (0, 1], and ``probes`` or ``batch`` below 1
    raise ValueError before any row is drawn.

    Separations below the (ln K)^{1+c} regime run anyway and are flagged in
    the metadata; desk-scale runs live outside the asymptotic regime by
    design.
    """
    # not 0 < w_min also rejects NaN
    if k < 1 or not 0 < w_min <= 1:
        raise ValueError(f"need k >= 1 and w_min in (0, 1], got k={k}, w_min={w_min}")
    if (probes is not None and probes < 1) or (batch is not None and batch < 1):
        raise ValueError(f"need probes and batch >= 1, got probes={probes}, batch={batch}")
    warnings = []
    regime_floor = math.log(k / w_min) ** (1.0 + c)
    if sep < regime_floor:
        warnings.append(f"separation {sep:.3g} below regime floor {regime_floor:.3g}")
    l, m = vote_sizes(k, mix_sampler.d, w_min, alpha)
    l = probes if probes is not None else l
    m = batch if batch is not None else m

    tau = st.choose_threshold(sep, t)
    test = difference_chain(mix_sampler, base_sampler, k, st.TestConfig(t, tau, reps=reps), n_per_stage)
    means, support = probe_batch_vote(mix_sampler, test, l, m, alpha, w_min)

    band = default_band(k, w_min, c)
    if len(means) > 0:
        fresh = mix_sampler.draw(WEIGHT_SAMPLES)
        idx, flags = assign_batch(fresh, means, band)
        weights = np.bincount(idx, minlength=len(means)) / WEIGHT_SAMPLES
        ambiguous_rate = float(flags.mean())
    else:
        weights = np.zeros(0)
        ambiguous_rate = 0.0
        warnings.append("no candidate survived voting")

    meta = {
        "t": t,
        "tau": tau,
        "reps": reps,
        "probes": l,
        "batch": m,
        "alpha": alpha,
        "band": band,
        "ambiguous_assignment_rate": ambiguous_rate,
        "support_counts": support.tolist(),
        "warnings": warnings,
    }
    return LearnedMixture(means, weights, meta)


def write_assignments_csv(path, xs, learned: LearnedMixture, band: float) -> None:
    """CSV with columns (id, assigned, flags)."""
    idx, flags = assign_batch(xs, learned.means, band)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,assigned,flags\n")
        for i, (j, flag) in enumerate(zip(idx, flags)):
            fh.write(f"{i},{j},{'ambiguous' if flag else ''}\n")
