"""Recursive clustering of spherical Gaussian mixtures with unbounded spread.

The strategy: restrict attention to samples whose projection onto a small
subspace lies near a tracked point (a *checker*), find a direction along
which the restricted mixture visibly splits (a *signal direction*), and grow
the subspace one direction at a time until every mean still in scope sits
within a polylog-radius ball.  At that point the scoped submixture has
bounded separation, so the probe/batch/vote procedure recovers its means,
one component is isolated by an explicit accept/reject predicate, its
samples are filtered out, and everything repeats on what remains; after
the last level, the rows no predicate accepts are the last component.

Two preprocessing reductions make this viable in general position: samples
are partitioned along huge empty gaps so each part has polynomially bounded
spread, and the ambient dimension is cut to ``k`` via the top principal
components of (mixture covariance - base covariance).

The paper's constants (a 0.02 vote ball, 1e4 ln ln(k/w*) truncation radii
per checker, 20k/w* probes) recover nothing at any size this package runs, so the counts
and sample sizes are module constants sized for small ``k``, and
:class:`ClusterParams` holds only the separation hint.  Every scale a
bounded-spread group runs at comes from its ``(k, w_min, c)`` and that hint,
once (:func:`group_scales`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import nested_projection
from . import sample_test as st
from .mixture_gen import BaseSampler
from .moment_pipeline import iterative_projection, lead_positive
from .poincare_cluster import (
    DifferenceSampler,
    LearnedMixture,
    difference_noise,
    margin_matrix,
    nearest,
    probe_batch_vote,
    probe_candidates,
)
from .rng import stream

_ORTHO_TOL = 1e-10

GRID_RATIO = 1.1  # separation-guess grid ratio
SIGNAL_BATCH = 96  # batch size per anchor
SIGNAL_SAMPLES = 1_500  # least rows of a signal verification pool
REFINE_SAMPLES = 1_500  # kept-sample pool for choosing the new center
ISOLATE_SAMPLES = 3_000  # samples clustered when isolating
MEAN_SAMPLES = 20_000  # samples for final mean/weight estimates
PILOT_SAMPLES = 4_000  # samples for the bounded-spread split
COV_SAMPLES = 60_000  # samples for the covariance-based projection
MAX_DRAW_FACTOR = 500  # a rejection sampler starves below 1/MAX_DRAW_FACTOR acceptance
REJECTION_BLOCK = 512  # inner rows per rejection-sampler read
# The cap on a chain stage's difference rows (each reads two scoped rows);
# the stage stops earlier once two halves agree on the directions they
# resolve (moment_pipeline.stage_matrix), and 6 of C9's 133 stages on seeds
# 0-19 reach it.  As a fixed count it was the smallest of 2,500, 5,000, 7,500
# and 10,000 that kept C9 at 20/20, C9's call at separation 7 at >= 19/20 and
# at separation 6 at >= 10/20 on seeds 0-19 (scripts/pools.py); 2,500 dropped
# separation 6 to 8/20.  As a cap it keeps 20/20, 20/20 and 10/20.
N_PER_STAGE = 5_000
PROBES = 48  # vote probes l
BATCH = 120  # batch size m per probe
GAMMA_COUNT = 2  # truncation radii (30 + gamma) theta tried per checker
GRID_STEPS = 40  # max separation-grid length
SIGNAL_TRIALS = 4  # anchor redraws per grid point
MARGIN_FACTOR = 0.3  # clustering margin as a fraction of s


class RefineFailedError(RuntimeError):
    """Checker refinement found no usable signal direction."""


class IsolateFailedError(RuntimeError):
    """No cluster qualified as the component to isolate."""


class StarvationError(RuntimeError):
    """A rejection sampler's acceptance fell below 1/MAX_DRAW_FACTOR before
    it collected the rows it was asked for."""


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checker:
    """A subspace/point/radius triple restricting attention to samples whose
    projection onto the subspace lands within ``r`` of ``p``."""

    basis: np.ndarray  # (d, a) orthonormal columns spanning V
    p: np.ndarray  # (a,) coordinates of the center in the basis
    r: float

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        p = np.asarray(self.p, dtype=float).reshape(-1)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "p", p)
        d, a = basis.shape
        if a > d:
            raise ValueError(f"checker subspace dimension {a} exceeds ambient {d}")
        if p.shape != (a,):
            raise ValueError(f"center has shape {p.shape}, expected ({a},)")
        if a > 0:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(a))) > _ORTHO_TOL:
                raise ValueError("checker basis columns are not orthonormal")
        if not self.r > 0:
            raise ValueError("checker radius must be positive")

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def a(self) -> int:
        return self.basis.shape[1]

    def with_radius(self, r: float) -> "Checker":
        return dataclasses.replace(self, r=r)


def trivial_checker(d: int) -> Checker:
    """The pass-through checker: zero-dimensional subspace, infinite radius."""
    return Checker(np.zeros((d, 0)), np.zeros(0), math.inf)


def checker_contains_batch(ch: Checker, xs) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[1] != ch.d:
        raise ValueError(f"points have width {xs.shape[1]}, expected {ch.d}")
    return np.linalg.norm(xs @ ch.basis - ch.p, axis=1) <= ch.r


def complement_basis(ch: Checker) -> np.ndarray:
    """Deterministic orthonormal basis of the checker subspace's complement,
    as (d, d-a) columns with the largest-magnitude entry made positive."""
    # Checker holds its columns orthonormal, so the rank is exactly a.
    comp = np.linalg.svd(ch.basis.T)[2][ch.a :]
    return lead_positive(comp).T


class ReducedSampler:
    """Rejection-samples an inner stream: keeps the rows for which ``keep``
    (a row block -> bool mask, judging each row on its own) is true, or
    every row when ``keep`` is None, subtracts ``offset`` (d,) from them
    when one is given and, given a ``basis`` (d, d') of columns, emits their
    coordinates in it.

    The inner stream is read in whole blocks of ``REJECTION_BLOCK`` rows,
    and kept rows beyond a request are held back and served first on the
    next one.  Over its life the stream counts the inner rows it drew and
    the rows it kept, and it starves (``StarvationError``) rather than read
    once drawn > ``MAX_DRAW_FACTOR * max(kept, 64)``, its acceptance so far
    then being below 1/MAX_DRAW_FACTOR.  So the rows returned, to the bit,
    the inner rows taken and where it starves depend only on the total
    requested; once starved it serves only what its held rows cover.  One
    inner read takes every block a block-at-a-time loop is certain to read
    next: enough to hold the rows still wanted were every row kept, and no
    more than reach the first block past that limit.  ``keep`` runs once
    per read, but each block's kept rows are projected by a product of their
    own, as BLAS may round a row differently in a taller one.  The rows stay
    i.i.d. from the scoped distribution: only ``keep`` has looked at them.
    Whether it or its inner stream starves, its kept rows are held."""

    def __init__(self, inner, keep, basis=None, offset=None):
        self.inner = inner
        self.keep = keep
        self.basis = basis
        self.offset = offset
        self.d = inner.d if basis is None else basis.shape[1]
        self._surplus = np.zeros((0, self.d))
        self._drawn = 0  # inner rows read over the stream's life
        self._kept = 0  # of those, the rows kept

    def draw(self, n: int) -> np.ndarray:
        out = [self._surplus]
        got = len(self._surplus)
        try:
            while got < n:
                limit = MAX_DRAW_FACTOR * max(self._kept, 64)
                if self._drawn > limit:
                    raise StarvationError(f"kept {self._kept} of {self._drawn} drawn rows, wanted {n - got} "
                                          f"more: acceptance below 1/{MAX_DRAW_FACTOR}")
                blocks = min(math.ceil((n - got) / REJECTION_BLOCK), (limit - self._drawn) // REJECTION_BLOCK + 1)
                x = np.asarray(self.inner.draw(blocks * REJECTION_BLOCK), dtype=float)
                self._drawn += blocks * REJECTION_BLOCK
                if self.keep is None:
                    kept, per_block = x, np.full(blocks, REJECTION_BLOCK)
                else:
                    mask = self.keep(x)
                    kept, per_block = x[mask], mask.reshape(blocks, REJECTION_BLOCK).sum(axis=1)
                if self.offset is not None:
                    kept = kept - self.offset
                got += len(kept)
                self._kept += len(kept)
                if self.basis is None:
                    out.append(kept)
                else:
                    out.extend(part @ self.basis for part in np.split(kept, np.cumsum(per_block)[:-1]))
        except StarvationError:
            # this stream's or its inner stream's: the rows kept so far are held
            self._surplus = np.concatenate(out)
            raise
        rows = np.concatenate(out)
        # a copy: a view would keep the whole request's block alive
        self._surplus = rows[n:].copy()
        return rows[:n]


def reduce_by_checker(sampler, ch: Checker):
    """The stream restricted to the samples inside the checker, emitted in
    coordinates of the checker subspace's complement; the trivial checker
    leaves the stream as it is."""
    if ch.d != sampler.d:
        raise ValueError("checker dimension does not match the sampler")
    if ch.a == 0:
        return sampler
    return ReducedSampler(sampler, functools.partial(checker_contains_batch, ch), complement_basis(ch))


# ---------------------------------------------------------------------------
# Signal directions
# ---------------------------------------------------------------------------


def _verification_rows(p_level: float) -> int:
    """Rows one signal verification reads at mass level ``p_level``: at
    least SIGNAL_SAMPLES, and at least 20 per unit of 1/p_level."""
    return max(SIGNAL_SAMPLES, math.ceil(20.0 / p_level))


def split_rows(rows, v, p_level: float, delta: float) -> float | None:
    """Verifies v as a signal direction on the given rows.

    Takes the widest interval along v that leaves empirical mass
    >= 0.95*p_level on each side.  Returns its midpoint, the split point,
    when the interval is at least 2*delta wide, so each side's mass sits
    >= delta from it; None otherwise."""
    proj = np.sort(np.asarray(rows, dtype=float) @ np.asarray(v, dtype=float))
    n = len(proj)
    q = math.ceil(0.95 * p_level * n)
    lo, hi = proj[q - 1], proj[n - q]
    if hi - lo < 2.0 * delta:
        return None
    return 0.5 * (lo + hi)


def _default_grid(mix_sampler, floor: float) -> list:
    """Multiplicative grid, at most GRID_STEPS guesses long, from the
    empirical spread of a pilot batch down to ``floor``."""
    pilot = np.asarray(mix_sampler.draw(256), dtype=float)
    start = max(float(dists.max()) for _, dists in _distance_blocks(pilot))
    grid = []
    val = start
    while val > floor and len(grid) < GRID_STEPS:
        grid.append(val)
        val /= GRID_RATIO
    grid.append(floor)
    return grid


def find_signal_direction(mix_sampler, scales: GroupScales, floors, p_level: float, *, chain: tuple):
    """Search for a direction along which the mixture splits into two heavy,
    well-separated halves; returns ``(v, delta, split)``: the unit direction,
    the signal floor it was verified at and the split point along it, or
    None when no trial verifies.

    For each signal floor in ``floors``, in order, up to SIGNAL_TRIALS
    times: draw two anchors and a fresh batch for each in one request,
    average each anchor's accepted batch rows into a candidate mean
    (:func:`probe_candidates`, the vote's probe step, at the group's one
    pair test ``scales.pair``), and verify the normalized difference as a
    signal direction at mass level ``p_level`` and that floor
    (:func:`split_rows`).  ``chain`` is the checker's ``(chain, base)`` pair
    (:func:`_checker_chain`).

    Every candidate the call tests is verified on one pool of
    ``_verification_rows(p_level)`` rows, drawn at the call's first
    verification; the mass level is fixed within a call, so one pool serves
    every test.  This is sound for the reason common random numbers are in
    the Far/Close test: a candidate v is a function of its own trial's
    anchors and batch (and of the chain, built earlier) only, and those rows
    are drawn apart from the pool, so the pool is independent of every v it
    verifies.  Each test therefore keeps its own error probability, and the
    union bound over the at most ``len(floors) * SIGNAL_TRIALS`` tests of a
    call, which needs no independence between the tests, is the one a fresh
    draw per test gives.  What stays fresh: the anchors and batch of every
    trial, and any later check of the returned direction (refinement's
    classification in :func:`refine_checker`), because the returned v was
    chosen by its success on the pool.
    """
    chain, base = chain
    m = SIGNAL_BATCH
    pool = None  # the call's verification rows, drawn at its first verification
    for delta in floors:
        for _ in range(SIGNAL_TRIALS):
            rows = np.asarray(mix_sampler.draw(2 + 2 * m), dtype=float)
            mu0, mu1 = probe_candidates(rows[:2], rows[2:].reshape(2, m, -1), chain, scales.pair, base)
            gap = np.linalg.norm(mu0 - mu1)
            if not gap >= 1e-12:  # coincident candidates, or an empty batch's NaN one
                continue
            v = (mu0 - mu1) / gap
            if pool is None:
                pool = mix_sampler.draw(_verification_rows(p_level))
            split = split_rows(pool, v, p_level, delta)
            if split is not None:
                return v, delta, split
    return None


# ---------------------------------------------------------------------------
# Bounded-separation full clustering
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ClusterParams:
    """The separation hint: the known minimum separation, or None; one that
    is not a finite number above 0 raises ValueError.  It has no default, so
    a caller states whether it knows one.  Every other value the learner
    runs at comes from it and each group's ``(k, w_min, c)``
    (:func:`group_scales`), or is a module constant."""

    sep_hint: float | None

    def __post_init__(self):
        if self.sep_hint is not None and not (math.isfinite(self.sep_hint) and self.sep_hint > 0):
            raise ValueError(f"sep_hint must be None or a finite number above 0, got {self.sep_hint}")


def desk_params(k: int, w_min: float, sep_hint: float | None = None) -> ClusterParams:
    """The params a run with separation hint ``sep_hint`` takes; ``k`` and
    ``w_min`` are not read, as each group derives its scales from its own
    (:func:`group_scales`)."""
    return ClusterParams(sep_hint=sep_hint)


@dataclass(frozen=True)
class GroupScales:
    """The scales every search in one bounded-spread group runs at, derived
    once by :func:`group_scales` from the group's ``(k, w_min, c)`` and the
    separation hint.

    ``ln`` below is ln(k/w*) for the group's own ``k``.  The spacing ``s``
    is the hint, or ln^(0.5+c) without one; the pair test, the vote radius
    (0.5 s), the refinement floor, the grid floor and the isolation margin
    all come from it.  Every pair test in the group, the vote's and each
    signal search's, runs at the one config ``pair``.
    """

    k: int
    w_star: float
    theta: float  # ln^((1+c)/2): the unit of every scope radius
    beta: float  # ln^((1+1.1c)/2): refinement's base radius
    s: float  # cluster spacing: sep_hint, else ln^(0.5+c)
    pair: st.TestConfig  # the pair test: degree st.PAIR_DEGREE, threshold (0.2 s)^st.PAIR_DEGREE
    grid_floor: float  # lowest guess of the signal search's separation grid, max(0.04 ln^4, s)
    split_delta: float  # signal floor of the separation test, 0.4 ln^4
    refine_delta: float  # signal floor of refinement's classification, max(0.04 ln^4, 2 s)
    rounds: int  # test/refine rounds per level

    def separation_radius(self, gamma) -> float:
        """The separation test's scope at ``gamma``: (30 + gamma) theta."""
        return (30.0 + gamma) * self.theta

    def refine_radius(self, gamma) -> float:
        """Refinement's scope at ``gamma``: beta + gamma theta."""
        return self.beta + float(gamma) * self.theta

    @property
    def source_radius(self) -> float:
        """The widest radius any search scopes a checker to: both searches'
        last gamma.  Isolation's 19 theta lies inside it."""
        return max(self.separation_radius(GAMMA_COUNT), self.refine_radius(GAMMA_COUNT))


def group_scales(k: int, w_min: float, c: float, sep_hint: float | None) -> GroupScales:
    """The scales of a group of ``k`` components of weight at least
    ``w_min``, for trade-off constant ``c`` and separation hint ``sep_hint``."""
    log_k = math.log(k / w_min)
    s = sep_hint if sep_hint is not None else log_k ** (0.5 + c)
    return GroupScales(
        k=k,
        w_star=w_min,
        theta=log_k ** ((1.0 + c) / 2.0),
        beta=log_k ** ((1.0 + 1.1 * c) / 2.0),
        s=s,
        pair=st.TestConfig(st.PAIR_DEGREE, st.choose_threshold(s, st.PAIR_DEGREE)),
        grid_floor=max(0.04 * log_k**4, s),
        split_delta=0.4 * log_k**4,
        refine_delta=max(0.04 * log_k**4, 2.0 * s),
        rounds=max(1, math.ceil(log_k ** (1.0 + 0.1 * c))),
    )


def _checker_chain(mix_sampler, ch: Checker, scales: GroupScales, seed: int):
    """The ``(chain, base)`` pair every search at ``ch`` runs its pair tests
    under, built once when the checker comes into being.  Its rows are the
    level stream restricted to the checker's source scope, the widest radius
    any search uses there (``scales.source_radius``); at the trivial checker
    that is the level stream itself.  Every search still draws its rows from
    its own scoped stream; only the chain is shared.

    The shared chain keeps the paper's per-scope guarantee at every scope:

    - every scope used at a checker is a ball around the checker's center
      in its subspace, of radius at most the source's, so it is a sub-ball
      of the source scope, and its components are a subset of the source's;
    - restricting the source to the scope only discards mass, so a
      component's weight in the source is at least its scoped weight times
      P(scope)/P(source): a component the chain must capture for the scope
      is heavy in the source too;
    - the chain's rows are the source stream's own draws, made before and
      apart from every row a scoped search draws, so the chain is
      independent of the rows each search tests, which is all the
      per-scope construction needs.  The chain on the trivial checker's
      stream rests on the same independence.

    The chain is built on pairwise differences, so it is mean-free.  Its
    base rows are the difference noise of a standard normal stream, which
    :func:`poincare_cluster.difference_noise` draws directly.
    """
    source = reduce_by_checker(mix_sampler, ch.with_radius(scales.source_radius))
    base = difference_noise(BaseSampler("gaussian", source.d, seed, 3))
    return iterative_projection(DifferenceSampler(source), base, st.PAIR_DEGREE, scales.k, N_PER_STAGE), base


def full_cluster_bounded(mix_sampler, scales: GroupScales, *, chain: tuple) -> np.ndarray:
    """Probe/batch/vote mean recovery, under the checker's ``chain``, for a
    mixture whose maximum separation is polylog-bounded; returns r <= k
    means pairwise >= s/2 apart."""
    half = 0.5 * scales.s
    chain, base = chain
    # the vote's dedup radius is the floor below, half the spacing
    means, _ = probe_batch_vote(mix_sampler, base, chain, scales.pair, PROBES, BATCH, half, scales.w_star)
    # The vote admits strongest-supported first, and its dedup guarantees the
    # spacing only up to the candidate error, so enforce the pairwise floor
    # explicitly, in that order.
    kept = []
    for i in range(len(means)):
        if all(np.linalg.norm(means[i] - means[j]) >= half for j in kept):
            kept.append(i)
    return means[kept]


# ---------------------------------------------------------------------------
# Checker refinement and termination test
# ---------------------------------------------------------------------------


def refine_checker(mix_sampler, ch: Checker, scales: GroupScales, *, chain: tuple, seed: int) -> tuple:
    """Grow the checker subspace by one signal direction and recenter on a
    well-supported sample from one side of the split, searching under the
    checker's ``chain``; ``seed`` orders the gammas and picks the center.
    Returns ``(checker, gamma, delta)``: the refined checker, the gamma whose
    scope gave the direction and the signal floor it was verified at; raises
    RefineFailedError when no gamma gives one.  A sample is well supported
    when at least 0.9 w* of the kept samples lie within theta of it in the
    new checker's coordinates, counted by :func:`_neighbour_fractions` (by
    sorting when those are 1-D)."""
    rng = stream(seed, 19)
    theta, w_star = scales.theta, scales.w_star
    class_p = 0.4 * w_star
    last_error = None
    for gamma in rng.permutation(np.arange(1, GAMMA_COUNT + 1)):
        try:
            reduced = reduce_by_checker(mix_sampler, ch.with_radius(scales.refine_radius(gamma)))
            # The grid search verifies at (0.8w*, 0.8*guess) with the largest
            # guess first, which forces alignment with the widest split; the
            # found direction must then also classify as a signal at the
            # refinement floor.
            grid = _default_grid(reduced, scales.grid_floor)
            found = find_signal_direction(reduced, scales, [0.8 * g for g in grid], 0.8 * w_star, chain=chain)
            if found is None:
                last_error = "no verified signal direction on the separation grid"
                continue
            v, delta, split = found
            rows = reduced.draw(_verification_rows(class_p))
            if split_rows(rows, v, class_p, scales.refine_delta) is None:
                last_error = "signal direction failed the refinement floor classification"
                continue
        except StarvationError as err:
            last_error = err
            continue
        comp = complement_basis(ch)
        v_full = comp @ v
        v_full /= np.linalg.norm(v_full)
        new_basis = np.column_stack([ch.basis, v_full])
        keep_ch = ch.with_radius(scales.refine_radius(gamma + 2))
        in_keep = functools.partial(checker_contains_batch, keep_ch)
        kept = ReducedSampler(mix_sampler, in_keep).draw(REFINE_SAMPLES)
        frac = _neighbour_fractions(kept @ new_basis, theta)
        good = frac >= 0.9 * w_star
        svals = kept @ v_full
        lo_good = np.flatnonzero(good & (svals <= split - delta))
        hi_good = np.flatnonzero(good & (svals >= split + delta))
        if len(lo_good) == 0 or len(hi_good) == 0:
            lo_good = np.flatnonzero(good & (svals <= split))
            hi_good = np.flatnonzero(good & (svals > split))
        if len(lo_good) == 0 or len(hi_good) == 0:
            last_error = "no good samples on both sides of the split"
            continue
        pick_lo = kept[int(rng.choice(lo_good))]
        pick_hi = kept[int(rng.choice(hi_good))]
        chosen = pick_lo if rng.integers(2) == 0 else pick_hi
        return Checker(new_basis, chosen @ new_basis, 10.0 * theta), int(gamma), delta
    raise RefineFailedError(f"refinement exhausted gamma attempts: {last_error}")


def test_max_separation(mix_sampler, ch: Checker, scales: GroupScales, *, chain: tuple) -> bool:
    """False (reject) iff a verified wide split, searched under the
    checker's ``chain``, survives in some truncated reduction of the checker
    scope; True (accept) otherwise."""
    for gamma in range(1, GAMMA_COUNT + 1):
        try:
            reduced = reduce_by_checker(mix_sampler, ch.with_radius(scales.separation_radius(gamma)))
            found = find_signal_direction(reduced, scales, [scales.split_delta], 0.4 * scales.w_star, chain=chain)
            if found is not None:
                return False
        except StarvationError:
            continue
    return True


# ---------------------------------------------------------------------------
# Component isolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentTest:
    """Accept/reject predicate isolating one component: a row is accepted
    when its label (:meth:`labels`) is the target."""

    checker: Checker  # containment gate (radius 17*theta)
    comp: np.ndarray  # (d, d-a) complement basis for the reduced coordinates
    means: np.ndarray  # candidate means in reduced coordinates
    target: int  # f(j): label that accepts
    margin: float  # absolute margin bound (MARGIN_FACTOR * s)

    @property
    def approx_mean(self) -> np.ndarray:
        """The target candidate lifted back to the ambient space (the checker
        coordinates are filled from the checker center)."""
        return self.comp @ self.means[self.target] + self.checker.basis @ self.checker.p

    def labels(self, xs) -> np.ndarray:
        """Each row's closest candidate by worst-direction margin (the lowest
        on ties), or -1 for a row outside the checker or beyond the margin
        bound."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = np.full(len(xs), -1)
        inside = np.flatnonzero(checker_contains_batch(self.checker, xs))
        if len(inside):
            margins = margin_matrix(xs[inside] @ self.comp, self.means)
            closest = np.argmin(margins, axis=1)
            ok = margins[np.arange(len(inside)), closest] <= self.margin
            out[inside[ok]] = closest[ok]
        return out

    def accept_batch(self, xs) -> np.ndarray:
        return self.labels(xs) == self.target


def isolate_component(mix_sampler, ch: Checker, scales: GroupScales, *, chain: tuple) -> ComponentTest:
    """Fully cluster the checker scope under the checker's ``chain`` and
    return the predicate for the cluster that is heavy and concentrated
    near the checker center."""
    theta = scales.theta
    reduced = reduce_by_checker(mix_sampler, ch.with_radius(19.0 * theta))
    means_r = full_cluster_bounded(reduced, scales, chain=chain)
    if len(means_r) == 0:
        raise IsolateFailedError("full clustering of the checker scope found no means")
    scope17 = ch.with_radius(17.0 * theta) if ch.a > 0 else ch
    test = ComponentTest(scope17, complement_basis(ch), means_r, -1, MARGIN_FACTOR * scales.s)  # no target yet
    in_scope = functools.partial(checker_contains_batch, scope17)
    fresh = ReducedSampler(mix_sampler, in_scope).draw(ISOLATE_SAMPLES)
    labels = test.labels(fresh)
    in_core = checker_contains_batch(ch.with_radius(11.0 * theta), fresh)
    best = None
    best_count = -1
    for j in range(len(means_r)):
        members = labels == j
        count = int(members.sum())
        if count == 0:
            continue
        weight = count / len(fresh)
        core_frac = float(in_core[members].mean())
        if weight >= 0.5 * scales.w_star and core_frac >= 0.5 and count > best_count:
            best, best_count = j, count
    if best is None:
        raise IsolateFailedError("no cluster was both heavy and concentrated in the core")
    return dataclasses.replace(test, target=best)


# ---------------------------------------------------------------------------
# Preprocessing reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleGroup:
    indices: np.ndarray  # positions in the original sample set
    offset: np.ndarray  # the group mean


def _distance_blocks(pts: np.ndarray):
    """The rows of the pairwise distance matrix of ``pts`` in blocks, as
    ``(first row, block)`` pairs.  A block's differences, their squares and
    its distances hold at most ``nested_projection.WORKING_SET`` floats
    (one row if a row alone exceeds it); every row carries all its
    distances."""
    n, d = pts.shape
    step = max(1, nested_projection.WORKING_SET // max(n * (2 * d + 1), 1))
    for start in range(0, n, step):
        block = pts[start : start + step]
        yield start, np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)


def _neighbour_fractions(pts: np.ndarray, radius: float) -> np.ndarray:
    """Each row's fraction of the rows (itself included) within ``radius``
    of it, to the bit as ``(dists <= radius).mean(axis=1)`` over
    :func:`_distance_blocks`.

    One-dimensional points are counted by sorting.  Rounding is monotone,
    so a point's neighbours are one run of the sorted values; each end of
    the window ``searchsorted`` finds is moved, a run of tied values at a
    time, to the exact predicate ``|x_i - x_j| <= radius``, which is the 1-D
    norm (``sqrt(x * x) == |x|`` in IEEE arithmetic, short of over- and
    underflow).  Other dimensions scan the distance blocks."""
    n, d = pts.shape
    if d != 1:
        return np.concatenate([(dists <= radius).mean(axis=1) for _, dists in _distance_blocks(pts)])
    x = pts[:, 0]
    s = np.sort(x)

    def near(j):
        return np.abs(x - s[j]) <= radius

    # narrow each end until it is a neighbour (x_i itself is one), then
    # widen it while the next value out is one too
    lo = np.searchsorted(s, x - radius, "left")
    while not (ok := near(lo)).all():
        lo = np.where(ok, lo, np.searchsorted(s, s[lo], "right"))
    while (step := (lo > 0) & near(lo - 1)).any():
        lo = np.where(step, np.searchsorted(s, s[lo - 1], "left"), lo)
    hi = np.searchsorted(s, x + radius, "right")
    while not (ok := near(hi - 1)).all():
        hi = np.where(ok, hi, np.searchsorted(s, s[hi - 1], "left"))
    while (step := (hi < n) & near(np.minimum(hi, n - 1))).any():
        hi = np.where(step, np.searchsorted(s, s[np.minimum(hi, n - 1)], "right"), hi)
    return (hi - lo) / n


def _far_pair(pts: np.ndarray, threshold: float):
    """The lexicographically first index pair at distance >= threshold, or
    None."""
    # no pair is farther apart than the bounding box's diagonal; the slack
    # leaves pairs within rounding of the threshold to the scan
    if len(pts) == 0 or np.linalg.norm(np.ptp(pts, axis=0)) * (1.0 + 1e-9) < threshold:
        return None
    for start, dists in _distance_blocks(pts):
        hit = np.argwhere(dists >= threshold)
        if len(hit):
            i, j = hit[0]
            return start + int(i), int(j)
    return None


def reduce_bounded_means(samples, k: int, w_min: float, threshold: float | None = None):
    """Split the sample set along huge empty gaps until each part has
    bounded spread; each part carries its own mean as its offset."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    d = samples.shape[1]
    if threshold is None:
        threshold = 1e6 * ((d + k) / w_min) ** 2

    def rec(idx: np.ndarray) -> list:
        pts = samples[idx]
        pair = _far_pair(pts, threshold)
        if pair is None:
            return [idx]
        i, j = pair
        v = pts[j] - pts[i]
        v /= np.linalg.norm(v)
        proj = pts @ v
        order = np.sort(proj)
        gaps = np.diff(order)
        g = int(np.argmax(gaps))
        mid = 0.5 * (order[g] + order[g + 1])
        below = idx[proj <= mid]
        above = idx[proj > mid]
        return rec(below) + rec(above)

    groups = rec(np.arange(len(samples)))
    out = []
    for idx in groups:
        out.append(SampleGroup(idx, samples[idx].mean(axis=0)))
    return out


def _row_basis(rows: np.ndarray, k: int) -> np.ndarray:
    """Top-k right singular vectors of ``rows`` (n, d) as (min(k, d), d)
    rows, signed by ``lead_positive``: for centred rows, the top-k
    directions of (mixture covariance - base covariance).  They come from R
    of a QR, as a Gram matrix's rounding (eps times the spread squared)
    buries the inner directions from a spread of about 1e8.  R grows by
    512-row blocks: no (n, d) factor is formed, and each LAPACK call is small
    enough to run on one BLAS thread, so the bits do not depend on the
    thread count (one QR of 60,000 rows does)."""
    r = rows[:0]
    for start in range(0, len(rows), 512):
        r = np.linalg.qr(np.concatenate([r, rows[start : start + 512]]), mode="r")
    return lead_positive(np.linalg.svd(r)[2][:k])


def dimension_basis(cov_diff: np.ndarray, k: int) -> np.ndarray:
    """Top-k principal directions of (mixture covariance - base covariance)
    as (min(k, d), d) rows, deterministically signed.

    The learner does not call it: it takes its basis from the rows
    themselves (:func:`_row_basis`), as a Gram matrix of the rows loses the
    inner directions at wide spread.  It stays as the oracle of C10c, which
    hands it an exact ``cov_diff``."""
    cov_diff = np.asarray(cov_diff, dtype=float)
    d = cov_diff.shape[0]
    k = min(k, d)
    values, vectors = np.linalg.eigh(0.5 * (cov_diff + cov_diff.T))
    order = np.argsort(-values)[:k]
    return lead_positive(vectors[:, order].T)


# ---------------------------------------------------------------------------
# The complete recursive algorithm
# ---------------------------------------------------------------------------


def _isolation_levels(sampler, scales: GroupScales, rng, trail, warnings, level_base: int) -> list:
    """Run the refine/test/isolate recursion on one bounded-spread group
    (already recentered and dimension-reduced) for its ``k - 1`` levels;
    returns the isolation predicates, one per level that isolated a
    component.  It alone writes the steps' events to ``trail``, each with
    its level, and each failed step's warning to ``warnings``.

    Each checker gets its chain (:func:`_checker_chain`) once, when it comes
    into being: the trivial checker at the start of a level, a refined one
    after its refinement.  Every search at the checker runs under it."""

    def record(action: str, ch: Checker, **fields):
        radius = ch.r if math.isfinite(ch.r) else None
        trail.append({"action": action, "checker_dim": ch.a, "radius": radius, **fields, "level": level})

    tests = []
    current = sampler
    for comp_idx in range(scales.k - 1):
        level = level_base + comp_idx
        ch = trivial_checker(current.d)
        try:
            chain = _checker_chain(current, ch, scales, int(rng.integers(2**62)))
            for _ in range(scales.rounds):
                accept = test_max_separation(current, ch, scales, chain=chain)
                record("accept" if accept else "reject", ch)
                if accept:
                    break
                try:
                    ch, gamma, delta = refine_checker(current, ch, scales, chain=chain, seed=int(rng.integers(2**62)))
                except RefineFailedError as err:
                    warnings.append(f"level {level}: {err}")
                    break
                record("refine", ch, gamma=gamma, signal_delta=delta)
                chain = _checker_chain(current, ch, scales, int(rng.integers(2**62)))
            test = isolate_component(current, ch, scales, chain=chain)
        except (IsolateFailedError, StarvationError) as err:
            warnings.append(f"level {level}: {err}")
            break
        record("isolate", test.checker, clusters=len(test.means), target=test.target)
        tests.append(test)
        current = ReducedSampler(current, lambda x, test=test: ~test.accept_batch(x))
    return tests


def _final_estimates(sampler, tests: list, warnings):
    """One group's reduced-space means and relative weights from one batch
    of ``MEAN_SAMPLES`` rows, given its isolation predicates (none for a
    group of one component); appends its warnings to ``warnings``.

    The provisional means are the rows each predicate accepts, plus the
    remainder: the rows no predicate accepts, emitted when there are at
    least 10 of them.  The remainder still holds the tails each predicate
    rejected, which pull its mean off a little; the final pass hands them
    back, as the nearest provisional mean wins each row."""
    batch = np.asarray(sampler.draw(MEAN_SAMPLES), dtype=float)
    provisional = []
    rest = np.ones(len(batch), dtype=bool)
    for j, test in enumerate(tests):
        members = test.accept_batch(batch)
        rest &= ~members
        if members.sum() >= 10:
            provisional.append(batch[members].mean(axis=0))
        else:
            warnings.append(f"component {j}: predicate matched too few samples; using its candidate")
            provisional.append(test.approx_mean)
    if rest.sum() >= 10:
        provisional.append(batch[rest].mean(axis=0))
    else:
        warnings.append(f"remainder: {int(rest.sum())} rows outside every predicate; no remainder component emitted")

    labels = nearest(batch, np.array(provisional))
    means = []
    weights = []
    for j in range(len(provisional)):
        members = labels == j
        count = int(members.sum())
        if count < 10:
            warnings.append(f"component {j}: only {count} assigned samples; dropped")
            continue
        means.append(batch[members].mean(axis=0))
        weights.append(count / len(batch))
    return np.array(means), np.array(weights)


def recursive_cluster(
    mix_sampler,
    k: int,
    w_min: float,
    c: float,
    alpha: float,
    *,
    params: ClusterParams,
    seed: int = 0,
) -> LearnedMixture:
    """Learn all component means and weights of a spherical Gaussian mixture
    with no bound on the overall spread.

    Preprocessing splits the samples along huge empty gaps and projects onto
    the top-k covariance directions; the core loop alternates separation
    testing and checker refinement, then isolates and strips one component
    per level.  ``alpha`` is a target accuracy knob recorded in the metadata
    (estimates are driven by the module's fixed sample sizes).  ``k`` below
    1 or ``w_min`` outside (0, 1] raises ValueError before any row is drawn.
    """
    if k < 1 or not 0 < w_min <= 1:
        raise ValueError(f"need k >= 1 and w_min in (0, 1], got k={k}, w_min={w_min}")
    rng = stream(seed, 29)
    trail: list = []
    d0 = mix_sampler.d

    pilot = np.asarray(mix_sampler.draw(PILOT_SAMPLES), dtype=float)
    groups = reduce_bounded_means(pilot, k, w_min)
    offsets = np.array([g.offset for g in groups])
    shares = np.array([len(g.indices) for g in groups], dtype=float)
    shares /= shares.sum()
    trail.append({"action": "split", "groups": len(groups), "level": -1, "checker_dim": 0, "radius": None})

    all_means = []
    all_weights = []
    warnings = []
    level_base = 0
    for g in range(len(groups)):
        k_g = max(1, int(round(k * shares[g])))
        if len(groups) == 1:
            group_sampler = mix_sampler
        else:
            # The groups are separated by huge empty gaps, so nearest-center
            # assignment is exact up to exponentially rare errors.
            group_sampler = ReducedSampler(mix_sampler, lambda x, g=g: nearest(x, offsets) == g)

        if group_sampler.d > k_g:
            shifted = np.asarray(group_sampler.draw(COV_SAMPLES), dtype=float)
            shifted -= offsets[g]
            basis = _row_basis(shifted, k_g)
            trail.append({"action": "project", "level": -1, "checker_dim": 0, "radius": None, "dims": int(basis.shape[0])})
        else:
            basis = np.eye(group_sampler.d)
        reduced = ReducedSampler(group_sampler, None, basis.T, offsets[g])

        # every scale comes from k_g and the hint; a group of one component
        # has nothing to isolate (nor, at k = w_min = 1 without a hint, a
        # pair-test threshold)
        tests = []
        if k_g > 1:
            tests = _isolation_levels(reduced, group_scales(k_g, w_min, c, params.sep_hint), rng, trail, warnings, level_base)
        means_g, weights_g = _final_estimates(reduced, tests, warnings)
        level_base += max(k_g - 1, 1)
        for mu, w in zip(means_g, weights_g):
            all_means.append(offsets[g] + mu @ basis)
            all_weights.append(w * shares[g])

    means = np.array(all_means) if all_means else np.zeros((0, d0))
    weights = np.array(all_weights)
    if weights.sum() > 0:
        weights = weights / weights.sum()
    refine_levels = sum(1 for e in trail if e["action"] == "refine")
    meta = {
        "seed": seed,
        "alpha": alpha,
        "groups": len(groups),
        "refine_events": refine_levels,
        "trail": trail,
        "warnings": warnings,
    }
    return LearnedMixture(means, weights, meta)
