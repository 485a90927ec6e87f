"""The Far/Close sample test on projected rank-1 moment statistics.

A sample z is tested by averaging Gamma flat(R_t(z, y_0..y_{2t-2})) over
base draws and thresholding the norm of the average.  The tests of one call
share one set of draws (common random numbers): one call draws
reps * (2t-1) base rows, whatever its number of test points.  Each test's
draws stay independent of its own point and keep their distribution, so
each test's error probability is unchanged; only the tests within one call
become dependent, and each call gets fresh draws.

By linearity the average is taken before the last stage Pi_t.  Block 1 of
the expansion (y_{t-1}..y_{2t-2}) holds no z, so it goes through the
(t-1)-stage prefix chain once per call, in reps * t^(t-1) applications;
block 0 (z, y_0..y_{t-2}) costs reps * t^(t-1) prefix-chain applications
and one application of Pi_t per test point.  Threshold and degree policies
follow the separation-driven forms; the averaging count is a knob since the
in-theory count is astronomically large.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .moment_pipeline import ProjectionChain
from .nested_projection import grouped_tail_images
from .poly_estimators import r_expansion_arrays

DEFAULT_REPS = 64
DEGREE_CAP = 8
_WORKING_SET = 1 << 21  # floats per chunk of test points

FAR = "Far"
CLOSE = "Close"
ACCEPT = "Accept"
REJECT = "Reject"


class SeparationTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class TestConfig:
    t: int
    tau: float
    reps: int = DEFAULT_REPS
    delta: float = 0.05
    guarantee_void: bool = False  # set when the feasibility gate fails

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class TestVerdict:
    label: str
    statistic: float
    tau: float
    t: int
    reps: int
    guarantee_void: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "label": self.label,
                "statistic": self.statistic,
                "tau": self.tau,
                "t": self.t,
                "reps": self.reps,
                "guarantee_void": self.guarantee_void,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class DegreeChoice:
    t: int
    capped: bool


def choose_threshold(sep: float, t: int) -> float:
    """tau = (0.2 * sep)^t."""
    if sep <= 0:
        raise ValueError("separation must be positive")
    return (0.2 * sep) ** t


def threshold_feasible(sep: float, t: int, k: int, delta: float, variant: str = "gaussian") -> bool:
    """Gate predicate: the threshold clears the Close-side noise floor."""
    tau = choose_threshold(sep, t)
    if variant == "gaussian":
        return tau >= (2 * t) ** (t / 2) * k / delta
    return tau >= (20 * t) ** t * k / delta


def choose_degree(
    sep: float, k: int, w_star: float, delta: float, variant: str = "poincare", t_max: int = DEGREE_CAP
) -> DegreeChoice:
    """Smallest t with (sep / ln K)^t >= K^10, K = k/(w* delta), capped at t_max."""
    big_k = k / (w_star * delta)
    log_k = math.log(big_k)
    if sep <= log_k:
        raise SeparationTooSmallError(
            f"separation {sep:.3g} must exceed ln(k/(w* delta)) = {log_k:.3g}"
        )
    base = sep / log_k
    t = max(1, math.ceil(10.0 * log_k / math.log(base)))
    if t > t_max:
        return DegreeChoice(t_max, True)
    return DegreeChoice(t, False)


def _statistic_batch(zs: np.ndarray, chain: ProjectionChain, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Averaged projected R_t statistics for a batch of test points.

    zs has shape (n, d); returns the n statistics ||A_i||.  One call draws
    cfg.reps blocks of 2t-1 base rows once, and every test point in the call
    shares them (common random numbers): each test's draws are independent
    of its own point, as the test needs, but not of the other tests'.

    Gamma is linear and Gamma(v_1 x ... x v_t) = Pi_t(v_1 x Gamma_{t-1}(v_2..v_t)),
    so the t^t words of a block are grouped by their first factor j into
    sum_j b_j x T_j, where grouped_tail_images forms
    T_j = sum_u c_{j,u} Gamma_{t-1}(tail u).  Block 1 (y_{t-1}..y_{2t-2})
    holds no z, so its sum over the reps is formed once per call and
    subtracted from each point's block-0 (z, y_0..y_{t-2}) sum before the
    mean and Pi_t.  Per call this costs reps * (2t-1) draws and
    reps * t^(t-1) prefix-chain applications for block 1; per test point,
    reps * t^(t-1) prefix-chain applications for block 0 and one Pi_t
    application.
    """
    t = cfg.t
    proj = chain.projection
    n, d = zs.shape
    reps = cfg.reps
    draws = np.asarray(base_sampler.draw(reps * (2 * t - 1)), dtype=float)
    draws = draws.reshape(reps, 2 * t - 1, d)
    last = proj.stages[-1]
    if t == 1:
        return np.linalg.norm((zs - draws[:, 0, :].mean(axis=0)) @ last.T, axis=1)
    words, coeffs = r_expansion_arrays(t)
    n_tails = t ** (t - 1)
    tails = words[:n_tails, 1:]  # product order: word j * n_tails + u has tail u
    weights = coeffs.reshape(t, 1, n_tails)
    head = proj.prefix(t - 1)
    width = head.out_dim
    # block 1 (y_{t-1}..y_{2t-2}) holds no z: one sum over the reps serves every point
    block1 = draws[:, t - 1 :, :]
    grouped1 = grouped_tail_images(head, block1, tails, weights).reshape(reps * t, width)
    shared = block1.reshape(reps * t, d).T @ grouped1
    ys = draws[:, : t - 1, :]
    # chunk over test points (all reps of a point in one chunk) to bound
    # the gathered tails and the prefix chain's widest intermediate
    per_point = reps * n_tails * d * max(t - 1, *head.widths)
    chunk = max(1, _WORKING_SET // per_point)
    out = np.empty(n)
    for start in range(0, n, chunk):
        end = min(n, start + chunk)
        m = end - start
        blocks = np.concatenate(
            [
                np.broadcast_to(zs[start:end, None, None, :], (m, reps, 1, d)),
                np.broadcast_to(ys, (m, reps, t - 1, d)),
            ],
            axis=2,
        ).reshape(m * reps, t, d)
        grouped = grouped_tail_images(head, blocks, tails, weights).reshape(m, reps * t, width)
        acc = np.matmul(blocks.reshape(m, reps * t, d).transpose(0, 2, 1), grouped) - shared
        a = (acc.reshape(m, d * width) / reps) @ last.T
        out[start:end] = np.linalg.norm(a, axis=1)
    return out


def test_sample(z, chain: ProjectionChain, cfg: TestConfig, base_sampler) -> TestVerdict:
    """Algorithmic Far/Close verdict for one sample."""
    z = np.asarray(z, dtype=float)
    if chain.degree != cfg.t:
        raise ValueError(f"chain degree {chain.degree} != configured t {cfg.t}")
    if z.shape != (chain.projection.d,):
        raise ValueError(f"sample has shape {z.shape}, expected ({chain.projection.d},)")
    stat = float(_statistic_batch(z[None, :], chain, cfg, base_sampler)[0])
    label = FAR if stat >= cfg.tau else CLOSE
    return TestVerdict(label, stat, cfg.tau, cfg.t, cfg.reps, cfg.guarantee_void)


def test_sample_batch(zs, chain: ProjectionChain, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Vectorized Far/Close over rows of zs; returns a boolean Far mask.

    The rows share one set of reps * (2t-1) base draws (see _statistic_batch
    for the cost per call)."""
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    stats = _statistic_batch(zs, chain, cfg, base_sampler)
    return stats >= cfg.tau


def pair_test(z, z_prime, chain: ProjectionChain, cfg: TestConfig, base_sampler) -> str:
    """Accept iff the scaled difference tests Close under the difference chain."""
    diff = (np.asarray(z, dtype=float) - np.asarray(z_prime, dtype=float)) / math.sqrt(2.0)
    verdict = test_sample(diff, chain, cfg, base_sampler)
    return ACCEPT if verdict.label == CLOSE else REJECT


def pair_test_batch(z, others, chain: ProjectionChain, cfg: TestConfig, base_sampler) -> np.ndarray:
    """Accept mask of pair tests between one probe and many other samples.

    The call's pair tests share one set of reps * (2t-1) base draws: block 1
    of the statistic goes through the chain once per call and block 0 once
    per pair (see _statistic_batch)."""
    z = np.asarray(z, dtype=float)
    others = np.atleast_2d(np.asarray(others, dtype=float))
    diffs = (z[None, :] - others) / math.sqrt(2.0)
    return ~test_sample_batch(diffs, chain, cfg, base_sampler)
