"""Synthetic mixtures: spec construction, base samplers, labeled streams.

All base distributions are mean-zero products normalized to be 1-Poincare:
standard normal coordinates, two-sided exponentials with scale 1/2, or
uniforms on [-pi/2, pi/2].  point_mass is the degenerate noise-free base.

Every sample stream in the package, these and the ones the learners build
on them, keeps one contract: ``draw(a)`` then ``draw(b)`` returns the rows
of one ``draw(a + b)`` and takes the same rows from the stream it reads, so
neither a stream's rows nor its root's depend on how a caller splits its
requests, to the bit.  The rejection sampler
(gaussian_cluster.ReducedSampler), which also recentres and projects, keeps
it by reading its inner stream in whole blocks of a fixed size, as many in
one read as its request is certain to need, and projecting each block's
kept rows on their own.  The contract covers starvation too: the sampler
starves on its acceptance over every row it has read, so where it starves
depends only on the total requested, and a request that starves returns no
rows and leaves the rows it kept for the next.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .moment_pipeline import MixtureSpec

BASE_TAGS = ("gaussian", "laplace", "uniform_cube", "point_mass")

# Coordinate scales making each product base 1-Poincare: a two-sided
# exponential with scale b has Poincare constant 4b^2, a centered uniform of
# width L has (L/pi)^2.
LAPLACE_SCALE = 0.5
UNIFORM_HALF_WIDTH = math.pi / 2.0

_PLACEMENT_RETRIES = 20_000
_PREFILTER_SLACK = 1e-12  # far above the few-ulp gap of two norm evaluations


class UnsupportedDistributionError(ValueError):
    pass


class PlacementError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenConfig:
    k: int
    d: int
    separation: float = 10.0
    profile: str = "uniform"  # "uniform" | "hierarchical"
    ratios: tuple = ()  # hierarchical per-level separations, innermost first
    weight_profile: str = "uniform"  # "uniform" | "dirichlet" | "explicit"
    weights: tuple = ()
    dist_tag: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.d < 1:
            raise ValueError("k and d must be >= 1")
        # not x > 0 also rejects NaN
        if not self.separation > 0:
            raise ValueError("separation must be > 0")
        if not all(r > 0 for r in self.ratios):
            raise ValueError("ratios must be > 0")
        if self.profile not in ("uniform", "hierarchical"):
            raise ValueError(f"unknown separation profile {self.profile!r}")
        if self.profile == "hierarchical" and len(self.ratios) < 1:
            raise ValueError("hierarchical profile needs at least one ratio level")
        if self.weight_profile not in ("uniform", "dirichlet", "explicit"):
            raise ValueError(f"unknown weight profile {self.weight_profile!r}")
        if self.weight_profile == "explicit":
            w = np.array(self.weights, dtype=float)
            if len(w) != self.k or not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("explicit weights must have length k, be finite, be >= 0 and sum to 1")
        if self.dist_tag not in BASE_TAGS:
            raise UnsupportedDistributionError(f"unknown base distribution {self.dist_tag!r}")


def _place_points(n: int, d: int, sep: float, rng: np.random.Generator) -> np.ndarray:
    """n points with all pairwise distances in [sep, 1.2*sep]:
    random unit directions, rescaled so the minimum distance is sep,
    rejected when the spread exceeds the 1.2 factor."""
    if n == 1:
        return np.zeros((1, d))
    first, second = np.triu_indices(n, 1)
    for _ in range(_PLACEMENT_RETRIES):
        pts = rng.standard_normal((n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # The vectorized norms can differ from the per-pair ones below in the
        # last ulp, so they only rule a candidate out, with slack; the
        # per-pair check decides, which keeps every spec bit-identical.
        fast = np.linalg.norm(pts[first] - pts[second], axis=1)
        if fast.max() > (1.2 + _PREFILTER_SLACK) * fast.min():
            continue
        dists = [
            np.linalg.norm(pts[i] - pts[j]) for i, j in itertools.combinations(range(n), 2)
        ]
        lo, hi = min(dists), max(dists)
        if lo < 1e-9:
            continue
        if hi / lo <= 1.2:
            return pts * (sep / lo)
    raise PlacementError(f"could not place {n} points at ratio <= 1.2 in d={d}")


def _hierarchical_means(k: int, d: int, ratios, rng: np.random.Generator) -> np.ndarray:
    if k == 1 or len(ratios) == 1:
        return _place_points(k, d, ratios[0], rng)
    centers = _place_points(2, d, ratios[-1], rng)
    groups = []
    for size, center in zip((k - k // 2, k // 2), centers):
        groups.append(center + _hierarchical_means(size, d, ratios[:-1], rng))
    return np.concatenate(groups, axis=0)


def build_spec(cfg: GenConfig) -> MixtureSpec:
    """Deterministic mixture spec from a generator config."""
    rng = rngmod.stream(cfg.seed, 0)
    if cfg.profile == "uniform":
        means = _place_points(cfg.k, cfg.d, cfg.separation, rng)
    else:
        means = _hierarchical_means(cfg.k, cfg.d, tuple(cfg.ratios), rng)
    means = means - means.mean(axis=0)
    if cfg.weight_profile == "uniform":
        weights = np.full(cfg.k, 1.0 / cfg.k)
    elif cfg.weight_profile == "dirichlet":
        weights = rng.dirichlet(np.full(cfg.k, 5.0))
    else:
        weights = np.array(cfg.weights, dtype=float)
    weights = weights / weights.sum()
    return MixtureSpec(weights, means, cfg.dist_tag)


class BaseSampler:
    """Stateful stream of i.i.d. mean-zero 1-Poincare base draws."""

    def __init__(self, dist_tag: str, d: int, seed: int, *stream_ids: int):
        if dist_tag not in BASE_TAGS:
            raise UnsupportedDistributionError(f"unknown base distribution {dist_tag!r}")
        self.dist_tag = dist_tag
        self.d = d
        self._rng = rngmod.stream(seed, *(stream_ids or (1,)))

    def draw(self, n: int) -> np.ndarray:
        if self.dist_tag == "gaussian":
            return self._rng.standard_normal((n, self.d))
        if self.dist_tag == "laplace":
            return self._rng.laplace(scale=LAPLACE_SCALE, size=(n, self.d))
        if self.dist_tag == "uniform_cube":
            return self._rng.uniform(-UNIFORM_HALF_WIDTH, UNIFORM_HALF_WIDTH, size=(n, self.d))
        return np.zeros((n, self.d))


class MixtureSampler:
    """Stateful labeled sample stream from a mixture spec."""

    def __init__(self, spec: MixtureSpec, seed: int, stream_id: int = 2):
        self.spec = spec
        self.d = spec.d
        self._rng = rngmod.stream(seed, stream_id)
        self._base = BaseSampler(spec.dist_tag, spec.d, seed, stream_id, 1)
        # Generator.choice's own inverse-cdf table, built once per stream
        self._cdf = spec.weights.cumsum()
        self._cdf /= self._cdf[-1]

    def draw_labeled(self, n: int):
        """n rows and their component labels; the labels are the bits of
        ``Generator.choice(k, n, p=weights)``, whose algorithm this is."""
        labels = self._cdf.searchsorted(self._rng.random(n), side="right")
        x = self._base.draw(n)
        x += self.spec.means[labels]
        return x, labels

    def draw(self, n: int) -> np.ndarray:
        return self.draw_labeled(n)[0]


# the names the package exports for the two root streams
base_sampler, sample_stream = BaseSampler, MixtureSampler
