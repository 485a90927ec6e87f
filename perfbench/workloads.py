"""The benchmark's workloads: mixture inputs, the learner call, and the
checks each learned mixture must pass.

An operation is one learner run on one learner seed.  Each workload draws
its seeds from a fixed pool; ``--seed`` picks the order in which a run walks
the pool, so the same seed gives the same inputs.  Ground truth comes from
``build_spec``; the checks match learned to true means with their own
Hungarian matching.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Op:
    seed: int  # learner seed: sample streams, and the spec where it varies
    tag: str  # base distribution


class Workload:
    name = ""
    k = 0
    t = 2
    mean_tol = math.inf
    weight_tol = math.inf
    # Seconds of --seconds charged to one untraced round (a traced round is
    # charged double); a run makes floor(seconds / round_s) rounds, at least
    # one.  The values share the benchmark's time among the workloads.
    round_s = 1.0

    def rounds(self, seed: int):
        """Endless sequence of rounds (lists of ops), ordered by ``seed``."""
        raise NotImplementedError

    def spec(self, mc, op: Op):
        raise NotImplementedError

    def learn(self, mc, op: Op, mix, base):
        raise NotImplementedError

    def check(self, spec, learned):
        """(failed checks as readable strings, max mean error, max weight
        error); the list is empty when the output is right."""
        means = np.asarray(learned.means, dtype=float)
        weights = np.asarray(learned.weights, dtype=float)
        if means.shape != (spec.k, spec.d) or weights.shape != (spec.k,):
            return [f"expected {spec.k} means in d={spec.d}, got shape {means.shape}"], None, None
        out = []
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            out.append(f"weights {weights.tolist()} are not a distribution")
        mean_err, weight_err = match_errors(spec, means, weights)
        if mean_err > self.mean_tol:
            out.append(f"max mean error {mean_err:.4f} > {self.mean_tol}")
        if weight_err > self.weight_tol:
            out.append(f"max weight error {weight_err:.4f} > {self.weight_tol}")
        return out, mean_err, weight_err

    def tables_warmup(self, mc, spec, tag: str):
        """First calls that build the estimator tables for this degree: a
        tiny chain build (half-word tables for s = 2..t) and one pair test
        (the rank-one expansion of R_t)."""
        mix = mc.sample_stream(spec, 0)
        base = mc.base_sampler(tag, spec.d, 0, 1)
        chain = mc.iterative_projection(mix, base, self.t, self.k, 4)
        x = mix.draw(2)
        mc.pair_test(x[0], x[1], chain, mc.TestConfig(self.t, 1.0, reps=1), base)


def match_errors(spec, means: np.ndarray, weights: np.ndarray):
    """Worst mean distance and worst weight gap under the minimum-cost
    matching of learned to true means."""
    cost = np.linalg.norm(spec.means[:, None, :] - means[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()), float(np.abs(weights[cols] - spec.weights[rows]).max())


def _walk(pool, seed: int):
    order = list(pool)
    random.Random(seed).shuffle(order)
    i = 0
    while True:
        yield order[i % len(order)]
        i += 1


class PoincareC8(Workload):
    """``learn_means`` in the C8 acceptance setting; even seeds use a
    Gaussian base, odd seeds a Laplace base, one of each per round."""

    name = "poincare-c8"
    k, t = 3, 2
    mean_tol, weight_tol = 0.25, 0.05  # the C8 acceptance tolerances
    round_s = 16.0  # two rounds of two ops, 12-18 s each; the work is seed-independent
    pool = range(10)  # seed pairs (2i, 2i + 1) over the C8 acceptance seeds 0..19

    def rounds(self, seed: int):
        for i in _walk(self.pool, seed):
            yield [Op(2 * i, "gaussian"), Op(2 * i + 1, "laplace")]

    def spec(self, mc, op: Op):
        return mc.build_spec(mc.GenConfig(k=3, d=3, separation=12.0, dist_tag=op.tag, seed=7))

    def learn(self, mc, op: Op, mix, base):
        return mc.learn_means(mix, base, 3, 0.25, 12.0, 2.0, 0.5, reps=32, n_per_stage=15_000)


class RecursiveC9(Workload):
    """``recursive_cluster`` in the C9 acceptance setting."""

    name = "recursive-c9"
    k, t = 4, 2
    mean_tol = 0.3  # the C9 acceptance tolerance
    round_s = 12.0  # three ops of 11-16 s; per-seed costs vary most here
    pool = range(20)  # the C9 acceptance seeds

    def rounds(self, seed: int):
        for s in _walk(self.pool, seed):
            yield [Op(s, "gaussian")]

    def spec(self, mc, op: Op):
        return mc.build_spec(
            mc.GenConfig(k=4, d=16, separation=10.0, profile="hierarchical",
                         ratios=(10.0, 1000.0), dist_tag="gaussian", seed=0)
        )

    def learn(self, mc, op: Op, mix, base):
        params = mc.desk_params(4, 0.25, sep_hint=10.0)
        return mc.recursive_cluster(mix, 4, 0.25, 1.0, 2.0, params=params, seed=op.seed)

    def check(self, spec, learned):
        out, mean_err, weight_err = super().check(spec, learned)
        if not any(e["action"] == "isolate" and e.get("level", -1) >= 1
                   for e in learned.metadata.get("trail", ())):
            out.append("no isolate event at recursion level >= 1")
        return out, mean_err, weight_err


class PoincareDeg3(Workload):
    """``learn_means`` at degree t=3 with a small probe budget; the spec
    (true means) varies with the seed.

    Tolerances: each candidate mean averages about batch*w = 30 accepted
    rows, and each output mean refines about probes*w = 15 candidates, so
    the per-component error has RMS norm about sqrt(d / (30 * 15)) = 0.12;
    0.4 is half the vote-ball radius 0.2*alpha and over three times that
    RMS.  Weights come from 2,000 assigned rows (standard error <= 0.01 per
    weight), so 0.05 is the C8 weight tolerance at five standard errors.
    """

    name = "poincare-deg3"
    k, t = 4, 3
    mean_tol, weight_tol = 0.4, 0.05
    round_s = 18.0  # two ops of 11-13 s; the work is seed-independent
    # Seeds 7, 12 and 14 of 0..19 lose a component at this probe budget
    # (FOUND in CHANGES.md), so they are left out.
    pool = [s for s in range(20) if s not in (7, 12, 14)]

    def rounds(self, seed: int):
        for s in _walk(self.pool, seed):
            yield [Op(s, "gaussian")]

    def spec(self, mc, op: Op):
        return mc.build_spec(mc.GenConfig(k=4, d=6, separation=12.0, dist_tag="gaussian", seed=op.seed))

    def learn(self, mc, op: Op, mix, base):
        # w_min 0.15 sits below the true 0.25, as in the CLI's bench cells:
        # with 60 probes the nominal support threshold rejects true components.
        return mc.learn_means(mix, base, 4, 0.15, 12.0, 4.0, 0.5, t=3, reps=16,
                              n_per_stage=20_000, probes=60, batch=120)


WORKLOADS = {w.name: w for w in (PoincareC8(), RecursiveC9(), PoincareDeg3())}
