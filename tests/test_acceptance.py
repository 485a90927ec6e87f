"""End-to-end acceptance gate.

Each test covers one release criterion and emits a single [Cn] PASS/FAIL line.
The statistical checks use fixed seeds so the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
from scipy import integrate
from scipy.stats import chi2, norm

from mixcluster.cli import main as cli_main
from mixcluster.cli import match_means
from mixcluster.gaussian_cluster import (
    Checker,
    checker_contains_batch,
    desk_params,
    dimension_basis,
    recursive_cluster,
    reduce_bounded_means,
)
from mixcluster.mixture_gen import GenConfig, base_sampler, build_spec, sample_stream
from mixcluster.moment_pipeline import MixtureSpec
from mixcluster.oracles import (
    adjusted_poly_recursive,
    apply_kron_block,
    apply_rank1,
    base_moments,
    dense_matrix,
    exact_projection_chain,
    hermite_tensor,
    hermite_univariate,
    outer_power,
    prefix,
    r_poly_dense_oracle,
    r_poly_terms,
)
from mixcluster.poincare_cluster import learn_means
from mixcluster.sample_test import TestConfig as RunConfig
from mixcluster.sample_test import choose_threshold, r_expansion_arrays
from mixcluster.sample_test import test_sample_batch as far_mask

from conftest import RowCounter, random_nested_projection


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def _flatten_rank1(factors) -> np.ndarray:
    out = np.asarray(factors[0], dtype=float)
    for f in factors[1:]:
        out = np.outer(out, f).reshape(-1)
    return out


def _directional_stats(x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
    """<R_t, v^{o t}> per trial; x has shape (n, 2t, d), v is a unit vector."""
    words, coeffs = r_expansion_arrays(t)
    s = x @ v  # (n, 2t)
    p0 = np.prod(s[:, words], axis=2)
    p1 = np.prod(s[:, t + words], axis=2)
    return (p0 - p1) @ coeffs


def _dense_stats(x: np.ndarray, t: int, d: int, chunk: int = 4000) -> np.ndarray:
    """Flat dense R_t per trial, shape (n, d**t); x has shape (n, 2t, d)."""
    words, coeffs = r_expansion_arrays(t)
    n = len(x)
    out = np.empty((n, d**t))
    for start in range(0, n, chunk):
        xb = x[start : start + chunk]
        m = len(xb)
        diff = None
        for block in (xb[:, words, :], xb[:, t + words, :]):
            v = block[:, :, 0, :]
            for j in range(1, t):
                v = (v[:, :, :, None] * block[:, :, j, None, :]).reshape(m, len(words), -1)
            diff = v if diff is None else diff - v
        out[start : start + chunk] = np.einsum("mwf,w->mf", diff, coeffs)
    return out


class TestCriterion1:
    def test_c01_rank1_expansion_matches_dense(self):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for t in range(1, 5):
            for d in range(1, 4):
                bm = base_moments("gaussian", t, d)
                for _ in range(50):
                    samples = [rng.standard_normal(d) for _ in range(2 * t)]
                    dense = r_poly_dense_oracle(samples, t, bm)
                    rank1 = r_poly_terms(samples, t).dense_sum()
                    worst = max(worst, float(np.max(np.abs(dense - rank1))))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 10.0
        _verdict("C1", ok, f"rank-1 expansion, max dev {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2:
    def test_c02_gaussian_adjusted_polynomials_are_hermite(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for t in range(1, 6):
            for d in range(1, 4):
                bm = base_moments("gaussian", t, d)
                for _ in range(20):
                    x = rng.standard_normal(d) * 2.0
                    dev = np.max(np.abs(adjusted_poly_recursive(x, t, bm) - hermite_tensor(x, t)))
                    worst = max(worst, float(dev))
        root_ok = True
        worst_root = 0.0
        for t in range(1, 13):
            coeffs = np.zeros(t + 1)
            coeffs[t] = 1.0
            roots = np.polynomial.hermite_e.hermeroots(coeffs)
            margin = float(np.max(np.abs(roots))) / (2.0 * math.sqrt(t))
            worst_root = max(worst_root, margin)
            root_ok = root_ok and margin <= 1.0
        growth_ok = True
        for t in range(1, 11):
            a = 20.0 * math.sqrt(t)
            growth_ok = growth_ok and hermite_univariate(a, t) >= (0.9 * a) ** t
        ok = worst <= 1e-9 and root_ok and growth_ok
        _verdict(
            "C2",
            ok,
            f"hermite equivalence dev {worst:.2e}, root radius ratio {worst_root:.3f}, "
            f"growth bound {'holds' if growth_ok else 'violated'}",
        )


class TestCriterion3:
    def test_c03_estimator_is_unbiased(self):
        n, d = 200_000, 3
        mu = np.array([0.7, -0.4, 0.9])
        start = time.perf_counter()
        worst = 0.0
        for tag in ("gaussian", "laplace"):
            for t in (1, 2, 3):
                base = base_sampler(tag, d, 303, t)
                draws = np.asarray(base.draw(n * 2 * t), dtype=float).reshape(n, 2 * t, d)
                draws[:, 0, :] += mu
                flat = _dense_stats(draws, t, d)
                mean = flat.mean(axis=0)
                se = flat.std(axis=0, ddof=1) / math.sqrt(n)
                dev = np.abs(mean - outer_power(mu, t).reshape(-1))
                worst = max(worst, float(np.max(dev / np.maximum(se, 1e-12))))
        elapsed = time.perf_counter() - start
        ok = worst <= 4.0 and elapsed < 120.0
        _verdict("C3", ok, f"unbiasedness, worst dev {worst:.2f} SE, {elapsed:.1f}s")


class TestCriterion4:
    def test_c04_variance_envelopes(self):
        n, d = 20_000, 3
        rng = np.random.default_rng(404)
        dirs = rng.standard_normal((20, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        mu = np.array([1.2, -0.8, 1.0])
        mu_norm = float(np.linalg.norm(mu))
        general_ok = True
        for tag in ("gaussian", "laplace"):
            for t in (1, 2, 3):
                base = base_sampler(tag, d, 404, t)
                x = np.asarray(base.draw(n * 2 * t), dtype=float).reshape(n, 2 * t, d)
                x[:, 0, :] += mu
                bound = (20.0 * t) ** (2 * t) * (mu_norm ** (2 * t) + 1.0)
                for v in dirs:
                    second = float(np.mean(_directional_stats(x, t, v) ** 2))
                    general_ok = general_ok and second <= bound
        centered_ok = True
        worst_ratio = 0.0
        for t in (1, 2, 3, 4):
            base = base_sampler("gaussian", d, 414, t)
            x = np.asarray(base.draw(n * 2 * t), dtype=float).reshape(n, 2 * t, d)
            bound = (2.0 * t) ** t
            for v in dirs:
                sq = _directional_stats(x, t, v) ** 2
                second = float(sq.mean())
                slack = 4.0 * float(sq.std(ddof=1)) / math.sqrt(n)
                worst_ratio = max(worst_ratio, second / bound)
                centered_ok = centered_ok and second <= bound + slack
        ok = general_ok and centered_ok
        _verdict(
            "C4",
            ok,
            f"variance envelopes, centered-gaussian worst second moment "
            f"{worst_ratio:.3f}x the (2t)^t bound",
        )


class TestCriterion5:
    def test_c05_lazy_projection_matches_dense(self):
        rng = np.random.default_rng(505)
        worst = 0.0
        worst_gram = 0.0
        combos = 0
        for d in range(2, 11):
            s_max = int(math.floor(math.log(1e4) / math.log(d)))
            for s in range(1, s_max + 1):
                for k in range(1, min(d, 3) + 1):
                    np_ = random_nested_projection(d, (k,) * s, rng)
                    gamma = dense_matrix(np_)
                    gram = gamma @ gamma.T
                    worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(len(gram))))))
                    for _ in range(5):
                        factors = [rng.standard_normal(d) for _ in range(s)]
                        dev = np.max(
                            np.abs(apply_rank1(np_, factors) - gamma @ _flatten_rank1(factors))
                        )
                        worst = max(worst, float(dev))
                        left = rng.standard_normal(d)
                        dense = np.kron(np.eye(d), gamma) @ _flatten_rank1([left] + factors)
                        dev = np.max(np.abs(apply_kron_block(np_, left, factors) - dense))
                        worst = max(worst, float(dev))
                    combos += 1
        ok = worst <= 1e-10 and worst_gram <= 1e-10
        _verdict(
            "C5",
            ok,
            f"lazy vs dense over {combos} (d,k,s) grids, max dev {worst:.2e}, "
            f"orthonormality drift {worst_gram:.2e}",
        )


class TestCriterion6:
    def test_c06_exact_oracle_chain_captures_mean_tensors(self):
        rng = np.random.default_rng(606)
        worst = 1.0
        for _ in range(10):
            means = rng.standard_normal((3, 4)) * 2.0
            weights = rng.dirichlet(np.full(3, 3.0))
            spec = MixtureSpec(weights, means, "gaussian")
            chain = exact_projection_chain(spec, 4, 3)
            for s in range(1, 5):
                proj = prefix(chain, s)
                for mu in spec.means:
                    captured = float(np.linalg.norm(apply_rank1(proj, (mu,) * s)))
                    ratio = captured / np.linalg.norm(mu) ** s
                    worst = min(worst, ratio / (1.0 - s * 1e-8))
        ok = worst >= 1.0
        _verdict("C6", ok, f"exact-oracle capture, worst ratio vs bound {worst:.12f}")


class TestCriterion7:
    def test_c07_far_close_discrimination(self):
        start = time.perf_counter()
        k = d = 4
        t, reps, trials = 3, 64, 400
        means = np.zeros((k, d))
        means[1:, :3] = 12.0 * np.eye(3)
        spec = MixtureSpec(np.full(k, 0.25), means, "gaussian")
        chain = exact_projection_chain(spec, t, k)
        cfg = RunConfig(t=t, tau=choose_threshold(12.0, t), reps=reps)
        noise = base_sampler("gaussian", d, 707, 0)
        zero_draws = means[0] + np.asarray(noise.draw(trials))
        far_draws = means[1] + np.asarray(noise.draw(trials))
        base = base_sampler("gaussian", d, 707, 1)
        close_rate = 1.0 - float(np.mean(far_mask(zero_draws, chain, cfg, base)))
        far_rate = float(np.mean(far_mask(far_draws, chain, cfg, base)))
        elapsed = time.perf_counter() - start
        ok = close_rate >= 0.95 and far_rate >= 0.95 and elapsed < 180.0
        _verdict(
            "C7",
            ok,
            f"discrimination close-rate {close_rate:.3f}, far-rate {far_rate:.3f}, "
            f"{elapsed:.1f}s",
        )


class TestCriterion8:
    def test_c08_poincare_learner_end_to_end(self):
        seeds = range(20)
        summary = []
        all_ok = True
        for tag in ("gaussian", "laplace"):
            spec = build_spec(GenConfig(k=3, d=3, separation=12.0, dist_tag=tag, seed=7))
            wins = 0
            worst_time = 0.0
            for seed in seeds:
                start = time.perf_counter()
                learned = learn_means(
                    sample_stream(spec, seed),
                    base_sampler(tag, 3, seed, 1),
                    3,
                    0.25,
                    12.0,
                    2.0,
                    0.5,
                    reps=32,
                    n_per_stage=15_000,
                )
                elapsed = time.perf_counter() - start
                worst_time = max(worst_time, elapsed)
                perm, errors = match_means(learned.means, spec.means)
                if np.all(errors <= 0.25) and np.all(
                    np.abs(learned.weights[perm] - spec.weights) <= 0.05
                ):
                    wins += 1
            all_ok = all_ok and wins >= 18 and worst_time < 300.0
            summary.append(f"{tag} {wins}/20 seeds, slowest {worst_time:.1f}s")
        _verdict("C8", all_ok, "; ".join(summary))


class TestCriterion9:
    def test_c09_recursive_gaussian_end_to_end(self):
        spec = build_spec(
            GenConfig(
                k=4,
                d=16,
                separation=10.0,
                profile="hierarchical",
                ratios=(10.0, 1000.0),
                dist_tag="gaussian",
                seed=0,
            )
        )
        params = desk_params(4, 0.25, sep_hint=10.0)
        wins = 0
        worst_time = 0.0
        recursed_all = True
        rows = []
        worst_error = 0.0
        for seed in range(20):
            start = time.perf_counter()
            mix = RowCounter(sample_stream(spec, seed))
            learned = recursive_cluster(mix, 4, 0.25, 1.0, 2.0, params=params, seed=seed)
            elapsed = time.perf_counter() - start
            rows.append(mix.rows)
            worst_time = max(worst_time, elapsed)
            _, errors = match_means(learned.means, spec.means)
            worst_error = max(worst_error, float(np.max(errors)))
            recursed = any(
                e["action"] == "isolate" and e.get("level", -1) >= 1
                for e in learned.metadata["trail"]
            )
            recursed_all = recursed_all and recursed
            if np.all(errors <= 0.3) and recursed and elapsed < 60.0:
                wins += 1
        ok = wins >= 18
        _verdict(
            "C9",
            ok,
            f"recursive clustering {wins}/20 seeds, slowest {worst_time:.1f}s, "
            f"recursion levels {'observed' if recursed_all else 'missing on some seeds'}, "
            f"mixture rows per seed mean {np.mean(rows):,.0f} max {max(rows):,}, "
            f"worst mean error {worst_error:.3f}",
        )


def _accept_prob_quadrature(a: int, r: float, dist: float) -> float:
    """P(||g + delta|| <= r), g ~ N(0, I_a), ||delta|| = dist, by 1-D quadrature
    over the coordinate along delta (the remaining a-1 coordinates contribute a
    central chi-square)."""
    if a == 1:
        return float(norm.cdf(r - dist) - norm.cdf(-r - dist))

    def integrand(u):
        rem = r * r - (u + dist) ** 2
        return norm.pdf(u) * chi2.cdf(rem, df=a - 1)

    val, _ = integrate.quad(integrand, -r - dist, r - dist, limit=200)
    return float(val)


class TestCriterion10:
    def test_c10a_checker_reduction_proportions(self):
        means = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [1.5, 0.0, 0.5, -0.5],
                [0.0, 3.0, -1.0, 0.3],
            ]
        )
        weights = np.array([0.5, 0.3, 0.2])
        spec = MixtureSpec(weights, means, "gaussian")
        ch = Checker(np.eye(4)[:, :2], np.zeros(2), 2.0)
        xs, labels = sample_stream(spec, 1010).draw_labeled(60_000)
        keep = checker_contains_batch(ch, xs)
        kept_labels = labels[keep]
        n_acc = len(kept_labels)
        dists = np.linalg.norm(means @ ch.basis - ch.p, axis=1)
        probs = np.array([_accept_prob_quadrature(ch.a, ch.r, di) for di in dists])
        expected = weights * probs / np.sum(weights * probs)
        worst = 0.0
        for i in range(spec.k):
            observed = float(np.mean(kept_labels == i))
            se = math.sqrt(max(expected[i] * (1 - expected[i]), 1e-12) / n_acc)
            worst = max(worst, abs(observed - expected[i]) / se)
        ok = worst <= 4.0
        _verdict("C10a", ok, f"reduction proportions, worst dev {worst:.2f} SE")

    def test_c10b_gap_split_never_divides_a_component(self):
        clean = True
        for seed in range(20):
            spec = build_spec(
                GenConfig(
                    k=4,
                    d=6,
                    separation=8.0,
                    profile="hierarchical",
                    ratios=(8.0, 500.0),
                    dist_tag="gaussian",
                    seed=seed,
                )
            )
            xs, labels = sample_stream(spec, seed).draw_labeled(3_000)
            groups = reduce_bounded_means(xs, 4, 0.25, threshold=50.0)
            owner = np.full(len(xs), -1)
            for g, grp in enumerate(groups):
                owner[grp.indices] = g
            for comp in range(spec.k):
                if len(set(owner[labels == comp].tolist())) > 1:
                    clean = False
        _verdict("C10b", clean, "gap splits over 20 seeds kept every component whole")

    def test_c10c_dimension_reduction_preserves_distances(self):
        rng = np.random.default_rng(1030)
        worst = 0.0
        for _ in range(10):
            means = rng.standard_normal((3, 8)) * 5.0
            weights = rng.dirichlet(np.full(3, 3.0))
            cov_diff = (means.T * weights) @ means  # exact mixture cov minus identity
            basis = dimension_basis(cov_diff, 3)
            for i in range(3):
                for j in range(i + 1, 3):
                    diff = means[i] - means[j]
                    dev = abs(np.linalg.norm(basis @ diff) - np.linalg.norm(diff))
                    worst = max(worst, float(dev))
        ok = worst <= 1e-6
        _verdict("C10c", ok, f"distance preservation, max deviation {worst:.2e}")


class TestCriterion11:
    @staticmethod
    def _strip_timings(path):
        doc = json.loads(path.read_text())
        doc.pop("timings", None)
        return json.dumps(doc, sort_keys=True)

    def _run_twice(self, tmp_path, name, argv_fn):
        out1, out2 = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(argv_fn(str(out1))) == 0
        assert cli_main(argv_fn(str(out2))) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for fname in files1:
            a, b = out1 / fname, out2 / fname
            if fname.endswith(".json"):
                assert self._strip_timings(a) == self._strip_timings(b), f"{name}/{fname}"
            else:
                assert a.read_bytes() == b.read_bytes(), f"{name}/{fname}"

    def test_c11_reports_are_deterministic(self, tmp_path):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(
            json.dumps(
                {"mixture": {"k": 2, "d": 2, "separation": 10.0, "seed": 5}, "n": 200}
            )
        )
        cluster_cfg = tmp_path / "cluster.json"
        cluster_cfg.write_text(
            json.dumps(
                {
                    "mixture": {"k": 2, "d": 2, "separation": 12.0, "dist_tag": "point_mass", "seed": 1},
                    "variant": "poincare",
                    "sep": 12.0,
                    "w_min": 0.4,
                    "reps": 2,
                    "n_per_stage": 400,
                    "eval_samples": 100,
                }
            )
        )
        bench_cfg = tmp_path / "bench.json"
        bench_cfg.write_text(
            json.dumps(
                {
                    "mixture": {"k": 2, "d": 2, "dist_tag": "point_mass"},
                    "separations": [8.0],
                    "degrees": [1],
                    "seeds_per_cell": 2,
                    "reps": 2,
                    "n_per_stage": 200,
                    "eval_samples": 100,
                }
            )
        )
        self._run_twice(
            tmp_path, "generate",
            lambda out: ["generate", "--config", str(gen_cfg), "--seed", "5", "--out", out],
        )
        self._run_twice(
            tmp_path, "cluster",
            lambda out: ["cluster", "--config", str(cluster_cfg), "--seed", "3", "--out", out],
        )
        self._run_twice(
            tmp_path, "validate",
            lambda out: ["validate", "projection", "--seed", "4", "--out", out],
        )
        self._run_twice(
            tmp_path, "bench",
            lambda out: ["bench", "--config", str(bench_cfg), "--seed", "6", "--out", out],
        )
        _verdict("C11", True, "all four commands re-ran byte-identical modulo timings")
