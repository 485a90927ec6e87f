"""Pass counts and output digests of both learners on fixed seed pools.

Usage, from the repository root:

    python3 scripts/pools.py [--pools c8-gaussian c8-laplace c8-wtrue deg3 c9-sep10 c9-sep7 c9-sep6
                              c9-wide c9-nohint] [--expect FILE]

Each pool runs one learner call on learner seeds 0-19:

- ``c8-gaussian``, ``c8-laplace``: C8's call (``learn_means`` on k=3, d=3 at
  separation 12, ``reps`` 32, ``n_per_stage`` 15,000), with C8's checks: a
  seed passes when every mean is within 0.25 and every weight within 0.05.
- ``c8-wtrue``: C8's Gaussian call and checks with ``w_min`` at the spec's
  true weight 1/3 in place of 0.25 (99 probes of 225 rows), as the CLI's
  ``cluster`` runs when its config leaves ``w_min`` out.  Ungated.
- ``deg3``: ``learn_means`` at t=3 (k=4, d=6, separation 12, spec seed =
  learner seed, 60 probes of 120 rows), as in the ``poincare-deg3``
  benchmark workload, with its checks (0.4 and 0.05).  It passes 20/20;
  the benchmark's pool still leaves out seeds 7, 12 and 14, which lost a
  component before the vote admitted at half the expected support.
- ``c9-sep10``, ``c9-sep7``, ``c9-sep6``: C9's call (``recursive_cluster``
  on k=4, d=16, the hierarchical spec with outer ratio 1000, ``w_min`` 0.25,
  ``c`` 1, ``alpha`` 2) with the inner ratio and ``sep_hint`` both set to
  the pool's separation.  A seed passes when every true mean is matched by
  a learned mean within 0.3 and the trail holds an ``isolate`` event at
  level >= 1 (C9's checks, without its time bound).  At 10 the pool is C9's,
  at 7 it is ``tests/test_chain_sensitivity.py``'s ``[C9-sep7]``, and at 6
  it sat on the learner's separation cliff until the Far/Close statistic's
  coefficients were estimated once per chain, from 16 * reps blocks, in
  place of once per probe from reps blocks: over learner seeds 0-99 the
  call now passes 86/100 (4 means on 88 seeds, 3 on 9, 2 on 3), and no
  seed's last isolation level starves on a stream the earlier levels have
  emptied.  Before that, on 8 of the pool's 10 failing seeds the earlier
  predicates accepted every row, leaving no remainder, and over learner
  seeds 0-99 the c9-sep6 call passed 42/100 with each chain stage
  stopped once its halves agree on the directions they resolve.  It passed
  44/100 when the halves had to agree on all k directions, 48/100 with a
  fixed 5,000 rows per stage, 36/100 with a slack of 0.05 in place of
  0.01, and 41/100 with a fixed 1,024.  With one pair-test threshold per
  group, (0.2 s)^2 at the spacing s, in place of one per signal-search
  guess, it passed 46/100, and still did with the remainder taken as the
  rows no predicate accepts in place of a vote of its own (4 means on 49
  seeds, 3 on 15, 2 on 36).
- ``c9-wide``: C9's call with the outer ratio at 1e9 in place of 1000,
  below the gap split's threshold, so one group spans the whole spread and
  its covariance basis must keep the inner directions.  Ungated.
- ``c9-nohint``: C9's call with ``sep_hint`` left out, so every scale it
  sets comes from the group's spacing s = ln(k_g/w_min)^(0.5+c): the
  pair-test threshold (0.2 s)^2, the vote radius 0.5 s and the refinement
  floor max(0.04 ln^4, 2 s).  Ungated; it fails every seed, 19 of 20 with
  one mean: the threshold (0.2 s)^2 = 0.85 sits below the same-component
  noise floor, so the vote admits none.

Prints one JSON line per pool: passes, mean and max mixture rows per seed
(counted at the root stream, so rejected rows count), the worst mean error
over the seeds that recovered every mean (null when none did), the mean
seconds per seed, the number of seeds per count of means returned
(``means_returned``), and a SHA-256 digest of every seed's learned means and
weights: two checkouts learn the same bits on a pool when their digests
agree, so checking bit-identity is one comparison of the ``sha256`` fields.
``--expect FILE`` makes that comparison, together with the other
deterministic fields (``passes``, ``mean_rows_per_seed`` and
``max_rows_per_seed``): FILE is an earlier run's output, every field of a
pool that differs from its line there (or a pool with no line) is named on
stderr, and the exit status is 1 if any does.  The committed FILE is
``scripts/pools_expected.jsonl``, the nine pools' output at the last change
that moved learned bits or row counts, run with ``OPENBLAS_NUM_THREADS=1``:

    OPENBLAS_NUM_THREADS=1 python3 scripts/pools.py --expect scripts/pools_expected.jsonl
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixcluster.cli import match_means  # noqa: E402
from mixcluster.gaussian_cluster import ClusterParams, recursive_cluster  # noqa: E402
from mixcluster.mixture_gen import GenConfig, base_sampler, build_spec, sample_stream  # noqa: E402
from mixcluster.poincare_cluster import learn_means  # noqa: E402

SEEDS = 20
# the fields of a pool's line that repeat exactly from run to run
EXPECTED_FIELDS = ("passes", "mean_rows_per_seed", "max_rows_per_seed", "sha256")


class RowCounter:
    """Passes draws through to a stream and counts the rows it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.d = inner.d
        self.rows = 0

    def draw(self, n):
        out = self.inner.draw(n)
        self.rows += len(out)
        return out


def _poincare_pass(spec, learned, mean_tol: float, weight_tol: float) -> tuple:
    """(passed, errors) under a mean and a weight tolerance."""
    perm, errors = match_means(learned.means, spec.means)
    ok = len(learned.means) == spec.k and np.all(errors <= mean_tol)
    ok = ok and np.all(np.abs(learned.weights[perm] - spec.weights) <= weight_tol)
    return bool(ok), errors


def c8(tag: str, w_min: float = 0.25):
    spec = build_spec(GenConfig(k=3, d=3, separation=12.0, dist_tag=tag, seed=7))

    def run(seed: int):
        mix = RowCounter(sample_stream(spec, seed))
        learned = learn_means(mix, base_sampler(tag, 3, seed, 1), 3, w_min, 12.0, 2.0, 0.5,
                              reps=32, n_per_stage=15_000)
        return (mix.rows, learned) + _poincare_pass(spec, learned, 0.25, 0.05)

    return run


def deg3(seed: int):
    spec = build_spec(GenConfig(k=4, d=6, separation=12.0, dist_tag="gaussian", seed=seed))
    mix = RowCounter(sample_stream(spec, seed))
    learned = learn_means(mix, base_sampler("gaussian", 6, seed, 1), 4, 0.15, 12.0, 4.0, 0.5,
                          t=3, reps=16, n_per_stage=20_000, probes=60, batch=120)
    return (mix.rows, learned) + _poincare_pass(spec, learned, 0.4, 0.05)


def c9(sep: float, outer: float = 1000.0, hint: bool = True):
    spec = build_spec(
        GenConfig(k=4, d=16, profile="hierarchical", ratios=(sep, outer), dist_tag="gaussian", seed=0)
    )
    params = ClusterParams(sep_hint=sep if hint else None)

    def run(seed: int):
        mix = RowCounter(sample_stream(spec, seed))
        learned = recursive_cluster(mix, 4, 0.25, 1.0, 2.0, params=params, seed=seed)
        errors = match_means(learned.means, spec.means)[1]
        recursed = any(e["action"] == "isolate" and e.get("level", -1) >= 1 for e in learned.metadata["trail"])
        return mix.rows, learned, bool(np.all(errors <= 0.3) and recursed), errors

    return run


POOLS = {
    "c8-gaussian": c8("gaussian"),
    "c8-laplace": c8("laplace"),
    "c8-wtrue": c8("gaussian", 1 / 3),
    "deg3": deg3,
    "c9-sep10": c9(10.0),
    "c9-sep7": c9(7.0),
    "c9-sep6": c9(6.0),
    "c9-wide": c9(10.0, outer=1e9),
    "c9-nohint": c9(10.0, hint=False),
}


def run_pool(name: str) -> dict:
    passes, rows, worst, seconds, returned = 0, [], None, [], Counter()
    digest = hashlib.sha256()
    for seed in range(SEEDS):
        start = time.perf_counter()
        drawn, learned, passed, errors = POOLS[name](seed)
        seconds.append(time.perf_counter() - start)
        rows.append(drawn)
        returned[len(learned.means)] += 1
        digest.update(np.ascontiguousarray(learned.means, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(learned.weights, dtype=float).tobytes())
        if np.all(np.isfinite(errors)):
            worst = max(worst or 0.0, float(np.max(errors)))
        passes += passed
    return {
        "pool": name,
        "passes": passes,
        "seeds": SEEDS,
        "mean_rows_per_seed": round(float(np.mean(rows))),
        "max_rows_per_seed": int(max(rows)),
        "worst_mean_error": None if worst is None else round(worst, 4),
        "mean_s_per_seed": round(float(np.mean(seconds)), 3),
        "means_returned": {str(n): returned[n] for n in sorted(returned, reverse=True)},
        "sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pools", nargs="+", choices=list(POOLS), default=list(POOLS))
    parser.add_argument("--expect", type=Path, metavar="FILE", help="an earlier run's output to compare with")
    args = parser.parse_args(argv)
    expected = None
    if args.expect is not None:
        lines = args.expect.read_text(encoding="utf-8").splitlines()
        expected = {row["pool"]: row for row in map(json.loads, filter(str.strip, lines))}
    differ = []
    for name in args.pools:
        result = run_pool(name)
        print(json.dumps(result), flush=True)
        if expected is None:
            continue
        if name not in expected:
            differ.append(f"{name}: {args.expect} has no line")
            continue
        for key in EXPECTED_FIELDS:
            if result[key] != expected[name].get(key):
                differ.append(f"{name}: {key} {result[key]}, {args.expect} has {expected[name].get(key)}")
    for line in differ:
        print(line, file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
