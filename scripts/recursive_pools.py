"""Pass counts of the recursive learner on C9's call at three separations.

Usage, from the repository root:

    python3 scripts/recursive_pools.py [--seps 10 7 6]

Each pool is the C9 acceptance call (``recursive_cluster`` on k=4, d=16, the
hierarchical spec with outer ratio 1000, ``w_min`` 0.25, ``c`` 1, ``alpha``
2) with the inner ratio and ``sep_hint`` both set to the pool's separation,
run on learner seeds 0-19.  A seed passes when every true mean is
matched by a learned mean within 0.3 and the trail holds an ``isolate``
event at level >= 1 (C9's checks, without its time bound).  At 10 the pool
is C9's, at 7 it is ``tests/test_chain_sensitivity.py``'s ``[C9-sep7]``, and
at 6 it sits on the learner's separation cliff, too slow for a tier-1 gate.

Prints one JSON line per pool: passes, mean and max mixture rows per seed
(counted at the root stream, so rejected rows count), the worst mean error
over the seeds that recovered every mean (null when none did), the mean
seconds per seed, and a SHA-256 digest of every seed's learned means and
weights: two checkouts learn the same bits on a pool when their digests
agree, so checking bit-identity is one comparison of the ``sha256`` fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixcluster.cli import match_means  # noqa: E402
from mixcluster.gaussian_cluster import desk_params, recursive_cluster  # noqa: E402
from mixcluster.mixture_gen import GenConfig, build_spec, sample_stream  # noqa: E402

TOLERANCE = 0.3  # C9's mean-error tolerance
SEEDS = 20


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


def run_pool(sep: float) -> dict:
    spec = build_spec(
        GenConfig(k=4, d=16, profile="hierarchical", ratios=(sep, 1000.0), dist_tag="gaussian", seed=0)
    )
    params = desk_params(4, 0.25, sep_hint=sep)
    passes, rows, worst, seconds = 0, [], None, []
    digest = hashlib.sha256()
    for seed in range(SEEDS):
        start = time.perf_counter()
        mix = RowCounter(sample_stream(spec, seed))
        learned = recursive_cluster(mix, 4, 0.25, 1.0, 2.0, params=params, seed=seed)
        seconds.append(time.perf_counter() - start)
        rows.append(mix.rows)
        digest.update(np.ascontiguousarray(learned.means, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(learned.weights, dtype=float).tobytes())
        errors = match_means(learned.means, spec.means)[1]
        if np.all(np.isfinite(errors)):
            worst = max(worst or 0.0, float(np.max(errors)))
        recursed = any(e["action"] == "isolate" and e.get("level", -1) >= 1 for e in learned.metadata["trail"])
        passes += bool(np.all(errors <= TOLERANCE) and recursed)
    return {
        "sep": sep,
        "passes": passes,
        "seeds": SEEDS,
        "mean_rows_per_seed": round(float(np.mean(rows))),
        "max_rows_per_seed": int(max(rows)),
        "worst_mean_error": None if worst is None else round(worst, 4),
        "mean_s_per_seed": round(float(np.mean(seconds)), 3),
        "sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seps", type=float, nargs="+", default=[10.0, 7.0, 6.0])
    args = parser.parse_args(argv)
    for sep in args.seps:
        print(json.dumps(run_pool(sep)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
