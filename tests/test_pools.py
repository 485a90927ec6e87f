"""Both learners' bits on five of their seed pools.

Runs ``scripts/pools.py``'s ``c9-sep10`` pool (C9's call on seeds 0-19), its
``c9-sep6`` pool (the same call at separation 6, where predicates often
leave no remainder), its ``c9-nohint`` pool (C9's call with no separation
hint, so every scale comes from the group's spacing ln(k/w_min)^(0.5+c)),
its ``c8-gaussian`` pool (C8's ``learn_means`` call) and its ``deg3`` pool
(``learn_means`` at t=3), and compares each pool's pass count, mixture row
counts and digest of the learned means and weights with its line in
``scripts/pools_expected.jsonl``, so a change that moves a single learned
bit or row count on any of the 100 seeds fails here.  The two Poincaré pools
add about 2 s and hold both of that learner's chain shapes (one stage, and
two at t=3); ``c9-nohint`` adds about 2 s.  All five digests are the same
at 1 and 2 BLAS threads.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_c9_pool_learns_its_expected_bits():
    spec = importlib.util.spec_from_file_location("pools", SCRIPTS / "pools.py")
    pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pools)
    # exit status 1, with the differing fields on stderr, on any difference
    names = ["c9-sep10", "c9-sep6", "c9-nohint", "c8-gaussian", "deg3"]
    assert pools.main(["--pools", *names, "--expect", str(SCRIPTS / "pools_expected.jsonl")]) == 0
