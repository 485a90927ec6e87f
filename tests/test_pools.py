"""The recursive learner's bits on two of its seed pools.

Runs ``scripts/pools.py``'s ``c9-sep10`` pool (C9's call on seeds 0-19) and
its ``c9-sep6`` pool (the same call at separation 6, where remainders
starve) and compares each pool's pass count, mixture row counts and digest
of the learned means and weights with its line in
``scripts/pools_expected.jsonl``, so a change that moves a single learned
bit or row count on any of the 40 seeds fails here.  Both digests are the
same at 1 and 2 BLAS threads.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_c9_pool_learns_its_expected_bits():
    spec = importlib.util.spec_from_file_location("pools", SCRIPTS / "pools.py")
    pools = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pools)
    # exit status 1, with the differing fields on stderr, on any difference
    assert pools.main(["--pools", "c9-sep10", "c9-sep6", "--expect", str(SCRIPTS / "pools_expected.jsonl")]) == 0
