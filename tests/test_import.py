import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_import_loads_no_scipy():
    # scipy is for the CLI and the tests; the library itself runs on numpy
    code = (
        "import mixcluster, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_learners_load_no_oracles_or_cli():
    # a learner loads only learner modules: not the dense references
    # (oracles), not the harness (cli), and no module beyond these
    learner_modules = [
        "mixcluster",
        "mixcluster.gaussian_cluster",
        "mixcluster.poincare_cluster",
        "mixcluster.sample_test",
        "mixcluster.moment_pipeline",
        "mixcluster.nested_projection",
        "mixcluster.mixture_gen",
    ]
    allowed = set(learner_modules) | {"mixcluster.rng"}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for module in learner_modules:
        code = (
            f"import {module}, sys; "
            "print(' '.join(m for m in sys.modules if m.startswith('mixcluster')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        loaded = set(out.stdout.split())
        assert "mixcluster.oracles" not in loaded and "mixcluster.cli" not in loaded, module
        assert loaded <= allowed, (module, sorted(loaded - allowed))
