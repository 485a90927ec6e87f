"""Moment-based learning of translated mixtures via implicit tensor projections.

The package splits into a lazy moment/projection core (nested_projection,
moment_pipeline), the Far/Close test of pairs and batches (sample_test),
two learners (poincare_cluster for general 1-Poincare mixtures,
gaussian_cluster for the recursive Gaussian variant), synthetic data
generation (mixture_gen), and a CLI harness (cli).  The dense d^t
references the tests and the CLI's validate suites check the lazy core
against live in oracles, which no learner imports.
"""

from .gaussian_cluster import ClusterParams, desk_params, recursive_cluster
from .mixture_gen import GenConfig, MixtureSampler, base_sampler, build_spec, sample_stream
from .moment_pipeline import MixtureSpec, iterative_projection
from .nested_projection import NestedProjection
from .poincare_cluster import LearnedMixture, learn_means
from .sample_test import TestConfig, choose_threshold, pair_test

__all__ = [
    "ClusterParams",
    "GenConfig",
    "LearnedMixture",
    "MixtureSampler",
    "MixtureSpec",
    "NestedProjection",
    "TestConfig",
    "base_sampler",
    "build_spec",
    "choose_threshold",
    "desk_params",
    "iterative_projection",
    "learn_means",
    "pair_test",
    "recursive_cluster",
    "sample_stream",
]

__version__ = "0.1.0"
