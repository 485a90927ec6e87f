import numpy as np
import pytest


def random_nested_projection(d, widths, rng):
    """A NestedProjection with random row-orthonormal stages of the given
    output widths."""
    from mixcluster.nested_projection import NestedProjection

    stages = []
    c_prev = 1
    for c in widths:
        raw = rng.standard_normal((d * c_prev, max(c, 1)))
        q, _ = np.linalg.qr(raw)
        stages.append(q[:, :c].T)
        c_prev = c
    return NestedProjection(tuple(stages), d)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
