"""State kernels against independent references."""

import numpy as np

from qgdream import kernels
from qgdream.edges import MATCH_EDGE_1, MATCH_EDGE_2
from qgdream.states import random_graph


def test_state_jacobian_equals_accumulated_terms():
    """Each (ket, edge) entry has one term, so scattering equals accumulating."""
    rng = np.random.default_rng(4)
    kets = np.arange(16)
    for _ in range(200):
        g = random_graph(rng)
        expected = np.zeros((16, 24))
        for d in range(3):
            np.add.at(expected, (kets, MATCH_EDGE_1[d]), g[MATCH_EDGE_2[d]])
            np.add.at(expected, (kets, MATCH_EDGE_2[d]), g[MATCH_EDGE_1[d]])
        assert np.array_equal(kernels.state_jacobian(g), expected)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    g = random_graph(rng)
    jac = kernels.state_jacobian(g)
    h = 1e-6
    for e in range(24):
        d = np.zeros(24)
        d[e] = h
        fd = (kernels.build_state_batch((g + d)[None])[0]
              - kernels.build_state_batch((g - d)[None])[0]) / (2 * h)
        assert np.max(np.abs(jac[:, e] - fd)) < 1e-8
