"""Parity between the compiled kernels and the pure-numpy fallback."""

import numpy as np

from qgdream import _kernels_py, kernels
from qgdream.edges import MATCH_EDGE_1, MATCH_EDGE_2
from qgdream.states import random_graph


def random_batch(n, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_graph(rng) for _ in range(n)])


def test_backend_selected():
    assert kernels.BACKEND in ("cython", "python")


def test_build_state_parity():
    w = random_batch(200, 0)
    assert np.max(np.abs(kernels.build_state_batch(w)
                         - _kernels_py.build_state_batch(w))) < 1e-15


def test_pm_probability_parity():
    w = random_batch(200, 1)
    assert np.max(np.abs(kernels.pm_probability_batch(w)
                         - _kernels_py.pm_probability_batch(w))) < 1e-15


def test_state_jacobian_parity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = random_graph(rng)
        assert np.max(np.abs(kernels.state_jacobian(g)
                             - _kernels_py.state_jacobian(g))) < 1e-15


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
        assert np.array_equal(_kernels_py.state_jacobian(g), expected)


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
