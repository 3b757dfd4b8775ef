"""State kernels against independent references."""

import numpy as np
from hypothesis import given, settings

from qgdream import kernels, states
from qgdream.edges import EDGE_TERM_KETS, EDGE_TERM_PARTNERS, MATCH_EDGE_1, MATCH_EDGE_2
from qgdream.states import random_graph

import oracles
from oracles import ZERO_HEAVY_GRAPHS, accumulated_state_jacobian


def table_jacobian(g):
    """d amplitude / d weight, (16, 24), assigned from the edge-term tables."""
    jac = np.zeros((16, 24))
    for t in range(EDGE_TERM_KETS.shape[1]):
        jac[EDGE_TERM_KETS[:, t], np.arange(24)] = g[EDGE_TERM_PARTNERS[:, t]]
    return jac


def test_state_jacobian_equals_accumulated_terms():
    """Each (ket, edge) entry has one term, so assigning equals accumulating."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        g = random_graph(rng)
        assert np.array_equal(table_jacobian(g), accumulated_state_jacobian(g))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    g = random_graph(rng)
    jac = table_jacobian(g)
    h = 1e-6
    for e in range(24):
        d = np.zeros(24)
        d[e] = h
        fd = (kernels.build_state_batch((g + d)[None])[0]
              - kernels.build_state_batch((g - d)[None])[0]) / (2 * h)
        assert np.max(np.abs(jac[:, e] - fd)) < 1e-8


def test_batch_kernels_bit_equal_to_fancy_index_reference():
    # take-gathered terms summed by the same einsum: every bit as before,
    # whatever the batch size
    w = np.random.default_rng(5).uniform(-1.0, 1.0, (20_000, 24))
    for n in (1, 7, 20_000):
        states = kernels.build_state_batch(w[:n])
        assert states.shape == (n, 16)
        assert np.array_equal(states, oracles.build_state_batch(w[:n]))
        terms = w[:n, MATCH_EDGE_1] * w[:n, MATCH_EDGE_2]
        assert np.array_equal(kernels.pm_probability_batch(w[:n]), terms ** 2)


@settings(max_examples=500, deadline=None, database=None)
@given(g=ZERO_HEAVY_GRAPHS)
def test_one_row_state_bit_equal_to_batch_row(g):
    # the one-row path sums the directions from +0.0 as the batch's does, so
    # no amplitude differs, not even in the sign of a zero
    one = states.build_state(g)
    batch = kernels.build_state_batch(g[None])[0]
    assert np.array_equal(one.view(np.int64), batch.view(np.int64))
