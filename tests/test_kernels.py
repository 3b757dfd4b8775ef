"""State kernels against independent references."""

import numpy as np
from hypothesis import given, settings

from qgdream import kernels, states
from qgdream.edges import MATCH_EDGE_1, MATCH_EDGE_2

import oracles
from oracles import ZERO_HEAVY_GRAPHS


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
