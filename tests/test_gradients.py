import math

import numpy as np
import pytest
from hypothesis import given, settings

from qgdream import kernels
from qgdream.edges import EDGE_PERMUTATIONS, EDGE_TERM_KETS, EDGE_TERM_PARTNERS, N_KETS
from qgdream.states import (
    _CUT_STACKS,
    _CUT_STACKS_FLAT,
    BIPARTITIONS,
    EPS_NORM,
    GHZ_GRAPH,
    GHZ_STATE,
    W_STATE,
    DegenerateStateError,
    Property,
    property_gradient,
    property_value,
    random_graph,
)

from oracles import ZERO_HEAVY_GRAPHS, dense_property_gradient, finite_difference


def rel_error(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / scale


class TestPropertyGradient:
    def test_stationary_at_ghz_maximum(self):
        grad = property_gradient(GHZ_GRAPH, Property.GHZ_FIDELITY)
        assert np.max(np.abs(grad)) < 1e-9

    @pytest.mark.parametrize("prop", list(Property))
    def test_matches_finite_differences(self, prop):
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = random_graph(rng)
            grad = property_gradient(g, prop)
            fd = finite_difference(lambda w: property_value(w, prop), g)
            assert rel_error(grad, fd) < 1e-4

    def test_tight_tolerance_spot_check(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        grad = property_gradient(g, Property.GHZ_FIDELITY)
        fd = finite_difference(lambda w: property_value(w, Property.GHZ_FIDELITY), g)
        assert rel_error(grad, fd) < 1e-6

    def test_scale_invariance_of_fidelity(self):
        # amplitudes scale by c^2 under w -> c w, so the normalized state and
        # the fidelity are unchanged; the gradient is orthogonal to w
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng)
            f = property_value(g, Property.GHZ_FIDELITY)
            for c in (0.5, 2.0):
                assert property_value(c * g, Property.GHZ_FIDELITY) == pytest.approx(f, abs=1e-12)
            grad = property_gradient(g, Property.GHZ_FIDELITY)
            assert abs(np.dot(grad, g)) < 1e-9

    def test_degenerate_raises(self):
        # exactly where property_value reads NaN, an overflowing norm included
        for graph in (np.zeros(24), 1e80 * GHZ_GRAPH, np.full(24, np.nan)):
            for prop in Property:
                with np.errstate(over="ignore"):
                    assert math.isnan(property_value(graph, prop))
                with pytest.raises(DegenerateStateError):
                    property_gradient(graph, prop)

    @pytest.mark.parametrize("prop", list(Property))
    @pytest.mark.parametrize("k", [0, 60, 133, 200])
    def test_power_of_two_scale_bit_exact(self, prop, k):
        # grad(c w) = grad(w) / c, and scaling by a power of two is exact. From
        # k = 133 on, norm2 ** 2 of the scaled state would overflow: the
        # fidelity gradients used to lose their second term, with a warning
        g = random_graph(1)
        assert np.array_equal(property_gradient(2.0 ** k * g, prop),
                              property_gradient(g, prop) / 2.0 ** k)


@pytest.mark.parametrize("prop", list(Property))
def test_matches_dense_jacobian_reference(prop):
    rng = np.random.default_rng(11)
    for _ in range(300):
        g = random_graph(rng)
        assert rel_error(property_gradient(g, prop), dense_property_gradient(g, prop)) < 1e-12


@pytest.mark.parametrize("prop", list(Property))
def test_equivariant_under_symmetry_group(prop):
    # F(sign * g[row]) = F(g) for all 48 elements, so the gradient at the
    # mapped graph is the mapped gradient: grad(sign * g[row]) = sign * grad(g)[row]
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = random_graph(rng)
        grad = property_gradient(g, prop)
        for row in EDGE_PERMUTATIONS:
            for sign in (1.0, -1.0):
                mapped = property_gradient(sign * g[row], prop)
                assert rel_error(mapped, sign * grad[row]) < 1e-12


def batch_state_gradient(graph, prop):
    """property_gradient as computed on the batch kernel's state row.

    The mean-purity part takes each cut stack, scales and ravels it, and
    concatenates the list; the result gathers its edge terms with take.
    """
    prop = Property(prop)
    w = np.asarray(graph, dtype=np.float64)
    s = kernels.build_state_batch(w[None, :])[0]
    norm2 = float(np.dot(s, s))
    if norm2 <= EPS_NORM ** 2:
        raise DegenerateStateError("gradient undefined for a degenerate state")
    if prop in (Property.GHZ_FIDELITY, Property.W_FIDELITY):
        target = GHZ_STATE if prop is Property.GHZ_FIDELITY else W_STATE
        overlap = float(np.dot(s, target))
        grad_s = (2.0 * overlap / norm2) * target - (2.0 * overlap ** 2 / norm2 ** 2) * s
    else:
        norm = np.sqrt(norm2)
        s_hat = s / norm
        dm = [4.0 * (m @ m.transpose(0, 2, 1) @ m) for m in map(s_hat.take, _CUT_STACKS)]
        g_hat = np.bincount(_CUT_STACKS_FLAT, np.concatenate([d.ravel() for d in dm]),
                            minlength=N_KETS)
        g_hat /= len(BIPARTITIONS)
        grad_s = (g_hat - np.dot(g_hat, s_hat) * s_hat) / norm
    return (grad_s.take(EDGE_TERM_KETS) * w.take(EDGE_TERM_PARTNERS)).sum(1)


@settings(max_examples=300, deadline=None, database=None)
@given(g=ZERO_HEAVY_GRAPHS)
def test_gradient_bit_equal_to_batch_state_reference(g):
    for prop in Property:
        try:
            expected = batch_state_gradient(g, prop)
        except DegenerateStateError:
            with pytest.raises(DegenerateStateError):
                property_gradient(g, prop)
            continue
        got = property_gradient(g, prop)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
