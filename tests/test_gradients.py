import numpy as np
import pytest

from qgdream.edges import EDGE_PERMUTATIONS
from qgdream.states import (
    GHZ_GRAPH,
    DegenerateStateError,
    Property,
    property_gradient,
    property_value,
    random_graph,
)

from oracles import dense_property_gradient, finite_difference


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
        with pytest.raises(DegenerateStateError):
            property_gradient(np.zeros(24), Property.GHZ_FIDELITY)


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
