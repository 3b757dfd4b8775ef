import math
import re

import numpy as np
import pytest

from qgdream.edges import EDGE_PERMUTATIONS, VERTEX_PERMUTATIONS, ket_bits
from qgdream.states import (
    BIPARTITIONS,
    GHZ_GRAPH,
    GHZ_STATE,
    DegenerateStateError,
    Property,
    W_STATE,
    build_state,
    concurrence,
    fidelity,
    mean_purity,
    normalize_state,
    pm_probability_array,
    property_value,
    property_value_batch,
    random_graph,
    reduced_purity,
)

from oracles import brute_force_state, dense_reduced_purity


def single_h_graph():
    """w01(0,0) = w23(0,0) = 1: one H matching feeding |0000>."""
    g = np.zeros(24)
    g[0] = 1.0
    g[20] = 1.0
    return g


class TestTargets:
    def test_unit_norm(self):
        assert abs(np.linalg.norm(GHZ_STATE) - 1.0) < 1e-15
        assert abs(np.linalg.norm(W_STATE) - 1.0) < 1e-15

    def test_ghz_support(self):
        assert GHZ_STATE[0b0000] == GHZ_STATE[0b1111] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(GHZ_STATE) == 2

    def test_w_support(self):
        for ket in (0b1000, 0b0100, 0b0010, 0b0001):
            assert W_STATE[ket] == 0.5
        assert np.count_nonzero(W_STATE) == 4


class TestRandomGraph:
    def test_deterministic(self):
        assert np.array_equal(random_graph(7), random_graph(7))

    @pytest.mark.parametrize("key", [7, [3, 2]])
    def test_rows_are_one_draw(self, key):
        # row r does not depend on n, and row 0 is the lone graph
        rows = random_graph(key, 9)
        assert rows.shape == (9, 24)
        assert np.array_equal(rows[0], random_graph(key))
        for n in (1, 2, 5):
            assert np.array_equal(random_graph(key, n), rows[:n])

    def test_generator_advanced(self):
        rng = np.random.default_rng(4)
        first, second = random_graph(rng), random_graph(rng, 2)
        assert np.array_equal(np.vstack([first, second]), random_graph(4, 3))

    def test_range(self):
        for seed in range(20):
            assert np.all(np.abs(random_graph(seed)) <= 1.0)

    def test_component_mean_near_zero(self):
        rng = np.random.default_rng(0)
        samples = np.array([random_graph(rng)[0] for _ in range(100_000)])
        assert -0.02 <= samples.mean() <= 0.02


class TestBuildState:
    def test_zero_graph(self):
        assert np.array_equal(build_state(np.zeros(24)), np.zeros(16))

    def test_single_h_matching(self):
        s = build_state(single_h_graph())
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.array_equal(s, expected)

    def test_all_ones(self):
        assert np.allclose(build_state(np.ones(24)), 3.0)

    def test_ghz_fixture(self):
        s = build_state(GHZ_GRAPH)
        expected = np.zeros(16)
        expected[0b0000] = expected[0b1111] = 1.0
        assert np.array_equal(s, expected)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            g = random_graph(rng)
            assert np.max(np.abs(build_state(g) - brute_force_state(g))) < 1e-12

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            build_state(np.zeros(23))


class TestNormalize:
    def test_scales_to_unit(self):
        s = np.zeros(16)
        s[0] = 2.0
        out = normalize_state(s)
        assert out[0] == 1.0

    def test_ghz_fixture(self):
        out = normalize_state(build_state(GHZ_GRAPH))
        assert np.allclose(out, GHZ_STATE, atol=1e-12)

    def test_degenerate(self):
        # exactly where property_value reads NaN: the last state has finite
        # amplitudes whose norm overflows
        for state in (np.zeros(16), np.full(16, np.inf), np.full(16, np.nan),
                      build_state(1e80 * GHZ_GRAPH)):
            with pytest.raises(DegenerateStateError):
                normalize_state(state)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = normalize_state(build_state(random_graph(rng)))
            assert np.max(np.abs(normalize_state(s) - s)) < 1e-15

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = normalize_state(build_state(random_graph(rng)))
            assert abs(np.dot(s, s) - 1.0) < 1e-12


class TestFidelity:
    def test_non_finite_norm_raises(self):
        with pytest.raises(DegenerateStateError):
            fidelity(1e80 * GHZ_GRAPH, GHZ_STATE)

    def test_ghz_fixture_vs_ghz(self):
        assert fidelity(GHZ_GRAPH, GHZ_STATE) == pytest.approx(1.0, abs=1e-12)

    def test_single_h_vs_ghz(self):
        assert fidelity(single_h_graph(), GHZ_STATE) == pytest.approx(0.5, abs=1e-12)

    def test_all_ones(self):
        ones = np.ones(24)
        assert fidelity(ones, GHZ_STATE) == pytest.approx(0.125, abs=1e-12)
        assert fidelity(ones, W_STATE) == pytest.approx(0.25, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            f = fidelity(random_graph(rng), GHZ_STATE)
            assert 0.0 <= f <= 1.0


class TestPurity:
    def test_product_state(self):
        s = np.zeros(16)
        s[0] = 1.0
        for b in BIPARTITIONS:
            assert reduced_purity(s, b) == pytest.approx(1.0, abs=1e-12)
        assert mean_purity(s) == pytest.approx(1.0, abs=1e-12)
        assert concurrence(s) == pytest.approx(0.0, abs=1e-9)

    def test_ghz(self):
        for b in BIPARTITIONS:
            assert reduced_purity(GHZ_STATE, b) == pytest.approx(0.5, abs=1e-12)
        assert mean_purity(GHZ_STATE) == pytest.approx(0.5, abs=1e-12)
        assert concurrence(GHZ_STATE) == pytest.approx(7.0, abs=1e-9)

    def test_w_state_values(self):
        for b in BIPARTITIONS:
            expected = 0.625 if len(b) == 1 else 0.5
            assert reduced_purity(W_STATE, b) == pytest.approx(expected, abs=1e-12)
        assert mean_purity(W_STATE) == pytest.approx(4 / 7, abs=1e-12)
        assert concurrence(W_STATE) == pytest.approx(4 * np.sqrt(0.75) + 3, abs=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = normalize_state(build_state(random_graph(rng)))
            for b in BIPARTITIONS:
                assert reduced_purity(s, b) == pytest.approx(
                    dense_reduced_purity(s, b), abs=1e-12)

    def test_any_subset_matches_dense_oracle(self):
        # complements, three-qubit sides and unsorted orders are not in the
        # table, so they build their cut on the fly
        rng = np.random.default_rng(17)
        subsets = [(1, 2, 3), (2, 3), (3, 0), (2, 1), (3, 1, 0), (1, 0, 2, 3)]
        for _ in range(50):
            s = normalize_state(build_state(random_graph(rng)))
            for b in subsets:
                assert reduced_purity(s, b) == pytest.approx(
                    dense_reduced_purity(s, b), abs=1e-12)

    @pytest.mark.parametrize("subset", [(0, 0), (4,), (-1, 2)])
    def test_rejects_bad_subset(self, subset):
        with pytest.raises(ValueError, match="subset of the qubits"):
            reduced_purity(GHZ_STATE, subset)

    def test_rejects_unnormalized(self):
        s = np.zeros(16)
        s[0] = 2.0
        with pytest.raises(ValueError):
            reduced_purity(s, (0,))

    def test_ranges(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            s = normalize_state(build_state(random_graph(rng)))
            mp = mean_purity(s)
            c = concurrence(s)
            assert 0.0 < mp <= 1.0
            assert 0.0 <= c <= 7 * np.sqrt(2)


class TestPmProbabilityArray:
    def test_single_h(self):
        arr = pm_probability_array(single_h_graph())
        assert arr.shape == (3, 16)
        assert arr[0, 0] == 1.0
        assert arr.sum() == 1.0

    def test_ghz_fixture(self):
        arr = pm_probability_array(GHZ_GRAPH)
        assert arr[0, 0b0000] == 1.0
        assert arr[2, 0b1111] == 1.0
        assert arr.sum() == 2.0

    def test_all_ones(self):
        assert np.array_equal(pm_probability_array(np.ones(24)), np.ones((3, 16)))

    @pytest.mark.parametrize("shape", [(25,), (23,), (1, 24), ()])
    def test_wrong_shape_rejected(self, shape):
        # a 25th weight used to be ignored, and 23 weights ended in an IndexError
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            pm_probability_array(np.ones(shape))

    def test_exact_squared_products(self):
        from qgdream.edges import MATCH_EDGE_1, MATCH_EDGE_2
        rng = np.random.default_rng(13)
        g = random_graph(rng)
        arr = pm_probability_array(g)
        for d in range(3):
            for k in range(16):
                expected = (g[MATCH_EDGE_1[d, k]] * g[MATCH_EDGE_2[d, k]]) ** 2
                assert arr[d, k] == expected


class TestPropertyValue:
    def test_fixtures(self):
        assert property_value(GHZ_GRAPH, Property.GHZ_FIDELITY) == pytest.approx(1.0, abs=1e-12)
        assert property_value(GHZ_GRAPH, Property.MEAN_PURITY) == pytest.approx(0.5, abs=1e-12)
        assert property_value(np.ones(24), Property.W_FIDELITY) == pytest.approx(0.25, abs=1e-12)

    def test_accepts_string(self):
        assert property_value(GHZ_GRAPH, "ghz_fidelity") == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_propagates(self):
        # norm^2 of 1e-7 * GHZ_GRAPH is 2e-28, below EPS_NORM**2
        for prop in Property:
            for g in (np.zeros(24), 1e-7 * GHZ_GRAPH):
                assert math.isnan(property_value(g, prop))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(14)
        graphs = np.array([random_graph(rng) for _ in range(50)])
        for prop in Property:
            values = property_value_batch(graphs, prop)
            assert not np.isnan(values).any()
            for g, v in zip(graphs, values):
                assert v == pytest.approx(reference_value(g, prop), abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 25), (3, 23), (24,), (2, 3, 24)])
    def test_batch_wrong_shape_rejected(self, shape):
        # (3, 25) weights used to give 3 values from their first 24 columns
        for prop in Property:
            with pytest.raises(ValueError, match=re.escape(f"per row, got shape {shape}")):
                property_value_batch(np.ones(shape), prop)

    def test_batch_mean_purity_matches_dense_oracle(self):
        rng = np.random.default_rng(18)
        graphs = rng.uniform(-1.0, 1.0, (300, 24))
        values = property_value_batch(graphs, Property.MEAN_PURITY)
        assert not np.isnan(values).any()
        for g, v in zip(graphs, values):
            s = brute_force_state(g)
            s = s / np.linalg.norm(s)
            expected = np.mean([dense_reduced_purity(s, b) for b in BIPARTITIONS])
            assert abs(v - expected) < 1e-12

    @pytest.mark.parametrize("prop", list(Property))
    def test_batch_invariant_under_symmetry_group(self, prop):
        # 24 vertex relabellings x global sign flip: all 48 elements
        rng = np.random.default_rng(15)
        graphs = rng.uniform(-1.0, 1.0, (200, 24))
        values = property_value_batch(graphs, prop)
        assert not np.isnan(values).any()
        for row in EDGE_PERMUTATIONS:
            for sign in (1.0, -1.0):
                mapped = property_value_batch(sign * graphs[:, row], prop)
                assert not np.isnan(mapped).any()
                assert np.max(np.abs(mapped - values)) < 1e-12

    def test_relabelling_permutes_qubits(self):
        # brute-force oracle: relabelling the vertices by sigma moves the
        # mode of vertex sigma(q) to qubit q in every ket
        g = random_graph(16)
        state = brute_force_state(g)
        for sigma, row in zip(VERTEX_PERMUTATIONS, EDGE_PERMUTATIONS):
            src = [sum(bit << (3 - sigma[q]) for q, bit in enumerate(ket_bits(ket)))
                   for ket in range(16)]
            expected = state[src]
            assert np.max(np.abs(brute_force_state(g[row]) - expected)) < 1e-12

    def test_batch_flags_degenerate(self):
        # the rows that normalize_state refuses read NaN
        graphs = np.zeros((5, 24))
        graphs[1] = GHZ_GRAPH
        graphs[3] = 1e-7 * GHZ_GRAPH
        graphs[4] = random_graph(19)
        for prop in Property:
            values = property_value_batch(graphs, prop)
            assert list(np.isnan(values)) == [True, False, True, True, False]
            for g, v in zip(graphs[[1, 4]], values[[1, 4]]):
                assert abs(v - reference_value(g, prop)) < 1e-12

    def test_non_finite_state_reads_nan(self):
        # finite amplitudes whose norm overflows: an inf norm used to give
        # 0.0 or, for one graph's mean purity, raise "not unit-norm"
        graphs = np.array([1e80 * GHZ_GRAPH, np.full(24, np.inf), np.full(24, np.nan)])
        for prop in Property:
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.isnan(property_value_batch(graphs, prop)).all()
                assert all(math.isnan(property_value(g, prop)) for g in graphs)


def reference_value(graph, prop):
    """A property value through the state-level functions, one graph at a time."""
    if Property(prop) is Property.MEAN_PURITY:
        return mean_purity(normalize_state(build_state(graph)))
    target = GHZ_STATE if Property(prop) is Property.GHZ_FIDELITY else W_STATE
    return fidelity(graph, target)


class TestRowExact:
    """Each row of a batch has the bits of its graph's lone property_value.

    Batches of every size below start at each of offsets 0-7 of one pool of
    graphs. The pool mixes random graphs with zero-heavy and degenerate ones,
    whose NaN must match too (compared as bytes, so NaN equals NaN).
    """

    SIZES = [*range(1, 40), 63, 64, 65, 127, 128, 129, 255, 1000]

    @staticmethod
    def pool():
        rng = np.random.default_rng(20)
        pool = rng.uniform(-1.0, 1.0, (1007, 24))
        sparse = pool[::3]  # a view: every third row is zero-heavy
        sparse[rng.random(sparse.shape) < 0.8] = 0.0
        pool[5::11] = 0.0
        pool[7::11] = -0.0
        pool[9::13] = 1e-7 * GHZ_GRAPH
        pool[10::13] = GHZ_GRAPH
        pool[12::17] = single_h_graph()
        pool[13::17] = np.ones(24)
        return pool

    @pytest.mark.parametrize("prop", list(Property))
    def test_every_row_equals_its_lone_call(self, prop):
        pool = self.pool()
        lone = [property_value(g, prop) for g in pool]
        assert all(type(v) is float for v in lone)
        lone = np.array(lone)
        assert np.isnan(lone).any() and not np.isnan(lone).all()
        for n in self.SIZES:
            for offset in range(8):
                rows = pool[offset:offset + n]
                expected = lone[offset:offset + n].tobytes()
                assert property_value_batch(rows, prop).tobytes() == expected, (n, offset)
                assert property_value(rows, prop).tobytes() == expected, (n, offset)
