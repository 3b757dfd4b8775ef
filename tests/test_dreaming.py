import math

import numpy as np
import pytest

from qgdream.analysis import UndefinedEntropyError, entropy_profile, neuron_entropy
from qgdream.dreaming import (
    DreamConfig,
    dream,
    dream_ensemble,
    dream_neuron,
    dream_oracle,
    run_seeds,
)
from qgdream.nn import init_mlp, input_gradient
from qgdream.states import (
    GHZ_GRAPH,
    DegenerateStateError,
    Property,
    pm_probability_array,
    random_graph,
)

from oracles import truncate_at_neuron


def small_cfg(**kw):
    base = dict(steps=50, lr=1e-3, snapshot_stride=10, seed=0)
    base.update(kw)
    return DreamConfig(**base)


class TestDream:
    def test_zero_gradient_start_unchanged(self):
        m = init_mlp([24, 4, 1], seed=0)
        m.weights[0][:] = 0.0
        g0 = random_graph(1)
        traj = dream(m, g0, Property.GHZ_FIDELITY, small_cfg())
        assert np.array_equal(traj.final.weights, g0)

    def test_model_frozen(self):
        m = init_mlp([24, 8, 1], seed=1)
        before = m.checksum()
        dream(m, random_graph(2), Property.GHZ_FIDELITY, small_cfg())
        assert m.checksum() == before

    def test_clamp_invariant(self):
        m = init_mlp([24, 8, 1], seed=2)
        traj = dream(m, random_graph(3), Property.GHZ_FIDELITY,
                     small_cfg(lr=0.5, steps=100))
        for snap in traj.snapshots:
            assert np.all(np.abs(snap.weights) <= 1.0)

    def test_reproducible(self):
        m = init_mlp([24, 8, 1], seed=3)
        t1 = dream(m, random_graph(4), Property.GHZ_FIDELITY, small_cfg())
        t2 = dream(m, random_graph(4), Property.GHZ_FIDELITY, small_cfg())
        for a, b in zip(t1.snapshots, t2.snapshots):
            assert np.array_equal(a.weights, b.weights)
            assert a.predicted == b.predicted

    def test_snapshot_steps_strictly_increasing(self):
        m = init_mlp([24, 8, 1], seed=4)
        traj = dream(m, random_graph(5), Property.GHZ_FIDELITY,
                     small_cfg(steps=37, snapshot_stride=10))
        steps = [s.step for s in traj.snapshots]
        assert steps[0] == 0 and steps[-1] == 37
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_degenerate_true_value_recorded_missing(self):
        m = init_mlp([24, 4, 1], seed=5)
        m.weights[0][:] = 0.0  # ascent never moves, start stays degenerate
        traj = dream(m, np.zeros(24), Property.GHZ_FIDELITY, small_cfg())
        assert math.isnan(traj.initial.true_value)
        assert math.isnan(traj.final.true_value)

    def test_none_property_skips_true_values(self):
        m = init_mlp([24, 4, 1], seed=6)
        traj = dream(m, random_graph(6), None, small_cfg())
        assert all(math.isnan(s.true_value) for s in traj.snapshots)


class TestDreamOracle:
    def test_ghz_fixture_stationary(self):
        traj = dream_oracle(GHZ_GRAPH, Property.GHZ_FIDELITY, small_cfg(steps=200))
        assert traj.final.true_value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(traj.final.weights, GHZ_GRAPH, atol=1e-9)

    def test_monotone_ascent(self):
        cfg = small_cfg(steps=500, lr=1e-3, snapshot_stride=1, seed=0)
        traj = dream_oracle(random_graph(7), Property.GHZ_FIDELITY, cfg)
        values = [s.true_value for s in traj.snapshots]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_improves_fidelity(self):
        cfg = small_cfg(steps=2000, lr=1e-2, snapshot_stride=2000)
        traj = dream_oracle(random_graph(8), Property.GHZ_FIDELITY, cfg)
        assert traj.final.true_value > traj.initial.true_value + 0.2

    def test_mean_purity_from_ghz_start(self):
        cfg = small_cfg(steps=3000, lr=1e-2, snapshot_stride=3000)
        traj = dream_oracle(GHZ_GRAPH + 0.01 * random_graph(9),
                            Property.MEAN_PURITY, cfg)
        assert traj.final.true_value > 0.9

    def test_degenerate_start_aborts(self):
        with pytest.raises(DegenerateStateError):
            dream_oracle(np.zeros(24), Property.GHZ_FIDELITY, small_cfg())


class TestDreamEnsemble:
    def test_single_run_equals_dream(self):
        m = init_mlp([24, 8, 1], seed=7)
        cfg = small_cfg(steps=30)
        result = dream_ensemble(m, Property.GHZ_FIDELITY, 1, cfg)
        from qgdream.dreaming import run_seeds
        g0 = random_graph(np.random.default_rng(run_seeds(cfg.seed, 1)[0]))
        solo = dream(m, g0, Property.GHZ_FIDELITY,
                     small_cfg(steps=30, snapshot_stride=30))
        assert result.final_true[0] == solo.final.true_value
        assert np.array_equal(result.final_graphs[0], solo.final.weights)

    def test_reproducible(self):
        m = init_mlp([24, 8, 1], seed=8)
        r1 = dream_ensemble(m, Property.GHZ_FIDELITY, 5, small_cfg(steps=20))
        r2 = dream_ensemble(m, Property.GHZ_FIDELITY, 5, small_cfg(steps=20))
        assert np.array_equal(r1.final_true, r2.final_true)
        assert np.array_equal(r1.initial_true, r2.initial_true)

    def test_run_count_and_ranges(self):
        m = init_mlp([24, 8, 1], seed=9)
        r = dream_ensemble(m, Property.GHZ_FIDELITY, 8, small_cfg(steps=20))
        assert len(r.final_true) + len(r.failures) == 8
        assert np.all((r.final_true >= 0) & (r.final_true <= 1))

    def test_invalid_run_count(self):
        m = init_mlp([24, 8, 1], seed=0)
        with pytest.raises(ValueError):
            dream_ensemble(m, Property.GHZ_FIDELITY, 0, small_cfg())


class TestDreamNeuron:
    def test_shape_contract(self):
        m = init_mlp([24, 6, 6, 1], seed=10)
        results = dream_neuron(m, (2, 3), 20, small_cfg(steps=20))
        assert len(results) == 20
        for graph, pm in results:
            assert graph.shape == (24,)
            assert pm.shape == (3, 16)

    def test_output_selector_reduces_to_full_net(self):
        m = init_mlp([24, 6, 1], seed=11)
        cfg = small_cfg(steps=25)
        neuron_results = dream_neuron(m, (2, 0), 3, cfg)
        from qgdream.dreaming import run_seeds
        for seq, (graph, _) in zip(run_seeds(cfg.seed, 3), neuron_results):
            g0 = random_graph(np.random.default_rng(seq))
            solo = dream(m, g0, None, cfg)
            assert np.array_equal(solo.final.weights, graph)

    def test_model_frozen(self):
        m = init_mlp([24, 6, 6, 1], seed=12)
        before = m.checksum()
        dream_neuron(m, (1, 0), 2, small_cfg(steps=10))
        assert m.checksum() == before


class TestRowExactness:
    """Each row of a batched dream equals that row dreamed alone, bit for bit."""

    def test_ensemble_equals_solo_dreams(self):
        m = init_mlp([24, 8, 8, 1], seed=13)
        cfg = small_cfg(steps=40, lr=5e-2)
        result = dream_ensemble(m, Property.GHZ_FIDELITY, 5, cfg)
        assert result.failures == [] and result.runs == [0, 1, 2, 3, 4]
        for run, seq in enumerate(run_seeds(cfg.seed, 5)):
            solo = dream(m, random_graph(np.random.default_rng(seq)),
                         Property.GHZ_FIDELITY, cfg)
            assert result.initial_true[run] == solo.initial.true_value
            assert result.final_true[run] == solo.final.true_value
            assert np.array_equal(result.final_graphs[run], solo.final.weights)

    @pytest.mark.parametrize("n", [2, 3, 17, 256])
    def test_selected_gradient_row_independent_of_batch_size(self, n):
        m = init_mlp([24, 16, 12, 1], seed=14)
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, (n, 24))
        for layer in (1, 2, 3):
            neurons = rng.integers(m.layer_sizes[layer], size=n)
            batch = input_gradient(m, x, select=(layer, neurons))
            for r in range(n):
                solo = input_gradient(m, x[r], select=(layer, neurons[r]))
                truncated = truncate_at_neuron(m, layer, int(neurons[r]))
                assert np.array_equal(batch[r], solo)
                assert np.array_equal(batch[r], input_gradient(truncated, x[r]))

    @pytest.mark.parametrize("use_adam", [False, True])
    def test_entropy_profile_equals_per_neuron_reference(self, use_adam):
        m = init_mlp([24, 6, 5, 1], seed=15)
        cfg = DreamConfig(steps=30, lr=5e-2, snapshot_stride=30, seed=3,
                          use_adam=use_adam)
        profile = entropy_profile(m, k_inits=3, cfg=cfg)
        for layer in (1, 2):
            values = []
            for neuron in range(m.layer_sizes[layer]):
                seed = np.random.SeedSequence([cfg.seed, layer, neuron]).generate_state(1)[0]
                truncated = truncate_at_neuron(m, layer, neuron)
                arrays = []
                for seq in run_seeds(int(seed), 3):
                    solo = dream(truncated, random_graph(np.random.default_rng(seq)),
                                 None, cfg)
                    arrays.append(pm_probability_array(solo.final.weights))
                try:
                    expected = neuron_entropy(arrays)
                    values.append(expected)
                    assert profile.per_neuron[(layer, neuron)] == expected
                except UndefinedEntropyError:
                    assert math.isnan(profile.per_neuron[(layer, neuron)])
            assert profile.per_layer[layer - 1] == float(np.mean(values))
