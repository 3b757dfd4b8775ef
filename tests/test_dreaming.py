import math
import warnings

import numpy as np
import pytest

from qgdream import dreaming
from qgdream.analysis import entropy_profile, neuron_entropy
from qgdream.dreaming import (
    DreamConfig,
    _ascend,
    _clamp,
    _dream_rows,
    dream,
    dream_ensemble,
    dream_layer,
    dream_neuron,
    dream_oracle,
)
from qgdream.nn import init_mlp, input_gradient, resolve_selection, selected_output
from qgdream.states import (
    GHZ_GRAPH,
    DegenerateStateError,
    Property,
    pm_probability_array,
    property_gradient,
    property_value,
    random_graph,
)

from oracles import (
    rows_select,
    ascent_retirement_failures,
    blas_thread_failures,
    reference_ascend,
    truncate_at_neuron,
)


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

    @pytest.mark.parametrize("lr, finite", [(1e60, True), (1e307, False)])
    def test_unclamped_overflow_never_raises_overflow_error(self, lr, finite):
        # at lr 1e60 the graphs grow until norm2 ** 2 would overflow, which
        # the gradient rescales away; at 1e307 the first step's state is not
        # finite, and its gradient raises DegenerateStateError
        cfg = DreamConfig(steps=20, lr=lr, clamp=False, snapshot_stride=10)
        for prop in Property:
            if finite:
                traj = dream_oracle(random_graph(1), prop, cfg)
                assert all(0.0 <= s.true_value <= 1.0 for s in traj.snapshots)
            else:
                with pytest.raises(DegenerateStateError):
                    dream_oracle(random_graph(1), prop, cfg)

    def test_start_of_more_than_one_graph_rejected(self):
        m = init_mlp([24, 4, 1], seed=0)
        with pytest.raises(ValueError):
            dream(m, np.ones((2, 24)), Property.GHZ_FIDELITY, small_cfg())
        with pytest.raises(ValueError):
            dream_oracle(np.ones((2, 24)), Property.GHZ_FIDELITY, small_cfg())


class TestDreamEnsemble:
    def test_single_run_equals_dream(self):
        m = init_mlp([24, 8, 1], seed=7)
        cfg = small_cfg(steps=30)
        result = dream_ensemble(m, Property.GHZ_FIDELITY, 1, cfg)
        solo = dream(m, random_graph(cfg.seed), Property.GHZ_FIDELITY,
                     small_cfg(steps=30, snapshot_stride=30))
        assert result.initial_true[0] == solo.initial.true_value
        assert result.final_true[0] == solo.final.true_value
        assert np.array_equal(result.final_graphs[0], solo.final.weights)

    def test_first_runs_equal_smaller_ensemble(self):
        m = init_mlp([24, 8, 1], seed=8)
        small = dream_ensemble(m, Property.GHZ_FIDELITY, 3, small_cfg(steps=20))
        large = dream_ensemble(m, Property.GHZ_FIDELITY, 5, small_cfg(steps=20))
        assert small.failures == large.failures == []
        assert np.array_equal(large.initial_true[:3], small.initial_true)
        assert np.array_equal(large.final_true[:3], small.final_true)
        assert np.array_equal(large.final_graphs[:3], small.final_graphs)

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

    def test_every_run_failed_rejected(self):
        # unclamped steps of 1e307 overflow every graph; the result used to
        # be an empty ensemble whose means were NaN. The overflow is not
        # warned about: the failed runs report it.
        m = init_mlp([24, 8, 1], seed=0)
        with warnings.catch_warnings(), pytest.raises(ValueError, match="all 4 runs"):
            warnings.simplefilter("error", RuntimeWarning)
            dream_ensemble(m, Property.GHZ_FIDELITY, 4, small_cfg(lr=1e307, clamp=False))


class TestDreamNeuron:
    def test_shape_contract(self):
        m = init_mlp([24, 6, 6, 1], seed=10)
        graphs, pms = dream_neuron(m, (2, 3), 20, small_cfg(steps=20))
        assert graphs.shape == (20, 24)
        assert pms.shape == (20, 3, 16)

    def test_output_selector_reduces_to_full_net(self):
        m = init_mlp([24, 6, 1], seed=11)
        cfg = small_cfg(steps=25)
        graphs, _ = dream_neuron(m, (2, 0), 3, cfg)
        for g0, graph in zip(random_graph(cfg.seed, 3), graphs):
            solo = dream(m, g0, Property.GHZ_FIDELITY, cfg)
            assert np.array_equal(solo.final.weights, graph)

    def test_layer_equals_neuron_dreams(self):
        m = init_mlp([24, 6, 5, 1], seed=23)
        cfg = small_cfg(steps=20, lr=5e-2, seed=4)
        graphs, pms = dream_layer(m, 2, 3, cfg)
        assert graphs.shape == (5, 3, 24) and pms.shape == (5, 3, 3, 16)
        starts = random_graph([cfg.seed, 2], 5 * 3).reshape(5, 3, 24)
        for j in range(5):
            truncated = truncate_at_neuron(m, 2, j)
            for i, start in enumerate(starts[j]):
                solo = _dream_rows(truncated, start, cfg)[1][-1, 0]
                assert np.array_equal(graphs[j, i], solo)
                assert np.array_equal(pms[j, i], pm_probability_array(solo))

    @pytest.mark.parametrize("layer", [0, 4])
    def test_layer_out_of_range(self, layer):
        m = init_mlp([24, 6, 5, 1], seed=23)
        with pytest.raises(ValueError, match=f"layer {layer} out of range 1..3"):
            dream_layer(m, layer, 2, small_cfg())


_DREAMS = {
    "dream": lambda m, cfg: dream(m, random_graph(2), Property.GHZ_FIDELITY, cfg),
    "dream_ensemble": lambda m, cfg: dream_ensemble(m, Property.GHZ_FIDELITY, 3, cfg),
    "dream_neuron": lambda m, cfg: dream_neuron(m, (2, 1), 2, cfg),
    "dream_layer": lambda m, cfg: dream_layer(m, 2, 2, cfg),
    "entropy_profile": lambda m, cfg: entropy_profile(m, 2, cfg),
}


class TestFrozenModel:
    """A dream moves only its input graphs; the net it reads stays as it was."""

    @pytest.mark.parametrize("use_adam", [False, True], ids=["plain", "adam"])
    @pytest.mark.parametrize("entry", _DREAMS)
    def test_dream_leaves_model_unchanged(self, entry, use_adam):
        m = init_mlp([24, 6, 6, 1], seed=12)
        before = m.checksum()
        _DREAMS[entry](m, small_cfg(steps=10, lr=5e-2, use_adam=use_adam))
        assert m.checksum() == before

    @pytest.mark.parametrize("part", ["weights", "biases"])
    def test_write_through_shared_layer_raises(self, part):
        m = init_mlp([24, 6, 6, 1], seed=12)
        before = m.checksum()
        shared_layers = getattr(resolve_selection(m, None, 3), part)[:-1]
        assert len(shared_layers) == 2
        for shared, own in zip(shared_layers, getattr(m, part)):
            assert np.shares_memory(shared, own)  # a view, not a copy
            with pytest.raises(ValueError, match="read-only"):
                shared[0] += 1.0
        assert m.checksum() == before


class TestRowExactness:
    """Each row of a batched dream equals that row dreamed alone, bit for bit."""

    def test_ensemble_equals_solo_dreams(self):
        m = init_mlp([24, 8, 8, 1], seed=13)
        cfg = small_cfg(steps=40, lr=5e-2)
        result = dream_ensemble(m, Property.GHZ_FIDELITY, 5, cfg)
        assert result.failures == [] and result.runs == [0, 1, 2, 3, 4]
        for run, g0 in enumerate(random_graph(cfg.seed, 5)):
            solo = dream(m, g0, Property.GHZ_FIDELITY, cfg)
            assert result.initial_true[run] == solo.initial.true_value
            assert result.final_true[run] == solo.final.true_value
            assert np.array_equal(result.final_graphs[run], solo.final.weights)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 256])
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
            starts = random_graph([cfg.seed, layer], m.layer_sizes[layer] * 3)
            for neuron in range(m.layer_sizes[layer]):
                truncated = truncate_at_neuron(m, layer, neuron)
                arrays = []
                for g0 in starts[3 * neuron:3 * (neuron + 1)]:
                    solo = _dream_rows(truncated, g0, cfg)[1][-1, 0]
                    arrays.append(pm_probability_array(solo))
                expected = neuron_entropy(arrays)
                if math.isnan(expected):
                    assert math.isnan(profile.entropies[layer - 1][neuron])
                else:
                    values.append(expected)
                    assert profile.entropies[layer - 1][neuron] == expected
            assert profile.per_layer[layer - 1] == float(np.mean(values))


class TestAscentEngine:
    def test_clamp_bit_equal_to_clip(self):
        values = np.array([-np.inf, -3.5, -1.0 - 1e-16, -1.0, -0.5, -0.0, 0.0, 5e-324,
                           0.5, 1.0, 1.0 + 2e-16, 7.0, np.inf, np.nan, -np.nan])
        x = values.copy()
        _clamp(x)
        expected = np.clip(values, -1.0, 1.0)
        assert np.array_equal(x.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("select", ["output", "hidden", "per_row"])
    def test_resolved_selection_equals_public_gradient_every_step(self, select):
        m = init_mlp([24, 6, 5, 1], seed=16)
        x0 = np.array([random_graph(seed) for seed in range(6)])
        select = {"output": None, "hidden": (2, 3),
                  "per_row": (1, np.repeat(np.arange(3), 2))}[select]
        cfg = small_cfg(steps=30, lr=5e-2, snapshot_stride=7)
        steps, resolved = _dream_rows(m, x0, cfg, select=select)

        def public_gradient(x, rows):  # the public selection of the rows still ascending
            return input_gradient(m, x, rows_select(select, len(x0), rows))

        public_steps, public = _ascend(public_gradient, x0, cfg)
        assert steps == public_steps == [0, 7, 14, 21, 28, 30]
        assert resolved.shape == public.shape == (len(steps), 6, 24)
        assert np.array_equal(resolved, public)
        sel = resolve_selection(m, select, len(x0))
        for frame in resolved:
            assert np.array_equal(selected_output(m, frame, sel), selected_output(m, frame, select))

    def test_dream_snapshots_equal_lone_evaluations(self):
        m = init_mlp([24, 8, 8, 1], seed=18)
        traj = dream(m, random_graph(19), Property.GHZ_FIDELITY,
                     small_cfg(steps=40, lr=5e-2, snapshot_stride=3))
        assert len(traj.snapshots) == 15
        for snap in traj.snapshots:
            assert snap.predicted == selected_output(m, snap.weights)
            assert snap.true_value == property_value(snap.weights, Property.GHZ_FIDELITY)

    @pytest.mark.parametrize("use_adam", [False, True])
    def test_oracle_snapshots_equal_lone_evaluations(self, use_adam):
        traj = dream_oracle(random_graph(20), Property.MEAN_PURITY,
                            small_cfg(steps=40, lr=5e-2, snapshot_stride=3, use_adam=use_adam))
        assert len(traj.snapshots) == 15
        for snap in traj.snapshots:
            value = property_value(snap.weights, Property.MEAN_PURITY)
            assert snap.predicted == value and snap.true_value == value

    def test_network_output_evaluated_only_where_read(self, monkeypatch):
        # an ensemble and a neuron dream read no network output; a trajectory
        # reads all its snapshots' outputs in one call
        m = init_mlp([24, 6, 5, 1], seed=21)
        calls = []

        def counted(*args):
            calls.append(len(np.atleast_2d(args[1])))
            return selected_output(*args)

        monkeypatch.setattr(dreaming, "selected_output", counted)
        dream_ensemble(m, Property.GHZ_FIDELITY, 3, small_cfg(steps=20))
        dream_neuron(m, (1, 2), 3, small_cfg(steps=20))
        assert calls == []
        dream(m, random_graph(22), Property.GHZ_FIDELITY, small_cfg(steps=20, snapshot_stride=5))
        assert calls == [5]

    @pytest.mark.parametrize("select", [(0, 0), (4, 0), (1, 6), (1, -1), (2, [0, 5])])
    def test_bad_selection_raises_before_first_step(self, monkeypatch, select):
        m = init_mlp([24, 6, 5, 1], seed=17)
        calls = []
        monkeypatch.setattr(dreaming, "input_gradient", lambda *a: calls.append(a))
        monkeypatch.setattr(dreaming, "selected_output", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="out of range"):
            dream_neuron(m, select, 2, small_cfg())
        assert calls == []


class TestRowRetirement:
    """A row leaves the ascent once a step leaves it unchanged; every frame
    stays that of the reference that steps every row, bit for bit."""

    def test_frames_equal_reference_that_steps_every_row(self):
        assert ascent_retirement_failures() == []

    def test_at_one_and_two_blas_threads(self):
        assert blas_thread_failures("ascent_retirement_failures") == []

    @pytest.mark.parametrize("use_adam", [False, True])
    @pytest.mark.parametrize("scale, lr", [(1.0, 1e-2), (0.7, 1.0)])
    def test_oracle_fixed_point_equals_reference(self, monkeypatch, scale, lr, use_adam):
        # the GHZ graph is a fixed point from its start; at 0.7 x the GHZ
        # graph, plain ascent's first step moves the row in its last bits and
        # the second test finds it fixed. Under Adam the 0.7 row keeps
        # stepping: its first moment stays non-zero.
        steps_taken = 1 if scale == 1.0 else 200 if use_adam else 1 + dreaming._CHECK_EVERY
        calls = []

        def counted(*args):
            calls.append(args)
            return property_gradient(*args)

        monkeypatch.setattr(dreaming, "property_gradient", counted)
        prop, g0 = Property.GHZ_FIDELITY, scale * GHZ_GRAPH
        cfg = DreamConfig(steps=200, lr=lr, snapshot_stride=20, use_adam=use_adam)
        traj = dream_oracle(g0, prop, cfg)
        steps, frames = reference_ascend(lambda x: property_gradient(x[0], prop), g0, cfg)
        assert len(calls) == steps_taken
        assert [snap.step for snap in traj.snapshots] == steps
        weights = np.array([snap.weights for snap in traj.snapshots])
        assert weights.tobytes() == frames[:, 0].tobytes()
        values = property_value(frames[:, 0], prop).tolist()
        assert [snap.true_value for snap in traj.snapshots] == values
        assert [snap.predicted for snap in traj.snapshots] == values

    def test_adam_row_leaves_only_with_zero_first_moment(self):
        # one gradient of 1e-322, then zeros: m sticks at 2 x 5e-324 and v at
        # 0, and x = 0.5 absorbs each step, so x, m and v all stay unchanged;
        # but m is not zero, and its step, lr * (m / c1) / eps, changes with
        # the bias correction c1, so the row keeps ascending
        def counted(calls):
            def gradient(x, rows=None):
                calls.append(len(x))
                return np.full(x.shape, 1e-322 if len(calls) == 1 else 0.0)
            return gradient

        x0 = np.full((1, 24), 0.5)
        cfg = DreamConfig(steps=40, lr=1.0, snapshot_stride=10, use_adam=True)
        calls = []
        frames = _ascend(counted(calls), x0, cfg)[1]
        assert calls == [1] * 40
        assert frames.tobytes() == reference_ascend(counted([]), x0, cfg)[1].tobytes()
