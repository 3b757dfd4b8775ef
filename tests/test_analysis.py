import warnings

import numpy as np
import pytest

from qgdream.analysis import (
    MAX_ENTROPY,
    UndefinedEntropyError,
    entropy_profile,
    neuron_entropy,
    shift_report,
    weighted_activations,
)
from qgdream.dreaming import DreamConfig
from qgdream.nn import init_mlp


def spike(d, k, value=1.0):
    arr = np.zeros((3, 16))
    arr[d, k] = value
    return arr


class TestNeuronEntropy:
    def test_single_spike_zero(self):
        assert neuron_entropy([spike(0, 0)]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_max(self):
        assert neuron_entropy([np.ones((3, 16))]) == pytest.approx(
            np.log2(48), abs=1e-12)
        assert MAX_ENTROPY == pytest.approx(np.log2(48), abs=1e-12)

    def test_two_equal_spikes(self):
        arr = spike(0, 0) + spike(1, 5)
        assert neuron_entropy([arr]) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_is_mean_then_normalize(self):
        # two arrays whose normalized forms are identical but raw scales
        # differ: mean-then-normalize weights the larger one more
        a = spike(0, 0, 1.0) + spike(0, 1, 1.0)
        b = spike(0, 0, 8.0)
        h = neuron_entropy([a, b])
        # mean = [4.5, 0.5]/5 -> p = [0.9, 0.1]
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert h == pytest.approx(expected, abs=1e-12)
        # normalize-then-mean would give p = [0.75, 0.25] instead
        wrong = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert abs(h - wrong) > 0.1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        arr = rng.uniform(0, 1, (3, 16))
        h = neuron_entropy([arr])
        flat = arr.ravel()
        for _ in range(10):
            perm = rng.permutation(48)
            assert neuron_entropy([flat[perm].reshape(3, 16)]) == pytest.approx(
                h, abs=1e-12)

    def test_bounds_and_zero_iff_single_support(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            arr = rng.uniform(0, 1, (3, 16)) * (rng.uniform(0, 1, (3, 16)) > 0.5)
            if arr.sum() == 0:
                continue
            h = neuron_entropy([arr])
            assert 0.0 <= h <= MAX_ENTROPY + 1e-12
            if np.count_nonzero(arr) == 1:
                assert h == 0.0
            else:
                assert h > 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedEntropyError):
            neuron_entropy([np.zeros((3, 16))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_undefined(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedEntropyError):
                neuron_entropy([spike(0, 0), spike(1, 2, bad)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            neuron_entropy([])


class TestEntropyProfile:
    def test_end_to_end_shapes_and_bounds(self):
        m = init_mlp([24, 5, 4, 1], seed=0)
        cfg = DreamConfig(steps=20, lr=1e-2, snapshot_stride=20, seed=0)
        profile = entropy_profile(m, k_inits=3, cfg=cfg)
        assert len(profile.per_layer) == 2
        assert len(profile.dead_neurons) == 2
        assert len(profile.per_neuron) == 9
        for h in profile.per_neuron.values():
            if not np.isnan(h):
                assert 0.0 <= h <= MAX_ENTROPY + 1e-12

    def test_dead_neurons_excluded_from_mean(self, monkeypatch):
        # stub the dreaming stage: neuron (1,0) only ever yields zero arrays
        import qgdream.analysis as analysis_mod

        def fake_dream_layer(model, layer, k_inits, cfg):
            results = []
            for neuron in range(model.layer_sizes[layer]):
                if (layer, neuron) == (1, 0):
                    results.append([(np.zeros(24), np.zeros((3, 16)))] * k_inits)
                else:
                    results.append([(np.zeros(24), spike(0, neuron))] * k_inits)
            return results

        monkeypatch.setattr(analysis_mod, "dream_layer", fake_dream_layer)
        m = init_mlp([24, 3, 1], seed=1)
        profile = entropy_profile(m, k_inits=2, cfg=DreamConfig(steps=1, lr=1e-2))
        assert profile.dead_neurons == [1]
        assert np.isnan(profile.per_neuron[(1, 0)])
        # layer mean comes from the two defined neurons only (both H = 0)
        assert profile.per_layer[0] == 0.0

    def test_non_finite_dreams_count_as_dead(self):
        # unclamped steps of lr 1e307 overflow: those neurons' PM arrays are NaN
        m = init_mlp([24, 6, 6, 1], seed=0)
        cfg = DreamConfig(steps=20, lr=1e307, clamp=False, snapshot_stride=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = entropy_profile(m, 2, cfg)
        undefined = [key for key, h in profile.per_neuron.items() if np.isnan(h)]
        assert len(undefined) > 0
        assert sum(profile.dead_neurons) == len(undefined)
        for h in profile.per_neuron.values():
            assert np.isnan(h) or 0.0 < h <= MAX_ENTROPY + 1e-12


class TestWeightedActivations:
    def test_zero_input_zero_net(self):
        m = init_mlp([24, 4, 1], seed=2)
        for b in m.biases:
            b[:] = 0.0
        amap = weighted_activations(m, np.zeros(24))
        assert amap.global_max == 0.0
        for mask in amap.masks:
            assert not mask.any()

    def test_global_max_normalized_to_one(self):
        m = init_mlp([24, 8, 8, 1], seed=3)
        x = np.random.default_rng(0).uniform(-1, 1, 24)
        amap = weighted_activations(m, x)
        assert max(layer.max() for layer in amap.layers) == pytest.approx(1.0)

    def test_entries_nonnegative_and_mask_threshold(self):
        m = init_mlp([24, 8, 1], seed=4)
        x = np.random.default_rng(1).uniform(-1, 1, 24)
        amap = weighted_activations(m, x, threshold=0.1)
        for layer, mask in zip(amap.layers, amap.masks):
            assert np.all(layer >= 0.0)
            assert np.array_equal(mask, layer >= 0.1)


class TestShiftReport:
    def test_no_shift(self):
        vals = np.linspace(0.05, 0.45, 20)
        report = shift_report(vals, vals)
        assert report.mean_final - report.mean_initial == 0.0
        assert np.array_equal(report.initial_hist, report.final_hist)
        assert report.fraction_above_cap == 0.0

    def test_synthetic_full_shift(self):
        report = shift_report([0.1] * 10, [0.9] * 10)
        assert report.mean_final - report.mean_initial == pytest.approx(0.8)
        assert report.fraction_above_cap == 1.0

    def test_histogram_mass(self):
        rng = np.random.default_rng(2)
        ini, fin = rng.uniform(0, 0.5, 100), rng.uniform(0, 1, 100)
        report = shift_report(ini, fin)
        assert report.initial_hist.sum() == 100
        assert report.final_hist.sum() == 100
        assert len(report.initial_hist) == 50

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shift_report([], [])
