import warnings

import numpy as np
import pytest

from qgdream import kernels
from qgdream.analysis import (
    MAX_ENTROPY,
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
        assert np.isnan(neuron_entropy([np.zeros((3, 16))]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_undefined(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(neuron_entropy([spike(0, 0), spike(1, 2, bad)]))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            neuron_entropy([])

    @pytest.mark.parametrize("layout", ["contiguous", "batch_view"])
    def test_stack_equals_single_neuron_calls(self, layout):
        # one call on an (N, k, 3, 16) stack gives each neuron the bits of its
        # own call, whatever the stack's memory order; kernels'
        # pm_probability_batch returns a transposed view
        n, k = 12, 20
        rng = np.random.default_rng(4)
        if layout == "contiguous":
            pms = rng.uniform(0, 1, (n, k, 3, 16))
        else:
            pms = kernels.pm_probability_batch(rng.uniform(-1, 1, (n * k, 24)))
            pms = pms.reshape(n, k, 3, 16)
            assert not pms.flags.c_contiguous
        pms[1] = 0.0
        pms[4, 3, 0, 7] = np.nan
        pms[7, 0, 2, 2] = np.inf
        pms[9, :, 1] = 0.0  # defined, with 16 zero probabilities
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = neuron_entropy(pms)
            singles = [neuron_entropy(pms[j]) for j in range(n)]
        assert all(type(h) is float for h in singles)
        assert stacked.shape == (n,)
        assert stacked.tobytes() == np.array(singles).tobytes()
        assert np.flatnonzero(np.isnan(stacked)).tolist() == [1, 4, 7]
        assert neuron_entropy(pms.reshape(3, 4, k, 3, 16)).tobytes() == stacked.tobytes()


class TestEntropyProfile:
    def test_end_to_end_shapes_and_bounds(self):
        m = init_mlp([24, 5, 4, 1], seed=0)
        cfg = DreamConfig(steps=20, lr=1e-2, snapshot_stride=20, seed=0)
        profile = entropy_profile(m, k_inits=3, cfg=cfg)
        assert len(profile.per_layer) == 2
        assert len(profile.dead_neurons) == 2
        assert [h.shape for h in profile.entropies] == [(5,), (4,)]
        for h in np.concatenate(profile.entropies):
            if not np.isnan(h):
                assert 0.0 <= h <= MAX_ENTROPY + 1e-12

    def test_dead_neurons_excluded_from_mean(self, monkeypatch):
        # stub the dreaming stage: the dead neurons of layer 1 only ever
        # yield zero arrays
        import qgdream.analysis as analysis_mod

        m = init_mlp([24, 3, 1], seed=1)
        for dead in ([0], [0, 1, 2]):
            def fake_dream_layer(model, layer, k_inits, cfg):
                pms = np.array([spike(0, neuron) for neuron in range(model.layer_sizes[layer])])
                if layer == 1:
                    pms[dead] = 0.0
                pms = np.repeat(pms[:, None], k_inits, axis=1)
                return np.zeros(pms.shape[:2] + (24,)), pms

            monkeypatch.setattr(analysis_mod, "dream_layer", fake_dream_layer)
            profile = entropy_profile(m, k_inits=2, cfg=DreamConfig(steps=1, lr=1e-2))
            assert np.flatnonzero(np.isnan(profile.entropies[0])).tolist() == dead
            # the layer mean comes from the defined neurons only (all H = 0),
            # and a layer without one reads NaN, with no "Mean of empty slice"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                per_layer, dead_neurons = profile.per_layer, profile.dead_neurons
            assert dead_neurons == [len(dead)]
            np.testing.assert_equal(per_layer, [0.0 if len(dead) < 3 else np.nan])

    def test_no_hidden_layer_rejected(self):
        with pytest.raises(ValueError, match=r"layer sizes \[24, 1\] have no hidden layer"):
            entropy_profile(init_mlp([24, 1], seed=0), k_inits=2, cfg=DreamConfig(steps=1))

    def test_non_finite_dreams_count_as_dead(self):
        # unclamped steps of lr 1e307 overflow: those neurons' PM arrays are NaN
        m = init_mlp([24, 6, 6, 1], seed=0)
        cfg = DreamConfig(steps=20, lr=1e307, clamp=False, snapshot_stride=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = entropy_profile(m, 2, cfg)
        entropies = np.concatenate(profile.entropies)
        undefined = np.count_nonzero(np.isnan(entropies))
        assert undefined > 0
        assert sum(profile.dead_neurons) == undefined
        for h in entropies:
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
