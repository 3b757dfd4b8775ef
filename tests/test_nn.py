import re

import numpy as np
import pytest

from qgdream import nn
from qgdream.nn import (
    Adam,
    Mlp,
    TrainConfig,
    evaluate,
    forward,
    init_mlp,
    input_gradient,
    param_gradients,
    predict,
    resolve_selection,
    selected_output,
    train,
)

from oracles import (
    ReferenceAdam,
    blas_thread_failures,
    block_invariance_failures,
    finite_difference,
    padded_block_predict,
    reference_forward,
    reference_param_gradients,
    reference_symmetry_mapped,
    truncate_at_neuron,
)


def rel_error(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return np.max(np.abs(a - b)) / scale


def cast_model(model, dtype):
    """A copy of model with every weight and bias cast to dtype."""
    return Mlp(model.layer_sizes, model.activation, [w.astype(dtype) for w in model.weights],
               [b.astype(dtype) for b in model.biases], alpha=model.alpha, seed=model.seed)


class TestInit:
    def test_deterministic(self):
        a = init_mlp([24, 8, 1], seed=3)
        b = init_mlp([24, 8, 1], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        m = init_mlp([24, 8, 1], seed=0)
        assert m.weights[0].shape == (8, 24)
        assert m.weights[1].shape == (1, 8)
        assert m.biases[0].shape == (8,)

    def test_symmetric_mean(self):
        m = init_mlp([400, 400, 1], seed=1)
        assert -0.01 <= m.weights[0].mean() <= 0.01

    def test_fan_in_bound(self):
        m = init_mlp([24, 100, 1], seed=2)
        assert np.max(np.abs(m.weights[0])) <= np.sqrt(1 / 24)

    @pytest.mark.parametrize("sizes", [[], [24], [24, 0, 1]])
    def test_invalid_sizes(self, sizes):
        with pytest.raises(ValueError):
            init_mlp(sizes, seed=0)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            init_mlp([24, 4, 1], activation="tanh", seed=0)


class TestForward:
    def test_zero_params(self):
        m = init_mlp([24, 4, 1], seed=0)
        for w in m.weights:
            w[:] = 0.0
        for b in m.biases:
            b[:] = 0.0
        assert predict(m, np.ones(24)) == 0.0

    def test_identity_pick(self):
        # single linear layer selecting x0
        w = np.zeros((1, 24))
        w[0, 0] = 1.0
        m = Mlp([24, 1], "relu", [w], [np.zeros(1)])
        x = np.arange(24.0)
        assert predict(m, x) == x[0]

    def test_relu_post_activations_nonnegative(self):
        m = init_mlp([24, 16, 16, 1], seed=4)
        _, posts = forward(m, np.random.default_rng(0).uniform(-1, 1, 24))
        for a in posts[1:-1]:
            assert np.all(a >= 0.0)

    def test_batch_matches_single(self):
        m = init_mlp([24, 8, 1], seed=5)
        x = np.random.default_rng(1).uniform(-1, 1, (10, 24))
        batch = predict(m, x)
        for i in range(10):
            assert batch[i] == pytest.approx(predict(m, x[i]), abs=1e-14)

    def test_dimension_mismatch(self):
        m = init_mlp([24, 8, 1], seed=0)
        with pytest.raises(ValueError):
            predict(m, np.zeros(23))
        with pytest.raises(ValueError, match="input width 23 != 24"):
            input_gradient(m, np.zeros(23))

    def test_unknown_activation_raises(self):
        m = init_mlp([24, 4, 1], seed=0)
        m.activation = "tanh"
        with pytest.raises(ValueError, match="unknown activation 'tanh'"):
            forward(m, np.zeros(24))


class TestParamGradients:
    def test_perfect_prediction_zero_gradients(self):
        m = init_mlp([24, 4, 1], seed=6)
        x = np.random.default_rng(2).uniform(-1, 1, (20, 24))
        y = predict(m, x)
        w_grads, b_grads, _ = param_gradients(m, x, y)
        for g in w_grads + b_grads:
            assert np.max(np.abs(g)) < 1e-14

    def test_residual_negation(self):
        m = init_mlp([24, 4, 1], seed=7)
        x = np.random.default_rng(3).uniform(-1, 1, (20, 24))
        f = predict(m, x)
        y = np.random.default_rng(4).uniform(0, 0.5, 20)
        g1 = param_gradients(m, x, y)
        g2 = param_gradients(m, x, 2 * f - y)
        for a, b in zip(g1[0] + g1[1], g2[0] + g2[1]):
            assert np.max(np.abs(a + b)) < 1e-12

    @pytest.mark.parametrize("activation,alpha", [("relu", 1.0), ("elu", 0.1)])
    def test_finite_differences_every_parameter(self, activation, alpha):
        m = init_mlp([24, 4, 1], activation=activation, seed=8, alpha=alpha)
        x = np.random.default_rng(5).uniform(-1, 1, (1, 24))
        y = np.array([0.3])
        w_grads, b_grads, _ = param_gradients(m, x, y)

        def loss():
            return float(np.mean((predict(m, x) - y) ** 2))

        h = 1e-5
        for params, grads in ((m.weights, w_grads), (m.biases, b_grads)):
            for p, g in zip(params, grads):
                for idx in np.ndindex(p.shape):
                    orig = p[idx]
                    p[idx] = orig + h
                    up = loss()
                    p[idx] = orig - h
                    down = loss()
                    p[idx] = orig
                    fd = (up - down) / (2 * h)
                    assert abs(g[idx] - fd) < 1e-5 * max(1.0, abs(fd))

    def test_empty_batch_rejected(self):
        m = init_mlp([24, 4, 1], seed=0)
        with pytest.raises(ValueError):
            param_gradients(m, np.zeros((0, 24)), np.zeros(0))

    def test_loss_from_the_same_forward_pass(self):
        m = init_mlp([24, 6, 1], seed=9)
        x = np.random.default_rng(10).uniform(-1, 1, (30, 24))
        y = np.random.default_rng(11).uniform(0, 0.5, 30)
        _, _, loss = param_gradients(m, x, y)
        assert loss == float(np.mean((predict(m, x) - y) ** 2))


class TestReferenceBackprop:
    """The in-place passes against the allocating reference, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("activation,alpha", [("relu", 1.0), ("elu", 0.1)])
    def test_param_gradients_equal_reference(self, activation, alpha, truncated, n):
        m = init_mlp([24, 16, 12, 8, 1], activation=activation, alpha=alpha, seed=21)
        if truncated:
            m = truncate_at_neuron(m, 2, 5)
            assert m.layer_sizes == [24, 16, 1, 1]
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, (n, 24))
        y = rng.uniform(0, 0.5, n)
        for net in (m, cast_model(m, np.float32)):  # the float64 net and its training shadow
            x_before, checksum = x.copy(), net.checksum()
            w_grads, b_grads, loss = param_gradients(net, x, y)
            w_ref, b_ref, loss_ref = reference_param_gradients(net, x, y)
            for a, b in zip(w_grads + b_grads, w_ref + b_ref):
                assert np.array_equal(a, b)
            assert loss == loss_ref
            assert np.array_equal(x, x_before)
            assert net.checksum() == checksum

    @pytest.mark.parametrize("activation", ["relu", "elu"])
    def test_forward_and_predict_equal_reference(self, activation):
        m = init_mlp([24, 16, 8, 1], activation=activation, alpha=0.1, seed=22)
        x = np.random.default_rng(23).uniform(-1, 1, (50, 24))
        for xi in (x, x[3]):
            out, posts = forward(m, xi)
            ref_out, ref_posts = reference_forward(m, xi)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(predict(m, xi), out)
            for a, b in zip(posts, ref_posts, strict=True):
                assert np.array_equal(a, b)

    def test_training_equals_reference(self, monkeypatch):
        rng = np.random.default_rng(24)
        x = rng.uniform(-1, 1, (300, 24))
        y = rng.uniform(0, 0.5, 300)
        seen = set()

        def reference_on_shadow(shadow, xb, yb):
            seen.update((w.dtype for w in shadow.weights + shadow.biases))
            seen.add(xb.dtype)
            return reference_param_gradients(shadow, xb, yb)

        # The width-1 hidden layer and the batch of one row send the backward
        # product through its broadcast branch; the reference keeps np.matmul.
        for sizes, batch, rows in [([24, 16, 8, 1], 64, 300), ([24, 8, 1, 1], 64, 300),
                                   ([24, 16, 8, 1], 1, 40)]:
            cfg = TrainConfig(batch_size=batch, seed=3, max_epochs=4, convergence_patience=4)
            model, hist = train(x[:rows], y[:rows], sizes, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(nn, "param_gradients", reference_on_shadow)
                ref_model, ref_hist = train(x[:rows], y[:rows], sizes, cfg)
            assert model.checksum() == ref_model.checksum()
            assert hist.train_mse == ref_hist.train_mse
            assert hist.test_mse == ref_hist.test_mse
        assert seen == {np.dtype(np.float32)}


class TestMixedPrecision:
    """Float32 passes on a float32 model; everything else stays float64."""

    @pytest.mark.parametrize("activation,alpha", [("relu", 1.0), ("elu", 0.1),
                                                  ("elu", np.float64(0.1))])
    def test_float32_gradients_match_float64_reference(self, activation, alpha):
        m = init_mlp([24, 16, 12, 8, 1], activation=activation, alpha=alpha, seed=25)
        rng = np.random.default_rng(26)
        x = rng.uniform(-1, 1, (300, 24)).astype(np.float32)
        y = rng.uniform(0, 0.5, 300).astype(np.float32)
        shadow = cast_model(m, np.float32)
        w_grads, b_grads, loss = param_gradients(shadow, x, y)
        w_ref, b_ref, loss_ref = reference_param_gradients(
            m, x.astype(np.float64), y.astype(np.float64))
        _, posts = forward(shadow, x)
        for a in w_grads + b_grads + posts:
            assert a.dtype == np.float32
        for a, b in zip(w_grads + b_grads, w_ref + b_ref, strict=True):
            assert rel_error(a, b) < 1e-5
        assert abs(loss - loss_ref) < 1e-5 * loss_ref

    def test_seeded_train_reproducible(self):
        rng = np.random.default_rng(27)
        x = rng.uniform(-1, 1, (400, 24)).astype(np.float32)
        y = rng.uniform(0, 0.5, 400).astype(np.float32)
        cfg = TrainConfig(batch_size=100, seed=4, max_epochs=6, convergence_patience=6)
        runs = [train(x, y, [24, 8, 8, 1], cfg, activation="elu", alpha=0.5)
                for _ in range(2)]
        (m1, h1), (m2, h2) = runs
        assert m1.checksum() == m2.checksum()
        assert (h1.train_mse, h1.test_mse, h1.learning_rate) == \
            (h2.train_mse, h2.test_mse, h2.learning_rate)
        assert all(p.dtype == np.float64 for p in m1.weights + m1.biases)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_leaves_inputs_unchanged(self, dtype):
        rng = np.random.default_rng(28)
        x = rng.uniform(-1, 1, (300, 24)).astype(dtype)
        y = rng.uniform(0, 0.5, 300).astype(dtype)
        x_before, y_before = x.copy(), y.copy()
        train(x, y, [24, 4, 1], TrainConfig(batch_size=100, max_epochs=2))
        assert np.array_equal(x, x_before) and x.dtype == dtype
        assert np.array_equal(y, y_before) and y.dtype == dtype

    def test_predict_float64_model_on_float32_input(self):
        m = init_mlp([24, 16, 8, 1], seed=29)
        x = np.random.default_rng(30).uniform(-1, 1, (50, 24)).astype(np.float32)
        out = predict(m, x)
        assert out.dtype == np.float64
        assert np.array_equal(out, predict(m, x.astype(np.float64)))


class TestInputGradient:
    def test_zero_first_layer(self):
        m = init_mlp([24, 4, 1], seed=9)
        m.weights[0][:] = 0.0
        g = input_gradient(m, np.ones(24))
        assert np.max(np.abs(g)) == 0.0

    def test_finite_differences_elu(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = init_mlp([24, 6, 6, 1], activation="elu", alpha=0.1,
                         seed=int(rng.integers(1 << 30)))
            x = rng.uniform(-1, 1, 24)
            g = input_gradient(m, x)
            fd = finite_difference(lambda v: float(predict(m, v)), x)
            assert rel_error(g, fd) < 1e-4

    def test_tight_tolerance_spot_check(self):
        m = init_mlp([24, 8, 8, 1], activation="elu", alpha=0.1, seed=10)
        x = np.random.default_rng(7).uniform(-1, 1, 24)
        g = input_gradient(m, x)
        fd = finite_difference(lambda v: float(predict(m, v)), x)
        assert rel_error(g, fd) < 1e-5

    def test_linear_net_input_independent(self):
        # ELU with alpha=1 is identity for positive pre-activations; force a
        # truly linear net by zeroing hidden nonlinearity via large biases
        m = init_mlp([24, 4, 1], seed=11)
        m.biases[0][:] = 100.0  # keeps ReLU region linear around small x
        expected = (m.weights[1] @ m.weights[0])[0]
        for seed in range(5):
            x = np.random.default_rng(seed).uniform(-0.5, 0.5, 24)
            assert np.allclose(input_gradient(m, x), expected)

    def test_batch_matches_single(self):
        m = init_mlp([24, 8, 1], activation="elu", seed=12)
        x = np.random.default_rng(8).uniform(-1, 1, (7, 24))
        batch = input_gradient(m, x)
        for i in range(7):
            assert np.allclose(batch[i], input_gradient(m, x[i]))

    def test_selection_matches_truncated_net(self):
        m = init_mlp([24, 5, 7, 1], activation="elu", alpha=0.1, seed=13)
        x = np.random.default_rng(9).uniform(-1, 1, (4, 24))
        for layer in (1, 2, 3):
            for neuron in range(m.layer_sizes[layer]):
                t = truncate_at_neuron(m, layer, neuron)
                grads = input_gradient(m, x, select=(layer, neuron))
                values = selected_output(m, x, select=(layer, neuron))
                for r in range(4):
                    assert np.array_equal(grads[r], input_gradient(t, x[r], select=(layer, 0)))
                    assert values[r] == selected_output(t, x[r], select=(layer, 0))

    def test_selection_out_of_range(self):
        m = init_mlp([24, 4, 1], seed=0)
        x = np.zeros((2, 24))
        for select in ((1, 4), (1, [0, -1]), (3, 0), (0, 0)):
            with pytest.raises(ValueError):
                input_gradient(m, x, select=select)
        with pytest.raises(ValueError, match="not a scalar"):
            input_gradient(init_mlp([24, 4, 2], seed=0), x)

    @pytest.mark.parametrize("select", [None, (1, 2), (1, [0, 3, 1])])
    def test_resolved_selection_equals_unresolved(self, select):
        m = init_mlp([24, 4, 3, 1], activation="elu", seed=14)
        x = np.random.default_rng(10).uniform(-1, 1, (3, 24))
        sel = resolve_selection(m, select, 3)
        assert np.array_equal(input_gradient(m, x, sel), input_gradient(m, x, select))
        assert np.array_equal(selected_output(m, x, sel), selected_output(m, x, select))
        with pytest.raises(ValueError, match="resolved for 3 rows"):
            input_gradient(m, x[:2], sel)


class TestBlockInvariance:
    """The dream path's block products give each row the bits it gets alone.

    OpenBLAS does not document this; these tests guard it on the host that
    runs them (see oracles.block_invariance_failures).
    """

    def test_rows_equal_their_lone_padded_block(self):
        assert block_invariance_failures() == []

    def test_at_one_and_two_blas_threads(self):
        assert blas_thread_failures("block_invariance_failures") == []


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = np.ones(5)
        opt = Adam(p)
        opt.step(p, np.zeros(5), lr=0.1)
        assert np.array_equal(p, np.ones(5))

    def test_first_step_magnitude(self):
        p = np.zeros(5)
        opt = Adam(p)
        g = np.full(5, 3.7)
        opt.step(p, g, lr=0.01)
        # bias-corrected first step is approximately -lr * sign(g)
        assert np.allclose(p, -0.01, atol=1e-6)

    def test_deterministic(self):
        p1, p2 = np.ones(4), np.ones(4)
        o1, o2 = Adam(p1), Adam(p2)
        g = np.array([0.1, -0.2, 0.3, -0.4])
        for _ in range(10):
            o1.step(p1, g, 0.05)
            o2.step(p2, g, 0.05)
        assert np.array_equal(p1, p2)

    def test_flat_buffer_equals_per_array_reference(self):
        # train steps one flat buffer of which every weight and bias is a
        # view; each view must get the bits of a per-array Adam step
        def views(flat):
            weights, biases = nn._layer_views(flat, [24, 16, 1])
            return weights + biases

        rng = np.random.default_rng(30)
        flat = rng.uniform(-1, 1, 24 * 16 + 16 + 16 + 1)
        flat[::7] = 0.0
        ref_params = [p.copy() for p in views(flat)]
        opt, ref_opt = Adam(flat), ReferenceAdam(ref_params)
        for step in range(6):
            grad = rng.normal(size=flat.size) * 10.0 ** rng.integers(-12, 3, flat.size)
            grad[rng.random(flat.size) < 0.2] = 0.0
            grad[rng.random(flat.size) < 0.2] = -0.0
            ref_grads = views(grad)
            lr = 10.0 ** -(step % 4)
            opt.step(flat, grad, lr)
            ref_opt.step(ref_params, ref_grads, lr)
            ref_flat = np.concatenate([p.ravel() for p in ref_params])
            assert flat.tobytes() == ref_flat.tobytes()
            assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref_opt.m]).tobytes()
            assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref_opt.v]).tobytes()


class TestEvaluate:
    def test_perfect_predictor(self):
        m = init_mlp([24, 4, 1], seed=13)
        x = np.random.default_rng(9).uniform(-1, 1, (50, 24))
        assert evaluate(m, x, predict(m, x)) == 0.0

    def test_constant_zero_predictor_uniform_labels(self):
        m = init_mlp([24, 4, 1], seed=14)
        for w in m.weights:
            w[:] = 0.0
        for b in m.biases:
            b[:] = 0.0
        rng = np.random.default_rng(10)
        y = rng.uniform(0, 0.5, 200_000)
        # E[y^2] for y ~ U(0, 0.5) is 1/12
        assert evaluate(m, rng.uniform(-1, 1, (len(y), 24)), y) == pytest.approx(
            1 / 12, rel=0.02)

    def test_order_invariant(self):
        m = init_mlp([24, 4, 1], seed=15)
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (100, 24))
        y = rng.uniform(0, 0.5, 100)
        perm = rng.permutation(100)
        assert evaluate(m, x, y) == pytest.approx(evaluate(m, x[perm], y[perm]),
                                                  abs=1e-15)

    def test_empty_rejected(self):
        m = init_mlp([24, 4, 1], seed=0)
        with pytest.raises(ValueError):
            evaluate(m, np.zeros((0, 24)), np.zeros(0))


class TestTruncate:
    """A (layer, neuron) selection against the oracle's separate truncated net."""

    def test_output_selector_is_identity(self):
        m = init_mlp([24, 8, 8, 1], seed=16)
        x = np.random.default_rng(12).uniform(-1, 1, 24)
        assert selected_output(m, x, select=(3, 0)) == padded_block_predict(m, x)
        assert predict(truncate_at_neuron(m, 3, 0), x) == predict(m, x)

    def test_consistency_with_recorded_activations(self):
        rng = np.random.default_rng(13)
        m = init_mlp([24, 5, 7, 1], activation="elu", alpha=0.1, seed=17)
        for layer in (1, 2):
            for neuron in range(m.layer_sizes[layer]):
                t = truncate_at_neuron(m, layer, neuron)
                for _ in range(100):
                    x = rng.uniform(-1, 1, 24)
                    _, posts = forward(m, x)
                    value = selected_output(m, x, select=(layer, neuron))
                    assert value == selected_output(t, x, select=(layer, 0))
                    assert abs(value - posts[layer][neuron]) < 1e-12

    def test_cli_width_gradients_exact_values_close(self):
        # at width 128 the truncated net's neuron row, a shared width-1 layer
        # in 8-row blocks, and the selection's per-row product sum in
        # different orders: the values differ in the last bits, the input
        # gradients (and so the dreamed graphs) do not
        m = init_mlp([24, 128, 128, 128, 1], seed=0)
        x = np.random.default_rng(14).uniform(-1, 1, (20, 24))
        for layer in (1, 2, 3):
            for neuron in (0, 5, 77, 127):
                t = truncate_at_neuron(m, layer, neuron)
                select = (layer, neuron)
                assert np.array_equal(input_gradient(t, x), input_gradient(m, x, select))
                assert np.allclose(selected_output(t, x), selected_output(m, x, select),
                                   rtol=0.0, atol=1e-12)

    def test_first_layer_shape(self):
        # a hidden neuron keeps its activation: 1-wide hidden layer, then 1x1 identity
        m = init_mlp([24, 4, 1], seed=18)
        t = truncate_at_neuron(m, 1, 0)
        assert t.layer_sizes == [24, 1, 1]
        assert t.weights[0].shape == (1, 24)
        assert t.weights[1] == 1.0 and t.biases[1] == 0.0
        x = -np.sign(m.weights[0][0])  # drives neuron 0 below zero
        assert selected_output(m, x, select=(1, 0)) == predict(t, x) == 0.0

    def test_out_of_range(self):
        m = init_mlp([24, 4, 1], seed=0)
        for select in ((1, 4), (3, 0)):
            with pytest.raises(ValueError):
                selected_output(m, np.zeros(24), select=select)
            with pytest.raises(ValueError):
                truncate_at_neuron(m, *select)


class TestTrain:
    def small_dataset(self, n=2000, seed=0):
        from qgdream.dataset import generate_dataset
        ds = generate_dataset("ghz_fidelity", n, cap=0.5, seed=seed)
        return ds.inputs.astype(np.float64), ds.labels.astype(np.float64)

    def test_constant_labels_bias_fit(self):
        # bias-only optimum: the linear net zeroes its weights and learns c
        rng = np.random.default_rng(14)
        x = rng.uniform(-1, 1, (500, 24))
        y = np.full(500, 0.25)
        cfg = TrainConfig(batch_size=100, seed=0, max_epochs=500,
                          convergence_patience=500)
        model, hist = train(x, y, [24, 1], cfg)
        assert evaluate(model, x, y) < 1e-6

    def test_learning_rate_non_increasing(self):
        x, y = self.small_dataset()
        cfg = TrainConfig(batch_size=500, seed=1, max_epochs=120,
                          convergence_patience=120)
        _, hist = train(x, y, [24, 16, 1], cfg)
        lr = hist.learning_rate
        assert all(b <= a for a, b in zip(lr, lr[1:]))

    def test_deterministic_history(self):
        x, y = self.small_dataset(500, seed=3)
        cfg = TrainConfig(batch_size=250, seed=2, max_epochs=20,
                          convergence_patience=20)
        _, h1 = train(x, y, [24, 8, 1], cfg)
        _, h2 = train(x, y, [24, 8, 1], cfg)
        assert h1.test_mse == h2.test_mse
        assert h1.train_mse == h2.train_mse

    def test_patience_stop_records_best_epoch(self):
        # labels unrelated to the graphs: the test MSE soon stops improving
        rng = np.random.default_rng(21)
        x, y = rng.uniform(-1, 1, (400, 24)), rng.uniform(0, 1, 400)
        cfg = TrainConfig(batch_size=100, lr_init=3e-2, seed=0, max_epochs=200,
                          convergence_patience=3)
        _, hist = train(x, y, [24, 8, 1], cfg)
        assert hist.stop_reason == "patience"
        assert hist.epochs_run == hist.best_epoch + cfg.convergence_patience < cfg.max_epochs
        assert hist.test_mse[hist.best_epoch - 1] == hist.final_test_mse

    def test_capped_run_records_max_epochs(self):
        x, y = self.small_dataset(500, seed=3)
        cfg = TrainConfig(batch_size=250, seed=2, max_epochs=4, convergence_patience=10)
        _, hist = train(x, y, [24, 8, 1], cfg)
        assert hist.stop_reason == "max_epochs" and hist.epochs_run == 4
        assert hist.best_epoch == 1 + int(np.argmin(hist.test_mse))

    def test_desk_scale_fit(self):
        # 10k samples, small net: sanity bar well above chance
        x, y = self.small_dataset(10_000, seed=4)
        cfg = TrainConfig(batch_size=1000, seed=2, max_epochs=300,
                          convergence_patience=300)
        model, hist = train(x, y, [24, 64, 64, 1], cfg)
        assert hist.final_test_mse < 5e-3

    @pytest.mark.parametrize("shape", [(10, 23), (10, 25), (10,), (10, 24, 1)])
    def test_non_graph_width_rejected(self, shape):
        # the symmetry mapping needs 24-edge graphs; any other width is
        # refused up front, naming the width, instead of failing mid-training
        x = np.random.default_rng(0).uniform(-1, 1, shape)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            train(x, np.zeros(10), [23, 4, 1], TrainConfig(max_epochs=1))

    def test_mapped_batches_keep_their_labels(self):
        from qgdream.states import Property, property_value_batch
        x, y = self.small_dataset(500, seed=6)
        idx = np.arange(0, 500, 2)
        mapped = nn._symmetry_mapped(x, idx, np.random.default_rng(0))
        assert not np.array_equal(mapped, x[idx])
        values = property_value_batch(mapped, Property.GHZ_FIDELITY)
        assert not np.isnan(values).any()
        assert np.max(np.abs(values - y[idx])) < 1e-6

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mapped_batches_equal_fancy_index_reference(self, dtype, strided):
        rng = np.random.default_rng(7)
        records = rng.uniform(-1, 1, (400, 25)).astype(dtype)
        records[rng.random(records.shape) < 0.1] = 0.0
        records[rng.random(records.shape) < 0.1] = -0.0
        # read_dataset's inputs are the [:, :24] view of its (n, 25) records
        x = records[:, :24] if strided else np.ascontiguousarray(records[:, :24])
        idx = rng.permutation(400)[:150]
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        mapped = nn._symmetry_mapped(x, idx, gen)
        ref = reference_symmetry_mapped(x, idx, ref_gen)
        assert mapped.dtype == ref.dtype == dtype and mapped.shape == ref.shape
        assert mapped.tobytes() == ref.tobytes()
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_returns_arrays_it_owns(self, tmp_path):
        from qgdream.checkpoint import load_checkpoint, save_checkpoint
        rng = np.random.default_rng(9)
        x, y = rng.uniform(-1, 1, (200, 24)), rng.uniform(0, 0.5, 200)
        model, _ = train(x, y, [24, 8, 4, 1], TrainConfig(batch_size=50, max_epochs=3))
        params = model.weights + model.biases
        for p in params:
            assert p.dtype == np.float64 and p.flags.c_contiguous and p.flags.owndata
        for i, p in enumerate(params):
            assert not any(np.shares_memory(p, q) for q in params[i + 1:])
        save_checkpoint(model, tmp_path / "net.ckpt")
        assert load_checkpoint(tmp_path / "net.ckpt").checksum() == model.checksum()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((0, 24)), np.zeros(0), [24, 4, 1], TrainConfig())

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="inputs and labels misaligned"):
            train(np.zeros((10, 24)), np.zeros(9), [24, 4, 1], TrainConfig())

    def test_no_training_row_rejected(self):
        # one record goes to the test split, leaving an empty training split
        x = np.random.default_rng(0).uniform(-1, 1, (1, 24))
        with pytest.raises(ValueError, match="dataset of 1 record"):
            train(x, np.zeros(1), [24, 4, 1], TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("batch_size", -5),
                                             ("max_epochs", 0)])
    def test_bad_config_rejected(self, field, value):
        name = field.replace("_", " ")
        with pytest.raises(ValueError, match=re.escape(name) + f" must be .*, got {value}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("lr_init", 0.0, "finite and > 0"), ("lr_init", -1e-3, "finite and > 0"),
        ("lr_init", float("nan"), "finite and > 0"), ("lr_init", float("inf"), "finite and > 0")])
    def test_bad_learning_rate_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_history_lengths(self):
        x, y = self.small_dataset(500, seed=5)
        cfg = TrainConfig(batch_size=250, seed=0, max_epochs=10,
                          convergence_patience=10)
        _, hist = train(x, y, [24, 4, 1], cfg)
        assert len(hist.train_mse) == len(hist.test_mse) == len(hist.learning_rate)
        assert hist.epochs_run == len(hist.test_mse)
