"""End-to-end acceptance suite.

Each numbered criterion prints one PASS/FAIL line with its measured
numbers (run with -s or read the captured output of the failing test).
The training-based criteria are slow; the whole module is a few tens of
minutes on one CPU core.
"""

import hashlib
import time

import numpy as np
import pytest

from oracles import brute_force_state, dense_reduced_purity, finite_difference
from qgdream.analysis import MAX_ENTROPY, entropy_profile, neuron_entropy
from qgdream.cli import main
from qgdream.dataset import generate_dataset
from qgdream.dreaming import DreamConfig, dream_ensemble, dream_oracle
from qgdream.nn import TrainConfig, init_mlp, input_gradient, param_gradients, predict, train
from qgdream.states import (
    GHZ_GRAPH,
    GHZ_STATE,
    W_STATE,
    Property,
    build_state,
    concurrence,
    fidelity,
    mean_purity,
    normalize_state,
    property_gradient,
    property_value,
    random_graph,
)

# Dataset / training configuration for the desk-scale run (criterion 4).
DATASET_SEED = 42
TRAIN_SEED = 1
LAYERS = [24, 128, 128, 128, 1]
MSE_TARGET = 5e-4

# Ensemble learning rate for criterion 5, picked by a sweep over
# [1e-4, 1e-2] on the trained net.
ENSEMBLE_LR = 1e-2


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def ghz_dataset():
    return generate_dataset(Property.GHZ_FIDELITY, 100_000, seed=DATASET_SEED)


@pytest.fixture(scope="module")
def trained_net(ghz_dataset):
    cfg = TrainConfig(batch_size=5000, seed=TRAIN_SEED, max_epochs=500)
    t0 = time.perf_counter()
    model, hist = train(ghz_dataset.inputs.astype(np.float64),
                        ghz_dataset.labels.astype(np.float64), LAYERS, cfg)
    return model, hist, time.perf_counter() - t0


def test_criterion_1_state_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        g = rng.uniform(-1.0, 1.0, 24)
        worst = max(worst, float(np.max(np.abs(build_state(g) - brute_force_state(g)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 10.0
    report(1, ok, f"1000-graph oracle max deviation {worst:.3e} (<1e-12), {elapsed:.1f}s (<10s)")


def test_criterion_2_analytic_fixtures():
    s = normalize_state(build_state(GHZ_GRAPH))
    checks = [
        ("ghz fidelity", abs(fidelity(GHZ_GRAPH, GHZ_STATE) - 1.0), 1e-12),
        ("ghz mean purity", abs(mean_purity(s) - 0.5), 1e-12),
        ("ghz concurrence", abs(concurrence(s) - 7.0), 1e-9),
        ("w mean purity", abs(mean_purity(W_STATE) - 4.0 / 7.0), 1e-12),
        ("w concurrence", abs(concurrence(W_STATE) - 6.464101615137754), 1e-9),
        ("w purity vs dense rho", abs(mean_purity(W_STATE) - np.mean(
            [dense_reduced_purity(W_STATE, bp) for bp in
             [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3)]])), 1e-12),
    ]
    worst_name, worst_err, _ = max(checks, key=lambda c: c[1] / c[2])
    ok = all(err <= tol for _, err, tol in checks)
    report(2, ok, f"analytic fixtures, worst: {worst_name} err {worst_err:.3e}")


def test_criterion_3_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0

    # property gradients (all three properties), 100 cases each
    for prop in Property:
        for _ in range(100):
            g = rng.uniform(-1.0, 1.0, 24)
            analytic = property_gradient(g, prop)
            numeric = finite_difference(lambda x, p=prop: property_value(x, p), g)
            scale = max(np.linalg.norm(numeric), 1e-8)
            worst = max(worst, float(np.linalg.norm(analytic - numeric) / scale))

    # network input gradients on ELU nets, 100 cases
    for i in range(100):
        model = init_mlp([24, 6, 5, 1], activation="elu", seed=i, alpha=0.7)
        x = rng.uniform(-1.0, 1.0, 24)
        analytic = input_gradient(model, x)
        numeric = finite_difference(lambda v: float(predict(model, v)), x)
        scale = max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / scale))

    # parameter gradients, 100 cases (every weight and bias entry)
    for i in range(100):
        model = init_mlp([24, 5, 1], activation="elu", seed=1000 + i, alpha=0.5)
        xb = rng.uniform(-1.0, 1.0, (4, 24))
        yb = rng.uniform(0.0, 0.5, 4)

        def loss(m):
            return float(np.mean((predict(m, xb).ravel() - yb) ** 2))

        grad_w, grad_b, _ = param_gradients(model, xb, yb)
        h = 1e-5
        for lay in range(model.n_layers):
            for arr, grad in ((model.weights[lay], grad_w[lay]),
                              (model.biases[lay], grad_b[lay])):
                numeric = np.empty_like(arr)
                flat, nflat = arr.ravel(), numeric.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = loss(model)
                    flat[k] = orig - h
                    down = loss(model)
                    flat[k] = orig
                    nflat[k] = (up - down) / (2 * h)
                scale = max(np.linalg.norm(numeric), 1e-8)
                worst = max(worst, float(np.linalg.norm(grad - numeric) / scale))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(3, ok, f"gradients vs finite differences, worst rel err {worst:.3e} "
                  f"(<1e-4), {elapsed:.1f}s (<60s)")


def test_criterion_4_desk_scale_training(trained_net):
    model, hist, elapsed = trained_net
    best = hist.final_test_mse
    ok = best <= MSE_TARGET and hist.epochs_run <= 500 and elapsed < 1800.0
    report(4, ok, f"test MSE {best:.3e} (target <=5e-4) in {hist.epochs_run} epochs, "
                  f"{elapsed / 60:.1f} min (<30 min)")


def test_criterion_5_distribution_shift(trained_net):
    model, _, _ = trained_net
    t0 = time.perf_counter()
    cfg = DreamConfig(steps=2000, lr=ENSEMBLE_LR, clamp=True, seed=0)
    res = dream_ensemble(model, Property.GHZ_FIDELITY, 200, cfg)
    elapsed = time.perf_counter() - t0
    frac = res.fraction_above(0.5)
    shift = res.mean_final - res.mean_initial
    ok = frac >= 0.40 and shift >= 0.30 and elapsed < 900.0 and not res.failures
    report(5, ok, f"{frac:.0%} of 200 finals above 0.5 (>=40%), "
                  f"mean shift {res.mean_initial:.3f}->{res.mean_final:.3f} "
                  f"(+{shift:.3f}, >=0.3), lr {ENSEMBLE_LR:g}, {elapsed / 60:.1f} min")


def test_criterion_6_oracle_dreaming():
    t0 = time.perf_counter()
    cfg = DreamConfig(steps=5000, lr=1e-2, snapshot_stride=5000, clamp=True)
    reached = 0
    for seed in range(100):
        g0 = random_graph(seed)
        traj = dream_oracle(g0, Property.GHZ_FIDELITY, cfg)
        if max(s.true_value for s in traj.snapshots) >= 0.95:
            reached += 1

    # small-step regime: per-step monotonicity of the true fidelity
    mono_cfg = DreamConfig(steps=1000, lr=1e-3, snapshot_stride=1, clamp=True)
    transitions = violations = 0
    for seed in range(10):
        traj = dream_oracle(random_graph(200 + seed), Property.GHZ_FIDELITY, mono_cfg)
        vals = np.array([s.true_value for s in traj.snapshots])
        transitions += len(vals) - 1
        violations += int(np.sum(np.diff(vals) < -1e-12))
    elapsed = time.perf_counter() - t0

    rate = violations / transitions
    ok = reached >= 80 and rate < 1e-3 and elapsed < 300.0
    report(6, ok, f"{reached}/100 starts reach fidelity >=0.95 (>=80), "
                  f"monotonicity violations {violations}/{transitions} "
                  f"({rate:.2e} < 1e-3), {elapsed:.0f}s (<5 min)")


def test_criterion_7_entropy_machinery(ghz_dataset):
    # closed-form fixtures
    spike = np.zeros((3, 16))
    spike[0, 0] = 1.0
    two = np.zeros((3, 16))
    two[0, 0] = two[2, 15] = 0.5
    uniform = np.full((3, 16), 1.0 / 48.0)
    errs = [abs(neuron_entropy([spike]) - 0.0),
            abs(neuron_entropy([two]) - 1.0),
            abs(neuron_entropy([uniform]) - MAX_ENTROPY)]
    fixtures_ok = max(errs) < 1e-12

    # end-to-end profile on a trained narrow-deep net
    x = ghz_dataset.inputs[:20_000].astype(np.float64)
    y = ghz_dataset.labels[:20_000].astype(np.float64)
    cfg = TrainConfig(batch_size=2000, seed=0, max_epochs=60, convergence_patience=60)
    model, _ = train(x, y, [24, 49, 49, 49, 49, 1], cfg)
    profile = entropy_profile(model, k_inits=10,
                              cfg=DreamConfig(steps=500, lr=1e-2, seed=0))
    values = [h for h in profile.per_neuron.values() if not np.isnan(h)]
    in_range = all(0.0 <= h <= MAX_ENTROPY + 1e-9 for h in values)

    layer_means = ", ".join(f"L{i + 1}={m:.3f}" for i, m in enumerate(profile.per_layer))
    ok = fixtures_ok and in_range and len(values) > 0
    report(7, ok, f"fixtures max err {max(errs):.1e} (<1e-12); profile on "
                  f"[24,49,49,49,49,1]: {len(values)} neurons in [0, {MAX_ENTROPY:.3f}], "
                  f"dead {profile.dead_neurons}; layer means (shape reported, "
                  f"not asserted): {layer_means}")


def test_criterion_8_byte_identical_reruns(tmp_path):
    def sha(p):
        return hashlib.sha256(p.read_bytes()).hexdigest()

    ds = tmp_path / "d.qgdd"
    gen = ["gen", "--property", "ghz_fidelity", "--n", "2000", "--seed", "7"]
    trn = ["train", "--layers", "24,8,1", "--batch-size", "500",
           "--max-epochs", "3", "--patience", "3", "--seed", "1"]
    pairs = []
    assert main(gen + ["--out", str(ds)]) == 0
    ds2 = tmp_path / "d2.qgdd"
    assert main(gen + ["--out", str(ds2)]) == 0
    pairs.append(("gen", ds, ds2))

    ck, ck2 = tmp_path / "m.ckpt", tmp_path / "m2.ckpt"
    assert main(trn + ["--dataset", str(ds), "--out", str(ck)]) == 0
    assert main(trn + ["--dataset", str(ds), "--out", str(ck2)]) == 0
    pairs.append(("train", ck, ck2))

    for sub, args in [
        ("dream", ["dream", "--checkpoint", str(ck), "--property", "ghz_fidelity",
                   "--runs", "5", "--steps", "20", "--seed", "3"]),
        ("entropy", ["entropy", "--checkpoint", str(ck), "--inits", "2",
                     "--steps", "5", "--seed", "4"]),
    ]:
        a, b = tmp_path / f"{sub}_a.csv", tmp_path / f"{sub}_b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        pairs.append((sub, a, b))

    mismatched = [sub for sub, a, b in pairs if sha(a) != sha(b)]
    ok = not mismatched
    report(8, ok, "gen/train/dream/entropy reruns byte-identical"
           if ok else f"mismatched artifacts: {mismatched}")
