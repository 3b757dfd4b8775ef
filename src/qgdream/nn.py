"""Feed-forward network with from-scratch backprop, Adam, and training loop.

Models are plain dataclasses of numpy arrays; forward/backward are
hand-written reverse mode (no autodiff framework). The passes compute in
the model's dtype. Every model the package builds, saves or dreams on is
float64; only train's forward and backward passes run in float32, on a
float32 shadow of float64 master weights that Adam updates.
The batched forward and backward passes work in place: one fresh array per
layer, which the backward pass reuses for its deltas, so a training batch
does not churn through a dozen large temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .edges import EDGE_PERMUTATIONS, N_EDGES

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Mlp:
    layer_sizes: list[int]
    activation: str               # "relu" or "elu"
    weights: list[np.ndarray]     # per layer, shape (out, in)
    biases: list[np.ndarray]      # per layer, shape (out,)
    alpha: float = 1.0            # ELU alpha; ignored for relu
    seed: int | None = None

    @property
    def n_layers(self):
        return len(self.weights)

    def checksum(self):
        """Order-sensitive parameter digest; used by the frozen-model checks."""
        import hashlib
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(np.ascontiguousarray(w).tobytes())
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


@dataclass
class TrainConfig:
    batch_size: int = 5000
    test_fraction: float = 0.05   # 95:5 train-test split
    lr_init: float = 1e-3
    lr_decay: float = 0.95
    plateau_window: int = 25
    plateau_rel_tol: float = 1e-3  # "does not change significantly"
    convergence_patience: int = 400
    max_epochs: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max epochs must be >= 1, got {self.max_epochs}")
        if not (np.isfinite(self.lr_init) and self.lr_init > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr_init}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"learning-rate decay must be in (0, 1], got {self.lr_decay}")
        if self.convergence_patience < 1:
            raise ValueError(f"convergence patience must be >= 1, got {self.convergence_patience}")


@dataclass
class TrainHistory:
    train_mse: list[float] = field(default_factory=list)
    test_mse: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)

    @property
    def epochs_run(self):
        return len(self.test_mse)

    @property
    def final_test_mse(self):
        return min(self.test_mse) if self.test_mse else float("nan")


# Both keep z's dtype. alpha enters as a Python float: an np.float64 alpha
# would promote a float32 pass to float64.

def _activate(z, activation, alpha):
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "elu":
        return np.where(z > 0.0, z, float(alpha) * np.expm1(z))
    raise ValueError(f"unknown activation {activation!r}")


def _activate_grad(z, activation, alpha):
    if activation == "relu":
        return (z > 0.0).astype(z.dtype)
    return np.where(z > 0.0, 1.0, float(alpha) * np.exp(z))


def init_mlp(layer_sizes, activation="relu", seed=0, alpha=1.0):
    """Fan-in scaled uniform init, bound sqrt(1/fan_in); deterministic per seed."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {sizes}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, fan_out))
    return Mlp(sizes, activation, weights, biases, alpha=alpha, seed=seed)


def _forward(model, x):
    """(outputs, pre_activations, post_activations) of x, each layer in place.

    Every layer's post-activation is one fresh array: the product a @ w.T,
    to which the bias is added and, on a hidden layer, the ReLU applied in
    place. The output layer is never activated. pre_activations has one
    entry per hidden layer: z for ELU, whose derivative needs it, else
    None. The lists stay batched for a single (d,) input. x is cast to the
    model's dtype.
    """
    x = np.asarray(x, dtype=model.weights[0].dtype)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"input width {a.shape[1]} != {model.layer_sizes[0]}")
    pres, posts = [], [a]
    last = model.n_layers - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T
        a += b
        if layer < last and model.activation == "relu":
            pres.append(None)
            np.maximum(a, 0.0, out=a)
        elif layer < last:
            pres.append(a)
            a = _activate(a, model.activation, model.alpha)
        posts.append(a)
    out = a[:, 0] if a.shape[1] == 1 else a
    if single:
        out = out[0] if np.ndim(out) else out
    return out, pres, posts


def forward(model, x):
    """Forward pass; returns (outputs, post_activations).

    x may be a single input (d,) or a batch (n, d). post_activations[0] is
    the input itself and post_activations[l] the activations of layer l;
    outputs has the trailing unit axis squeezed.
    """
    out, _, posts = _forward(model, x)
    if np.ndim(x) == 1:
        posts = [p[0] for p in posts]
    return out, posts


def predict(model, x):
    """Scalar output(s) only; bit-identical to forward(model, x)[0]."""
    return _forward(model, x)[0]


def param_gradients(model, x, y, *, return_loss=False):
    """Gradients of the mean squared error over the batch.

    Returns (weight_grads, bias_grads) matching the model's parameter lists;
    with return_loss, also the batch MSE from the same forward pass, summed
    in float64. x and y are cast to the model's dtype, in which every
    array is computed: a float32 model gives float32 gradients.

    The backward pass reuses the forward pass's arrays: a ReLU layer's mask
    is taken from its post-activation (a > 0 exactly where z > 0), and each
    new delta is written over the post-activation it has just finished
    with. The input x is never written to.
    """
    dtype = model.weights[0].dtype
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    y = np.asarray(y, dtype=dtype).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("batch inputs and labels must be nonempty and aligned")
    out, pres, posts = _forward(model, x)
    n = len(y)
    loss = float(np.mean((out - y) ** 2, dtype=np.float64)) if return_loss else None
    delta = (2.0 / n) * (out - y)[:, None]  # dL/dz at the (identity) output
    relu = model.activation == "relu"

    def activate_grad(layer):
        """Derivative of layer's activation: a bool mask for ReLU."""
        if relu:
            return posts[layer + 1] > 0.0
        return _activate_grad(pres[layer], model.activation, model.alpha)

    w_grads = [None] * model.n_layers
    b_grads = [None] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        w_grads[layer] = delta.T @ posts[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            grad = activate_grad(layer - 1)
            delta = np.matmul(delta, model.weights[layer], out=posts[layer])
            delta *= grad
    if return_loss:
        return w_grads, b_grads, loss
    return w_grads, b_grads


def _rowwise(a, w):
    """a @ w one row at a time: row r is a[r] @ w, or a[r] @ w[r] for a stack.

    NumPy evaluates a stacked product with one BLAS call per row, the same
    call a lone (1, d) input gets, so row r's result is bit-identical for
    every batch size. A plain (n, d) @ w is one gemm, whose rounding can
    change with n.
    """
    return (a[:, None, :] @ w)[:, 0]


def _selected_layers(model, select, n):
    """Weights and biases of the sub-net each row ascends.

    select is (layer, neurons) with neurons either one index or one per
    row; None selects the full net's scalar output. Layers 1 .. n_layers - 1
    are the hidden layers and layer n_layers the output layer. The prefix
    layers are shared; the last entry of weights holds each row's selected
    weight row as (n, 1, in), and of biases its bias as (n, 1).
    """
    if select is None:
        if model.layer_sizes[-1] != 1:
            raise ValueError("the full net's output is not a scalar; select a neuron")
        layer, neurons = model.n_layers, 0
    else:
        layer, neurons = select
    if not 1 <= layer <= model.n_layers:
        raise ValueError(f"layer {layer} out of range 1..{model.n_layers}")
    neurons = np.broadcast_to(np.asarray(neurons, dtype=np.intp), (n,))
    if np.any(neurons < 0) or np.any(neurons >= model.layer_sizes[layer]):
        raise ValueError(f"neuron out of range for layer {layer}")
    weights = model.weights[:layer - 1] + [model.weights[layer - 1][neurons][:, None, :]]
    biases = model.biases[:layer - 1] + [model.biases[layer - 1][neurons][:, None]]
    return weights, biases


def _forward_rows(model, x, select):
    """Row-exact forward pass to each row's selected neuron.

    Every hidden layer is activated, the selected one included; the output
    layer never is. Returns (pre-activations per layer, selected outputs
    (n,), weights); the last pre-activation is (n, 1).
    """
    if x.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"input width {x.shape[1]} != {model.layer_sizes[0]}")
    weights, biases = _selected_layers(model, select, len(x))
    pres, a = [], x
    for layer, (w, b) in enumerate(zip(weights, biases), 1):
        z = _rowwise(a, np.swapaxes(w, -1, -2)) + b
        pres.append(z)
        a = _activate(z, model.activation, model.alpha) if layer < model.n_layers else z
    return pres, a[:, 0], weights


def _as_rows(x):
    x = np.asarray(x, dtype=np.float64)
    return x.ndim == 1, np.atleast_2d(x)


def selected_output(model, x, select=None):
    """Each row's selected neuron (default: the scalar output), row-exact.

    select is as in input_gradient. Accepts (d,) or (n, d); returns a float
    or (n,) array. Row r's value is forward()'s post-activation of its
    selected neuron, computed one row at a time.
    """
    single, xb = _as_rows(x)
    out = _forward_rows(model, xb, select)[1]
    return out[0] if single else out


def input_gradient(model, x, select=None):
    """Gradient of each row's selected neuron w.r.t. the input.

    select=None differentiates the full net's scalar output; select=(layer,
    neurons) differentiates, for row r, neuron neurons[r] (or one shared
    neuron) of layer. Layer l < n_layers is the l-th hidden layer, whose
    neuron is differentiated after its activation; layer n_layers is the
    output layer. The prefix layers run for all rows at once. Every
    product runs one row at a time (see _rowwise), so row r's gradient is
    bit-identical to that of a lone input, at any batch size. Parameters
    are untouched.

    Accepts (d,) or (n, d); returns the matching shape.
    """
    single, xb = _as_rows(x)
    pres, _, weights = _forward_rows(model, xb, select)
    delta = np.ones((len(xb), 1))
    if len(weights) < model.n_layers:  # a hidden neuron: through its activation
        delta = delta * _activate_grad(pres[-1], model.activation, model.alpha)
    for layer in range(len(weights) - 1, 0, -1):
        delta = _rowwise(delta, weights[layer]) * _activate_grad(
            pres[layer - 1], model.activation, model.alpha)
    grad = _rowwise(delta, weights[0])
    return grad[0] if single else grad


class Adam:
    """Bias-corrected Adam; state shapes mirror the parameter list."""

    def __init__(self, params, beta1=ADAM_BETA1, beta2=ADAM_BETA2, eps=ADAM_EPS):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads, lr):
        """Descent step in place: params <- params - lr * adam(grads)."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def evaluate(model, x, y):
    """Mean squared error over a dataset."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) == 0:
        raise ValueError("empty evaluation set")
    out = predict(model, np.atleast_2d(x))
    return float(np.mean((out - y) ** 2))


def _symmetry_mapped(x, idx, rng):
    """Rows x[idx], each passed through one uniformly drawn group element.

    Elements 0..23 are the vertex relabellings of edges.EDGE_PERMUTATIONS;
    elements 24..47 are the same relabellings followed by a sign flip. The
    rows keep x's dtype.
    """
    n_perms = len(EDGE_PERMUTATIONS)
    element = rng.integers(2 * n_perms, size=len(idx))
    sign = np.where(element < n_perms, 1, -1).astype(x.dtype)
    return sign[:, None] * x[idx[:, None], EDGE_PERMUTATIONS[element % n_perms]]


def train(inputs, labels, layer_sizes, config=None, activation="relu", alpha=1.0):
    """Mini-batch Adam training with plateau LR decay and best-MSE patience.

    The layer sizes must run from 24 inputs to 1 output. The inputs must be
    (n, 24) graphs in the canonical edge order, and the labels a property
    that is invariant under the graphs' 48-element symmetry group: the 24
    vertex relabellings (edges.EDGE_PERMUTATIONS),
    each with or without a global sign flip of the weights. Every property
    in states.py is. Before each gradient step, each training sample of the
    batch is passed through one group element drawn uniformly from the
    seeded generator that orders the batches; history.train_mse is the
    loss on those mapped batches. The test split is never mapped.

    Splits the data (shuffled, seeded) into train/test, decays the learning
    rate by config.lr_decay whenever the best test MSE has not improved by
    config.plateau_rel_tol (relative) over a plateau window, and stops once
    no new best test MSE appears for config.convergence_patience epochs or
    the epoch cap is hit. Returns (best model, history).

    The model, its Adam state and the test evaluation are float64. Each
    batch's forward and backward passes run in float32, on a float32 shadow
    of the weights refreshed after every Adam step (Micikevicius et al.,
    "Mixed Precision Training", 2018); the gradients are cast back to
    float64 for Adam. The training split is cast to float32 once, the test
    split to float64; inputs is not modified.
    """
    cfg = config or TrainConfig()
    x = np.asarray(inputs)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(x) == 0:
        raise ValueError("empty dataset")
    if x.ndim != 2 or x.shape[1] != N_EDGES:
        raise ValueError(f"inputs must be (n, {N_EDGES}) graphs, got shape {x.shape}")
    if len(x) != len(y):
        raise ValueError("inputs and labels misaligned")
    sizes = list(layer_sizes)
    if sizes[:1] != [N_EDGES] or sizes[-1:] != [1]:
        raise ValueError(f"layer sizes must start at {N_EDGES} inputs and end at 1 output, "
                         f"got {sizes}")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(x))
    n_test = max(1, int(round(len(x) * cfg.test_fraction)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    if len(train_idx) == 0:
        raise ValueError(f"dataset of {len(x)} record(s) leaves no training row "
                         f"after the {n_test}-row test split")
    x_train = x[train_idx].astype(np.float32, copy=False)
    y_train = y[train_idx].astype(np.float32)
    x_test, y_test = x[test_idx].astype(np.float64, copy=False), y[test_idx]

    model = init_mlp(sizes, activation=activation, seed=cfg.seed, alpha=alpha)
    params = model.weights + model.biases
    shadow = Mlp(model.layer_sizes, activation, [w.astype(np.float32) for w in model.weights],
                 [b.astype(np.float32) for b in model.biases], alpha=alpha)
    shadow_params = shadow.weights + shadow.biases
    opt = Adam(params)
    lr = cfg.lr_init
    history = TrainHistory()
    best_mse = np.inf
    best_params = None
    best_epoch = 0
    window_best = np.inf
    batch = min(cfg.batch_size, len(x_train))

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(x_train))
        batch_losses = []
        for start in range(0, len(x_train) - batch + 1, batch):
            idx = order[start:start + batch]
            xb, yb = _symmetry_mapped(x_train, idx, rng), y_train[idx]
            w_grads, b_grads, loss = param_gradients(shadow, xb, yb, return_loss=True)
            batch_losses.append(loss)
            opt.step(params, [g.astype(np.float64) for g in w_grads + b_grads], lr)
            for s, p in zip(shadow_params, params):
                np.copyto(s, p)
        train_mse = float(np.mean(batch_losses))
        test_mse = evaluate(model, x_test, y_test)
        if not np.isfinite(train_mse) or not np.isfinite(test_mse):
            raise FloatingPointError(
                f"non-finite loss at epoch {epoch} (train={train_mse}, test={test_mse})")
        history.train_mse.append(train_mse)
        history.test_mse.append(test_mse)
        history.learning_rate.append(lr)
        if test_mse < best_mse:
            best_mse = test_mse
            best_epoch = epoch
            best_params = ([w.copy() for w in model.weights],
                           [b.copy() for b in model.biases])
        if epoch % cfg.plateau_window == 0:
            if best_mse > window_best * (1.0 - cfg.plateau_rel_tol):
                lr *= cfg.lr_decay
            window_best = best_mse
        if epoch - best_epoch >= cfg.convergence_patience:
            break

    if best_params is not None:
        model.weights, model.biases = best_params
    return model, history

