"""Feed-forward network with from-scratch backprop, Adam, and training loop.

Models are plain dataclasses of numpy arrays; forward/backward are
hand-written reverse mode (no autodiff framework). The passes compute in
the model's dtype. Every model the package builds, saves or dreams on is
float64; only train's forward and backward passes run in float32, on a
float32 shadow of float64 master weights that Adam updates.
Training and dreams share one layer loop and differ only in its product:
one gemm per layer, or row-exact blocks. It works in place: one fresh array
per layer (ELU, which keeps z, makes a second), which training's backward
pass reuses for its deltas (through a width-1 layer as a broadcast product,
not a matmul), so a batch does not churn through a dozen large
temporaries. While train runs, each role's parameters (float64 master,
float32 shadow, gradients, Adam moments) are views into one flat buffer,
so a batch takes one Adam pass, one gradient cast and one shadow refresh.
The training protocol's fixed split, Adam hyperparameters and plateau
schedule are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .edges import EDGE_PERMUTATIONS, N_EDGES

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TEST_FRACTION = 0.05    # 95:5 train-test split, at least one test row
LR_DECAY = 0.95         # lr *= LR_DECAY after each PLATEAU_WINDOW epochs in which
PLATEAU_WINDOW = 25     # the best test MSE did not improve by PLATEAU_REL_TOL
PLATEAU_REL_TOL = 1e-3  # (relative): "does not change significantly"

_ACTIVATIONS = ("relu", "elu")  # a checkpoint's activation tag is the index


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
        """Order-sensitive SHA-256 digest of every weight and bias."""
        import hashlib
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(np.ascontiguousarray(w).tobytes())
            h.update(np.ascontiguousarray(b).tobytes())
        return h.hexdigest()


@dataclass
class TrainConfig:
    batch_size: int = 5000
    lr_init: float = 1e-3
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
        if self.convergence_patience < 1:
            raise ValueError(f"convergence patience must be >= 1, got {self.convergence_patience}")
        if not 0 <= self.seed < 2 ** 64:  # the checkpoint header holds it as a u64
            raise ValueError(f"seed must be in [0, 2**64) to fit the file header, got {self.seed}")


@dataclass
class TrainHistory:
    train_mse: list[float] = field(default_factory=list)
    test_mse: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    best_epoch: int = 0       # 1-based epoch of the best test MSE; 0 before any
    stop_reason: str = ""     # "patience" or "max_epochs" once train returns

    @property
    def epochs_run(self):
        return len(self.test_mse)

    @property
    def final_test_mse(self):
        return min(self.test_mse) if self.test_mse else float("nan")


# Both keep z's dtype. alpha enters as a Python float: an np.float64 alpha
# would promote a float32 pass to float64.

def _activate(z, model):
    """The hidden activation of z: ReLU in place (z itself), ELU a new array."""
    if model.activation == "relu":
        return np.maximum(z, 0.0, out=z)
    if model.activation == "elu":
        return np.where(z > 0.0, z, float(model.alpha) * np.expm1(z))
    raise ValueError(f"unknown activation {model.activation!r}")


def _activation_grad(model, pre, post):
    """A hidden layer's activation derivative: for ReLU the bool mask post > 0
    (exactly z > 0, exact as a multiplier), for ELU from its kept z, pre."""
    if model.activation == "relu":
        return post > 0.0
    return np.where(pre > 0.0, 1.0, float(model.alpha) * np.exp(pre))


def init_mlp(layer_sizes, activation="relu", seed=0, alpha=1.0):
    """Fan-in scaled uniform init, bound sqrt(1/fan_in); deterministic per seed."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"invalid layer sizes {sizes}")
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, fan_out))
    return Mlp(sizes, activation, weights, biases, alpha=alpha, seed=seed)


def _rows(model, x, dtype):
    """(single, x as (n, d) rows of dtype); x may be (d,) or (n, d)."""
    x = np.asarray(x, dtype=dtype)
    rows = np.atleast_2d(x)
    if rows.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"input width {rows.shape[1]} != {model.layer_sizes[0]}")
    return x.ndim == 1, rows


def _layers(model, a, weights_t, biases, product):
    """(pre_activations, post_activations) of rows a through these layers.

    The layer loop of both passes, which differ only in product: np.matmul
    for training, _rowwise for dreams. Each layer's post-activation is one
    fresh array, product(a, w_t), to which the bias is added and, on a
    hidden layer, the ReLU applied in place; the output layer is never
    activated. pre_activations has one entry per hidden layer: z for ELU,
    whose derivative needs it, else None. post_activations[0] is a.
    """
    pres, posts = [], [a]
    last = model.n_layers - 1
    for layer, (w_t, b) in enumerate(zip(weights_t, biases)):
        a = product(a, w_t)
        a += b
        if layer < last:
            pres.append(None if model.activation == "relu" else a)
            a = _activate(a, model)
        posts.append(a)
    return pres, posts


def _forward(model, x):
    """(outputs, pre_activations, post_activations) of x (see _layers), in
    the model's dtype; the lists stay batched for a single (d,) input."""
    single, a = _rows(model, x, model.weights[0].dtype)
    pres, posts = _layers(model, a, [w.T for w in model.weights], model.biases, np.matmul)
    out = posts[-1]
    out = out[:, 0] if out.shape[1] == 1 else out
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


def param_gradients(model, x, y):
    """Gradients of the mean squared error over the batch, and that error.

    Returns (weight_grads, bias_grads, loss): the gradients match the
    model's parameter lists, and loss is the batch MSE from the same
    forward pass, summed in float64. x and y are cast to the model's dtype,
    in which every array is computed: a float32 model gives float32
    gradients.

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
    loss = float(np.mean((out - y) ** 2, dtype=np.float64))
    delta = (2.0 / n) * (out - y)[:, None]  # dL/dz at the (identity) output
    w_grads = [None] * model.n_layers
    b_grads = [None] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        w_grads[layer] = delta.T @ posts[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            grad = _activation_grad(model, pres[layer - 1], posts[layer])
            w = model.weights[layer]
            # Through a width-1 layer the product's inner dimension is 1,
            # which np.matmul runs in a scalar loop outside BLAS; the
            # broadcast product has the same values (0 + a*b there, a*b here,
            # so only the sign of a zero can differ).
            product = np.multiply if len(w) == 1 else np.matmul
            delta = product(delta, w, out=posts[layer])
            delta *= grad
    return w_grads, b_grads, loss


BLOCK_ROWS = 8  # rows per fixed-shape product in _rowwise


def _rowwise(a, w):
    """a @ w with row r's bits independent of the batch: a[r] @ w, or
    a[r] @ w[r] for a stack. The dream side's layer product in _layers,
    and its backward pass's.

    A 2-D w (a shared layer) runs in blocks of BLOCK_ROWS rows: the (n, d)
    rows are zero-padded to a multiple of BLOCK_ROWS (no copy when n is one
    already), multiplied as one stacked (blocks, BLOCK_ROWS, d) @ w, which
    NumPy runs as one BLAS gemm per block, and the padding is dropped. A
    row's bits depend neither on its position in a block nor on its
    neighbours (OpenBLAS does not document this; TestBlockInvariance in
    tests/test_nn.py checks it for every layer shape in use), so each row
    gets the bits it gets alone in a zero-padded block. A plain (n, d) @ w
    is one gemm, whose rounding can change with n. A 3-D w (the selected
    layer's per-row weights) takes one BLAS call per row.
    """
    if w.ndim == 3:
        return (a[:, None, :] @ w)[:, 0]
    n, d = a.shape
    blocks = -(-n // BLOCK_ROWS)
    if n % BLOCK_ROWS:
        padded = np.zeros((blocks * BLOCK_ROWS, d), dtype=a.dtype)
        padded[:n] = a
        a = padded
    return (a.reshape(blocks, BLOCK_ROWS, d) @ w).reshape(blocks * BLOCK_ROWS, -1)[:n]


@dataclass(frozen=True)
class Selection:
    """The sub-net that each of `rows` inputs ascends, resolved once.

    weights and biases run from the first layer to the selected one. The
    prefix layers are read-only views of the model's own, so a write through
    them raises ValueError; the selected layer holds a copy of each row's
    weight row as (rows, 1, in) and bias as (rows, 1). weights_t holds the
    transposes that the layer loop (_layers) multiplies by, as views made
    once. hidden is True when the selected neuron is a hidden one, which the
    loop activates and input_gradient differentiates after its activation.
    """
    rows: int
    weights: tuple
    weights_t: tuple
    biases: tuple
    hidden: bool

    def take(self, rows):
        """The Selection of these of its rows (an index array), in that order."""
        w = self.weights[-1][rows]
        return replace(self, rows=len(rows), weights=self.weights[:-1] + (w,),
                       weights_t=self.weights_t[:-1] + (np.swapaxes(w, -1, -2),),
                       biases=self.biases[:-1] + (self.biases[-1][rows],))


def resolve_selection(model, select, n):
    """The Selection of `select` for n rows of input.

    select is (layer, neurons) with neurons either one index or one per
    row; None selects the full net's scalar output. Layers 1 .. n_layers - 1
    are the hidden layers and layer n_layers the output layer. Raises
    ValueError on a layer or neuron out of range.
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
    weights, biases = ([np.broadcast_to(a, a.shape) for a in arrays[:layer - 1]]  # read-only views
                       + [arrays[layer - 1][neurons][:, None]]
                       for arrays in (model.weights, model.biases))
    return Selection(n, tuple(weights), tuple(np.swapaxes(w, -1, -2) for w in weights),
                     tuple(biases), layer < model.n_layers)


def _as_rows(model, x, select):
    """(single, (n, d) float64 rows, their Selection); select may be resolved."""
    single, xb = _rows(model, x, np.float64)
    if not isinstance(select, Selection):
        select = resolve_selection(model, select, len(xb))
    elif select.rows != len(xb):
        raise ValueError(f"selection resolved for {select.rows} rows, got {len(xb)}")
    return single, xb, select


def selected_output(model, x, select=None):
    """Each row's selected neuron (default: the scalar output), row-exact.

    select is as in input_gradient. Accepts (d,) or (n, d); returns a float
    or (n,) array. Row r's value is forward()'s post-activation of its
    selected neuron, from input_gradient's forward pass (the layer loop with
    _rowwise products), with the bits of a lone input.
    """
    single, xb, sel = _as_rows(model, x, select)
    out = _layers(model, xb, sel.weights_t, sel.biases, _rowwise)[1][-1][:, 0]
    return out[0] if single else out


def input_gradient(model, x, select=None):
    """Gradient of each row's selected neuron w.r.t. the input.

    select=None differentiates the full net's scalar output; select=(layer,
    neurons) differentiates, for row r, neuron neurons[r] (or one shared
    neuron) of layer. Layer l < n_layers is the l-th hidden layer, whose
    neuron is differentiated after its activation; layer n_layers is the
    output layer. select may also be the Selection that resolve_selection
    made for these rows, which a caller taking many steps resolves once.
    The forward pass is training's layer loop (_layers) with _rowwise as
    its product: the prefix layers run for all rows at once, in blocks of
    BLOCK_ROWS rows, and the selected layer one row at a time, so row r's
    gradient is bit-identical to that of a lone input, at any batch size.
    Parameters are untouched.

    Accepts (d,) or (n, d); returns the matching shape.
    """
    single, xb, sel = _as_rows(model, x, select)
    pres, posts = _layers(model, xb, sel.weights_t, sel.biases, _rowwise)
    delta = np.ones((len(xb), 1))
    if sel.hidden:  # a hidden neuron: through its activation
        delta *= _activation_grad(model, pres[-1], posts[-1])
    for layer in range(len(sel.weights) - 1, 0, -1):
        delta = _rowwise(delta, sel.weights[layer])
        delta *= _activation_grad(model, pres[layer - 1], posts[layer])
    grad = _rowwise(delta, sel.weights[0])
    return grad[0] if single else grad


class Adam:
    """Bias-corrected Adam on one array, with the ADAM_* hyperparameters."""

    def __init__(self, param):
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self.t = 0

    def step(self, param, grad, lr):
        """Descent step in place: param <- param - lr * adam(grad)."""
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grad
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grad * grad
        param -= lr * (self.m / c1) / (np.sqrt(self.v / c2) + ADAM_EPS)


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
    rows keep x's dtype. The gather is one take from raveled x (a copy of
    x if x is not C-contiguous) at a flat (len(idx), 24) index.
    """
    n_perms = len(EDGE_PERMUTATIONS)
    element = rng.integers(2 * n_perms, size=len(idx))
    sign = np.where(element < n_perms, 1, -1).astype(x.dtype)
    flat = EDGE_PERMUTATIONS[element % n_perms]  # each entry's column ...
    flat += N_EDGES * idx[:, None]  # ... plus its row's offset in raveled x
    mapped = x.ravel().take(flat)
    mapped *= sign[:, None]
    return mapped


def _layer_views(flat, sizes):
    """(weights, biases) of a net with these layer sizes, as views of flat.

    flat holds every weight matrix and then every bias vector, each
    C-ordered, end to end; every view is C-contiguous.
    """
    shapes = [(n_out, n_in) for n_in, n_out in zip(sizes[:-1], sizes[1:])]
    shapes += [(n_out,) for n_out in sizes[1:]]
    views, end = [], 0
    for shape in shapes:
        start, end = end, end + int(np.prod(shape))
        views.append(flat[start:end].reshape(shape))
    return views[:len(sizes) - 1], views[len(sizes) - 1:]


# A diverging run overflows to inf/NaN losses; the non-finite-loss check
# reports it, so training runs with numpy's overflow warnings off.
@np.errstate(over="ignore", invalid="ignore")
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

    Splits the data (shuffled, seeded) into train/test at TEST_FRACTION,
    decays the learning rate by LR_DECAY whenever the best test MSE has not
    improved by PLATEAU_REL_TOL (relative) over PLATEAU_WINDOW epochs, and
    stops once no new best test MSE appears for config.convergence_patience
    epochs or config.max_epochs is hit. Returns (best model, history);
    history.best_epoch is the best model's epoch and history.stop_reason
    names the limit that stopped training.

    The model, its Adam state and the test evaluation are float64. Each
    batch's forward and backward passes run in float32, on a float32 shadow
    of the weights refreshed after every Adam step (Micikevicius et al.,
    "Mixed Precision Training", 2018); the gradients are cast back to
    float64 for Adam. The training split is cast to float32 once, the test
    split to float64; inputs is not modified.

    While it trains, the master weights, the shadow, the float64 gradients
    and the Adam moments are each one flat buffer with every weight and
    bias a view into it. Adam and the casts are elementwise, so one call
    over a buffer gives the bits that one call per array gave. The
    returned model owns a C-contiguous array per weight and bias.
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
    n_test = max(1, int(round(len(x) * TEST_FRACTION)))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    if len(train_idx) == 0:
        raise ValueError(f"dataset of {len(x)} record(s) leaves no training row "
                         f"after the {n_test}-row test split")
    x_train = x[train_idx].astype(np.float32, copy=False)
    y_train = y[train_idx].astype(np.float32)
    x_test, y_test = x[test_idx].astype(np.float64, copy=False), y[test_idx]

    model = init_mlp(sizes, activation=activation, seed=cfg.seed, alpha=alpha)
    master = np.concatenate([p.ravel() for p in model.weights + model.biases])
    model.weights, model.biases = _layer_views(master, sizes)
    shadow_flat = master.astype(np.float32)
    shadow = Mlp(sizes, activation, *_layer_views(shadow_flat, sizes), alpha=alpha)
    grads = np.empty_like(master)
    opt = Adam(master)
    lr = cfg.lr_init
    history = TrainHistory()
    best_mse, best = np.inf, None
    window_best = np.inf
    batch = min(cfg.batch_size, len(x_train))

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(x_train))
        batch_losses = []
        for start in range(0, len(x_train) - batch + 1, batch):
            idx = order[start:start + batch]
            xb, yb = _symmetry_mapped(x_train, idx, rng), y_train[idx]
            w_grads, b_grads, loss = param_gradients(shadow, xb, yb)
            batch_losses.append(loss)
            np.concatenate([g.ravel() for g in w_grads + b_grads], out=grads)
            opt.step(master, grads, lr)
            np.copyto(shadow_flat, master)
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
            history.best_epoch = epoch
            best = master.copy()
        if epoch % PLATEAU_WINDOW == 0:
            if best_mse > window_best * (1.0 - PLATEAU_REL_TOL):
                lr *= LR_DECAY
            window_best = best_mse
        if epoch - history.best_epoch >= cfg.convergence_patience:
            history.stop_reason = "patience"
            break
    else:
        history.stop_reason = "max_epochs"

    model.weights, model.biases = ([p.copy() for p in ps] for ps in _layer_views(best, sizes))
    return model, history

