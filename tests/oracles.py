"""Independent reference implementations used only to check the package.

These deliberately avoid the package's fast paths: state construction
enumerates the three vertex pairings explicitly, purity goes through the
dense 16x16 density matrix with an explicit partial trace, the property
gradient through the dense (16, 24) state jacobian, backprop
allocates a fresh array for every intermediate instead of working in place,
and a neuron is isolated by building a separate net whose output it is,
instead of by the package's (layer, neuron) selection. The batch state
kernel and the training batches' symmetry mapping gather with 2-D fancy
indexing, the dataset writer stacks and copies its records, and Adam steps
each array of a list on its own, as the package's first versions of them
did. The dream path's block products are checked against plain numpy
products of a zero-padded block that holds one row alone.
"""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from qgdream.dataset import _HEADER, MAGIC, PROPERTY_TAGS, VERSION
from qgdream.edges import EDGE_PERMUTATIONS, MATCH_EDGE_1, MATCH_EDGE_2, N_KETS
from qgdream.edges import MATCH_EDGE_1 as _E1, MATCH_EDGE_2 as _E2  # (3, 16) each
from qgdream import nn
from qgdream.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, BLOCK_ROWS, Mlp, init_mlp
from qgdream.states import (
    BIPARTITIONS,
    EPS_NORM,
    GHZ_STATE,
    W_STATE,
    DegenerateStateError,
    Property,
    build_state,
)


def brute_force_state(weights):
    """Amplitudes via explicit PM enumeration (no canonical-index formula)."""
    w = np.asarray(weights, dtype=np.float64)
    # edge lookup keyed by (lo, hi, mode_lo, mode_hi), filled by enumerating
    # the documented canonical order positionally
    weight = {}
    flat = 0
    for a in range(4):
        for b in range(a + 1, 4):
            for mode_a in (0, 1):
                for mode_b in (0, 1):
                    weight[(a, b, mode_a, mode_b)] = w[flat]
                    flat += 1
    pairings = [(((0, 1), (2, 3))), (((0, 2), (1, 3))), (((0, 3), (1, 2)))]
    amps = np.zeros(16)
    for ket in range(16):
        bits = [(ket >> (3 - q)) & 1 for q in range(4)]
        for pairing in pairings:
            prod = 1.0
            for a, b in pairing:
                prod *= weight[(a, b, bits[a], bits[b])]
            amps[ket] += prod
    return amps


#: Zero-heavy graphs: about half the weights are 0.0 or -0.0, so whole
#: matchings vanish and the direction sums meet signed zeros.
ZERO_HEAVY_GRAPHS = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)),
                             min_size=24, max_size=24).map(np.array)


def build_state_batch(weights):
    """Unnormalized amplitudes (n, 16) from edge weights (n, 24)."""
    w = np.asarray(weights, dtype=np.float64)
    # (n, 3, 16) matching contributions summed over directions
    return np.einsum("ndk->nk", w[:, _E1] * w[:, _E2])


def write_dataset(ds, path):
    header = _HEADER.pack(MAGIC, VERSION, PROPERTY_TAGS[ds.prop], len(ds), ds.seed)
    records = np.hstack([ds.inputs.astype("<f4"),
                         ds.labels.astype("<f4")[:, None]])
    Path(path).write_bytes(header + records.tobytes())


def reference_symmetry_mapped(x, idx, rng):
    """Rows x[idx], each through one drawn group element, by 2-D fancy index.

    Draws the elements as nn._symmetry_mapped does: 0..23 relabel the
    vertices by edges.EDGE_PERMUTATIONS, 24..47 relabel and flip the sign.
    """
    n_perms = len(EDGE_PERMUTATIONS)
    element = rng.integers(2 * n_perms, size=len(idx))
    sign = np.where(element < n_perms, 1, -1).astype(x.dtype)
    return sign[:, None] * x[idx[:, None], EDGE_PERMUTATIONS[element % n_perms]]


def dense_reduced_purity(state, keep):
    """tr(rho_A^2) via the full 16x16 density matrix and explicit partial trace."""
    s = np.asarray(state, dtype=np.float64)
    rho = np.outer(s, s)
    keep = tuple(keep)
    traced = tuple(q for q in range(4) if q not in keep)
    dim_keep = 2 ** len(keep)
    rho_a = np.zeros((dim_keep, dim_keep))

    def bits_to_index(bits, qubits):
        idx = 0
        for q in qubits:
            idx = (idx << 1) | bits[q]
        return idx

    for i in range(16):
        bi = [(i >> (3 - q)) & 1 for q in range(4)]
        for j in range(16):
            bj = [(j >> (3 - q)) & 1 for q in range(4)]
            if all(bi[q] == bj[q] for q in traced):
                rho_a[bits_to_index(bi, keep), bits_to_index(bj, keep)] += rho[i, j]
    return float(np.trace(rho_a @ rho_a))


def accumulated_state_jacobian(weights):
    """d amplitude / d weight, shape (16, 24), accumulating every matching term."""
    w = np.asarray(weights, dtype=np.float64)
    jac = np.zeros((16, 24))
    kets = np.arange(16)
    for d in range(3):
        np.add.at(jac, (kets, MATCH_EDGE_1[d]), w[MATCH_EDGE_2[d]])
        np.add.at(jac, (kets, MATCH_EDGE_2[d]), w[MATCH_EDGE_1[d]])
    return jac


def _bipartition_matrix(state, subset):
    """Amplitudes reshaped to (2^|subset|, 2^|complement|)."""
    s = np.asarray(state).reshape(2, 2, 2, 2)
    comp = tuple(q for q in range(4) if q not in subset)
    return np.transpose(s, subset + comp).reshape(2 ** len(subset), -1)


def dense_property_gradient(graph, prop):
    """Gradient of property_value as the dense state jacobian's transpose times dF/ds."""
    prop = Property(prop)
    w = np.asarray(graph, dtype=np.float64)
    s = build_state(w)
    norm2 = float(np.dot(s, s))
    if norm2 <= EPS_NORM ** 2:
        raise DegenerateStateError("gradient undefined for a degenerate state")
    jac = accumulated_state_jacobian(w)  # (16, 24)
    if prop in (Property.GHZ_FIDELITY, Property.W_FIDELITY):
        target = GHZ_STATE if prop is Property.GHZ_FIDELITY else W_STATE
        overlap = float(np.dot(s, target))
        grad_s = (2.0 * overlap / norm2) * target - (2.0 * overlap ** 2 / norm2 ** 2) * s
    else:
        norm = np.sqrt(norm2)
        s_hat = s / norm
        g_hat = np.zeros(N_KETS)
        for subset in BIPARTITIONS:
            comp = tuple(q for q in range(4) if q not in subset)
            perm = subset + comp
            m = _bipartition_matrix(s_hat, subset)
            dm = 4.0 * (m @ m.T @ m)  # d tr((MM^T)^2) / dM
            inv = np.argsort(perm)
            g_hat += np.transpose(
                dm.reshape((2,) * 4), inv).reshape(N_KETS)
        g_hat /= len(BIPARTITIONS)
        # chain through normalization: s_hat = s / |s|
        grad_s = (g_hat - np.dot(g_hat, s_hat) * s_hat) / norm
    return jac.T @ grad_s


def finite_difference(f, x, h=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        grad.flat[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


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


def _reference_pass(model, x):
    """(outputs, pre_activations, post_activations) of a (n, d) batch.

    Computes in the model's dtype, as the package does.
    """
    a = np.atleast_2d(np.asarray(x, dtype=model.weights[0].dtype))
    if a.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"input width {a.shape[1]} != {model.layer_sizes[0]}")
    pres, posts = [], [a]
    last = model.n_layers - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pres.append(z)
        a = _activate(z, model.activation, model.alpha) if layer < last else z
        posts.append(a)
    out = a[:, 0] if a.shape[1] == 1 else a
    return out, pres, posts


def reference_forward(model, x):
    """Allocating forward pass; returns (outputs, post_activations).

    x may be a single input (d,) or a batch (n, d). post_activations[0] is
    the input itself; outputs has the trailing unit axis squeezed.
    """
    out, _, posts = _reference_pass(model, x)
    if np.ndim(x) == 1:
        out = out[0] if np.ndim(out) else out
        posts = [p[0] for p in posts]
    return out, posts


def reference_param_gradients(model, x, y):
    """Allocating backprop of the batch mean squared error.

    Returns (weight_grads, bias_grads, loss): the gradients match the
    model's parameter lists, and loss is the batch MSE from the same forward
    pass, summed in float64. Every array is in the model's dtype.
    """
    dtype = model.weights[0].dtype
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    y = np.asarray(y, dtype=dtype).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("batch inputs and labels must be nonempty and aligned")
    out, pres, posts = _reference_pass(model, x)
    n = len(y)
    loss = float(np.mean((out - y) ** 2, dtype=np.float64))
    delta = (2.0 / n) * (out - y)[:, None]  # dL/dz at the (identity) output
    w_grads = [None] * model.n_layers
    b_grads = [None] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        w_grads[layer] = delta.T @ posts[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * _activate_grad(
                pres[layer - 1], model.activation, model.alpha)
    return w_grads, b_grads, loss


class ReferenceAdam:
    """Bias-corrected Adam over a list of arrays, one pass per array, as the
    package's first optimizer stepped every weight and bias on its own."""

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


def truncate_at_neuron(model, layer, neuron):
    """A separate net whose scalar output is one neuron of model.

    Layers are numbered as in nn.input_gradient's select. For a hidden
    neuron the net is model's first layer - 1 layers, the neuron's weight
    row as a 1-wide hidden layer (so its activation applies), and a 1x1
    identity output layer (weight 1.0, bias 0.0). For the output layer it
    is the prefix plus the neuron's row as the unactivated output. Arrays
    are copies, so the net shares no memory with model.

    Its input gradients, and so the graphs a dream on it visits, equal the
    selection's bit for bit. Its value need not: the neuron's row is a
    shared width-1 layer here, computed in nn.BLOCK_ROWS-row blocks, while
    the selection takes one product per row, and at width 128 the two sums
    differ in the last bits (by up to about 2e-16).
    """
    if not 1 <= layer <= model.n_layers:
        raise ValueError(f"layer {layer} out of range 1..{model.n_layers}")
    if not 0 <= neuron < model.layer_sizes[layer]:
        raise ValueError(f"neuron {neuron} out of range for layer {layer}")
    weights = [w.copy() for w in model.weights[:layer - 1]]
    biases = [b.copy() for b in model.biases[:layer - 1]]
    weights.append(model.weights[layer - 1][neuron:neuron + 1].copy())
    biases.append(model.biases[layer - 1][neuron:neuron + 1].copy())
    sizes = model.layer_sizes[:layer] + [1]
    if layer < model.n_layers:
        weights.append(np.ones((1, 1)))
        biases.append(np.zeros(1))
        sizes.append(1)
    return Mlp(sizes, model.activation, weights, biases, alpha=model.alpha, seed=model.seed)


def lone_block_product(row, w):
    """row @ w as one plain (BLOCK_ROWS, d) @ w gemm of a zero block whose
    first row is row: the product a row gets alone on the dream path."""
    block = np.zeros((BLOCK_ROWS, len(row)))
    block[0] = row
    return (block @ w)[0]


def padded_block_predict(model, x):
    """The scalar output of one input x as the dream path computes it.

    Every hidden layer is x's lone_block_product with the layer's
    transposed weights, plus the bias; the output layer is x's own one-row
    product, as a selected neuron's is. Returns a float.
    """
    a = np.asarray(x, dtype=np.float64)
    last = model.n_layers - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        if layer < last:
            a = _activate(lone_block_product(a, w.T) + b, model.activation, model.alpha)
        else:
            a = (a[None, :] @ w.T)[0] + b
    return float(a[0])


#: (in, out) of every layer in the CLI's default [24,128,128,128,1] net.
CLI_LAYER_SHAPES = ((24, 128), (128, 128), (128, 24), (128, 1))


def _sparse_uniform(rng, shape, zero_fraction=0.3):
    a = rng.uniform(-1, 1, shape)
    a[rng.random(shape) < zero_fraction] = 0.0
    return a


def block_invariance_failures(seed=0):
    """Rows whose bits on the dream path differ from those they get alone.

    For each layer shape in CLI_LAYER_SHAPES, forward (rows @ w.T, through
    a transposed view as nn takes it) and backward (rows @ w), every row of
    nn._rowwise's product must equal its lone_block_product. The batches
    have 30% zero entries; sizes straddle the block edge, and a 16-row batch
    is rolled through every offset so that each row takes every position in
    a block next to different neighbours. For a ReLU net of the CLI's shape
    and a small ELU net, each row of a batched input_gradient and
    selected_output (per-row neurons of every layer) must equal that row's
    lone call. Returns one description per mismatch; empty when all match.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for n_in, n_out in CLI_LAYER_SHAPES:
        w = rng.uniform(-1, 1, (n_out, n_in))
        for name, mat in (("forward", w.T), ("backward", w)):
            base = _sparse_uniform(rng, (16, len(mat)))
            batches = [np.roll(base, shift, axis=0) for shift in range(BLOCK_ROWS)]
            batches += [_sparse_uniform(rng, (n, len(mat))) for n in (1, 7, 9, 23)]
            for a in batches:
                out = nn._rowwise(a, mat)
                for r in range(len(a)):
                    if not np.array_equal(out[r], lone_block_product(a[r], mat)):
                        failures.append(f"{name} {n_in}->{n_out}, {len(a)} rows, row {r}")
    for model in (init_mlp([24, 128, 128, 128, 1], seed=seed),
                  init_mlp([24, 6, 5, 1], activation="elu", alpha=0.1, seed=seed)):
        for n in (1, 7, 8, 9, 17):
            x = _sparse_uniform(rng, (n, 24))
            for layer in range(1, model.n_layers + 1):
                neurons = rng.integers(model.layer_sizes[layer], size=n)
                grads = nn.input_gradient(model, x, select=(layer, neurons))
                values = nn.selected_output(model, x, select=(layer, neurons))
                for r in range(n):
                    select = (layer, int(neurons[r]))
                    if not (np.array_equal(grads[r], nn.input_gradient(model, x[r], select))
                            and values[r] == nn.selected_output(model, x[r], select)):
                        failures.append(f"{model.activation} {model.layer_sizes}, "
                                        f"{n} rows, row {r}, select {select}")
    return failures
