"""Independent reference implementations used only to check the package.

These deliberately avoid the package's fast paths: state construction
enumerates the three vertex pairings explicitly, purity goes through the
dense 16x16 density matrix with an explicit partial trace, and backprop
allocates a fresh array for every intermediate instead of working in place.
"""

import numpy as np


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
        return np.where(z > 0.0, z, alpha * np.expm1(z))
    raise ValueError(f"unknown activation {activation!r}")


def _activate_grad(z, activation, alpha):
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    return np.where(z > 0.0, 1.0, alpha * np.exp(z))


def reference_forward(model, x):
    """Allocating forward pass; returns (outputs, pre_activations, post_activations).

    x may be a single input (d,) or a batch (n, d). post_activations[0] is
    the input itself; outputs has the trailing unit axis squeezed.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.shape[1] != model.layer_sizes[0]:
        raise ValueError(f"input width {a.shape[1]} != {model.layer_sizes[0]}")
    pres, posts = [], [a]
    last = model.n_layers - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pres.append(z)
        if layer < last or model.activate_output:
            a = _activate(z, model.activation, model.alpha)
        else:
            a = z
        posts.append(a)
    out = a[:, 0] if a.shape[1] == 1 else a
    if single:
        out = out[0] if np.ndim(out) else out
        pres = [p[0] for p in pres]
        posts = [p[0] for p in posts]
    return out, pres, posts


def reference_param_gradients(model, x, y, *, return_loss=False):
    """Allocating backprop of the batch mean squared error.

    Returns (weight_grads, bias_grads) matching the model's parameter lists;
    with return_loss, also the batch MSE from the same forward pass.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("batch inputs and labels must be nonempty and aligned")
    out, pres, posts = reference_forward(model, x)
    n = len(y)
    loss = float(np.mean((out - y) ** 2)) if return_loss else None
    delta = (2.0 / n) * (out - y)[:, None]  # dL/dz at the (identity) output
    if model.activate_output:
        delta = delta * _activate_grad(pres[-1], model.activation, model.alpha)
    w_grads = [None] * model.n_layers
    b_grads = [None] * model.n_layers
    for layer in range(model.n_layers - 1, -1, -1):
        w_grads[layer] = delta.T @ posts[layer]
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * _activate_grad(
                pres[layer - 1], model.activation, model.alpha)
    if return_loss:
        return w_grads, b_grads, loss
    return w_grads, b_grads
