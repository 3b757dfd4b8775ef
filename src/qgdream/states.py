"""Graph-to-state mapping and quantum state properties.

A quantum graph is a length-24 float vector (see edges.py). Its state is
the length-16 real amplitude vector over the 4-qubit computational basis,
ket m0 m1 m2 m3 read as a 4-bit integer with m0 most significant. Each
ket amplitude is the sum over the three perfect-matching directions of
the product of the two mode-consistent edge weights.

Reduced purities read the state as a matrix across a bipartition A | B:
row i spells A's qubit bits, column j B's. The cut-index table CUT_KETS
holds, for each of the 7 bipartitions, the (2^|A|, 2^|B|) matrix of ket
indices of those entries, so state[CUT_KETS[A]] is that matrix and
tr(rho_A^2) = sum((M M^T)^2). The batched mean purity gathers rows of the
(16, n) transposed states through it, the purity gradient scatters
4 M M^T M back through it with bincount, and reduced_purity builds the same
kind of matrix for any other subset.
"""

from __future__ import annotations

import enum

import numpy as np

from . import kernels
from .edges import EDGE_TERM_KETS, EDGE_TERM_PARTNERS, N_EDGES, N_KETS

#: Norm-squared below which a graph is considered to create no state.
EPS_NORM = 1e-12


class DegenerateStateError(ValueError):
    """The graph's state has (numerically) zero norm."""


class Property(enum.Enum):
    GHZ_FIDELITY = "ghz_fidelity"
    W_FIDELITY = "w_fidelity"
    MEAN_PURITY = "mean_purity"


def _fixed_state(entries):
    amps = np.zeros(N_KETS)
    for ket, value in entries:
        amps[ket] = value
    return amps


#: (|0000> + |1111>) / sqrt(2)
GHZ_STATE = _fixed_state([(0b0000, 1 / np.sqrt(2)), (0b1111, 1 / np.sqrt(2))])

#: (|1000> + |0100> + |0010> + |0001>) / 2  (prefactor chosen for unit norm)
W_STATE = _fixed_state([(0b1000, 0.5), (0b0100, 0.5), (0b0010, 0.5), (0b0001, 0.5)])

#: Fidelity targets by property.
_TARGETS = {Property.GHZ_FIDELITY: GHZ_STATE, Property.W_FIDELITY: W_STATE}

#: The 7 bipartitions of the 4 qubits, one side of each: the four single
#: qubits and the three pairs that contain qubit 0. A side and its
#: complement have the same reduced purity, so the other 7 nonempty proper
#: subsets would count every cut twice.
BIPARTITIONS = ((0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3))


def _cut_kets(subset):
    """(2^|A|, 2^|B|) ket indices of the amplitude matrix of the cut A | B.

    A is `subset` and B its complement in increasing order. Row i spells the
    bits of A's qubits in the given order, column j those of B, most
    significant first, so state[_cut_kets(A)] is the state as a matrix.
    """
    order = tuple(subset) + tuple(q for q in range(4) if q not in subset)
    if sorted(order) != list(range(4)):
        raise ValueError(f"a subset of the qubits 0..3 is expected, got {tuple(subset)}")
    kets = np.arange(N_KETS).reshape((2,) * 4).transpose(order)
    return kets.reshape(2 ** len(subset), -1)


#: The cut-index table (see the module docstring), built once.
CUT_KETS = {subset: _cut_kets(subset) for subset in BIPARTITIONS}

#: CUT_KETS stacked by shape: (4, 2, 8) for the single qubits, (3, 4, 4) for
#: the pairs. _CUT_STACKS_FLAT ravels both, cuts in BIPARTITIONS order.
_CUT_STACKS = tuple(
    np.stack([kets for kets in CUT_KETS.values() if kets.shape == shape])
    for shape in ((2, 8), (4, 4)))
_CUT_STACKS_FLAT = np.concatenate([stack.ravel() for stack in _CUT_STACKS])

#: Canonical GHZ graph: H matching of |0000> plus D matching of |1111>.
GHZ_GRAPH = np.zeros(N_EDGES)
GHZ_GRAPH[0] = 1.0   # (0,1) modes (0,0)
GHZ_GRAPH[20] = 1.0  # (2,3) modes (0,0)
GHZ_GRAPH[7] = 1.0   # (0,2) modes (1,1)
GHZ_GRAPH[19] = 1.0  # (1,3) modes (1,1)


def random_graph(seed_or_rng):
    """24 i.i.d. uniform [-1, 1] edge weights; deterministic per seed."""
    # default_rng returns a Generator argument as it is
    return np.random.default_rng(seed_or_rng).uniform(-1.0, 1.0, N_EDGES)


def build_state(graph):
    """Unnormalized state amplitudes, length 16."""
    w = np.asarray(graph, dtype=np.float64)
    if w.shape != (N_EDGES,):
        raise ValueError(f"expected {N_EDGES} edge weights, got shape {w.shape}")
    return kernels.build_state_batch(w[None, :])[0]


def normalize_state(state):
    """Scale to unit norm. Raises DegenerateStateError below EPS_NORM."""
    s = np.asarray(state, dtype=np.float64)
    norm = np.linalg.norm(s)
    if norm <= EPS_NORM:
        raise DegenerateStateError("state norm below threshold; graph creates no state")
    return s / norm


def _check_normalized(state):
    s = np.asarray(state, dtype=np.float64)
    if abs(np.dot(s, s) - 1.0) > 1e-9:
        raise ValueError("state is not unit-norm")
    return s


def fidelity(graph, target):
    """Squared overlap of the normalized graph state with a unit target."""
    s = normalize_state(build_state(graph))
    return float(np.dot(s, target) ** 2)


def reduced_purity(state, subset):
    """tr(rho_M^2) of the reduction onto the qubits in `subset`."""
    s = _check_normalized(state)
    subset = tuple(subset)
    m = s[CUT_KETS[subset] if subset in CUT_KETS else _cut_kets(subset)]
    return float(np.sum((m @ m.T) ** 2))


def mean_purity(state):
    """Arithmetic mean of reduced purity over the 7 canonical bipartitions."""
    return float(np.mean([reduced_purity(state, b) for b in BIPARTITIONS]))


def concurrence(state):
    """Sum over the 7 bipartitions of sqrt(2 (1 - purity))."""
    purities = np.array([reduced_purity(state, b) for b in BIPARTITIONS])
    return float(np.sum(np.sqrt(np.maximum(2.0 * (1.0 - purities), 0.0))))


def pm_probability_array(graph):
    """3x16 array of squared matching weight products (rows H, V, D)."""
    w = np.asarray(graph, dtype=np.float64)
    return kernels.pm_probability_batch(w[None, :])[0]


def property_value(graph, prop):
    """Evaluate one of the trained target properties on a graph."""
    prop = Property(prop)
    if prop in _TARGETS:
        return fidelity(graph, _TARGETS[prop])
    return mean_purity(normalize_state(build_state(graph)))


def property_value_batch(weights, prop):
    """Vectorized property_value over (n, 24) weights.

    Returns (values, valid) where valid is False for degenerate states
    (their value entry is 0 and must be ignored).
    """
    prop = Property(prop)
    w = np.asarray(weights, dtype=np.float64)
    states = kernels.build_state_batch(w)
    norm2 = np.einsum("nk,nk->n", states, states)
    valid = norm2 > EPS_NORM ** 2
    safe = np.where(valid, norm2, 1.0)
    if prop in _TARGETS:
        values = (states @ _TARGETS[prop]) ** 2 / safe
    else:
        # states.T is (16, n), one row per ket, so CUT_KETS gathers rows
        cols = states.T / np.sqrt(safe)
        acc = np.zeros(len(w))
        for kets in CUT_KETS.values():
            m = cols[kets]  # (2^|A|, 2^|B|, n)
            for i in range(len(m)):
                for k in range(i, len(m)):
                    gram = (m[i] * m[k]).sum(0)  # (M M^T)[i, k] of every state
                    gram *= gram
                    acc += gram
                    if k > i:
                        acc += gram  # the mirror entry (k, i)
        values = acc / len(BIPARTITIONS)
    return np.where(valid, values, 0.0), valid


def property_gradient(graph, prop):
    """Exact gradient of property_value w.r.t. the 24 edge weights."""
    prop = Property(prop)
    w = np.asarray(graph, dtype=np.float64)
    s = build_state(w)
    norm2 = float(np.dot(s, s))
    if norm2 <= EPS_NORM ** 2:
        raise DegenerateStateError("gradient undefined for a degenerate state")
    if prop in _TARGETS:
        target = _TARGETS[prop]
        overlap = float(np.dot(s, target))
        grad_s = (2.0 * overlap / norm2) * target - (2.0 * overlap ** 2 / norm2 ** 2) * s
    else:
        norm = np.sqrt(norm2)
        s_hat = s / norm
        # d tr((M M^T)^2) / dM = 4 M M^T M for every cut, scattered back to
        # the kets through the cut-index table
        dm = [4.0 * (m @ m.transpose(0, 2, 1) @ m) for m in map(s_hat.take, _CUT_STACKS)]
        g_hat = np.bincount(_CUT_STACKS_FLAT, np.concatenate([d.ravel() for d in dm]),
                            minlength=N_KETS)
        g_hat /= len(BIPARTITIONS)
        # chain through normalization: s_hat = s / |s|
        grad_s = (g_hat - np.dot(g_hat, s_hat) * s_hat) / norm
    # amplitude k is a sum of weight pairs, so dF/dw[e] sums e's 4 terms
    return (grad_s.take(EDGE_TERM_KETS) * w.take(EDGE_TERM_PARTNERS)).sum(1)
