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

Property values are rows of one row-exact batch path, and one graph is its
n = 1 row; fidelity and mean_purity are its per-state reference.
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
#: the pairs. _CUT_STACKS_FLAT ravels both, cuts in BIPARTITIONS order, so
#: its first _CUT_SPLIT entries are the single-qubit stack.
_CUT_STACKS = tuple(
    np.stack([kets for kets in CUT_KETS.values() if kets.shape == shape])
    for shape in ((2, 8), (4, 4)))
_CUT_STACKS_FLAT = np.concatenate([stack.ravel() for stack in _CUT_STACKS])
_CUT_SPLIT = _CUT_STACKS[0].size

#: Canonical GHZ graph: H matching of |0000> plus D matching of |1111>.
GHZ_GRAPH = np.zeros(N_EDGES)
GHZ_GRAPH[0] = 1.0   # (0,1) modes (0,0)
GHZ_GRAPH[20] = 1.0  # (2,3) modes (0,0)
GHZ_GRAPH[7] = 1.0   # (0,2) modes (1,1)
GHZ_GRAPH[19] = 1.0  # (1,3) modes (1,1)


def random_graph(seed_or_rng, n=None):
    """24 i.i.d. uniform [-1, 1] edge weights; deterministic per seed.

    With n, (n, 24) rows of the same draw: row r does not depend on n, and
    row 0 is the lone graph. A Generator argument is advanced.
    """
    # default_rng returns a Generator argument as it is
    shape = N_EDGES if n is None else (n, N_EDGES)
    return np.random.default_rng(seed_or_rng).uniform(-1.0, 1.0, shape)


def _graph(graph, batch=False):
    """graph as float64, checked to be one (24,) graph, or (n, 24) with batch."""
    w = np.asarray(graph, dtype=np.float64)
    if w.ndim != 1 + batch or w.shape[-1] != N_EDGES:
        rows = " per row" if batch else ""
        raise ValueError(f"expected {N_EDGES} edge weights{rows}, got shape {w.shape}")
    return w


def build_state(graph):
    """Unnormalized state amplitudes, length 16; bit-identical to a batch row."""
    return kernels.build_state(_graph(graph))


def _usable(norm2):
    """EPS_NORM**2 < norm2 < inf: where a state's property values are defined."""
    return (norm2 > EPS_NORM ** 2) & (norm2 < np.inf)


def normalize_state(state):
    """Scale to unit norm. Raises DegenerateStateError where property_value
    reads NaN: norm below EPS_NORM or not finite."""
    s = np.asarray(state, dtype=np.float64)
    norm2 = np.vdot(s, s)  # np.dot's bits, without its overflow warning
    if not _usable(norm2):
        raise DegenerateStateError("state norm below threshold or not finite")
    return s / np.sqrt(norm2)


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
    return kernels.pm_probability_batch(_graph(graph)[None, :])[0]


def _values(w, prop):
    """(n,) values of prop over the (n, 24) float64 weights w; NaN where the
    state is degenerate or its norm is not finite.

    Row-exact: all but three steps act elementwise on the (16, n) states.
    The norm einsum and the cut sums over axis 0 add a row's terms in a fixed
    order from n = 2 on, so a lone row runs as a 2-row batch; the overlap
    adds the target's nonzero kets in order, where a gemv's order depends on n.
    """
    if len(w) == 1:
        return _values(np.concatenate([w, w]), prop)[:1]
    states = kernels.build_state_batch(w)
    norm2 = np.einsum("nk,nk->n", states, states)
    valid = _usable(norm2)
    safe = np.where(valid, norm2, 1.0)
    cols = states.T  # (16, n), one C-contiguous row per ket
    if prop in _TARGETS:
        target = _TARGETS[prop]
        overlap = np.zeros(len(w))
        for ket in np.flatnonzero(target):
            overlap += cols[ket] * target[ket]
        values = overlap ** 2 / safe
    else:
        cols = cols / np.sqrt(safe)
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
    return np.where(valid, values, np.nan)


def property_value(graphs, prop):
    """A trained target property: a float for one (24,) graph, (n,) values
    for (n, 24) graphs, NaN where the state is degenerate or not finite. One
    graph's value has the bits of its row in any batch."""
    w = np.asarray(graphs, dtype=np.float64)
    if w.ndim == 2:
        return _values(_graph(w, batch=True), Property(prop))
    return float(_values(_graph(w)[None], Property(prop))[0])


def property_value_batch(weights, prop):
    """property_value of (n, 24) weights: (n,) values."""
    return _values(_graph(weights, batch=True), Property(prop))


def property_gradient(graph, prop):
    """Exact gradient of property_value w.r.t. the 24 edge weights; raises
    DegenerateStateError where property_value reads NaN."""
    prop = Property(prop)
    w = _graph(graph)
    s = kernels.build_state(w)
    # numpy scalars, so an overflow below reads inf, not a Python OverflowError
    norm2 = np.vdot(s, s)
    if not _usable(norm2):
        raise DegenerateStateError("gradient undefined for a degenerate or non-finite state")
    target = _TARGETS.get(prop)
    if target is not None:
        overlap = np.dot(s, target)
        grad_s = (2.0 * overlap / norm2) * target - (2.0 * overlap ** 2 / norm2 ** 2) * s
    else:
        norm = np.sqrt(norm2)
        s_hat = s / norm
        # d tr((M M^T)^2) / dM = 4 M M^T M for every cut, gathered through the
        # cut-index table at once and scattered back through it
        flat = s_hat[_CUT_STACKS_FLAT]
        stacks = (flat[:_CUT_SPLIT].reshape(_CUT_STACKS[0].shape),
                  flat[_CUT_SPLIT:].reshape(_CUT_STACKS[1].shape))
        dm = np.concatenate([(m @ m.transpose(0, 2, 1) @ m).ravel() for m in stacks])
        dm *= 4.0
        g_hat = np.bincount(_CUT_STACKS_FLAT, dm, minlength=N_KETS)
        g_hat /= len(BIPARTITIONS)
        # chain through normalization: s_hat = s / |s|
        grad_s = (g_hat - np.dot(g_hat, s_hat) * s_hat) / norm
    # amplitude k is a sum of weight pairs, so dF/dw[e] sums e's 4 terms
    return np.add.reduce(grad_s[EDGE_TERM_KETS] * w[EDGE_TERM_PARTNERS], axis=1)
