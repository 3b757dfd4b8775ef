"""Numpy kernels for graph-to-state construction.

Weights arrays are (n, 24) float64; see edges.py for the index conventions.
The batch kernels work on the transposed weights, so their results are
ket-major in memory: the transpose of a build_state_batch result is a
C-contiguous (16, n) array. build_state runs the same body on one (24,)
graph as it is, without the batch's transpose and copy.
"""

from __future__ import annotations

import numpy as np

from .edges import MATCH_EDGE_1, MATCH_EDGE_2  # (3, 16) each

BACKEND = "python"

#: The (direction, ket) edge tables flattened, so one take gathers all 48 terms.
_E1_FLAT, _E2_FLAT = MATCH_EDGE_1.ravel(), MATCH_EDGE_2.ravel()


def _matching_terms(w):
    """Weight product of every (direction, ket) matching.

    w is one (24,) graph or the (24, n) transposed weights; the terms are
    (3, 16) or (3, 16, n).
    """
    terms = w[_E1_FLAT]
    terms *= w[_E2_FLAT]
    return terms.reshape(MATCH_EDGE_1.shape + w.shape[1:])


def _transposed(weights):
    return np.ascontiguousarray(np.asarray(weights, dtype=np.float64).T)  # (24, n)


def build_state(w):
    """Unnormalized amplitudes: (16,) of one float64 (24,) graph, or (16, n) of
    the (24, n) transposed weights. The 3 directions are summed in order from
    +0.0, as an einsum over them sums, so all-(-0.0) terms give +0.0 and one
    graph's amplitudes are the bits of its batch row."""
    terms = _matching_terms(w)
    amps = terms[0] + 0.0
    amps += terms[1]
    amps += terms[2]
    return amps


def build_state_batch(weights):
    """Unnormalized amplitudes (n, 16) from edge weights (n, 24)."""
    return build_state(_transposed(weights)).T


def pm_probability_batch(weights):
    """Squared matching weight products, shape (n, 3, 16)."""
    terms = _matching_terms(_transposed(weights))
    terms *= terms
    return terms.transpose(2, 0, 1)
