"""Numpy batch kernels for graph-to-state construction.

Weights arrays are (n, 24) float64; see edges.py for the index conventions.
The kernels work on the transposed weights, so their results are ket-major
in memory: the transpose of a build_state_batch result is a C-contiguous
(16, n) array.
"""

from __future__ import annotations

import numpy as np

from .edges import MATCH_EDGE_1, MATCH_EDGE_2  # (3, 16) each

BACKEND = "python"

#: The (direction, ket) edge tables flattened, so one take gathers all 48 terms.
_E1_FLAT, _E2_FLAT = MATCH_EDGE_1.ravel(), MATCH_EDGE_2.ravel()


def _matching_terms(weights):
    """Weight product of every (direction, ket) matching, shape (3, 16, n)."""
    w = np.ascontiguousarray(np.asarray(weights, dtype=np.float64).T)  # (24, n)
    terms = w.take(_E1_FLAT, axis=0)
    terms *= w.take(_E2_FLAT, axis=0)
    return terms.reshape(*MATCH_EDGE_1.shape, -1)


def build_state_batch(weights):
    """Unnormalized amplitudes (n, 16) from edge weights (n, 24)."""
    return np.einsum("dkn->kn", _matching_terms(weights)).T


def pm_probability_batch(weights):
    """Squared matching weight products, shape (n, 3, 16)."""
    terms = _matching_terms(weights)
    terms *= terms
    return terms.transpose(2, 0, 1)
