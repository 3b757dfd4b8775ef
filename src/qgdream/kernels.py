"""Numpy batch kernels for graph-to-state construction.

Weights arrays are (n, 24) float64; see edges.py for the index conventions.
"""

from __future__ import annotations

import numpy as np

from .edges import MATCH_EDGE_1, MATCH_EDGE_2

BACKEND = "python"

_E1 = MATCH_EDGE_1  # (3, 16)
_E2 = MATCH_EDGE_2


def build_state_batch(weights):
    """Unnormalized amplitudes (n, 16) from edge weights (n, 24)."""
    w = np.asarray(weights, dtype=np.float64)
    # (n, 3, 16) matching contributions summed over directions
    return np.einsum("ndk->nk", w[:, _E1] * w[:, _E2])


def pm_probability_batch(weights):
    """Squared matching weight products, shape (n, 3, 16)."""
    w = np.asarray(weights, dtype=np.float64)
    return (w[:, _E1] * w[:, _E2]) ** 2


def _flat_positions(edges):
    """Flat index into a (16, 24) jacobian of entry (ket, edges[d, ket])."""
    kets = np.broadcast_to(np.arange(16), edges.shape)
    return np.ravel_multi_index((kets, edges), (16, 24)).ravel()


_AT_E1, _AT_E2 = _flat_positions(_E1), _flat_positions(_E2)
_E1_FLAT, _E2_FLAT = _E1.ravel(), _E2.ravel()


def state_jacobian(weights):
    """d amplitude / d weight, shape (16, 24), for a single graph.

    Amplitude k is sum_d w[E1[d, k]] * w[E2[d, k]], and no (ket, edge) pair
    occurs twice among the 96 of _E1 and _E2, so every nonzero entry is one
    term and two scatter assignments fill the jacobian.
    """
    w = np.asarray(weights, dtype=np.float64)
    jac = np.zeros(16 * 24)
    jac[_AT_E1] = w[_E2_FLAT]
    jac[_AT_E2] = w[_E1_FLAT]
    return jac.reshape(16, 24)
