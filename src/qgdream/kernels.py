"""Numpy batch kernels for graph-to-state construction.

Weights arrays are (n, 24) float64; see edges.py for the index conventions.
"""

from __future__ import annotations

import numpy as np

from .edges import MATCH_EDGE_1 as _E1, MATCH_EDGE_2 as _E2  # (3, 16) each

BACKEND = "python"


def build_state_batch(weights):
    """Unnormalized amplitudes (n, 16) from edge weights (n, 24)."""
    w = np.asarray(weights, dtype=np.float64)
    # (n, 3, 16) matching contributions summed over directions
    return np.einsum("ndk->nk", w[:, _E1] * w[:, _E2])


def pm_probability_batch(weights):
    """Squared matching weight products, shape (n, 3, 16)."""
    w = np.asarray(weights, dtype=np.float64)
    return (w[:, _E1] * w[:, _E2]) ** 2

