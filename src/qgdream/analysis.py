"""Interpretability computations on trained networks and dream results.

Covers per-neuron/per-layer information entropy of dreamed PM probability
arrays, distribution-shift statistics for dream ensembles, and weighted
activation maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dreaming import DreamConfig, dream_layer
from .nn import forward

#: Upper entropy bound for a normalized 3x16 array: log2(48).
MAX_ENTROPY = float(np.log2(48))

SHIFT_BINS = 50  # equal-width histogram bins over [0, 1] in a shift report


class UndefinedEntropyError(ValueError):
    """Mean PM array sums to zero or to a non-finite value; its entropy is undefined."""


def neuron_entropy(arrays):
    """Shannon entropy (bits) of the normalized mean 3x16 PM array.

    The elementwise mean of the arrays is normalized to sum 1 before
    applying H = sum(-p log2 p), with 0 log 0 := 0. Raises
    UndefinedEntropyError when the mean's sum is not finite and positive:
    all zero, or NaN/inf from a dream that went non-finite.
    """
    stack = np.asarray(list(arrays), dtype=np.float64)
    if stack.size == 0:
        raise ValueError("need at least one PM probability array")
    mean = stack.mean(axis=0)
    total = mean.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise UndefinedEntropyError(f"mean PM array sums to {total}")
    p = (mean / total).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


@dataclass
class EntropyProfile:
    per_neuron: dict  # (layer, neuron) -> entropy (nan when undefined)
    per_layer: list[float]       # mean over defined neurons; nan if none
    dead_neurons: list[int]      # per layer, count of undefined-entropy neurons

    def rows(self):
        """Sorted (layer, neuron, entropy) triples."""
        return [(lay, neu, h) for (lay, neu), h in sorted(self.per_neuron.items())]


def entropy_profile(model, k_inits=20, cfg=None):
    """Dream on every hidden neuron and aggregate entropies per layer.

    Each hidden layer is one batch of dreaming.dream_layer (every neuron x
    every start). Neurons whose entropy is undefined (their dreams all
    produce zero PM arrays, or some went non-finite) are excluded from the
    layer mean and counted in dead_neurons. Per-neuron dream seeds are
    derived from cfg.seed and the (layer, neuron) coordinates.
    """
    cfg = cfg or DreamConfig()
    per_neuron = {}
    per_layer, dead = [], []
    for layer in range(1, model.n_layers):
        values, n_dead = [], 0
        for neuron, pairs in enumerate(dream_layer(model, layer, k_inits, cfg)):
            try:
                h = neuron_entropy([arr for _, arr in pairs])
                values.append(h)
            except UndefinedEntropyError:
                h = float("nan")
                n_dead += 1
            per_neuron[(layer, neuron)] = h
        per_layer.append(float(np.mean(values)) if values else float("nan"))
        dead.append(n_dead)
    return EntropyProfile(per_neuron, per_layer, dead)


@dataclass
class WeightedActivationMap:
    layers: list[np.ndarray]  # per transition: |W[out,in] * a[in]|, globally normalized
    masks: list[np.ndarray]   # entries >= threshold
    threshold: float
    global_max: float         # pre-normalization maximum


def weighted_activations(model, x, threshold=0.05):
    """|weight * activation| per layer transition, globally normalized.

    Values are divided by the single largest entry across the whole net
    (left untouched when everything is zero); the masks keep entries at or
    above the threshold, a number in [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be a number in [0, 1], got {threshold}")
    _, posts = forward(model, np.asarray(x, dtype=np.float64))
    layers = [np.abs(w * a[None, :]) for w, a in zip(model.weights, posts)]
    global_max = max(float(layer.max()) for layer in layers)
    if global_max > 0.0:
        layers = [layer / global_max for layer in layers]
    masks = [layer >= threshold for layer in layers]
    return WeightedActivationMap(layers, masks, threshold, global_max)


@dataclass
class ShiftReport:
    initial_hist: np.ndarray
    final_hist: np.ndarray
    bin_edges: np.ndarray
    mean_initial: float
    mean_final: float
    max_initial: float
    max_final: float
    fraction_above_cap: float
    cap: float


def shift_report(initial, final, cap=0.5):
    """Initial-vs-final statistics of an ensemble's true values, in SHIFT_BINS bins."""
    initial = np.asarray(initial, dtype=np.float64)
    final = np.asarray(final, dtype=np.float64)
    if len(initial) == 0 or len(final) == 0:
        raise ValueError("empty ensemble")
    edges = np.linspace(0.0, 1.0, SHIFT_BINS + 1)
    initial_hist, _ = np.histogram(initial, bins=edges)
    final_hist, _ = np.histogram(final, bins=edges)
    return ShiftReport(
        initial_hist, final_hist, edges,
        float(np.mean(initial)), float(np.mean(final)),
        float(np.max(initial)), float(np.max(final)),
        float(np.mean(final > cap)), cap)
