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


def neuron_entropy(arrays):
    """Shannon entropy (bits) of the normalized mean 3x16 PM array of each stack.

    arrays is one (k, 3, 16) stack of PM arrays, which gives a float, or a
    (..., k, 3, 16) stack, which gives one entropy per leading index. The
    mean over k is normalized to sum 1 before applying H = sum(-p log2 p),
    with 0 log 0 := 0. The entropy is NaN where the mean's sum is not
    finite and positive: all zero, or NaN/inf from a dream gone non-finite.
    """
    # numpy reduces in memory order: a C-contiguous copy gives every stack
    # the bits it gets alone, whatever view the arrays come in
    stack = np.ascontiguousarray(arrays, dtype=np.float64)
    if stack.ndim < 3 or stack.shape[-3] == 0:
        raise ValueError("need at least one PM probability array")
    mean = stack.mean(axis=-3).reshape(*stack.shape[:-3], -1)
    total = mean.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = mean / total[..., None]
        h = -np.where(p > 0.0, p * np.log2(p), 0.0).sum(axis=-1)
    h = np.where(np.isfinite(total) & (total > 0.0), h, np.nan)
    return float(h) if h.ndim == 0 else h


@dataclass
class EntropyProfile:
    entropies: list[np.ndarray]  # per hidden layer, (n_neurons,); nan where undefined

    @property
    def per_layer(self):
        """Per layer, the mean entropy of its defined neurons; nan if none."""
        defined = [h[~np.isnan(h)] for h in self.entropies]
        return [float(np.mean(d)) if len(d) else float("nan") for d in defined]

    @property
    def dead_neurons(self):
        """Per layer, the count of undefined-entropy neurons."""
        return [int(np.count_nonzero(np.isnan(h))) for h in self.entropies]


def entropy_profile(model, k_inits=20, cfg=None):
    """Dream on every hidden neuron and aggregate entropies per layer.

    Each hidden layer is one batch of dreaming.dream_layer (every neuron x
    every start) and one neuron_entropy call. Neurons whose entropy is
    undefined (NaN: their dreams all produce zero PM arrays, or some went
    non-finite) are excluded from the layer mean and counted in
    dead_neurons. Layer l's starts are the rows of one generator keyed by
    (cfg.seed, l), k_inits consecutive rows per neuron (see dream_layer).
    Raises ValueError for a net without a hidden layer.
    """
    if model.n_layers < 2:
        raise ValueError(f"layer sizes {model.layer_sizes} have no hidden layer to profile")
    cfg = cfg or DreamConfig()
    return EntropyProfile([neuron_entropy(dream_layer(model, layer, k_inits, cfg)[1])
                           for layer in range(1, model.n_layers)])


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
