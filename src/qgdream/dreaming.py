"""Inverse training: gradient ascent on the 24 input weights of a frozen net.

The model's parameters are never modified; only the input graphs move.
Plain fixed-learning-rate ascent is the default; Adam-style ascent is
available behind a config flag.

One engine, _ascend, moves an (n, 24) array of graphs together and
returns them at its snapshot steps; each caller evaluates only what it
reads of them. dream and dream_oracle ascend one row, dream_ensemble all
its runs, dream_neuron all its starts, and dream_layer every neuron x
every start of a hidden layer, where row r ascends on its own neuron. The
network side is nn.input_gradient with a per-row (layer, neuron)
selection, which shares the prefix layers between rows. True values come
from one states.property_value call per frame of graphs.

Per-dream invariants are resolved once, before the first step, so that a
step costs about its arithmetic: _dream_rows resolves the selection
(nn.resolve_selection: the gathered weight rows, the range checks and the
transposes) and hands it to every gradient call, and dream_oracle
resolves its Property and calls states.property_gradient on its one row,
whose state is built without the batch kernel. The clamp is two in-place
ufuncs.

Row exactness: each row's result is bit-identical to a dream of that row
alone, whatever the batch size. The optimizer steps and the clamp act
elementwise. nn.input_gradient evaluates each shared layer in fixed
blocks of nn.BLOCK_ROWS rows, one gemm per block, in which a row gets the
bits it gets alone in a zero-padded block, and each row's selected neuron
as one product per row. A plain batched gemm would differ from the lone
rows in the last bits (and from one batch size to another), which would
break reproducibility across ensemble sizes and the exact-equality tests.
states.property_value is row-exact too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .edges import N_EDGES
from .nn import Adam, input_gradient, resolve_selection, selected_output
from .states import Property, property_gradient, property_value, random_graph


@dataclass
class DreamConfig:
    steps: int = 2000
    lr: float = 1e-4
    snapshot_stride: int = 10
    clamp: bool = True          # project weights to [-1, 1] after each step
    use_adam: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.snapshot_stride < 1:
            raise ValueError("steps and snapshot_stride must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")


@dataclass
class Snapshot:
    step: int
    weights: np.ndarray
    predicted: float
    true_value: float  # nan when the property is undefined or not requested


@dataclass
class DreamTrajectory:
    prop: Property | None
    snapshots: list[Snapshot] = field(default_factory=list)

    @property
    def initial(self):
        return self.snapshots[0]

    @property
    def final(self):
        return self.snapshots[-1]


@dataclass
class DreamEnsembleResult:
    prop: Property
    initial_true: np.ndarray
    final_true: np.ndarray
    final_graphs: np.ndarray
    failures: list[int] = field(default_factory=list)

    @property
    def runs(self):
        """Original run index of each surviving run, in order."""
        failed = set(self.failures)
        total = len(self.final_true) + len(failed)
        return [run for run in range(total) if run not in failed]


# An unclamped dream may overflow into inf/NaN graphs. The run then fails
# with a NaN true value, which is the report, so each dream runs its ascent
# and evaluates its graphs with numpy's overflow warnings off.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _clamp(x):
    """np.clip(x, -1, 1, out=x) as two in-place ufuncs: the same bits, signed
    zeros and NaN included, without np.clip's Python wrappers."""
    np.minimum(x, 1.0, out=x)
    np.maximum(x, -1.0, out=x)


def _ascend(gradient_fn, x0, cfg):
    """Move the (n, 24) graphs x0 together; returns (steps, graphs).

    gradient_fn maps the (n, 24) graphs to (n, 24) gradients (or, for one
    row, a (24,) gradient). steps are step 0, every snapshot_stride-th step
    and the last step; graphs[k] is the (n, 24) array at steps[k].
    """
    x = np.array(x0, dtype=np.float64, ndmin=2)
    lr, snap_steps = cfg.lr, [*range(0, cfg.steps, cfg.snapshot_stride), cfg.steps]
    graphs = np.empty((len(snap_steps), *x.shape))
    graphs[0] = x
    opt = Adam(x) if cfg.use_adam else None
    for k in range(1, len(snap_steps)):
        for _ in range(snap_steps[k - 1], snap_steps[k]):
            grad = gradient_fn(x)
            if opt is not None:
                opt.step(x, -grad, lr)  # Adam steps descend; negate for ascent
            else:
                x += lr * grad
            if cfg.clamp:
                _clamp(x)
        graphs[k] = x
    return snap_steps, graphs


def _dream_rows(model, x0, cfg, select=None):
    """_ascend of each row of x0 on its selected neuron (see nn.input_gradient).

    The selection is resolved once, before the first step, for every step
    of the dream.
    """
    before = model.checksum()
    sel = resolve_selection(model, select, len(np.atleast_2d(x0)))
    frames = _ascend(lambda x: input_gradient(model, x, sel), x0, cfg)
    assert model.checksum() == before, "model parameters changed during dreaming"
    return frames


@_quiet
def dream(model, g0, prop, cfg):
    """Maximize the frozen model's output by ascent on the input graph.

    prop selects the true property recomputed at snapshots; None skips it,
    for a net whose output is no states property (hidden neurons are
    dreamed by dream_neuron and dream_layer).
    """
    if prop is not None:
        prop = Property(prop)
    g0 = np.reshape(g0, N_EDGES)  # one graph: graphs[:, 0] below would drop any other row
    steps, graphs = _dream_rows(model, g0, cfg)
    graphs = graphs[:, 0]
    predicted = selected_output(model, graphs).tolist()
    true = [math.nan] * len(steps) if prop is None else property_value(graphs, prop).tolist()
    return DreamTrajectory(prop, [Snapshot(step, g, p, t)
                                  for step, g, p, t in zip(steps, graphs, predicted, true)])


@_quiet
def dream_oracle(g0, prop, cfg):
    """Ascent on the true property gradient; no network involved.

    Validates the dreaming pipeline independently of any trained model.
    Every snapshot's true value is property_value's. A start, or a graph an
    unclamped step reaches, whose state is degenerate or not finite raises
    DegenerateStateError from its gradient.
    """
    prop = Property(prop)
    g0 = np.reshape(g0, N_EDGES)  # one graph: x[0] below would cut off any other row
    steps, graphs = _ascend(lambda x: property_gradient(x[0], prop), g0, cfg)
    graphs = graphs[:, 0]
    values = property_value(graphs, prop).tolist()
    return DreamTrajectory(prop, [Snapshot(step, g, value, value)
                                  for step, g, value in zip(steps, graphs, values)])


@_quiet
def dream_ensemble(model, prop, n_runs, cfg):
    """n_runs independent dreams from random starts, as one batch.

    Run r starts from row r of random_graph(cfg.seed, n_runs), so run 0 is
    dream from random_graph(cfg.seed). Runs whose initial or final state is
    degenerate or not finite are recorded in `failures` by run index and
    left out of the arrays, so out of analysis.shift_report's statistics.
    Raises ValueError if every run fails.
    """
    prop = Property(prop)
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    _, graphs = _dream_rows(model, random_graph(cfg.seed, n_runs),
                            replace(cfg, snapshot_stride=cfg.steps))
    initial, final = property_value(graphs[0], prop), property_value(graphs[-1], prop)
    failed = np.isnan(initial) | np.isnan(final)
    if failed.all():
        raise ValueError(f"all {n_runs} runs of the ensemble failed (degenerate or non-finite)")
    return DreamEnsembleResult(prop, initial[~failed], final[~failed], graphs[-1][~failed],
                               np.flatnonzero(failed).tolist())


@_quiet
def _final_dreams(model, starts, cfg, select):
    """Dream each row of starts on its selected neuron: final graphs and PM arrays."""
    _, graphs = _dream_rows(model, starts, replace(cfg, snapshot_stride=cfg.steps), select)
    return graphs[-1], kernels.pm_probability_batch(graphs[-1])


def dream_neuron(model, select, k_inits, cfg):
    """Dream on one neuron from k_inits random starts, as one batch.

    Start i is row i of random_graph(cfg.seed, k_inits). select is the
    (layer, neuron) pair of nn.input_gradient: layer l < n_layers is the
    l-th hidden layer, whose neuron is dreamed on after its activation, and
    layer n_layers the output layer. Returns the final graphs (k_inits, 24)
    and their PM probability arrays (k_inits, 3, 16).
    """
    if k_inits < 1:
        raise ValueError("k_inits must be >= 1")
    return _final_dreams(model, random_graph(cfg.seed, k_inits), cfg, select)


def dream_layer(model, layer, k_inits, cfg):
    """Dream on every neuron of one layer from k_inits starts each, as one batch.

    The starts are the n_neurons * k_inits rows of random_graph keyed by
    (cfg.seed, layer); neuron j takes rows j*k_inits .. (j+1)*k_inits - 1.
    Returns dream_neuron's two arrays, each with a leading neuron axis.
    """
    if k_inits < 1:
        raise ValueError("k_inits must be >= 1")
    if not 1 <= layer <= model.n_layers:
        raise ValueError(f"layer {layer} out of range 1..{model.n_layers}")
    n_neurons = model.layer_sizes[layer]
    starts = random_graph([cfg.seed, layer], n_neurons * k_inits)
    graphs, pms = _final_dreams(model, starts, cfg,
                                (layer, np.repeat(np.arange(n_neurons), k_inits)))
    return graphs.reshape(n_neurons, k_inits, -1), pms.reshape(n_neurons, k_inits, 3, 16)
