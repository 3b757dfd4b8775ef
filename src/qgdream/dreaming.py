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
transposes) and hands it to every gradient call, indexing it by row again
only when rows leave the ascent, and dream_oracle resolves its Property
and calls states.property_gradient on its one row, whose state is built
without the batch kernel. The clamp is two in-place ufuncs.

A row leaves the ascent once a step leaves its bits unchanged, and later
steps run only on the rows still moving; a dream whose rows have all left
stops stepping. This is exact: a step computes a row's next graph from
that row's bits alone (row exactness, below), so a step that left a row
unchanged would leave it unchanged every time after (under Adam its
moments must stay unchanged too; see _ascend). In a neuron or layer dream
most rows start where their ReLU neuron is inactive, with a zero
gradient, and leave after the first step. A row that overflows to inf or
NaN needs no rule of its own: it steps on until a step leaves its
non-finite bits unchanged and then leaves with them, so its frames and
its NaN true value are those of a dream that stepped it to the end.
Retiring it at its first non-finite step would change those bits.

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
    true_value: float  # nan when the property is undefined


@dataclass
class DreamTrajectory:
    snapshots: list[Snapshot]

    @property
    def initial(self):
        return self.snapshots[0]

    @property
    def final(self):
        return self.snapshots[-1]


@dataclass
class DreamEnsembleResult:
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


#: _ascend tests for fixed rows on the first step and on every
#: _CHECK_EVERY-th step after it. Any step's test is exact, and most fixed
#: rows are fixed from their start. On a 2-vCPU host at 1 BLAS thread a
#: test costs a one-row step about 3.5 us, so testing every 8th step slowed
#: a one-row oracle step (15 us) by about 4%; at 32 it is about 1%, and
#: desk-scale layer dreams run no slower.
_CHECK_EVERY = 32


def _unchanged(a, before):
    """Rows of a whose bits all equal before's (NaN payloads and signed zeros too)."""
    return (a.view(np.int64) == before.view(np.int64)).all(axis=1)


def _ascend(gradient_fn, x0, cfg):
    """Move the (n, 24) graphs x0 together; returns (steps, graphs).

    gradient_fn(x, rows) maps the graphs x of the rows still ascending, the
    rows of x0 that the index array rows names, to (len(rows), 24)
    gradients (or, for one row, a (24,) gradient). steps are step 0, every
    snapshot_stride-th step and the last step; graphs[k] is the (n, 24)
    array at steps[k].

    A row leaves the ascent once a tested step leaves its bits unchanged:
    the step takes the row's next graph from its own bits alone (row
    exactness), so every later step would leave it unchanged too, and each
    later frame holds those bits. The test compares bits, not gradients: a
    zero gradient may still turn -0.0 into 0.0, and the clamp may absorb a
    non-zero one. Under Adam the row's moments m and v must be unchanged as
    well, and m zero: a non-zero moment's step scales with bias corrections
    that change every step, so a step its rounding absorbed need not be
    absorbed later. A non-finite row gets no rule of its own: its inf or
    NaN weights can still change bits (inf - inf is NaN), so it keeps
    stepping, as a lone dream of it would, until a step leaves them
    unchanged.
    """
    now = np.array(x0, dtype=np.float64, ndmin=2)  # every row's graph at the last write
    lr, snap_steps = cfg.lr, [*range(0, cfg.steps, cfg.snapshot_stride), cfg.steps]
    graphs = np.empty((len(snap_steps), *now.shape))
    graphs[0] = now
    x, rows = now, np.arange(len(now))  # the ascending rows: their graphs and indices
    opt = Adam(x) if cfg.use_adam else None
    for k in range(1, len(snap_steps)):
        for step in range(snap_steps[k - 1], snap_steps[k]):
            test = step % _CHECK_EVERY == 0
            if test:
                before = (x.copy(),) if opt is None else (x.copy(), opt.m.copy(), opt.v.copy())
            grad = gradient_fn(x, rows)
            if opt is not None:
                opt.step(x, -grad, lr)  # Adam steps descend; negate for ascent
            else:
                x += lr * grad
            if cfg.clamp:
                _clamp(x)
            if test:
                fixed = _unchanged(x, before[0])
                if opt is not None:
                    fixed &= (_unchanged(opt.m, before[1]) & _unchanged(opt.v, before[2])
                              & (opt.m == 0).all(axis=1))
                if fixed.any():
                    now[rows] = x
                    moving = ~fixed
                    x, rows = x[moving], rows[moving]
                    if opt is not None:
                        opt.m, opt.v = opt.m[moving], opt.v[moving]
                    if not len(rows):
                        graphs[k:] = now
                        return snap_steps, graphs
        if x is not now:
            now[rows] = x
        graphs[k] = now
    return snap_steps, graphs


def _dream_rows(model, x0, cfg, select=None):
    """_ascend of each row of x0 on its selected neuron (see nn.input_gradient).

    The selection is resolved once, before the first step, and indexed by
    row again only when rows leave the ascent.
    """
    before = model.checksum()
    sel = resolve_selection(model, select, len(np.atleast_2d(x0)))
    active = sel

    def gradient(x, rows):
        nonlocal active
        if active.rows != len(rows):  # the ascending rows only ever shrink
            active = sel.take(rows)
        return input_gradient(model, x, active)

    frames = _ascend(gradient, x0, cfg)
    assert model.checksum() == before, "model parameters changed during dreaming"
    return frames


def _trajectory(steps, graphs, predicted, true):
    """The DreamTrajectory of one row's frames and their values."""
    return DreamTrajectory([Snapshot(*snap) for snap in zip(steps, graphs, predicted, true)])


@_quiet
def dream(model, g0, prop, cfg):
    """Maximize the frozen model's output by ascent on the input graph.

    prop selects the true property recomputed at snapshots.
    """
    prop = Property(prop)
    g0 = np.reshape(g0, N_EDGES)  # one graph: graphs[:, 0] below would drop any other row
    steps, graphs = _dream_rows(model, g0, cfg)
    graphs = graphs[:, 0]
    return _trajectory(steps, graphs, selected_output(model, graphs).tolist(),
                       property_value(graphs, prop).tolist())


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
    steps, graphs = _ascend(lambda x, rows: property_gradient(x[0], prop), g0, cfg)
    graphs = graphs[:, 0]
    values = property_value(graphs, prop).tolist()
    return _trajectory(steps, graphs, values, values)


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
    return DreamEnsembleResult(initial[~failed], final[~failed], graphs[-1][~failed],
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
