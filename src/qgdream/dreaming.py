"""Inverse training: gradient ascent on the 24 input weights of a frozen net.

The model's parameters are never modified; only the input graphs move.
Plain fixed-learning-rate ascent is the default; Adam-style ascent is
available behind a config flag.

One engine, _ascend, moves an (n, 24) array of graphs together, and every
caller goes through it: dream and dream_oracle with n = 1, dream_ensemble
with all its runs, dream_neuron with all its starts, and dream_layer with
every neuron x every start of a hidden layer, where row r ascends on its
own neuron. The network side is nn.input_gradient with a per-row
(layer, neuron) selection, which shares the prefix layers between rows.

Row exactness: each row's result is bit-identical to a dream of that row
alone, whatever the batch size. The optimizer steps and the clamp act
elementwise, and nn.input_gradient evaluates every layer as a stacked
product, one BLAS call per row, which is the call a lone row gets. A
plain batched gemm would differ from the lone rows in the last bits (and
from one batch size to another), which would break reproducibility across
ensemble sizes and the exact-equality tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .nn import Adam, input_gradient, selected_output
from .states import DegenerateStateError, Property, property_gradient, property_value, random_graph


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

    @property
    def mean_initial(self):
        return float(np.mean(self.initial_true))

    @property
    def mean_final(self):
        return float(np.mean(self.final_true))

    def fraction_above(self, cap=0.5):
        return float(np.mean(self.final_true > cap))


def _true_value(weights, prop):
    if prop is None:
        return math.nan
    try:
        return property_value(weights, prop)
    except DegenerateStateError:
        return math.nan


def _ascend(gradient_fn, value_fn, x0, prop, cfg):
    """Move the (n, 24) graphs x0 together; returns one trajectory per row.

    gradient_fn and value_fn map the (n, 24) graphs to (n, 24) gradients
    and (n,) values; every snapshot records each row's value and, unless
    prop is None, its true property.
    """
    x = np.array(x0, dtype=np.float64, ndmin=2)
    trajs = [DreamTrajectory(prop) for _ in x]

    def snapshot(step):
        for traj, row, value in zip(trajs, x, value_fn(x)):
            traj.snapshots.append(
                Snapshot(step, row.copy(), float(value), _true_value(row, prop)))

    snapshot(0)
    opt = Adam([x]) if cfg.use_adam else None
    for step in range(1, cfg.steps + 1):
        grad = gradient_fn(x)
        if opt is not None:
            opt.step([x], [-grad], cfg.lr)  # Adam steps descend; negate for ascent
        else:
            x += cfg.lr * grad
        if cfg.clamp:
            np.clip(x, -1.0, 1.0, out=x)
        if step % cfg.snapshot_stride == 0 or step == cfg.steps:
            snapshot(step)
    return trajs


def _dream_rows(model, x0, prop, cfg, select=None):
    """Ascent of each row of x0 on its selected neuron (see nn.input_gradient)."""
    before = model.checksum()
    trajs = _ascend(lambda x: input_gradient(model, x, select),
                    lambda x: selected_output(model, x, select), x0, prop, cfg)
    assert model.checksum() == before, "model parameters changed during dreaming"
    return trajs


def dream(model, g0, prop, cfg):
    """Maximize the frozen model's output by ascent on the input graph.

    prop selects the true property recomputed at snapshots (None skips it,
    e.g. for hidden-neuron dreams where no ground truth exists).
    """
    if prop is not None:
        prop = Property(prop)
    return _dream_rows(model, g0, prop, cfg)[0]


def dream_oracle(g0, prop, cfg):
    """Ascent on the true property gradient; no network involved.

    Validates the dreaming pipeline independently of any trained model.
    """
    prop = Property(prop)
    # raises DegenerateStateError immediately on a degenerate start
    property_value(g0, prop)
    return _ascend(lambda x: np.array([property_gradient(row, prop) for row in x]),
                   lambda x: [property_value(row, prop) for row in x], g0, prop, cfg)[0]


def run_seeds(seed, n):
    """Independent per-run seed streams derived from one base seed."""
    return np.random.SeedSequence(seed).spawn(n)


def _random_starts(seed, n):
    """n random start graphs, one per seed stream of run_seeds(seed, n)."""
    return np.array([random_graph(np.random.default_rng(seq)) for seq in run_seeds(seed, n)])


def dream_ensemble(model, prop, n_runs, cfg):
    """n_runs independent dreams from random starts, as one batch.

    Runs whose initial or final state is degenerate are recorded in
    `failures` by run index and excluded from the aggregates.
    """
    prop = Property(prop)
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    trajs = _dream_rows(model, _random_starts(cfg.seed, n_runs), prop,
                        replace(cfg, snapshot_stride=cfg.steps))
    failures = [run for run, traj in enumerate(trajs)
                if math.isnan(traj.initial.true_value) or math.isnan(traj.final.true_value)]
    kept = [traj for run, traj in enumerate(trajs) if run not in failures]
    return DreamEnsembleResult(prop, np.array([t.initial.true_value for t in kept]),
                               np.array([t.final.true_value for t in kept]),
                               np.array([t.final.weights for t in kept]), failures)


def _final_pm_pairs(trajs):
    """(final graph, 3x16 PM probability array) per trajectory."""
    finals = np.array([traj.final.weights for traj in trajs])
    return list(zip(finals, kernels.pm_probability_batch(finals)))


def dream_neuron(model, select, k_inits, cfg):
    """Dream on one neuron from k_inits random starts, as one batch.

    select is the (layer, neuron) pair of nn.input_gradient: layer l <
    n_layers is the l-th hidden layer, whose neuron is dreamed on after its
    activation, and layer n_layers the output layer. Returns a list of
    (final graph, 3x16 PM probability array) pairs for the analysis stage.
    """
    if k_inits < 1:
        raise ValueError("k_inits must be >= 1")
    trajs = _dream_rows(model, _random_starts(cfg.seed, k_inits), None,
                        replace(cfg, snapshot_stride=cfg.steps), select=select)
    return _final_pm_pairs(trajs)


def dream_layer(model, layer, k_inits, cfg):
    """Dream on every neuron of one layer from k_inits starts each, as one batch.

    Neuron j's starts are those of dream_neuron with the seed derived from
    (cfg.seed, layer, j), so its results equal dream_neuron's for that
    seed. Returns one list of (final graph, PM array) pairs per neuron.
    """
    if k_inits < 1:
        raise ValueError("k_inits must be >= 1")
    if not 1 <= layer <= model.n_layers:
        raise ValueError(f"layer {layer} out of range 1..{model.n_layers}")
    n_neurons = model.layer_sizes[layer]
    seeds = [int(np.random.SeedSequence([cfg.seed, layer, j]).generate_state(1)[0])
             for j in range(n_neurons)]
    starts = np.concatenate([_random_starts(seed, k_inits) for seed in seeds])
    trajs = _dream_rows(model, starts, None, replace(cfg, snapshot_stride=cfg.steps),
                        select=(layer, np.repeat(np.arange(n_neurons), k_inits)))
    pairs = _final_pm_pairs(trajs)
    return [pairs[j * k_inits:(j + 1) * k_inits] for j in range(n_neurons)]
