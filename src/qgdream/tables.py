"""Comma-separated table exports for trajectories, ensembles, and analyses.

One private writer, _write_csv, writes every table: a header row, then
the rows its write_* caller builds. Floats are written with repr-exact
precision so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .edges import N_EDGES


def _fmt(value):
    return f"{value:.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory(traj, path):
    """One row per snapshot: step, the 24 weights, predicted, true."""
    _write_csv(path, ["step"] + [f"w{i}" for i in range(N_EDGES)] + ["predicted", "true"],
               ([snap.step] + [_fmt(v) for v in snap.weights]
                + [_fmt(snap.predicted), _fmt(snap.true_value)] for snap in traj.snapshots))


def write_ensemble(result, path):
    """One row per successful run: run, initial_true, final_true.

    Each row carries the run's original index, so the ids of failed runs
    are the ones missing.
    """
    _write_csv(path, ["run", "initial_true", "final_true"],
               ([run, _fmt(first), _fmt(last)] for run, first, last
                in zip(result.runs, result.initial_true, result.final_true)))


def _true_value(path, text):
    """One cell of an ensemble table as a float in [0, 1]."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{path}: true value {text!r} is not a number in [0, 1]")
    return value


def read_ensemble(path):
    """Inverse of write_ensemble: -> (initial, final) float lists.

    Raises ValueError, naming the file, when a column is missing or a true
    value is not a number in [0, 1].
    """
    columns = ("initial_true", "final_true")
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path}: ensemble table lacks {', '.join(missing)}")
            rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return tuple([_true_value(path, row[c]) for row in rows] for c in columns)


def write_neuron_dreams(results, path):
    """One row per start of a (graphs, PM arrays) pair: init, 24 weights, 48 PM probabilities."""
    _write_csv(path, ["init"] + [f"w{i}" for i in range(N_EDGES)]
               + [f"p_{d}_{k}" for d in "HVD" for k in range(16)],
               ([i] + [_fmt(v) for v in graph] + [_fmt(v) for v in pm.ravel()]
                for i, (graph, pm) in enumerate(zip(*results))))


def write_entropy_profile(profile, path):
    """Per-neuron rows, then per layer a 'mean' row (the mean entropy of its
    defined neurons) and a 'dead' row (the count of undefined ones)."""
    rows = [[layer, neuron, _fmt(h)] for layer, hs in enumerate(profile.entropies, 1)
            for neuron, h in enumerate(hs.tolist())]
    for layer, (mean, dead) in enumerate(zip(profile.per_layer, profile.dead_neurons), 1):
        rows += [[layer, "mean", _fmt(mean)], [layer, "dead", dead]]
    _write_csv(path, ["layer", "neuron", "entropy"], rows)


def write_activation_map(amap, path):
    """Post-threshold entries: layer, from_index, to_index, value."""
    _write_csv(path, ["layer", "from_index", "to_index", "value"],
               ([layer, in_i, out_i, _fmt(values[out_i, in_i])]
                for layer, (values, mask) in enumerate(zip(amap.layers, amap.masks), 1)
                for out_i, in_i in zip(*mask.nonzero())))


def write_shift_report(report, path):
    """Histogram rows plus summary rows."""
    summary = [("mean_initial", report.mean_initial), ("mean_final", report.mean_final),
               ("max_initial", report.max_initial), ("max_final", report.max_final),
               (f"fraction_above_{report.cap:g}", report.fraction_above_cap)]
    _write_csv(path, ["bin_lo", "bin_hi", "initial_count", "final_count"],
               [[_fmt(lo), _fmt(hi), ini, fin] for lo, hi, ini, fin
                in zip(report.bin_edges[:-1], report.bin_edges[1:],
                       report.initial_hist, report.final_hist)]
               + [[name, _fmt(value), "", ""] for name, value in summary])


def write_history(history, path):
    """Per-epoch training curve: epoch, train_mse, test_mse, learning_rate."""
    _write_csv(path, ["epoch", "train_mse", "test_mse", "learning_rate"],
               ([epoch, _fmt(tr), _fmt(te), _fmt(lr)] for epoch, (tr, te, lr)
                in enumerate(zip(history.train_mse, history.test_mse,
                                 history.learning_rate), 1)))


def read_graph_weights(path):
    """24 whitespace/comma-separated weights from a text file.

    Each weight must be a number in [-1, 1], the range that datasets are
    drawn from and that dreaming clamps to.
    """
    text = Path(path).read_text().replace(",", " ")
    try:
        values = [float(v) for v in text.split()]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if len(values) != N_EDGES:
        raise ValueError(f"{path}: expected {N_EDGES} weights, got {len(values)}")
    if not all(-1.0 <= v <= 1.0 for v in values):
        raise ValueError(f"{path}: graph weights must be finite and in [-1, 1]")
    return values


def write_graph_weights(weights, path):
    Path(path).write_text("\n".join(map(_fmt, weights)) + "\n")
