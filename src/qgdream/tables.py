"""Comma-separated table exports for trajectories, ensembles, and analyses.

All tables carry a header row; floats are written with repr-exact
precision so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from .edges import N_EDGES


def _fmt(value):
    return f"{value:.17g}"


def write_trajectory(traj, path):
    """One row per snapshot: step, the 24 weights, predicted, true."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step"] + [f"w{i}" for i in range(N_EDGES)]
                        + ["predicted", "true"])
        for snap in traj.snapshots:
            writer.writerow([snap.step] + [_fmt(v) for v in snap.weights]
                            + [_fmt(snap.predicted), _fmt(snap.true_value)])


def write_ensemble(result, path):
    """One row per successful run: run, initial_true, final_true.

    Each row carries the run's original index, so the ids of failed runs
    are the ones missing.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["run", "initial_true", "final_true"])
        for run, first, last in zip(result.runs, result.initial_true,
                                    result.final_true):
            writer.writerow([run, _fmt(first), _fmt(last)])


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
    """One row per start: init, the 24 final weights, the 48 PM probabilities."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["init"] + [f"w{i}" for i in range(N_EDGES)]
                        + [f"p_{d}_{k}" for d in "HVD" for k in range(16)])
        for i, (graph, pm) in enumerate(results):
            writer.writerow([i] + [_fmt(v) for v in graph] + [_fmt(v) for v in pm.ravel()])


def write_entropy_profile(profile, path):
    """Per-neuron rows plus per-layer summary rows (neuron = 'mean')."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "neuron", "entropy"])
        for layer, neuron, h in profile.rows():
            writer.writerow([layer, neuron, _fmt(h)])
        for layer, (mean, dead) in enumerate(zip(profile.per_layer,
                                                 profile.dead_neurons), 1):
            writer.writerow([layer, "mean", _fmt(mean)])
            writer.writerow([layer, "dead", dead])


def write_activation_map(amap, path):
    """Post-threshold entries: layer, from_index, to_index, value."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["layer", "from_index", "to_index", "value"])
        for layer, (values, mask) in enumerate(zip(amap.layers, amap.masks), 1):
            for out_i, in_i in zip(*mask.nonzero()):
                writer.writerow([layer, in_i, out_i, _fmt(values[out_i, in_i])])


def write_shift_report(report, path):
    """Histogram rows plus summary rows."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_lo", "bin_hi", "initial_count", "final_count"])
        for lo, hi, ini, fin in zip(report.bin_edges[:-1], report.bin_edges[1:],
                                    report.initial_hist, report.final_hist):
            writer.writerow([_fmt(lo), _fmt(hi), ini, fin])
        writer.writerow(["mean_initial", _fmt(report.mean_initial), "", ""])
        writer.writerow(["mean_final", _fmt(report.mean_final), "", ""])
        writer.writerow(["max_initial", _fmt(report.max_initial), "", ""])
        writer.writerow(["max_final", _fmt(report.max_final), "", ""])
        writer.writerow([f"fraction_above_{report.cap:g}",
                         _fmt(report.fraction_above_cap), "", ""])


def write_history(history, path):
    """Per-epoch training curve: epoch, train_mse, test_mse, learning_rate."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "train_mse", "test_mse", "learning_rate"])
        for epoch, (tr, te, lr) in enumerate(zip(history.train_mse,
                                                 history.test_mse,
                                                 history.learning_rate), 1):
            writer.writerow([epoch, _fmt(tr), _fmt(te), _fmt(lr)])


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
    Path(path).write_text("\n".join(f"{v:.17g}" for v in weights) + "\n")
