"""Text checkpoint format for models; round-trips float64 bit-exactly.

Layout (line oriented):

    qgdream-checkpoint 1
    layer_sizes <comma-separated ints>
    activation relu|elu
    alpha <float>
    activate_output 0
    seed <int or none>
    layer <i> weights <rows> <cols>
    <one row per line, %.17g space-separated>
    layer <i> biases <n>
    <one line>

The activate_output line is always 0: the output layer is never
activated. The reader rejects any other value.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .nn import Mlp

FORMAT_VERSION = 1
_HEADER_KEYS = ("layer_sizes", "activation", "alpha", "activate_output", "seed")


class CheckpointError(ValueError):
    """Malformed or wrong-version checkpoint file."""


def _fmt(arr):
    return " ".join(f"{v:.17g}" for v in arr)


def save_checkpoint(model, path):
    lines = [f"qgdream-checkpoint {FORMAT_VERSION}"]
    lines.append("layer_sizes " + ",".join(str(s) for s in model.layer_sizes))
    lines.append(f"activation {model.activation}")
    lines.append(f"alpha {model.alpha:.17g}")
    lines.append("activate_output 0")
    lines.append(f"seed {'none' if model.seed is None else model.seed}")
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"layer {i} weights {w.shape[0]} {w.shape[1]}")
        lines.extend(_fmt(row) for row in w)
        lines.append(f"layer {i} biases {len(b)}")
        lines.append(_fmt(b))
    Path(path).write_text("\n".join(lines) + "\n")


def load_checkpoint(path):
    """The model a checkpoint file holds; CheckpointError names the file."""
    try:
        return _parse_checkpoint(Path(path).read_text().splitlines(), path)
    except CheckpointError:
        raise
    except ValueError as exc:  # undecodable bytes, bad numbers, ragged rows
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc


def _parse_checkpoint(lines, path):
    if not lines or not lines[0].startswith("qgdream-checkpoint"):
        raise CheckpointError(f"{path}: not a qgdream checkpoint")
    magic = lines[0].split()
    if len(magic) < 2:
        raise CheckpointError(f"{path}: checkpoint version missing")
    if int(magic[1]) != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {magic[1]}, expected {FORMAT_VERSION}")
    pos = 1 + len(_HEADER_KEYS)
    if len(lines) < pos:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    header = dict(line.partition(" ")[::2] for line in lines[1:pos])
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    alpha = float(header["alpha"])
    if not np.isfinite(alpha):
        raise CheckpointError(f"{path}: non-finite alpha {header['alpha']}")
    if header["activation"] not in ("relu", "elu"):
        raise CheckpointError(f"{path}: unknown activation {header['activation']!r}")
    if header["activate_output"] != "0":
        raise CheckpointError(
            f"{path}: activate_output {header['activate_output']!r}, expected 0")
    layer_sizes = [int(s) for s in header["layer_sizes"].split(",")]
    weights, biases = [], []
    try:
        for i in range(len(layer_sizes) - 1):
            rows, cols = map(int, lines[pos].split()[-2:])
            pos += 1
            w = np.array([[float(v) for v in lines[pos + r].split()]
                          for r in range(rows)])
            if w.shape != (rows, cols):
                raise CheckpointError(f"{path}: layer {i} weight shape mismatch")
            if w.shape != (layer_sizes[i + 1], layer_sizes[i]):
                raise CheckpointError(
                    f"{path}: layer {i} weights are {rows}x{cols}, but layer_sizes "
                    f"give {layer_sizes[i + 1]}x{layer_sizes[i]}")
            pos += rows
            n = int(lines[pos].split()[-1])
            pos += 1
            b = np.array([float(v) for v in lines[pos].split()])
            if len(b) != n:
                raise CheckpointError(f"{path}: layer {i} bias length mismatch")
            if n != layer_sizes[i + 1]:
                raise CheckpointError(f"{path}: layer {i} has {n} biases, but "
                                      f"layer_sizes give {layer_sizes[i + 1]}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise CheckpointError(f"{path}: layer {i} has non-finite parameters")
            pos += 1
            weights.append(w)
            biases.append(b)
    except IndexError as exc:
        raise CheckpointError(f"{path}: truncated checkpoint") from exc
    if any(line.strip() for line in lines[pos:]):
        raise CheckpointError(f"{path}: data after the {len(weights)} layers "
                              f"that layer_sizes give")
    seed = None if header["seed"] == "none" else int(header["seed"])
    return Mlp(layer_sizes, header["activation"], weights, biases, alpha=alpha, seed=seed)
