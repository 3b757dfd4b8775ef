"""Binary checkpoint files of models; round-trips float64 bit-exactly.

Little-endian layout:

    magic    19 bytes  b"qgdream-checkpoint "
    version  2 bytes   b"2\n", so the file opens with the line "qgdream-checkpoint 2"
    act      u8        0 = relu, 1 = elu
    alpha    f64       ELU alpha; recorded for relu too
    no_seed  u8        1 if the model has no seed, else 0
    seed     u64       0 when no_seed is 1
    count    u32       number of layer sizes
    sizes    count * u32
    params   every weight matrix (out, in), then every bias vector, as <f8,
             in the flat order that nn._layer_views slices

The output layer is never activated. A version-1 (text) file opens with
"qgdream-checkpoint 1" and so gets a version error.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .nn import _ACTIVATIONS, Mlp, _layer_views

MAGIC = b"qgdream-checkpoint "
FORMAT_VERSION = 2
_VERSION = b"%d\n" % FORMAT_VERSION
_HEADER = struct.Struct("<19s2sBdBQI")


class CheckpointError(ValueError):
    """Malformed or wrong-version checkpoint file."""


def save_checkpoint(model, path):
    """Write model to path; its seed must fit the header's u64."""
    if model.seed is not None and not 0 <= model.seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64) to fit the file header, got {model.seed}")
    sizes = model.layer_sizes
    header = _HEADER.pack(MAGIC, _VERSION, _ACTIVATIONS.index(model.activation), model.alpha,
                          model.seed is None, model.seed or 0, len(sizes))
    params = np.concatenate([p.ravel() for p in [*model.weights, *model.biases]],
                            dtype="<f8")
    with open(path, "wb") as f:
        f.write(header + struct.pack(f"<{len(sizes)}I", *sizes))
        f.write(memoryview(params))


def load_checkpoint(path):
    """The model a checkpoint file holds; CheckpointError names the file.

    Its weights and biases are views of one float64 buffer.
    """
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if not header.startswith(MAGIC):
            raise CheckpointError(f"{path}: not a qgdream checkpoint")
        if len(header) < _HEADER.size:
            raise CheckpointError(f"{path}: truncated checkpoint header")
        _, version, act, alpha, no_seed, seed, count = _HEADER.unpack(header)
        if version != _VERSION:
            raise CheckpointError(f"{path}: checkpoint version "
                                  f"{version.decode('ascii', 'backslashreplace').strip()}, "
                                  f"expected {FORMAT_VERSION}")
        if act >= len(_ACTIVATIONS):
            raise CheckpointError(f"{path}: unknown activation tag {act}")
        if not math.isfinite(alpha):
            raise CheckpointError(f"{path}: non-finite alpha {alpha}")
        if no_seed > 1:
            raise CheckpointError(f"{path}: seed flag {no_seed}, expected 0 or 1")
        # checked before the sizes are read, so a corrupt count allocates nothing
        size = os.fstat(f.fileno()).st_size
        if size < _HEADER.size + 4 * count:
            raise CheckpointError(f"{path}: truncated checkpoint: size {size} cannot hold "
                                  f"{count} layer sizes")
        sizes = list(struct.unpack(f"<{count}I", f.read(4 * count)))
        if count < 2:
            raise CheckpointError(
                f"{path}: malformed checkpoint: needs 2 or more layer sizes, has {count}")
        if 0 in sizes:
            raise CheckpointError(
                f"{path}: malformed checkpoint: layer size {sizes.index(0)} is 0")
        n_params = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
        expected = _HEADER.size + 4 * count + 8 * n_params
        if size != expected:
            raise CheckpointError(
                f"{path}: size {size} != expected {expected} for {count} layer sizes")
        params = np.empty(n_params, dtype="<f8")
        if f.readinto(params) != params.nbytes:
            raise CheckpointError(f"{path}: file shrank while being read")
    weights, biases = _layer_views(params, sizes)
    for i, (w, b) in enumerate(zip(weights, biases)):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise CheckpointError(f"{path}: layer {i} has non-finite parameters")
    return Mlp(sizes, _ACTIVATIONS[act], weights, biases, alpha=alpha,
               seed=None if no_seed else seed)
