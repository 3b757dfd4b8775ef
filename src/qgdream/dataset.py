"""Binary dataset files of (graph weights, property label) records.

Little-endian layout:

    magic   4 bytes  b"QGDD"
    version u32      1
    prop    u8       0 = ghz_fidelity, 1 = w_fidelity, 2 = mean_purity
    n       u64      record count
    seed    u64      generation seed
    records n * (24 float32 inputs + 1 float32 label)

Labels are stored float32; generation computes them in float64. The reader
rejects a record whose weights leave [-1, 1] or whose label leaves [0, 1]
(nan included): every property lies in [0, 1].
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .states import Property, property_value_batch, random_graph

MAGIC = b"QGDD"
VERSION = 1
_HEADER = struct.Struct("<4sIBQQ")
#: Graphs drawn per rejection-sampling round. One round's state kernel holds
#: its 48 matching terms per graph in float64, 48 * 2048 * 8 B = 0.79 MB,
#: which fits a 2 MB per-core L2 and keeps the working set beside the records
#: near 2.4 MB. The records do not depend on it: the draws are one stream.
CHUNK = 2048
#: Draws after which a sustained acceptance below 0.1% aborts generation,
#: counted in graphs so that the chunk size does not move it.
ABORT_DRAWS = 200_000

PROPERTY_TAGS = {Property.GHZ_FIDELITY: 0, Property.W_FIDELITY: 1,
                 Property.MEAN_PURITY: 2}
_TAG_PROPERTIES = {v: k for k, v in PROPERTY_TAGS.items()}


class DatasetReadError(ValueError):
    """Corrupt, truncated, or non-dataset file."""


class DatasetVersionError(DatasetReadError):
    """Dataset written with an unsupported format version."""


@dataclass
class Dataset:
    prop: Property
    inputs: np.ndarray   # (n, 24) float32
    labels: np.ndarray   # (n,) float32
    seed: int
    # generation telemetry, not stored in the file (None when read from one):
    # graphs drawn, and those of them whose label met the cap
    drawn: int | None = None
    kept: int | None = None

    def __len__(self):
        return len(self.labels)


def generate_dataset(prop, n, cap=0.5, seed=0):
    """Rejection-sample n (graph, label) records with label < cap.

    cap=None disables filtering (evaluation sets); any other cap must be a
    number in (0, 1], as every property lies in [0, 1], and applies to the
    float32 label as stored. Degenerate graphs are always rejected.
    Deterministic per seed, which must fit the header's u64.

    Graphs are drawn CHUNK at a time from one generator, and the records are
    the first n accepted rows in draw order, so the chunk size never changes
    them; it bounds the working set to one chunk's temporaries beside the
    records. The result's drawn counts every graph drawn (whole chunks) and
    kept those of them accepted, the n records first. Aborts with
    RuntimeError once ABORT_DRAWS graphs are drawn with under 0.1% accepted.
    """
    prop = Property(prop)
    if n < 1:
        raise ValueError("n must be >= 1")
    if cap is not None and not 0.0 < cap <= 1.0:
        raise ValueError(f"cap must be None or a number in (0, 1], got {cap}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64) to fit the file header, got {seed}")
    rng = np.random.default_rng(seed)
    # filled in place as chunks are accepted, so the records are held once:
    # no list of accepted chunks to concatenate into a second copy
    inputs = np.empty((n, 24), dtype=np.float32)
    labels = np.empty(n, dtype=np.float32)
    drawn = kept = 0
    while kept < n:
        w = random_graph(rng, CHUNK)
        # records are stored as float32, so each chunk is cast as it comes and
        # the cap applies to the label as stored; a NaN label passes no cap
        values = property_value_batch(w, prop).astype(np.float32)
        mask = ~np.isnan(values) if cap is None else values < cap
        rows = np.flatnonzero(mask)[:n - kept]
        inputs[kept:kept + len(rows)] = w[rows]
        labels[kept:kept + len(rows)] = values[rows]
        drawn += CHUNK
        kept += int(np.count_nonzero(mask))
        if drawn >= ABORT_DRAWS and kept < 0.001 * drawn:
            raise RuntimeError(
                f"rejection rate above 99.9% sustained ({kept}/{drawn} kept); "
                f"cap {cap} looks unattainable for {prop.value}")
    return Dataset(prop, inputs, labels, seed, drawn, kept)


def write_dataset(ds, path):
    """Write ds to path in the layout above.

    The records go out CHUNK at a time through one reused (CHUNK, 25) block,
    so writing holds no (n, 25) copy of them; the bytes are those of one.
    """
    n = len(ds)
    header = _HEADER.pack(MAGIC, VERSION, PROPERTY_TAGS[ds.prop], n, ds.seed)
    block = np.empty((min(CHUNK, n), 25), dtype="<f4")
    with open(path, "wb") as f:
        f.write(header)
        for start in range(0, n, CHUNK):
            part = block[:min(CHUNK, n - start)]
            part[:, :24] = ds.inputs[start:start + len(part)]
            part[:, 24] = ds.labels[start:start + len(part)]
            f.write(memoryview(part))


def read_dataset(path):
    """Dataset from a file; inputs and labels are views of one (n, 25) read."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DatasetReadError(f"{path}: too short for a dataset header")
        magic, version, tag, n, seed = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DatasetReadError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise DatasetVersionError(
                f"{path}: dataset version {version}, reader supports {VERSION}")
        if tag not in _TAG_PROPERTIES:
            raise DatasetReadError(f"{path}: unknown property tag {tag}")
        size = os.fstat(f.fileno()).st_size
        expected = _HEADER.size + n * 25 * 4
        if size != expected:
            raise DatasetReadError(
                f"{path}: size {size} != expected {expected} for {n} records")
        records = np.empty((n, 25), dtype="<f4")
        if f.readinto(records) != records.nbytes:
            raise DatasetReadError(f"{path}: file shrank while being read")
    inputs, labels = records[:, :24], records[:, 24]
    # min and max propagate nan, so nan fails these comparisons too
    if not (-1.0 <= inputs.min(initial=0.0) and inputs.max(initial=0.0) <= 1.0
            and 0.0 <= labels.min(initial=0.0) and labels.max(initial=0.0) <= 1.0):
        bad = ~((np.abs(inputs) <= 1.0).all(axis=1) & (labels >= 0.0) & (labels <= 1.0))
        raise DatasetReadError(f"{path}: record {int(np.argmax(bad))} holds a weight "
                               f"outside [-1, 1] or a label outside [0, 1]")
    return Dataset(_TAG_PROPERTIES[tag], inputs, labels, seed)
