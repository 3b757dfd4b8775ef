"""In-memory span tracer that wraps qgdream's public functions from outside.

A span is (name, start, end, parent) plus optional work counts (rows,
bytes, computed flop and bytes moved). Spans are appended to flat arrays and
only turned into metrics after the run, so a traced call costs two clock
reads and a few appends. Nothing under src/ is modified: `patched` swaps
module attributes for wrappers and restores them on exit.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import costs

NO_PARENT = -1


class Tracer:
    """Flat, append-only span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.nbytes = array("q")
        self.flop = array("d")
        self.moved = array("d")
        self.counts: dict[str, int] = {}
        self.paused = False
        self._stack: list[int] = []
        self._groups: dict[int, list[int]] = {}
        self._grouped = 0

    def __len__(self):
        return len(self.start)

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.rows.append(0)
        self.nbytes.append(0)
        self.flop.append(0.0)
        self.moved.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def add(self, idx, rows=0, nbytes=0, flop=0.0, moved=0.0):
        self.rows[idx] += rows
        self.nbytes[idx] += nbytes
        self.flop[idx] += flop
        self.moved[idx] += moved

    def name(self, idx):
        return self.names[self.name_id[idx]]

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def indices(self, name):
        """Indices of all spans with this name, in start order."""
        for i in range(self._grouped, len(self.name_id)):
            self._groups.setdefault(self.name_id[i], []).append(i)
        self._grouped = len(self.name_id)
        nid = self._name_ids.get(name)
        return self._groups.get(nid, []) if nid is not None else []

    def children(self):
        """Parent index -> list of child indices, in start order."""
        kids: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            kids.setdefault(p, []).append(i)
        return kids

    def has_ancestor(self, idx, name):
        nid = self._name_ids.get(name)
        p = self.parent[idx]
        while p != NO_PARENT:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False


def union_length(intervals):
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(tracer, idx, kids):
    """Span duration minus the part of its interval that child spans cover."""
    lo, hi = tracer.start[idx], tracer.end[idx]
    covered = union_length([(max(lo, tracer.start[c]), min(hi, tracer.end[c]))
                            for c in kids.get(idx, ())
                            if tracer.end[c] > lo and tracer.start[c] < hi])
    return (hi - lo) - covered


def busy_time(tracer, name):
    """Wall time during which at least one span of this name was open."""
    return union_length([(tracer.start[i], tracer.end[i]) for i in tracer.indices(name)])


# --- wrapping the program's public functions --------------------------------

def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[0])


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_rows(pos, name):
    def count(tracer, idx, args, kwargs, result):
        tracer.add(idx, rows=_rows(_arg(args, kwargs, pos, name)))
    return count


def _count_state_batch(tracer, idx, args, kwargs, result):
    rows = _rows(_arg(args, kwargs, 0, "weights"))
    flop, moved = costs.build_state_batch(rows)
    tracer.add(idx, rows=rows, flop=flop, moved=moved)


def _count_mlp(cost_fn):
    def count(tracer, idx, args, kwargs, result):
        rows = _rows(_arg(args, kwargs, 1, "x"))
        flop, moved = cost_fn(_arg(args, kwargs, 0, "model").layer_sizes, rows)
        tracer.add(idx, rows=rows, flop=flop, moved=moved)
    return count


def _count_generated(tracer, idx, args, kwargs, result):
    tracer.add(idx, rows=len(result))


def _count_file(pos, name):
    def count(tracer, idx, args, kwargs, result):
        tracer.add(idx, nbytes=_file_size(_arg(args, kwargs, pos, name)))
    return count


def _count_manifest(tracer, idx, args, kwargs, result):
    outputs = _arg(args, kwargs, 4, "outputs") or ()
    tracer.add(idx, nbytes=sum(_file_size(p) for p in outputs))


def _count_dead(tracer, idx, args, kwargs, result):
    tracer.count("analysis.dead_neurons", int(sum(getattr(result, "dead_neurons", ()))))


def _count_ensemble_failures(tracer, idx, args, kwargs, result):
    tracer.count("dreaming.failed_runs", len(getattr(result, "failures", ())))


def trace_points(q):
    """(span name, [(owner, attribute)], counter) for every traced function.

    `q` maps module names to the imported qgdream modules. Each function is
    listed under every module that holds a reference to it, including the
    names `dreaming`, `analysis`, `dataset` and `cli` import directly.
    """
    kernels, states, dataset, nn = q["kernels"], q["states"], q["dataset"], q["nn"]
    dreaming, analysis, checkpoint = q["dreaming"], q["analysis"], q["checkpoint"]
    tables, manifest, cli = q["tables"], q["manifest"], q["cli"]
    table_writers = [(tables, a) for a in sorted(vars(tables))
                     if a.startswith("write_") and callable(getattr(tables, a))]
    return [
        ("kernels.build_state_batch", [(kernels, "build_state_batch")], _count_state_batch),
        ("states.property_value_batch",
         [(states, "property_value_batch"), (dataset, "property_value_batch")],
         _count_rows(0, "weights")),
        ("states.property_value",
         [(states, "property_value"), (dreaming, "property_value")], None),
        ("states.property_gradient",
         [(states, "property_gradient"), (dreaming, "property_gradient")], None),
        ("states.pm_probability_array", [(states, "pm_probability_array")], None),
        ("dataset.generate_dataset",
         [(dataset, "generate_dataset"), (cli, "generate_dataset")], _count_generated),
        ("dataset.write_dataset",
         [(dataset, "write_dataset"), (cli, "write_dataset")], _count_file(1, "path")),
        ("dataset.read_dataset",
         [(dataset, "read_dataset"), (cli, "read_dataset")], _count_file(0, "path")),
        ("nn.forward", [(nn, "forward"), (analysis, "forward")], _count_mlp(costs.forward)),
        ("nn.predict", [(nn, "predict"), (dreaming, "predict")], _count_rows(1, "x")),
        ("nn.param_gradients", [(nn, "param_gradients")], _count_mlp(costs.param_backward)),
        ("nn.input_gradient",
         [(nn, "input_gradient"), (dreaming, "input_gradient")], _count_mlp(costs.input_backward)),
        ("nn.evaluate", [(nn, "evaluate")], None),
        ("nn.train", [(nn, "train")], None),
        ("nn.truncate_at_neuron",
         [(nn, "truncate_at_neuron"), (dreaming, "truncate_at_neuron")], None),
        ("nn.Adam.step", [(nn.Adam, "step")], None),
        ("dreaming.dream", [(dreaming, "dream")], None),
        ("dreaming.dream_oracle", [(dreaming, "dream_oracle")], None),
        ("dreaming.dream_ensemble", [(dreaming, "dream_ensemble")], _count_ensemble_failures),
        ("dreaming.dream_neuron",
         [(dreaming, "dream_neuron"), (analysis, "dream_neuron")], None),
        ("analysis.entropy_profile", [(analysis, "entropy_profile")], _count_dead),
        ("analysis.neuron_entropy", [(analysis, "neuron_entropy")], None),
        ("checkpoint.save_checkpoint",
         [(checkpoint, "save_checkpoint"), (cli, "save_checkpoint")], _count_file(1, "path")),
        ("checkpoint.load_checkpoint",
         [(checkpoint, "load_checkpoint"), (cli, "load_checkpoint")], _count_file(0, "path")),
        ("tables.write", table_writers, _count_file(1, "path")),
        ("manifest.write_manifest",
         [(manifest, "write_manifest"), (cli, "write_manifest")], _count_manifest),
    ]


def _wrap(tracer, name, fn, counter):
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            counter(tracer, idx, args, kwargs, result)
        return result
    traced.__wrapped__ = fn
    return traced


@contextmanager
def patched(tracer, points):
    """Replace every listed attribute with a span-recording wrapper.

    An attribute the program no longer has is skipped, so a later version
    of qgdream still runs traced; its metrics then read 0.
    """
    saved = []
    try:
        for name, owners, counter in points:
            wrappers = {}
            for owner, attr in owners:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = _wrap(tracer, name, fn, counter)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
