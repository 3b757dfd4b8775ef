"""The qgdream names that the benchmark harness in qgbench/ reaches into.

qgbench/run.py imports qgdream.kernels and reads qgdream.BACKEND on every
run; without either, every benchmark run fails. qgbench/spans.py wraps
each (owner, attribute) that its trace_points lists and skips one that is
gone, so a renamed function silently zeroes its per-layer metrics. These
names go only with the benchmark changes of ROADMAP items 1 and 6, which
edit qgbench and this test together.
"""

import importlib
from pathlib import Path

import qgdream
from qgdream import analysis, checkpoint, cli, dataset, dreaming, kernels, manifest, nn, states, tables

BENCH_DIR = Path(__file__).resolve().parents[1] / "qgbench"

#: Listed by trace_points although src/ no longer has them; their metrics
#: already read 0 (ROADMAP items 1 and 6).
STALE = {("dreaming", "predict"), ("nn", "truncate_at_neuron"),
         ("dreaming", "truncate_at_neuron"), ("analysis", "dream_neuron")}


def test_run_imports_kernels_and_backend():
    assert callable(kernels.build_state_batch)
    assert isinstance(qgdream.BACKEND, str)


def test_trace_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    q = dict(kernels=kernels, states=states, dataset=dataset, nn=nn, dreaming=dreaming,
             analysis=analysis, checkpoint=checkpoint, tables=tables, manifest=manifest, cli=cli)
    pairs = [pair for _, owners, _ in spans.trace_points(q) for pair in owners]
    assert (nn, "forward") in pairs and (nn.Adam, "step") in pairs
    # a module owner by its short name, the one class owner (nn.Adam) by its own
    missing = {(getattr(owner, "__qualname__", owner.__name__.rpartition(".")[2]), attr)
               for owner, attr in pairs if not callable(getattr(owner, attr, None))}
    assert missing <= STALE, f"names qgbench traces are gone: {sorted(missing - STALE)}"
