"""Per-layer metrics derived from the spans of a traced run.

Every value is per traced pass (totals divided by the number of passes),
so counts repeat exactly between runs of the same commit and seed. A layer
that a workload leaves idle reports 0.
"""

from __future__ import annotations

import math
import statistics

from spans import busy_time, self_time

#: Percentile levels tried, highest first, for the tail of per-call timings.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

CLI_SUBCOMMANDS = ("gen", "train", "dream", "shift", "entropy")

_CALLS_BUSY = ("nn.param_gradients", "nn.forward", "nn.input_gradient", "nn.Adam.step",
               "states.property_gradient", "states.property_value",
               "nn.truncate_at_neuron", "states.pm_probability_array")
_BYTES_BUSY = (("checkpoint.save_checkpoint", "bytes"), ("checkpoint.load_checkpoint", "bytes"),
               ("dataset.write_dataset", "bytes"), ("dataset.read_dataset", "bytes"),
               ("tables.write", "bytes"), ("manifest.write_manifest", "bytes_hashed"))


def tail_stats(samples):
    """(median, tail, tail level in %, sample count) of a list of timings.

    The tail is the highest percentile in TAIL_LEVELS with at least
    MIN_BEYOND samples above it (nearest-rank); 0 and level 0 when there
    are too few samples for any level.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    median = statistics.median(xs)
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return median, xs[rank - 1], level, n
    return median, 0.0, 0.0, n


def _train_batch_ms(tr, kids):
    """param_gradients start to the next Adam.step end, per batch of nn.train."""
    out = []
    for t in tr.indices("nn.train"):
        start = None
        for c in kids.get(t, ()):
            name = tr.name(c)
            if name == "nn.param_gradients":
                start = tr.start[c]
            elif name == "nn.Adam.step" and start is not None:
                out.append((tr.end[c] - start) * 1e3)
                start = None
    return out


def _ascent_step_us(tr, kids):
    """Start-to-start interval of consecutive gradient calls inside one dream."""
    out = []
    for name, grad in (("dreaming.dream", "nn.input_gradient"),
                       ("dreaming.dream_oracle", "states.property_gradient")):
        for d in tr.indices(name):
            starts = [tr.start[c] for c in kids.get(d, ()) if tr.name(c) == grad]
            out.extend((b - a) * 1e6 for a, b in zip(starts, starts[1:]))
    return out


def _neuron_ms(tr):
    return [(tr.end[i] - tr.start[i]) * 1e3 for i in tr.indices("dreaming.dream_neuron")
            if tr.parent[i] >= 0 and tr.name(tr.parent[i]) == "analysis.entropy_profile"]


def layer_metrics(tr, passes):
    """{name: (value, unit)} for every per-layer metric, per traced pass."""
    kids = tr.children()
    per = 1.0 / max(passes, 1)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def calls(name):
        return len(tr.indices(name))

    def total(name, attr):
        arr = getattr(tr, attr)
        return sum(arr[i] for i in tr.indices(name))

    def busy(name):
        return busy_time(tr, name) * per

    def self_s(*names):
        return sum(self_time(tr, i, kids) for n in names for i in tr.indices(n)) * per

    def gemm(name):
        """Own backward gemms plus those of its child forward pass."""
        flop = moved = 0.0
        for i in tr.indices(name):
            flop += tr.flop[i]
            moved += tr.moved[i]
            for c in kids.get(i, ()):
                if tr.name(c) == "nn.forward":
                    flop += tr.flop[c]
                    moved += tr.moved[c]
        return flop, moved

    def computed(prefix, flop, moved):
        put(f"{prefix}gflop_computed", flop * per / 1e9, "GFLOP")
        put(f"{prefix}mb_computed", moved * per / 1e6, "MB")
        put(f"{prefix}flop_per_byte_computed", flop / moved if moved else 0.0, "flop/B")

    k = "kernels.build_state_batch"
    put(f"{k}.rows", total(k, "rows") * per, "count")
    put(f"{k}.busy_s", busy(k), "s")
    computed(f"{k}.", total(k, "flop"), total(k, "moved"))

    k = "states.property_value_batch"
    put(f"{k}.rows", total(k, "rows") * per, "count")
    put(f"{k}.busy_s", busy(k), "s")

    k = "dataset.generate_dataset"
    draws = sum(tr.rows[i] for i in tr.indices("states.property_value_batch")
                if tr.has_ancestor(i, k))
    kept = total(k, "rows")
    put(f"{k}.draws", draws * per, "count")
    put(f"{k}.kept", kept * per, "count")
    put(f"{k}.accept_ratio", kept / draws if draws else 0.0, "ratio")
    put(f"{k}.busy_s", busy(k), "s")

    for k in _CALLS_BUSY:
        put(f"{k}.calls", calls(k) * per, "count")
        put(f"{k}.busy_s", busy(k), "s")
    for k in ("nn.param_gradients", "nn.forward", "nn.input_gradient"):
        put(f"{k}.rows", total(k, "rows") * per, "count")
    for k in ("nn.param_gradients", "nn.input_gradient"):
        computed(f"{k}.gemm_", *gemm(k))
    put("nn.predict.calls", calls("nn.predict") * per, "count")
    put("nn.evaluate.busy_s", busy("nn.evaluate"), "s")
    train_flop = sum(tr.flop[i] for n in ("nn.forward", "nn.param_gradients")
                     for i in tr.indices(n) if tr.has_ancestor(i, "nn.train"))
    put("nn.train.gflop_computed", train_flop * per / 1e9, "GFLOP")

    row_steps = sum(tr.rows[c] for d in tr.indices("dreaming.dream") for c in kids.get(d, ())
                    if tr.name(c) == "nn.input_gradient")
    row_steps += sum(1 for d in tr.indices("dreaming.dream_oracle") for c in kids.get(d, ())
                     if tr.name(c) == "states.property_gradient")
    put("dreaming.row_steps", row_steps * per, "count")
    put("dreaming.runs", (calls("dreaming.dream") + calls("dreaming.dream_oracle")) * per, "count")
    put("dreaming.failed_runs", tr.counts.get("dreaming.failed_runs", 0) * per, "count")
    put("dreaming.self_s", self_s("dreaming.dream", "dreaming.dream_oracle",
                                  "dreaming.dream_ensemble", "dreaming.dream_neuron"), "s")

    put("analysis.entropy_profile.self_s", self_s("analysis.entropy_profile"), "s")
    put("analysis.neuron_entropy.calls", calls("analysis.neuron_entropy") * per, "count")
    put("analysis.dead_neurons", tr.counts.get("analysis.dead_neurons", 0) * per, "count")

    for k, what in _BYTES_BUSY:
        put(f"{k}.{what}", total(k, "nbytes") * per, "B")
        put(f"{k}.busy_s", busy(k), "s")
    for sub in CLI_SUBCOMMANDS:
        put(f"cli.{sub}.wall_s", busy(f"cli.{sub}"), "s")

    for label, unit, samples in (("train_batch_ms", "ms", _train_batch_ms(tr, kids)),
                                 ("ascent_step_us", "us", _ascent_step_us(tr, kids)),
                                 ("neuron_ms", "ms", _neuron_ms(tr))):
        median, tail, level, n = tail_stats(samples)
        put(f"timing.{label}.median", median, unit)
        put(f"timing.{label}.tail", tail, unit)
        put(f"timing.{label}.tail_pct", level, "%")
        put(f"timing.{label}.samples", n, "count")
    return m
