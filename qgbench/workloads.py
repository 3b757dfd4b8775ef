"""The four benchmark workloads: gen, train, dream and entropy.

Each workload is a closed loop with one client: a pass runs its stages one
after another, each starting when the previous one has finished, and the
next pass starts when the previous pass (and its correctness gates) are
done. Every pass of a run repeats the same seeded inputs, so its artifacts
must be byte-identical to the first pass's.

The program is driven through `qgdream.cli.main` in-process, plus
`dreaming.dream_oracle`, which has no CLI. The program only ever sees the
files set-up generated and CLI flags; the workload seed is turned into
those here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qgdream import cli, dataset, dreaming, nn, states

GATES = json.loads((Path(__file__).parent / "gates.json").read_text())

LAYERS = "24,128,128,128,1"
HIDDEN_NEURONS = 128 * 3
DREAM_LR = "1e-2"
#: The network-init seed of every training run. It decides in which epoch
#: the test loss drops (init seed 2 had not reached the target by epoch 12).
TRAIN_SEED = "1"
#: The train workload's data seed is fixed too: across ten data seeds the
#: target was first met in epoch 8, 9 or 10, which would make time-to-target
#: measure the seed, not the speed. With data seed 42 and init seed 1 the
#: test MSE is 2.90e-3 after epoch 8 and 1.53e-3 after epoch 9.
TRAIN_DATA_SEED = 42


class StageFailed(RuntimeError):
    """A CLI stage exited non-zero; later stages of the pass have no input."""


def derive_seed(seed, *key):
    """Deterministic 31-bit program seed for one input of one workload."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0] >> 1)


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@dataclass
class PassResult:
    """What one pass measured. `units` of work were done in `work_s` seconds."""
    time_to_result_s: float
    units: float
    work_s: float
    detail: dict[str, float]
    digests: dict[str, str]

    @property
    def throughput(self):
        return self.units / self.work_s


@dataclass
class Session:
    """Runs stages, counts operations and records gate results.

    An operation is a CLI invocation, a dream run or a gate check; it fails
    on a non-zero exit, a failed (degenerate) dream run or a failed gate.
    """
    workdir: Path
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def path(self, name):
        return str(self.workdir / name)

    def cli(self, *argv):
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer is not None
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            self.failed += 1
            self.errors.append(f"qgdream {' '.join(map(str, argv))}: exit {code}: "
                               f"{err.getvalue().strip()}")
            raise StageFailed(self.errors[-1])

    def runs(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def checking(self):
        """Context for gate checks: program calls made there are not traced."""
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()

    def gate(self, name, ok):
        ok = bool(ok)
        self.attempted += 1
        self.failed += not ok
        self.gates[name] = self.gates.get(name, True) and ok
        return ok


# --- sizes ---------------------------------------------------------------------

@dataclass(frozen=True)
class GenSize:
    purity_n: int      # mean_purity records (rejection-bound: ~2.6% acceptance)
    ghz_n: int         # ghz_fidelity records (state-build-bound: ~100% acceptance)
    warmup_n: int


@dataclass(frozen=True)
class TrainSize:
    rows: int
    max_epochs: int


@dataclass(frozen=True)
class FixtureSize:
    rows: int
    batch: int
    lr: str
    epochs: int


@dataclass(frozen=True)
class DreamSize:
    fixture: FixtureSize
    runs: int          # ensemble runs through the CLI
    steps: int
    oracle_ghz: int    # dream_oracle starts per property
    oracle_purity: int


@dataclass(frozen=True)
class EntropySize:
    fixture: FixtureSize
    inits: int
    steps: int


FIXTURE = FixtureSize(rows=20000, batch=250, lr="3e-3", epochs=5)
SMOKE_FIXTURE = FixtureSize(rows=2000, batch=250, lr="3e-3", epochs=1)

FULL = {
    "gen": GenSize(purity_n=2000, ghz_n=200_000, warmup_n=200),
    "train": TrainSize(rows=100_000, max_epochs=11),
    "dream": DreamSize(FIXTURE, runs=8, steps=600, oracle_ghz=8, oracle_purity=2),
    "entropy": EntropySize(FIXTURE, inits=2, steps=40),
}
SMOKE = {
    "gen": GenSize(purity_n=100, ghz_n=5000, warmup_n=20),
    "train": TrainSize(rows=6000, max_epochs=2),
    "dream": DreamSize(SMOKE_FIXTURE, runs=2, steps=20, oracle_ghz=2, oracle_purity=1),
    "entropy": EntropySize(SMOKE_FIXTURE, inits=1, steps=2),
}


# --- workloads -----------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed, size, session, smoke=False):
        self.seed = seed
        self.size = size
        self.s = session
        self.smoke = smoke

    def setup(self):
        """Create the pass inputs; returns digests of the files it made."""
        return {}

    def run_pass(self):
        raise NotImplementedError


class Gen(Workload):
    """`qgdream gen` for mean_purity and ghz_fidelity (cap 0.5), read back."""
    name = "gen"

    def _gen(self, prop, n, seed, out):
        self.s.cli("gen", "--property", prop, "--n", n, "--cap", GATES["label_cap"],
                   "--seed", seed, "--out", out)

    def setup(self):
        # warm-up at small size so lazy imports and allocator pools are ready
        for k, prop in enumerate(("mean_purity", "ghz_fidelity")):
            self._gen(prop, self.size.warmup_n, derive_seed(self.seed, 9, k),
                      self.s.path(f"warmup_{prop}.qgdd"))
        return {}

    def run_pass(self):
        parts = {}
        t0 = time.perf_counter()
        for k, (prop, n) in enumerate((("mean_purity", self.size.purity_n),
                                       ("ghz_fidelity", self.size.ghz_n))):
            out = self.s.path(f"{prop}.qgdd")
            start = time.perf_counter()
            self._gen(prop, n, derive_seed(self.seed, 0, k), out)
            parts[prop] = (out, n, dataset.read_dataset(out), time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        with self.s.checking():
            for prop, (out, n, ds, _) in parts.items():
                self._check(prop, out, n, ds)
        records = sum(n for _, n, _, _ in parts.values())
        return PassResult(
            time_to_result_s=elapsed, units=records, work_s=elapsed,
            detail={"gen.purity_records_per_s": self.size.purity_n / parts["mean_purity"][3],
                    "gen.ghz_records_per_s": self.size.ghz_n / parts["ghz_fidelity"][3]},
            digests={p: digest(v[0]) for p, v in parts.items()})

    def _check(self, prop, out, n, ds):
        s = self.s
        s.gate(f"{prop}.record_count_exact", len(ds) == n and len(ds.inputs) == n)
        s.gate(f"{prop}.labels_below_cap", bool(np.all(ds.labels < GATES["label_cap"])))
        rng = np.random.default_rng(derive_seed(self.seed, 3))
        pick = rng.choice(n, size=min(n, GATES["label_sample"]), replace=False)
        recomputed = np.array([states.property_value(ds.inputs[i].astype(np.float64), prop)
                               for i in pick])
        s.gate(f"{prop}.labels_match_scalar_property_value",
               np.allclose(recomputed, ds.labels[pick].astype(np.float64),
                           rtol=0.0, atol=GATES["label_abs_tol"]))
        copy = out + ".roundtrip"
        dataset.write_dataset(ds, copy)
        s.gate(f"{prop}.write_read_round_trip_identical",
               Path(copy).read_bytes() == Path(out).read_bytes())


class Train(Workload):
    """`qgdream train [24,128,128,128,1]`, batch 5000, on a seeded GHZ dataset."""
    name = "train"

    def setup(self):
        self.data = self.s.path("train.qgdd")
        self.s.cli("gen", "--property", "ghz_fidelity", "--n", self.size.rows,
                   "--cap", GATES["label_cap"], "--seed", TRAIN_DATA_SEED,
                   "--out", self.data)
        return {"train.qgdd": digest(self.data)}

    def rows_per_epoch(self):
        # nn.TrainConfig defaults: 5% test split; the partial last batch is dropped
        n_train = self.size.rows - max(1, round(self.size.rows * 0.05))
        batch = min(5000, n_train)
        return (n_train // batch) * batch

    def run_pass(self):
        ckpt = self.s.path("net.ckpt")
        clock = []
        evaluate = nn.evaluate

        def clocked(*args, **kwargs):
            result = evaluate(*args, **kwargs)
            clock.append(time.perf_counter())
            return result

        # The one probe of an untraced run: a timestamp when each epoch's
        # test MSE is known, which time-to-target needs.
        nn.evaluate = clocked
        try:
            t0 = time.perf_counter()
            self.s.cli("train", "--dataset", self.data, "--layers", LAYERS,
                       "--batch-size", 5000, "--max-epochs", self.size.max_epochs,
                       "--seed", TRAIN_SEED, "--out", ckpt)
            t_end = time.perf_counter()
        finally:
            nn.evaluate = evaluate
        test_mse = [float(r["test_mse"]) for r in read_rows(ckpt + ".history.csv")]
        target = GATES["train_target_mse"]
        hit = next((k for k, v in enumerate(test_mse) if v <= target), None)
        s = self.s
        clocked_all = len(clock) == len(test_mse) == self.size.max_epochs
        s.gate("history_has_every_epoch", clocked_all)
        if not self.smoke:
            s.gate("target_mse_reached", hit is not None)
        if not clocked_all:   # the probe missed epochs: fall back to the CLI wall time
            clock = [t_end] * len(test_mse)
        epochs_s = clock[-1] - t0
        to_target = clock[hit] - t0 if hit is not None else epochs_s
        samples = len(clock) * self.rows_per_epoch()
        return PassResult(
            time_to_result_s=to_target, units=samples, work_s=epochs_s,
            detail={"train.samples_per_s": samples / epochs_s,
                    "train.time_to_target_s": to_target,
                    "train.target_epoch": float(hit + 1) if hit is not None else math.nan},
            digests={"net.ckpt": digest(ckpt), "history": digest(ckpt + ".history.csv")})


class _FixtureWorkload(Workload):
    def setup(self):
        """Seeded `gen` + `train` at reduced scale: the checkpoint to dream on."""
        f = self.size.fixture
        data, self.ckpt = self.s.path("fixture.qgdd"), self.s.path("fixture.ckpt")
        self.s.cli("gen", "--property", "ghz_fidelity", "--n", f.rows,
                   "--cap", GATES["label_cap"], "--seed", derive_seed(self.seed, 1),
                   "--out", data)
        self.s.cli("train", "--dataset", data, "--layers", LAYERS, "--batch-size", f.batch,
                   "--lr", f.lr, "--max-epochs", f.epochs, "--seed", TRAIN_SEED,
                   "--out", self.ckpt)
        return {"fixture.ckpt": digest(self.ckpt)}


class Dream(_FixtureWorkload):
    """Ensemble `dream`, `shift`, one trajectory, then dream_oracle ascents."""
    name = "dream"

    def run_pass(self):
        z, s = self.size, self.s
        steps = z.steps
        ens, shift, traj = s.path("ens.csv"), s.path("shift.csv"), s.path("traj.csv")
        seed = derive_seed(self.seed, 2)
        common = ("--checkpoint", self.ckpt, "--property", "ghz_fidelity",
                  "--steps", steps, "--lr", DREAM_LR, "--seed", seed)
        t0 = time.perf_counter()
        s.cli("dream", *common, "--runs", z.runs, "--out", ens)
        t1 = time.perf_counter()
        s.cli("shift", "--ensemble", ens, "--out", shift)
        s.cli("dream", *common, "--runs", 1, "--out", traj)
        t2 = time.perf_counter()
        cfg = dreaming.DreamConfig(steps=steps, lr=float(DREAM_LR), snapshot_stride=steps)
        oracle = {"ghz_fidelity": [], "mean_purity": []}
        starts = [("ghz_fidelity", i) for i in range(z.oracle_ghz)]
        starts += [("mean_purity", i) for i in range(z.oracle_purity)]
        failed = 0
        for prop, i in starts:
            g0 = states.random_graph(np.random.default_rng([self.seed, 4, i]))
            try:
                oracle[prop].append(dreaming.dream_oracle(g0, prop, cfg))
            except states.DegenerateStateError:
                failed += 1
        t3 = time.perf_counter()
        s.runs(len(starts), failed)
        s.gate("oracle_no_failed_runs", failed == 0)
        if s.tracer is not None:   # ensemble failures are counted by its span
            s.tracer.count("dreaming.failed_runs", failed)
        self._check(ens, shift, traj, oracle)
        row_steps = (z.runs + 1 + len(starts)) * steps
        return PassResult(
            time_to_result_s=t3 - t0, units=row_steps, work_s=t3 - t0,
            detail={"dream.ensemble_row_steps_per_s": z.runs * steps / (t1 - t0),
                    "dream.oracle_row_steps_per_s": len(starts) * steps / (t3 - t2)},
            digests={"ens.csv": digest(ens), "shift.csv": digest(shift),
                     "traj.csv": digest(traj)})

    def _check(self, ens, shift, traj, oracle):
        s, z = self.s, self.size
        rows = read_rows(ens)
        initial = np.array([float(r["initial_true"]) for r in rows])
        final = np.array([float(r["final_true"]) for r in rows])
        s.runs(z.runs, z.runs - len(rows))
        s.gate("ensemble_no_failed_runs", len(rows) == z.runs)
        s.gate("ensemble_mean_final_above_initial", final.mean() > initial.mean())
        summary = {r["bin_lo"]: r["bin_hi"] for r in read_rows(shift)}
        tol = GATES["shift_mean_abs_tol"]
        s.gate("shift_report_matches_ensemble",
               abs(float(summary["mean_initial"]) - initial.mean()) <= tol
               and abs(float(summary["mean_final"]) - final.mean()) <= tol)
        last = read_rows(traj)[-1]
        finals = [np.array([float(last[f"w{i}"]) for i in range(24)])]
        finals += [t.final.weights for runs in oracle.values() for t in runs]
        s.gate("final_weights_within_clamp",
               all(np.all(np.abs(w) <= 1.0) for w in finals))
        ghz = [t.final.true_value for t in oracle["ghz_fidelity"]]
        reach = np.mean([v >= GATES["oracle_ghz_reach_fidelity"] for v in ghz]) if ghz else 0.0
        if not self.smoke:
            s.gate("oracle_ghz_reach_fraction",
                   reach >= GATES["oracle_ghz_min_reach_fraction"])
        s.gate("oracle_purity_increases",
               all(t.final.true_value > t.initial.true_value for t in oracle["mean_purity"]))


class Entropy(_FixtureWorkload):
    """`qgdream entropy`: one truncated net per hidden neuron, reduced starts."""
    name = "entropy"

    def run_pass(self):
        z, s = self.size, self.s
        out = s.path("entropy.csv")
        t0 = time.perf_counter()
        s.cli("entropy", "--checkpoint", self.ckpt, "--inits", z.inits, "--steps", z.steps,
              "--lr", DREAM_LR, "--seed", derive_seed(self.seed, 2), "--out", out)
        elapsed = time.perf_counter() - t0
        rows = read_rows(out)
        per_neuron = [float(r["entropy"]) for r in rows
                      if r["neuron"] not in ("mean", "dead")]
        defined = [h for h in per_neuron if not math.isnan(h)]
        s.gate("one_row_per_hidden_neuron", len(per_neuron) == HIDDEN_NEURONS)
        s.gate("entropies_within_0_and_log2_48",
               all(0.0 <= h <= math.log2(48) + 1e-12 for h in defined))
        row_steps = HIDDEN_NEURONS * z.inits * z.steps
        return PassResult(
            time_to_result_s=elapsed, units=row_steps, work_s=elapsed,
            detail={"entropy.row_steps_per_s": row_steps / elapsed},
            digests={"entropy.csv": digest(out)})


WORKLOADS = {w.name: w for w in (Gen, Train, Dream, Entropy)}
