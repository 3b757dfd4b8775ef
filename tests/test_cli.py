import contextlib
import csv
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qgdream.cli import main
from qgdream.checkpoint import load_checkpoint, save_checkpoint
from qgdream.dataset import generate_dataset, read_dataset
from qgdream.dreaming import DreamEnsembleResult
from qgdream.manifest import parse_config
from qgdream.nn import init_mlp
from qgdream.tables import read_ensemble, write_ensemble, write_graph_weights
from qgdream.states import GHZ_GRAPH, Property


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset + checkpoint shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "train.qgdd"
    assert main(["gen", "--property", "ghz_fidelity", "--n", "3000",
                 "--seed", "11", "--out", str(ds)]) == 0
    ckpt = root / "net.ckpt"
    model = init_mlp([24, 8, 8, 1], seed=0)
    save_checkpoint(model, ckpt)
    return root, ds, ckpt


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_gen_writes_dataset_and_manifest(workspace):
    root, ds, _ = workspace
    data = read_dataset(ds)
    assert len(data) == 3000
    assert np.all(data.labels < 0.5)
    manifest = parse_config(str(ds) + ".manifest")
    assert manifest["subcommand"] == "gen"
    assert manifest["config.seed"] == "11"
    assert manifest[f"sha256.{ds.name}"] == sha(ds)


def test_gen_rerun_byte_identical(workspace, tmp_path):
    root, ds, _ = workspace
    again = tmp_path / "again.qgdd"
    assert main(["gen", "--property", "ghz_fidelity", "--n", "3000",
                 "--seed", "11", "--out", str(again)]) == 0
    assert sha(again) == sha(ds)


def test_train_subcommand(workspace, tmp_path):
    root, ds, _ = workspace
    out = tmp_path / "trained.ckpt"
    assert main(["train", "--dataset", str(ds), "--layers", "24,8,1",
                 "--batch-size", "500", "--max-epochs", "5",
                 "--patience", "5", "--seed", "1", "--out", str(out)]) == 0
    model = load_checkpoint(out)
    assert model.layer_sizes == [24, 8, 1]
    assert (tmp_path / "trained.ckpt.history.csv").exists()
    manifest = parse_config(str(out) + ".manifest")
    assert manifest["input.0"] == str(ds)


def test_train_rerun_byte_identical(workspace, tmp_path):
    root, ds, _ = workspace
    args = ["train", "--dataset", str(ds), "--layers", "24,8,1",
            "--batch-size", "500", "--max-epochs", "3", "--patience", "3",
            "--seed", "2"]
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert sha(a) == sha(b)


def test_dream_trajectory(workspace, tmp_path):
    root, _, ckpt = workspace
    out = tmp_path / "traj.csv"
    assert main(["dream", "--checkpoint", str(ckpt), "--property", "ghz_fidelity",
                 "--steps", "20", "--stride", "5", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,w0,")
    assert len(lines) == 1 + 5  # header + snapshots at 0,5,10,15,20


def test_dream_ensemble_and_shift(workspace, tmp_path):
    root, _, ckpt = workspace
    ens = tmp_path / "ens.csv"
    assert main(["dream", "--checkpoint", str(ckpt), "--property", "ghz_fidelity",
                 "--runs", "5", "--steps", "10", "--seed", "4",
                 "--out", str(ens)]) == 0
    assert len(ens.read_text().splitlines()) == 6
    shift = tmp_path / "shift.csv"
    assert main(["shift", "--ensemble", str(ens), "--out", str(shift)]) == 0
    text = shift.read_text()
    assert "mean_final" in text and "fraction_above_0.5" in text


def test_ensemble_table_keeps_failed_run_ids(tmp_path):
    # random starts are never degenerate, so the failed run is made by hand
    result = DreamEnsembleResult(Property.GHZ_FIDELITY, np.array([0.125, 0.25]),
                                 np.array([0.5, 0.75]), np.zeros((2, 24)), failures=[1])
    out = tmp_path / "ens.csv"
    write_ensemble(result, out)
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["run", "0", "2"]
    assert read_ensemble(out) == ([0.125, 0.25], [0.5, 0.75])


def test_dream_neuron(workspace, tmp_path):
    root, _, ckpt = workspace
    out = tmp_path / "neuron.csv"
    assert main(["dream-neuron", "--checkpoint", str(ckpt), "--layer", "1",
                 "--neuron", "2", "--inits", "4", "--steps", "10",
                 "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].count(",") == 24 + 48


def test_entropy_subcommand(workspace, tmp_path):
    root, _, ckpt = workspace
    out = tmp_path / "entropy.csv"
    assert main(["entropy", "--checkpoint", str(ckpt), "--inits", "2",
                 "--steps", "5", "--seed", "6", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("layer,neuron,entropy")
    assert ",mean," in text and ",dead," in text


def test_activations_subcommand(workspace, tmp_path):
    root, _, ckpt = workspace
    graph = tmp_path / "graph.txt"
    write_graph_weights(GHZ_GRAPH, graph)
    out = tmp_path / "act.csv"
    assert main(["activations", "--checkpoint", str(ckpt), "--graph", str(graph),
                 "--threshold", "0.05", "--out", str(out)]) == 0
    assert out.read_text().startswith("layer,from_index,to_index,value")


def test_export_subcommand(workspace, tmp_path):
    graph = tmp_path / "graph.txt"
    write_graph_weights(GHZ_GRAPH, graph)
    out = tmp_path / "graph.dot"
    assert main(["export", "--graph", str(graph), "--threshold", "0.4",
                 "--out", str(out)]) == 0
    assert out.read_text().count("--") == 4


def test_config_file_with_flag_override(workspace, tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("prop=ghz_fidelity\nn=100\nseed=1\n")
    out = tmp_path / "from_cfg.qgdd"
    assert main(["gen", "--config", str(cfg), "--n", "50", "--out", str(out)]) == 0
    assert len(read_dataset(out)) == 50  # flag wins over file
    manifest = parse_config(str(out) + ".manifest")
    assert manifest["config.n"] == "50"
    assert manifest["config.seed"] == "1"


def test_unknown_config_key_fails(workspace, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n")
    out = tmp_path / "x.qgdd"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1


def test_missing_file_error_exit(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "missing.qgdd"),
                 "--out", str(tmp_path / "x.ckpt")]) == 1


@pytest.mark.parametrize("batch", ["0", "-5"])
def test_bad_batch_size_error_exit(workspace, tmp_path, capsys, batch):
    _, ds, _ = workspace
    assert main(["train", "--dataset", str(ds), "--layers", "24,4,1",
                 "--batch-size", batch, "--max-epochs", "2",
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"batch size must be >= 1, got {batch}" in err


def _header_only(ckpt, tmp_path):
    path = tmp_path / "header.ckpt"
    path.write_text("\n".join(ckpt.read_text().splitlines()[:3]) + "\n")
    return path


def _bare_magic(ckpt, tmp_path):
    path = tmp_path / "bare.ckpt"
    path.write_text("qgdream-checkpoint\n")
    return path


def _nan_weight(ckpt, tmp_path):
    model = load_checkpoint(ckpt)
    model.weights[0][0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    return path


@pytest.mark.parametrize("make", [_header_only, _bare_magic, _nan_weight])
def test_malformed_checkpoint_error_exit(workspace, tmp_path, capsys, make):
    _, _, ckpt = workspace
    bad = make(ckpt, tmp_path)
    assert main(["dream", "--checkpoint", str(bad), "--runs", "3", "--steps", "5",
                 "--out", str(tmp_path / "ens.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


_GRAPH_COMMANDS = [["dream", "--steps", "5"], ["activations"], ["export"]]


def _graph_argv(command, graph, ckpt, out):
    argv = command + ["--graph", str(graph), "--out", str(out)]
    return argv if command[0] == "export" else argv + ["--checkpoint", str(ckpt)]


@pytest.mark.parametrize("command", _GRAPH_COMMANDS)
@pytest.mark.parametrize("bad", ["nan", "inf", "1.5", "-1e300"])
def test_non_finite_graph_error_exit(workspace, tmp_path, capsys, command, bad):
    # weights lie in [-1, 1], the range nets are trained on; a state built
    # from -1e300 overflows, so its true value is lost
    _, _, ckpt = workspace
    graph = tmp_path / "graph.txt"
    write_graph_weights([float(bad)] + list(GHZ_GRAPH[1:]), graph)
    assert main(_graph_argv(command, graph, ckpt, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(graph) in err


def test_graph_with_ensemble_error_exit(workspace, tmp_path, capsys):
    # --graph is the start of a single run; an ensemble draws its own starts
    _, _, ckpt = workspace
    graph = tmp_path / "graph.txt"
    write_graph_weights(GHZ_GRAPH, graph)
    out = tmp_path / "ens.csv"
    assert main(["dream", "--checkpoint", str(ckpt), "--graph", str(graph), "--runs", "3",
                 "--steps", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "run,final_true\n0,0.5\n",
    "run,initial_true\n0,0.5\n",
    "run,initial_true,final_true\n0,0.125,nan\n1,0.25,0.5\n",
    "run,initial_true,final_true\n0,0.125,1.7\n1,0.25,0.5\n",
    "run,initial_true,final_true\n0,-0.25,0.5\n",
], ids=["no-initial_true", "no-final_true", "nan", "above-1", "below-0"])
def test_malformed_ensemble_error_exit(tmp_path, capsys, text):
    ens = tmp_path / "ens.csv"
    ens.write_text(text)
    assert main(["shift", "--ensemble", str(ens), "--out", str(tmp_path / "shift.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ens) in err


def _non_finite_cells(path, skip=()):
    """Numeric cells of a CSV that are not finite; labels and blanks are skipped."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    bad = []
    for row in rows:
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if name not in skip and not math.isfinite(value):
                bad.append((name, cell))
    return bad


def _run_fuzzed(argv):
    """Exit code, last stderr line; any exception escapes to fail the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    lines = err.getvalue().splitlines()
    return code, lines[-1] if lines else ""


_FUZZ = settings(max_examples=50, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=120)
_CELL = st.one_of(st.floats().map(repr), st.floats(0, 1).map(repr), st.integers(-3, 3).map(str),
                  st.sampled_from(["", "nan", "-inf", "1e999", "0x1p-2", " 0.5", "1_0", "abc"]))
_SEP = st.sampled_from([" ", ",", ", ", "\n", "\t"])


def _join(sep, cells):
    return sep.join(cells)


_GRAPH_TEXT = st.one_of(
    _TEXT,
    st.builds(_join, _SEP, st.lists(st.floats(-1, 1).map(repr), min_size=23, max_size=25)),
    st.builds(_join, _SEP, st.lists(st.one_of(st.floats(-1, 1).map(repr), _CELL),
                                    min_size=24, max_size=24)))
_ENSEMBLE_TEXT = st.one_of(
    _TEXT,
    st.builds(lambda header, rows: "\n".join([",".join(header)] + [",".join(r) for r in rows]),
              st.lists(st.sampled_from(["run", "initial_true", "final_true", "x"]), max_size=4),
              st.lists(st.lists(_CELL, max_size=4), max_size=5)),
    st.builds(lambda rows: "run,initial_true,final_true\n" + "\n".join(
        f"{i},{a!r},{b!r}" for i, (a, b) in enumerate(rows)),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=5)))


@pytest.mark.parametrize("command", _GRAPH_COMMANDS, ids=lambda c: c[0])
@_FUZZ
@given(text=_GRAPH_TEXT)
def test_fuzzed_graph_file_exits_cleanly(workspace, tmp_path, command, text):
    _, _, ckpt = workspace
    graph, out = tmp_path / "graph.txt", tmp_path / "out.csv"
    graph.write_text(text)
    code, last = _run_fuzzed(_graph_argv(command, graph, ckpt, out))
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
    elif command[0] != "export":
        # a degenerate state has no true value; the trajectory writes it as nan
        assert _non_finite_cells(out, skip=("true",)) == []


@_FUZZ
@given(text=_ENSEMBLE_TEXT)
def test_fuzzed_ensemble_file_exits_cleanly(tmp_path, text):
    ens, out = tmp_path / "ens.csv", tmp_path / "shift.csv"
    ens.write_text(text)
    code, last = _run_fuzzed(["shift", "--ensemble", ens, "--out", out])
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
    else:
        assert _non_finite_cells(out) == []


@pytest.mark.parametrize("lr", ["0", "-1e-3", "nan", "inf"])
def test_bad_train_learning_rate_error_exit(workspace, tmp_path, capsys, lr):
    _, ds, _ = workspace
    out = tmp_path / "x.ckpt"
    assert main(["train", "--dataset", str(ds), "--layers", "24,4,1", "--max-epochs", "2",
                 f"--lr={lr}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning rate must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_bad_dream_learning_rate_error_exit(workspace, tmp_path, capsys, lr):
    # lr <= 0 was already refused; nan and inf passed that comparison
    _, _, ckpt = workspace
    out = tmp_path / "ens.csv"
    assert main(["dream", "--checkpoint", str(ckpt), "--runs", "3", "--steps", "3",
                 "--lr", lr, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning rate must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["nan", "inf", "-0.1", "1.5"])
def test_bad_shift_cap_error_exit(tmp_path, capsys, cap):
    ens, out = tmp_path / "ens.csv", tmp_path / "shift.csv"
    ens.write_text("run,initial_true,final_true\n0,0.125,0.5\n1,0.25,0.75\n")
    assert main(["shift", "--ensemble", str(ens), "--cap", cap, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--cap must be a number in [0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("cap", ["nan", "inf", "-1", "0", "1.5"])
def test_bad_gen_cap_error_exit(tmp_path, capsys, cap):
    # nan, -1 and 0 used to draw 200,000 graphs before giving up; inf and
    # 1.5 used to keep every record
    out = tmp_path / "x.qgdd"
    assert main(["gen", "--n", "10", f"--cap={cap}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"cap must be None or a number in (0, 1], got {float(cap)}" in err
    assert not out.exists()


def test_gen_cap_none_keeps_every_valid_record(tmp_path):
    out = tmp_path / "x.qgdd"
    assert main(["gen", "--n", "200", "--cap", "none", "--seed", "2", "--out", str(out)]) == 0
    expected = generate_dataset("ghz_fidelity", 200, cap=None, seed=2)
    assert np.array_equal(read_dataset(out).labels, expected.labels)


def test_gen_seed_beyond_header_error_exit(tmp_path, capsys):
    # the header stores the seed as u64; 2**64 used to end in a struct.error
    # traceback after generating
    out = tmp_path / "x.qgdd"
    assert main(["gen", "--n", "10", "--seed", str(2 ** 64), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be in [0, 2**64)")
    assert not out.exists()


def _mutated(data, cut, edits):
    """data cut to its first `cut` bytes, then each (position, byte) edit applied."""
    data = bytearray(data[:cut])
    for pos, byte in edits:
        if data:
            data[pos % len(data)] = byte
    return bytes(data)


def _mutations(size, header):
    """Truncations and byte edits, half of the edits aimed at the first header bytes."""
    position = st.one_of(st.integers(0, header - 1), st.integers(0, size - 1))
    return st.tuples(st.one_of(st.just(size), st.integers(0, size)),
                     st.lists(st.tuples(position, st.integers(0, 255)), max_size=4))


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A 40-record dataset and a [24,4,1] checkpoint, small enough to fuzz."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = root / "small.qgdd"
    assert main(["gen", "--n", "40", "--seed", "12", "--out", str(ds)]) == 0
    ckpt = root / "small.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=5), ckpt)
    return ds.read_bytes(), ckpt.read_bytes()


@_FUZZ
@given(data=st.data())
def test_fuzzed_dataset_file_exits_cleanly(small_files, tmp_path, data):
    valid = small_files[0]
    cut, edits = data.draw(_mutations(len(valid), 25))
    ds, out = tmp_path / "ds.qgdd", tmp_path / "net.ckpt"
    ds.write_bytes(_mutated(valid, cut, edits))
    code, last = _run_fuzzed(["train", "--dataset", ds, "--layers", "24,4,1",
                              "--batch-size", "16", "--max-epochs", "2", "--out", out])
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
    else:
        load_checkpoint(out)  # refuses non-finite parameters
        assert _non_finite_cells(f"{out}.history.csv") == []


@_FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint_file_exits_cleanly(small_files, tmp_path, data):
    valid = small_files[1]
    cut, edits = data.draw(_mutations(len(valid), 100))
    ckpt, out = tmp_path / "net.ckpt", tmp_path / "traj.csv"
    ckpt.write_bytes(_mutated(valid, cut, edits))
    code, last = _run_fuzzed(["dream", "--checkpoint", ckpt, "--steps", "5", "--stride", "5",
                              "--out", out])
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
    else:
        assert _non_finite_cells(out, skip=("true",)) == []


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_bad_train_alpha_error_exit(workspace, tmp_path, capsys, alpha):
    # relu ignores alpha, but the checkpoint records it and its reader
    # refuses a non-finite one
    _, ds, _ = workspace
    out = tmp_path / "x.ckpt"
    assert main(["train", "--dataset", str(ds), "--layers", "24,4,1", "--max-epochs", "2",
                 "--alpha", alpha, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("patience", ["0", "-3"])
def test_bad_train_patience_error_exit(workspace, tmp_path, capsys, patience):
    _, ds, _ = workspace
    out = tmp_path / "x.ckpt"
    assert main(["train", "--dataset", str(ds), "--layers", "24,4,1", "--max-epochs", "2",
                 f"--patience={patience}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "convergence patience must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "5", "-0.1"])
def test_bad_activations_threshold_error_exit(workspace, tmp_path, capsys, threshold):
    _, _, ckpt = workspace
    out = tmp_path / "act.csv"
    assert main(["activations", "--checkpoint", str(ckpt), f"--threshold={threshold}",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threshold must be a number in [0, 1]" in err
    assert not out.exists()


_CONFIG_LINE = st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from(["cap", "threshold", "seed", " threshold ", "bogus", "", "#cap"]),
    st.sampled_from(["=", " = ", "==", ""]),
    st.one_of(_CELL, st.integers().map(str), _TEXT))
_CONFIG_TEXT = st.one_of(_TEXT, st.builds(_join, st.just("\n"),
                                          st.lists(_CONFIG_LINE, max_size=4)))


@pytest.mark.parametrize("command", ["shift", "export", "activations"])
@_FUZZ
@given(text=_CONFIG_TEXT)
def test_fuzzed_config_file_exits_cleanly(workspace, tmp_path, command, text):
    _, _, ckpt = workspace
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(text)
    if command == "shift":
        ens = tmp_path / "ens.csv"
        ens.write_text("run,initial_true,final_true\n0,0.125,0.5\n1,0.25,0.75\n")
        inputs = ["--ensemble", ens]
    elif command == "export":
        graph = tmp_path / "graph.txt"
        write_graph_weights(GHZ_GRAPH, graph)
        inputs = ["--graph", graph]
    else:
        inputs = ["--checkpoint", ckpt]  # the start graph comes from the config's seed
    code, last = _run_fuzzed([command, *inputs, "--config", cfg, "--out", out])
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
    elif command != "export":
        assert _non_finite_cells(out) == []
    if code == 0 and command == "activations":
        # a threshold in [0, 1] keeps at least the largest entry, normalized to 1
        assert len(out.read_text().splitlines()) > 1


_PROPS = [p.value for p in Property]


def _config_line(key, values):
    return st.builds(lambda sep, value: f"{key}{sep}{value}", st.sampled_from(["=", " = "]),
                     values)


# mostly well-formed lines, so that about half the examples generate
_GEN_LINE = st.one_of(
    _config_line("prop", st.sampled_from(_PROPS + ["", "GHZ", "1"])),
    _config_line("cap", st.one_of(st.sampled_from(["none", "None", "1"]), _CELL)),
    _config_line("seed", st.one_of(st.integers(-3, 2 ** 65).map(str),
                                   st.sampled_from(["", "1.5", "nan"]))),
    st.sampled_from(["bogus=1", "cap==0.5", "n 5", "#n=9000", " cap = 0.25", ""]))
# every example carries one n line of at most 500 records, so it runs in
# milliseconds; the other lines go around it
_GEN_CONFIG_TEXT = st.builds(
    lambda lines, n_line, at: "\n".join(lines[:at] + [n_line] + lines[at:]),
    st.lists(_GEN_LINE, max_size=4), _config_line("n", st.integers(-2, 500).map(str)),
    st.integers(0, 4))


@_FUZZ
@given(text=_GEN_CONFIG_TEXT)
def test_fuzzed_gen_config_exits_cleanly(tmp_path, text):
    cfg, out = tmp_path / "gen.cfg", tmp_path / "out.qgdd"
    cfg.write_text(text)
    out.unlink(missing_ok=True)
    code, last = _run_fuzzed(["gen", "--config", cfg, "--out", out])
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
        assert not out.exists()
        return
    resolved = parse_config(f"{out}.manifest")
    ds = read_dataset(out)
    assert len(ds) == int(resolved["config.n"])
    assert ds.prop is Property(resolved["config.prop"])
    if resolved["config.cap"].lower() != "none":
        assert np.all(ds.labels < float(resolved["config.cap"]))


@pytest.mark.parametrize("layers", ["24,4,2", "25,4,1"])
def test_bad_train_layers_error_exit(workspace, tmp_path, capsys, layers):
    # a net maps the 24 graph weights to one property value; these used to
    # end in numpy's broadcast error or an input-width error mid-training
    _, ds, _ = workspace
    out = tmp_path / "x.ckpt"
    assert main(["train", "--dataset", str(ds), "--layers", layers, "--max-epochs", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    sizes = layers.replace(",", ", ")
    assert err.startswith(f"error: layer sizes must start at 24 inputs and end at 1 output, "
                          f"got [{sizes}]")
    assert not out.exists()


# (inputs, configurable options, the config.* keys each manifest has always had)
_ROUND_TRIPS = {
    "gen": ([], ["--n", "200", "--cap", "none", "--seed", "3"], {"cap", "n", "prop", "seed"}),
    "train": (["--dataset", "{ds}"],
              ["--layers", "24,4,1", "--activation", "elu", "--alpha", "0.5",
               "--batch-size", "300", "--max-epochs", "2", "--lr", "0.002"],
              {"activation", "alpha", "batch_size", "layers", "lr", "max_epochs", "patience",
               "seed"}),
    "dream": (["--checkpoint", "{ckpt}"],
              ["--property", "w_fidelity", "--runs", "3", "--steps", "6", "--lr", "0.01",
               "--clamp", "no", "--adam", "yes"],
              {"clamp", "lr", "prop", "runs", "seed", "steps", "stride", "use_adam"}),
    "dream-neuron": (["--checkpoint", "{ckpt}", "--layer", "1", "--neuron", "2"],
                     ["--inits", "2", "--steps", "5", "--lr", "0.01"],
                     {"inits", "layer", "lr", "neuron", "seed", "steps"}),
    "entropy": (["--checkpoint", "{ckpt}"], ["--inits", "2", "--steps", "4", "--seed", "7"],
                {"inits", "lr", "seed", "steps"}),
    "activations": (["--checkpoint", "{ckpt}"], ["--threshold", "0.2", "--seed", "3"],
                    {"seed", "threshold"}),
    "shift": (["--ensemble", "{ens}"], ["--cap", "0.25"], {"cap"}),
    "export": (["--graph", "{graph}"], ["--threshold", "0.3"], {"threshold"}),
}


@pytest.mark.parametrize("command", _ROUND_TRIPS)
def test_manifest_config_reproduces_artifacts(workspace, tmp_path, command):
    # a manifest's config.* lines are --config input that reruns the command
    _, ds, ckpt = workspace
    graph, ens = tmp_path / "graph.txt", tmp_path / "ens.csv"
    write_graph_weights(GHZ_GRAPH, graph)
    ens.write_text("run,initial_true,final_true\n0,0.125,0.5\n1,0.25,0.75\n")
    inputs, options, keys = _ROUND_TRIPS[command]
    inputs = [a.format(ds=ds, ckpt=ckpt, graph=graph, ens=ens) for a in inputs]
    out = tmp_path / "out"
    assert main([command, *inputs, *options, "--out", str(out)]) == 0
    first = parse_config(f"{out}.manifest")
    config = {k.removeprefix("config."): v for k, v in first.items() if k.startswith("config.")}
    assert set(config) == keys
    cfg = tmp_path / "run.cfg"
    # the neuron selection is given by flags; it is not a config key
    cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()
                           if k not in ("layer", "neuron")))
    for key in first:
        if key.startswith("output."):
            Path(first[key]).unlink()
    assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 0
    again = parse_config(f"{out}.manifest")
    assert any(key.startswith("sha256.") for key in first)
    for key in first:
        if key.startswith("output."):
            path = Path(first[key])
            assert sha(path) == first[f"sha256.{path.name}"]
    del first["wall_time_s"], again["wall_time_s"]
    assert again == first


def _sized_config(sizing, others):
    """Config text with every sizing line and up to four other lines, in any order."""
    return st.builds(lambda fixed, rest: list(fixed) + rest, st.tuples(*sizing),
                     st.lists(others, max_size=4)).flatmap(st.permutations).map("\n".join)


def _mostly(key, valid, junk=_CELL):
    # a line holds a valid value 7 times in 8, so that about half the
    # examples run to the end
    return _config_line(key, st.integers(0, 7).flatmap(lambda i: valid if i else junk))


def _small(key, top):
    # sizes and step counts stay small, so each example runs in milliseconds
    return _mostly(key, st.integers(1, top).map(str),
                   st.sampled_from(["-1", "0", "", "1.5", "nan", "abc"]))


_BOOL = st.sampled_from(["true", "False", "yes", "0", "on", "1"])
_JUNK = st.sampled_from(["bogus=1", "lr==0.1", "seed 5", "#steps=9000", "out=y", ""])
_ASCENT = [_mostly("lr", st.floats(1e-4, 1).map(repr)),
           _mostly("seed", st.integers(0, 2 ** 64).map(str)), _JUNK]
_SIZED_CONFIGS = {
    "train": _sized_config(
        [_small("max_epochs", 3),
         _mostly("layers", st.sampled_from(["24,4,1", "24,3,3,1", "24,1"]),
                 st.sampled_from(["24,4,2", "25,4,1", "24,0,1", "24", "", "24,,1"]))],
        st.one_of(_mostly("activation", st.sampled_from(["relu", "elu"])),
                  _mostly("alpha", st.floats(0.1, 2).map(repr)),
                  _mostly("batch_size", st.integers(1, 64).map(str)),
                  _mostly("lr", st.floats(1e-4, 0.1).map(repr)),
                  _mostly("patience", st.integers(1, 5).map(str)),
                  _mostly("seed", st.integers(0, 2 ** 64).map(str)), _JUNK)),
    "dream": _sized_config(
        [_small("steps", 20), _small("runs", 3)],
        st.one_of(_mostly("prop", st.sampled_from(_PROPS)),
                  _mostly("stride", st.integers(1, 30).map(str)),
                  _mostly("clamp", _BOOL), _mostly("use_adam", _BOOL), *_ASCENT)),
    "dream-neuron": _sized_config([_small("steps", 20), _small("inits", 3)],
                                  st.one_of(*_ASCENT)),
    "entropy": _sized_config([_small("steps", 20), _small("inits", 3)], st.one_of(*_ASCENT)),
}


@pytest.mark.parametrize("command", _SIZED_CONFIGS)
@_FUZZ
@given(data=st.data())
def test_fuzzed_sized_config_exits_cleanly(small_files, tmp_path, command, data):
    ds, ckpt, cfg, out = (tmp_path / name for name in ("ds.qgdd", "net.ckpt", "run.cfg", "out"))
    ds.write_bytes(small_files[0])
    ckpt.write_bytes(small_files[1])
    cfg.write_text(data.draw(_SIZED_CONFIGS[command]))
    out.unlink(missing_ok=True)
    inputs = {"train": ["--dataset", ds], "dream-neuron": ["--checkpoint", ckpt, "--layer", "1",
                                                           "--neuron", "0"]}
    code, last = _run_fuzzed([command, *inputs.get(command, ["--checkpoint", ckpt]),
                              "--config", cfg, "--out", out])
    assert code in (0, 1)
    if code == 1:
        assert last.startswith("error:")
        assert not out.exists()
    elif command == "train":
        load_checkpoint(out)  # refuses non-finite parameters
        assert _non_finite_cells(f"{out}.history.csv") == []
    else:
        assert _non_finite_cells(out, skip=("true",)) == []


@pytest.mark.parametrize("flag", ["--clamp", "--adam"])
def test_bad_bool_flag_is_usage_error(workspace, tmp_path, capsys, flag):
    # a flag's value goes through the flag's type, as --steps abc does; a
    # config-file value goes through the same type inside main's error handling
    _, _, ckpt = workspace
    argv = ["dream", "--checkpoint", str(ckpt), "--steps", "3", "--out", str(tmp_path / "t.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "maybe"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text({"--clamp": "clamp", "--adam": "use_adam"}[flag] + "=maybe\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: not a boolean: 'maybe'"
