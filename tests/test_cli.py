import hashlib

import numpy as np
import pytest

from qgdream.cli import main
from qgdream.checkpoint import load_checkpoint, save_checkpoint
from qgdream.dataset import read_dataset
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


@pytest.mark.parametrize("command", [
    ["dream", "--steps", "5"], ["activations"], ["export"]])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_graph_error_exit(workspace, tmp_path, capsys, command, bad):
    _, _, ckpt = workspace
    graph = tmp_path / "graph.txt"
    write_graph_weights([float(bad)] + list(GHZ_GRAPH[1:]), graph)
    argv = command + ["--graph", str(graph), "--out", str(tmp_path / "out")]
    if command[0] != "export":
        argv += ["--checkpoint", str(ckpt)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(graph) in err
