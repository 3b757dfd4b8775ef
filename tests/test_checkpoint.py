import numpy as np
import pytest

from qgdream.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from qgdream.nn import NeuronSelector, init_mlp, predict, truncate_at_neuron


def test_round_trip_bit_exact(tmp_path):
    m = init_mlp([24, 16, 8, 1], activation="elu", alpha=0.1, seed=42)
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.layer_sizes == m.layer_sizes
    assert loaded.activation == m.activation
    assert loaded.alpha == m.alpha
    assert loaded.seed == m.seed
    for a, b in zip(m.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(m.biases, loaded.biases):
        assert np.array_equal(a, b)


def test_round_trip_preserves_predictions(tmp_path):
    m = init_mlp([24, 32, 1], seed=7)
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(0).uniform(-1, 1, (20, 24))
    assert np.array_equal(predict(m, x), predict(loaded, x))


def test_truncated_net_round_trip(tmp_path):
    m = init_mlp([24, 8, 8, 1], seed=3)
    t = truncate_at_neuron(m, NeuronSelector(1, 2))
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(t, path)
    loaded = load_checkpoint(path)
    assert loaded.activate_output is True
    x = np.random.default_rng(1).uniform(-1, 1, 24)
    assert predict(loaded, x) == predict(t, x)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    m = init_mlp([24, 4, 1], seed=0)
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    text = path.read_text().replace("qgdream-checkpoint 1", "qgdream-checkpoint 2", 1)
    path.write_text(text)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    m = init_mlp([24, 4, 1], seed=0)
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("kept", range(1, 6))
def test_truncated_header(tmp_path, kept):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:kept]) + "\n")
    with pytest.raises(CheckpointError, match="truncated checkpoint header"):
        load_checkpoint(path)


def test_missing_version(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_text("qgdream-checkpoint\n")
    with pytest.raises(CheckpointError, match="version missing"):
        load_checkpoint(path)


def test_header_key_missing(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("alpha ", "alfa ", 1))
    with pytest.raises(CheckpointError, match="lacks alpha"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("part", ["weights", "biases"])
def test_non_finite_parameters(tmp_path, bad, part):
    m = init_mlp([24, 4, 1], seed=0)
    if part == "weights":
        m.weights[1][0, 2] = float(bad)
    else:
        m.biases[1][0] = float(bad)
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    with pytest.raises(CheckpointError, match="layer 1 has non-finite parameters"):
        load_checkpoint(path)


def test_non_finite_alpha(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], activation="elu", seed=0), path)
    path.write_text(path.read_text().replace("\nalpha 1\n", "\nalpha nan\n", 1))
    with pytest.raises(CheckpointError, match="non-finite alpha"):
        load_checkpoint(path)


@pytest.mark.parametrize("sizes", ["24,5,1", "24,4,2", "25,4,1"])
def test_layer_blocks_checked_against_layer_sizes(tmp_path, sizes):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("layer_sizes 24,4,1", f"layer_sizes {sizes}", 1))
    with pytest.raises(CheckpointError, match="but layer_sizes give"):
        load_checkpoint(path)


def test_layer_block_beyond_layer_sizes(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("layer_sizes 24,4,4,1", "layer_sizes 24,4,4", 1))
    with pytest.raises(CheckpointError, match="data after the 2 layers"):
        load_checkpoint(path)


@pytest.mark.parametrize("flag", ["7", "-1", "true"])
def test_activate_output_must_be_zero_or_one(tmp_path, flag):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("activate_output 0", f"activate_output {flag}", 1))
    with pytest.raises(CheckpointError, match="expected 0 or 1"):
        load_checkpoint(path)


def test_unknown_activation(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("activation relu", "activation tanh", 1))
    with pytest.raises(CheckpointError, match="unknown activation 'tanh'"):
        load_checkpoint(path)
