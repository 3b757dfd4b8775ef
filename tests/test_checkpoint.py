import numpy as np
import pytest

from qgdream.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from qgdream.nn import init_mlp, predict


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


def _layer_sizes(sizes):
    return lambda text: text.replace("layer_sizes 24,4,1", f"layer_sizes {sizes}", 1)


def _wide_rows(first, last):
    def corrupt(text):
        lines = text.splitlines()
        for r in range(first, last + 1):
            lines[r] += " 0.5"
        return "\n".join(lines) + "\n"
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _layer_sizes("24,5,1"),
    _layer_sizes("24,4,2"),
    _layer_sizes("25,4,1"),
    # a title must read as the writer writes it, not just end in the right sizes
    lambda text: text.replace("layer 1 weights 1 4", "layer 9 weights 1 4", 1),
    _wide_rows(7, 10),  # every weight row of layer 0 holds 25 values
    _wide_rows(12, 12),  # layer 0's bias row holds 5
], ids=["24,5,1", "24,4,2", "25,4,1", "block-title", "wide-weight-rows", "wide-bias-row"])
def test_layer_blocks_checked_against_layer_sizes(tmp_path, corrupt):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(CheckpointError, match="but layer_sizes give"):
        load_checkpoint(path)


def test_layer_block_beyond_layer_sizes(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("layer_sizes 24,4,4,1", "layer_sizes 24,4,4", 1))
    with pytest.raises(CheckpointError, match="data after the 2 layers"):
        load_checkpoint(path)


@pytest.mark.parametrize("flag", ["1", "7", "-1", "true"])
def test_activate_output_must_be_zero_or_one(tmp_path, flag):
    # the output layer is never activated, so 0 is the only valid value
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("activate_output 0", f"activate_output {flag}", 1))
    with pytest.raises(CheckpointError, match="expected 0$"):
        load_checkpoint(path)


def test_unknown_activation(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(path.read_text().replace("activation relu", "activation tanh", 1))
    with pytest.raises(CheckpointError, match="unknown activation 'tanh'"):
        load_checkpoint(path)


def _one_layer_size(text):
    # one size and no layer block: this used to load as a net without layers
    header = "\n".join(text.splitlines()[:6])
    return header.replace("layer_sizes 24,4,1", "layer_sizes 24") + "\n"


def _ragged_row(text):
    lines = text.splitlines()
    lines[7] += " 0.5"  # the first weight row of layer 0 gets a 25th value
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("corrupt", [
    _ragged_row,
    lambda text: text.replace("seed 0", "seed zero", 1),
    lambda text: text.replace("layer_sizes 24,4,1", "layer_sizes 24,four,1", 1),
    lambda text: text[:200] + "x" + text[201:],
    _layer_sizes("24,0,1"),
    _layer_sizes("24,-40,1"),
    _one_layer_size,
], ids=["ragged-row", "seed", "layer_sizes", "weight", "layer_sizes-zero", "layer_sizes-negative",
        "layer_sizes-one-size"])
def test_malformed_text_names_the_file(tmp_path, corrupt):
    # numpy's and float()'s own messages used to escape without the path
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    path.write_text(corrupt(path.read_text()))
    with pytest.raises(CheckpointError, match=f"{path}: malformed checkpoint"):
        load_checkpoint(path)


def test_undecodable_bytes_name_the_file(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp([24, 4, 1], seed=0), path)
    data = bytearray(path.read_bytes())
    data[150] = 0xff
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=f"{path}: malformed checkpoint"):
        load_checkpoint(path)
