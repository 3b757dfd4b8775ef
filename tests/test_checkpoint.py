import re
import struct
import tracemalloc

import numpy as np
import pytest

from qgdream.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from qgdream.nn import init_mlp, predict

# byte offsets of the header fields (see the layout in qgdream.checkpoint)
VERSION, ACT, ALPHA, NO_SEED, SEED, COUNT, SIZES = 19, 21, 22, 30, 31, 39, 43


def _saved(tmp_path, sizes=(24, 4, 1), **kwargs):
    path = tmp_path / "net.ckpt"
    save_checkpoint(init_mlp(list(sizes), seed=0, **kwargs), path)
    return path


def _patch(path, offset, fmt, *values):
    data = bytearray(path.read_bytes())
    struct.pack_into("<" + fmt, data, offset, *values)
    path.write_bytes(bytes(data))


def _rejected(path, match=""):
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: ") + match):
        load_checkpoint(path)


def test_round_trip_bit_exact(tmp_path):
    m = init_mlp([24, 16, 8, 1], activation="elu", alpha=0.1, seed=42)
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.layer_sizes == m.layer_sizes
    assert loaded.activation == m.activation
    assert loaded.alpha == m.alpha
    assert loaded.seed == m.seed
    assert loaded.checksum() == m.checksum()
    for a, b in zip(m.weights, loaded.weights):
        assert np.array_equal(a, b)
    for a, b in zip(m.biases, loaded.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [None, 0, 2 ** 64 - 1])
def test_round_trip_seed(tmp_path, seed):
    m = init_mlp([24, 4, 1], seed=0)
    m.seed = seed
    path = tmp_path / "net.ckpt"
    save_checkpoint(m, path)
    assert load_checkpoint(path).seed == seed


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_save_rejects_seed_beyond_u64(tmp_path, seed):
    m = init_mlp([24, 4, 1], seed=0)
    m.seed = seed
    path = tmp_path / "net.ckpt"
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        save_checkpoint(m, path)
    assert not path.exists()


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
    _rejected(path, "not a qgdream checkpoint")


def test_version_mismatch(tmp_path):
    # a version-1 (text) checkpoint opens with the same magic and its version
    path = tmp_path / "net.ckpt"
    path.write_text("qgdream-checkpoint 1\nlayer_sizes 24,4,1\nactivation relu\nalpha 1\n"
                    "activate_output 0\nseed 0\nlayer 0 weights 4 24\n")
    _rejected(path, "checkpoint version 1, expected 2$")
    path = _saved(tmp_path)
    _patch(path, VERSION, "c", b"3")
    _rejected(path, "checkpoint version 3, expected 2$")


def test_truncated_file(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-3 * 8])
    _rejected(path, "size 871 != expected 895 for 3 layer sizes$")


@pytest.mark.parametrize("kept", range(1, 6))
def test_truncated_header(tmp_path, kept):
    # the header cut at the end of its version, activation, alpha, flag or seed field
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:(ACT, ALPHA, NO_SEED, SEED, COUNT)[kept - 1]])
    _rejected(path, "truncated checkpoint header")


def test_missing_version(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"qgdream-checkpoint ")
    _rejected(path, "truncated checkpoint header")


def test_header_key_missing(tmp_path):
    # a whole fixed header whose layer sizes are missing
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes()[:SIZES])
    _rejected(path, "truncated checkpoint: size 43 cannot hold 3 layer sizes")


def test_every_prefix_and_one_extra_byte(tmp_path):
    data = _saved(tmp_path).read_bytes()
    path = tmp_path / "cut.ckpt"
    for cut in [*range(len(data)), data + b"\0"]:
        path.write_bytes(data[:cut] if isinstance(cut, int) else cut)
        _rejected(path)


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
    _rejected(path, "layer 1 has non-finite parameters")


def test_non_finite_alpha(tmp_path):
    path = _saved(tmp_path, activation="elu")
    for alpha in ("nan", "inf", "-inf"):
        _patch(path, ALPHA, "d", float(alpha))
        _rejected(path, f"non-finite alpha {alpha}$")


def _field(offset, fmt, *values):
    return lambda path: _patch(path, offset, fmt, *values)


def _extra_values(offset, n):
    def corrupt(path):
        data = path.read_bytes()
        path.write_bytes(data[:offset] + bytes(8 * n) + data[offset:])
    return corrupt


_BIASES = SIZES + 12 + 8 * (4 * 24 + 1 * 4)  # the biases follow every weight matrix


@pytest.mark.parametrize("corrupt", [
    _field(SIZES, "3I", 24, 5, 1),
    _field(SIZES, "3I", 24, 4, 2),
    _field(SIZES, "3I", 25, 4, 1),
    _extra_values(SIZES + 12, 4),  # layer 0 holds 4 more weights than (4, 24)
    _extra_values(_BIASES, 1),  # and here 5 biases
], ids=["24,5,1", "24,4,2", "25,4,1", "wide-weight-rows", "wide-bias-row"])
def test_layer_blocks_checked_against_layer_sizes(tmp_path, corrupt):
    path = _saved(tmp_path)
    corrupt(path)
    _rejected(path, r"size \d+ != expected \d+ for 3 layer sizes$")


def test_layer_block_beyond_layer_sizes(tmp_path):
    # count 3 over a [24,4,4,1] file: the last size and layer become extra data
    path = _saved(tmp_path, sizes=(24, 4, 4, 1))
    _patch(path, COUNT, "I", 3)
    _rejected(path, r"size \d+ != expected \d+ for 3 layer sizes$")


def test_unknown_activation(tmp_path):
    path = _saved(tmp_path)
    _patch(path, ACT, "B", 2)
    _rejected(path, "unknown activation tag 2$")


@pytest.mark.parametrize("corrupt, match", [
    (_extra_values(SIZES + 12, 1), "size 903 != expected 895 for 3 layer sizes$"),
    (_field(NO_SEED, "B", 2), "seed flag 2, expected 0 or 1$"),
    (_field(COUNT, "I", 40), r"size 895 != expected \d+ for 40 layer sizes$"),
    (_field(SIZES + 12 + 8 * 20, "d", np.nan), "layer 0 has non-finite parameters$"),
    (_field(SIZES, "3I", 24, 0, 1), "malformed checkpoint: layer size 1 is 0$"),
    (_field(SIZES, "3I", 24, 2 ** 32 - 40, 1), r"size 895 != expected \d+ for 3 layer sizes$"),
    (_field(COUNT, "I", 1), "malformed checkpoint: needs 2 or more layer sizes, has 1$"),
    (_field(0, "c", b"Q"), "not a qgdream checkpoint$"),
    (_field(COUNT, "I", 0), "malformed checkpoint: needs 2 or more layer sizes, has 0$"),
    (_field(COUNT, "I", 2 ** 32 - 1),
     "truncated checkpoint: size 895 cannot hold 4294967295 layer sizes$"),
], ids=["ragged-row", "seed", "layer_sizes", "weight", "layer_sizes-zero", "layer_sizes-negative",
        "layer_sizes-one-size", "magic", "count-0", "count-max"])
def test_malformed_text_names_the_file(tmp_path, corrupt, match):
    # the ids name the text format's malformations; these are their binary forms
    path = _saved(tmp_path)
    corrupt(path)
    tracemalloc.start()
    try:
        _rejected(path, match)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # nothing is sized by a corrupt count or layer size


def test_undecodable_bytes_name_the_file(tmp_path):
    # the version field is ASCII; other bytes there end in the version error
    path = _saved(tmp_path)
    _patch(path, VERSION, "2s", b"\xfe\xff")
    _rejected(path, r"checkpoint version \\xfe\\xff, expected 2")
