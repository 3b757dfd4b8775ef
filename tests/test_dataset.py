import hashlib
import tracemalloc

import numpy as np
import pytest

from qgdream import dataset
from qgdream.dataset import (
    Dataset,
    DatasetReadError,
    DatasetVersionError,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from qgdream.states import Property, property_value, random_graph

import oracles


class TestGenerate:
    def test_cap_filter(self):
        ds = generate_dataset("ghz_fidelity", 1000, cap=0.5, seed=0)
        assert len(ds) == 1000
        assert np.all(ds.labels < 0.5)

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.qgdd", tmp_path / "b.qgdd"
        write_dataset(generate_dataset("ghz_fidelity", 500, cap=0.5, seed=9), p1)
        write_dataset(generate_dataset("ghz_fidelity", 500, cap=0.5, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_uncapped_mean_below_half(self):
        ds = generate_dataset("ghz_fidelity", 20_000, cap=None, seed=1)
        assert ds.labels.mean() < 0.5

    def test_labels_match_property(self):
        # spot-check 100 stored labels against a fresh evaluation
        ds = generate_dataset("mean_purity", 2000, cap=0.5, seed=2)
        rng = np.random.default_rng(0)
        for i in rng.choice(len(ds), 100, replace=False):
            true = property_value(ds.inputs[i].astype(np.float64), ds.prop)
            assert abs(true - float(ds.labels[i])) < 1e-9 + 1e-6 * abs(true)

    def test_records_held_once(self, monkeypatch):
        # accepted rows go straight into the output arrays: a list of chunks
        # concatenated at the end held every record twice (2.0x the records)
        n = 50_000
        monkeypatch.setattr(dataset, "CHUNK", 500)
        tracemalloc.start()
        try:
            ds = generate_dataset("ghz_fidelity", n, cap=None, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * 25 * 4
        assert len(ds) == n and ds.inputs.flags.c_contiguous

    def test_chunk_size_does_not_change_records(self, monkeypatch):
        # the last chunk is cut at n, so only the first n accepted rows count
        b = generate_dataset("mean_purity", 3000, cap=0.5, seed=4)
        monkeypatch.setattr(dataset, "CHUNK", 1000)
        a = generate_dataset("mean_purity", 3000, cap=0.5, seed=4)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_dataset("ghz_fidelity", 0, seed=0)

    def test_hopeless_cap_aborts(self, monkeypatch):
        # mean purity is at least (4 * 1/2 + 3 * 1/4) / 7 > 0.39 for any state
        monkeypatch.setattr(dataset, "CHUNK", 1000)
        with pytest.raises(RuntimeError, match="rejection"):
            generate_dataset("mean_purity", 10, cap=0.3, seed=0)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), -1.0, 0.0, 1.5])
    def test_cap_outside_unit_interval_rejected_before_drawing(self, monkeypatch, cap):
        def labels_drawn(*args):
            raise AssertionError("graphs drawn for a cap that no label can meet")

        monkeypatch.setattr(dataset, "property_value_batch", labels_drawn)
        rule = rf"cap must be None or a number in \(0, 1\], got {cap}"
        with pytest.raises(ValueError, match=rule):
            generate_dataset("ghz_fidelity", 10, cap=cap, seed=0)

    @pytest.mark.parametrize("cap", [None, 0.5])
    def test_nan_labels_never_kept(self, monkeypatch, cap):
        # a degenerate graph's label is NaN; no cap, or none, may keep it.
        # The records are the other rows of the seed's one draw, in order.
        def half_nan(w, prop):
            return np.where(w[:, 0] < 0.0, np.nan, 0.25)

        monkeypatch.setattr(dataset, "property_value_batch", half_nan)
        ds = generate_dataset("ghz_fidelity", 500, cap=cap, seed=2)
        assert len(ds) == 500 and np.all(ds.labels == 0.25)
        draw = random_graph(2, dataset.CHUNK)
        assert np.array_equal(ds.inputs, draw[draw[:, 0] >= 0.0][:500].astype(np.float32))

    @pytest.mark.parametrize("prop, digest", [
        ("ghz_fidelity", "c95006d63c01c4c1490e7768eafd8020f101f5d5e4093082d2653ff9b6ec0336"),
        ("w_fidelity", "f6303b9ca39baa83659ab4b2fc708f71a78ad26bfc85dd180f4d68df841f028a"),
        ("mean_purity", "dad3d3a61536567e84b51ef26ec1a5b1a8e96de8183358826b1bc476e3420544"),
    ])
    def test_golden_file_bytes(self, tmp_path, prop, digest):
        # pinned files: a change to the value arithmetic that moves a stored
        # label, or a kept record, changes these bytes
        path = tmp_path / "golden.qgdd"
        write_dataset(generate_dataset(prop, 2000, cap=0.5, seed=3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_cap_one_keeps_every_valid_record(self):
        ds = generate_dataset("w_fidelity", 300, cap=1.0, seed=8)
        assert len(ds) == 300 and ds.inputs.dtype == ds.labels.dtype == np.float32


class TestRoundTrip:
    def test_identity(self, tmp_path):
        ds = generate_dataset("w_fidelity", 1000, cap=0.5, seed=3)
        path = tmp_path / "ds.qgdd"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.prop is Property.W_FIDELITY
        assert back.seed == 3
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("prop", list(Property))
    @pytest.mark.parametrize("n", [1, 1000])
    def test_bytes_equal_to_stacking_reference(self, tmp_path, prop, n):
        ds = generate_dataset(prop, n, cap=0.5, seed=10 + n)
        write_dataset(ds, tmp_path / "new.qgdd")
        oracles.write_dataset(ds, tmp_path / "ref.qgdd")
        assert (tmp_path / "new.qgdd").read_bytes() == (tmp_path / "ref.qgdd").read_bytes()

    def test_records_read_once(self, tmp_path):
        # the records go straight into one array; reading the file into bytes
        # and copying the columns out of them peaked at twice the file size
        rng = np.random.default_rng(0)
        ds = Dataset(Property.GHZ_FIDELITY,
                     rng.uniform(-1, 1, (20_000, 24)).astype(np.float32),
                     rng.uniform(0, 1, 20_000).astype(np.float32), 0)
        path = tmp_path / "ds.qgdd"
        write_dataset(ds, path)
        tracemalloc.start()
        try:
            back = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * path.stat().st_size
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)

    def test_truncated_file(self, tmp_path):
        ds = generate_dataset("ghz_fidelity", 100, cap=0.5, seed=4)
        path = tmp_path / "ds.qgdd"
        write_dataset(ds, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(DatasetReadError):
            read_dataset(path)

    def test_version_bump(self, tmp_path):
        ds = generate_dataset("ghz_fidelity", 10, cap=0.5, seed=5)
        path = tmp_path / "ds.qgdd"
        write_dataset(ds, path)
        data = bytearray(path.read_bytes())
        data[4] = 2  # version u32 little-endian, low byte
        path.write_bytes(bytes(data))
        with pytest.raises(DatasetVersionError, match="2"):
            read_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ds.qgdd"
        path.write_bytes(b"NOPE" + bytes(100))
        with pytest.raises(DatasetReadError, match="magic"):
            read_dataset(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "ds.qgdd"
        path.write_bytes(b"QG")
        with pytest.raises(DatasetReadError):
            read_dataset(path)


@pytest.mark.parametrize("column,value", [(3, 1.5), (3, -1e30), (3, np.nan),
                                          (24, 1.5), (24, -0.25), (24, np.nan)])
def test_out_of_range_record_rejected(tmp_path, column, value):
    # weights lie in [-1, 1] and every property in [0, 1]; a corrupt record
    # used to train on, or end in a non-finite loss after the first epoch
    ds = generate_dataset("ghz_fidelity", 10, cap=0.5, seed=6)
    path = tmp_path / "ds.qgdd"
    write_dataset(ds, path)
    data = bytearray(path.read_bytes())
    offset = len(data) - 10 * 100 + 7 * 100 + column * 4  # record 7
    data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(DatasetReadError, match="record 7 holds"):
        read_dataset(path)
