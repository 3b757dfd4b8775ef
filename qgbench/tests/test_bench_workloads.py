"""Smoke-size runs of every workload, seed determinism and metric names."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from conftest import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names_and_units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_derive_seed_is_deterministic_and_keyed():
    assert workloads.derive_seed(5, 0) == workloads.derive_seed(5, 0)
    assert workloads.derive_seed(5, 0) != workloads.derive_seed(5, 1)
    assert workloads.derive_seed(5, 0) != workloads.derive_seed(6, 0)
    assert 0 <= workloads.derive_seed(2**40, 3) < 2**31


@pytest.mark.parametrize("name", ["gen", "train", "dream", "entropy"])
def test_setup_inputs_follow_the_seed(name, tmp_path):
    def fixture_files(seed, sub):
        session = workloads.Session(tmp_path / sub)
        session.workdir.mkdir()
        w = workloads.WORKLOADS[name](seed, workloads.SMOKE[name], session, smoke=True)
        w.setup()
        return {p.name: p.read_bytes() for p in sorted(session.workdir.iterdir())
                if not p.name.endswith(".manifest")}

    a, b, c = fixture_files(7, "a"), fixture_files(7, "b"), fixture_files(8, "c")
    assert a == b
    assert a.keys() == c.keys()
    if name == "train":   # one fixed training problem, see workloads.TRAIN_DATA_SEED
        assert a == c
    else:
        assert a != c


@pytest.mark.parametrize("name", ["gen", "train", "dream", "entropy"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_gates_and_names_every_metric(name, trace, tmp_path):
    result, report = run.measure(name, 3, 0, trace, smoke=True, workdir=tmp_path / name)
    assert result is not None, report.get("errors")
    assert result["correct"] and result["failed"] == 0, report["gates"]
    assert result["attempted"] >= 1
    assert report["gates"] and all(report["gates"].values())
    spec = names_and_units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == spec
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_counts_repeat_exactly_for_one_seed(tmp_path):
    counts = []
    for sub in ("a", "b"):
        result, _ = run.measure("dream", 4, 0, True, smoke=True, workdir=tmp_path / sub)
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if k.endswith((".calls", ".rows", "row_steps", ".bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["nn.input_gradient.calls"] > 0
    assert counts[0]["states.property_gradient.calls"] > 0


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["gen", "train", "dream", "entropy"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "gen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
