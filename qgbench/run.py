"""qgdream benchmark: one seeded workload per run, in one process.

    python3 qgbench/run.py --workload {gen,train,dream,entropy} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The program is imported from ./src; nothing
is installed or built. With --trace 0 the run measures the end-to-end
metrics untraced. With --trace 1 it measures half the window untraced and
half with every public qgdream function wrapped in spans, and reports the
per-layer metrics plus the traced-minus-untraced overhead. The last line of
stdout is the result object; the lines before it list the environment,
every gate result and every metric with its unit. The full report is also
written to .qgbench_work/report-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".qgbench_work"

#: With OpenBLAS's default of one thread per core, 4-epoch training on 50k
#: rows took 1.99-2.94 s on a 2-core machine, against 3.31-3.44 s with one
#: thread: slower, but steady. Never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3


def pin_blas_threads():
    """Must run before numpy is imported."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import qgdream from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "qgdream" / "__init__.py").is_file():
        raise SystemExit(f"error: no qgdream sources under {src}")
    sys.path.insert(0, str(src))
    import qgdream
    if Path(qgdream.__file__).resolve().parent != (src / "qgdream").resolve():
        raise SystemExit(f"error: imported qgdream from {qgdream.__file__}, not {src}")
    return qgdream


def git_commit():
    """HEAD commit read from .git without running git; None outside a checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "qgdream").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(qgdream, threads):
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    task_dir = Path("/proc/self/task")
    return {
        "blas_threads": threads,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_threads": len(list(task_dir.iterdir())) if task_dir.is_dir() else None,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "backend": qgdream.BACKEND,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(workload):
    t0 = time.perf_counter()
    digests = workload.setup()
    return time.perf_counter() - t0, digests


def run_passes(workload, window, first_digests):
    """Closed loop: start passes until the window has elapsed (at least one).

    Returns the completed passes and the wall time of the loop.
    """
    from workloads import StageFailed
    results = []
    start = time.perf_counter()
    stop = start + window
    while True:
        try:
            r = workload.run_pass()
        except StageFailed:
            break
        if not first_digests:
            first_digests.update(r.digests)
        else:
            workload.s.gate("artifacts_byte_identical_across_passes",
                            r.digests == first_digests)
        results.append(r)
        if time.perf_counter() >= stop:
            break
    return results, time.perf_counter() - start


def summarize(passes, setup_times):
    # Means over the window, not medians of passes: when the machine's speed
    # drifts over seconds to minutes, the mean follows the drift smoothly
    # where the median jumps between fast and slow stretches.
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "time_to_result_s": (statistics.fmean(p.time_to_result_s for p in passes), "s"),
        "throughput_per_s": (sum(p.units for p in passes) / sum(p.work_s for p in passes),
                             "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure(name, seed, seconds, trace, smoke=False, workdir=None):
    """Run one workload; returns (result object, full report).

    The result is None when not a single pass completed.
    """
    import layers
    import spans
    import workloads
    from qgdream import analysis, checkpoint, cli, dataset, dreaming, kernels
    from qgdream import manifest, nn, states, tables

    workdir = Path(workdir or WORKDIR / name)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = workloads.Session(workdir)
    sizes = workloads.SMOKE if smoke else workloads.FULL
    workload = workloads.WORKLOADS[name](seed, sizes[name], session, smoke=smoke)

    setup_times, setup_digests = [], []
    for _ in range(SETUP_REPS):
        elapsed, digests = run_setup(workload)
        setup_times.append(elapsed)
        setup_digests.append(digests)
    session.gate("setup_byte_identical_across_reps",
                 all(d == setup_digests[0] for d in setup_digests))

    first = {}
    untraced, wall_s = run_passes(workload, seconds / 2 if trace else seconds, first)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    if not untraced:
        return None, dict(report, errors=session.errors)
    e2e = summarize(untraced, setup_times)
    detail_names = sorted({k for p in untraced for k in p.detail})
    detail = {k: statistics.median(p.detail[k] for p in untraced) for k in detail_names}

    per_layer = {}
    if trace:
        q = dict(kernels=kernels, states=states, dataset=dataset, nn=nn, dreaming=dreaming,
                 analysis=analysis, checkpoint=checkpoint, tables=tables,
                 manifest=manifest, cli=cli)
        points = spans.trace_points(q)
        with spans.patched(spans.Tracer(), points):
            traced_setup, _ = run_setup(workload)
        tracer = spans.Tracer()
        session.tracer = tracer
        with spans.patched(tracer, points):
            traced, _ = run_passes(workload, seconds / 2, first)
        session.tracer = None
        if traced:
            per_layer = layers.layer_metrics(tracer, len(traced))
            traced_e2e = summarize(traced, [traced_setup])
            for k, (value, unit) in e2e.items():
                per_layer[f"overhead.{k}"] = (traced_e2e[k][0] - value, unit)
            per_layer["traced_passes"] = (len(traced), "count")
            per_layer["spans"] = (len(tracer), "count")

    ops_failed_ratio = session.failed / max(session.attempted, 1)
    if trace:
        per_layer["ops_failed_ratio"] = (ops_failed_ratio, "ratio")
    metrics = per_layer if trace else e2e
    correct = session.failed == 0 and all(session.gates.values()) and bool(metrics)
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(
        passes=len(untraced),
        wall_s=wall_s,
        ops_failed_ratio=ops_failed_ratio,
        gates=session.gates,
        errors=session.errors,
        end_to_end={k: v for k, (v, _) in e2e.items()},
        workload_metrics=detail,
        per_pass=[{"time_to_result_s": p.time_to_result_s, "throughput_per_s": p.throughput,
                   **p.detail} for p in untraced],
        setup_s_reps=setup_times,
    )
    if per_layer:
        report["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
    return result, report


def workload_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["gen", "train", "dream", "entropy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    qgdream = import_program()

    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report["env"] = environment(qgdream, threads)
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / f"report-{args.workload}.json").write_text(json.dumps(report, indent=1))
    if result is None:
        print("\n".join(report["errors"]) or "error: no pass completed", file=sys.stderr)
        return 1

    print(f"qgbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={report['passes']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for gate, ok in sorted(report["gates"].items()):
        print(f"gate {gate:<48} {'PASS' if ok else 'FAIL'}")
    for err in report["errors"]:
        print(f"error {err}")
    print(f"metric {'ops_failed_ratio':<52} {report['ops_failed_ratio']:.6g} ratio")
    print(f"metric {'wall_s':<52} {report['wall_s']:.6g} s")
    for k, v in report["workload_metrics"].items():
        print(f"metric {k:<52} {v:.6g} {workload_unit(k)}")
    for k, m in result["metrics"].items():
        print(f"metric {k:<52} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
