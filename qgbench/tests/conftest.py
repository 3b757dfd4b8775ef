import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
for p in (ROOT / "src", BENCH_DIR):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
