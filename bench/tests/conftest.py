import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
