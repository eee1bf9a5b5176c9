"""Process settings shared by the runner and the set-up probe.  Import it
before anything that imports numpy.

numpy's thread pools are held to one thread, so all load comes from one
thread of one process.  The checkout's src/ goes first on sys.path, so
the mixdim measured is the one in this checkout.
"""
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path[:0] = [str(SRC), str(BENCH_DIR)]
