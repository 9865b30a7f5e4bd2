"""Run environment of the benchmark: BLAS pinned to one thread, and bec
imported from the checkout's own src/ directory."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# every matrix is at most 8x8, so BLAS threads only add scheduler noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_bec():
    """Pin BLAS to one thread, then import bec from ROOT/src; exits with
    status 2 when the checkout holds no bec package."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were "
                           "pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "bec", "__init__.py")):
        sys.stderr.write("perfbench: no bec package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import bec
    return bec


def describe(seed):
    """Numbers that go next to the results."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}
