"""Start-up helpers shared by the benchmark's entry points.

Standard library only: ``run.py`` times ``import rqcsim`` from a fresh
interpreter, so nothing here may import numpy or the package itself.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

# One BLAS thread: outside BLAS the numpy backend is single-threaded, and
# OpenBLAS's spinning second thread doubles CPU time on a 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/rqcsim`` to benchmark."""


def pin_threads() -> None:
    """Set the thread environment before numpy is first imported."""
    os.environ.update(THREAD_ENV)


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path.

    Refuses to run when the package sources are absent, so an installed
    copy elsewhere is never benchmarked by mistake.
    """
    if not (SRC_DIR / "rqcsim" / "__init__.py").is_file():
        raise SourceMissing(f"no package sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))


def check_imported(module) -> None:
    """Fail if ``module`` was not loaded from the checkout's sources."""
    origin = Path(module.__file__).resolve()
    if SRC_DIR not in origin.parents:
        raise SourceMissing(f"{module.__name__} loaded from {origin}, "
                            f"not from {SRC_DIR}")
