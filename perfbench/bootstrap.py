"""Process set-up shared by the benchmark's entry points.

Imported before numpy: the thread pins only take effect if they are in the
environment when the BLAS library loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS/OpenMP thread: at the benchmark's sizes (n <= 72) default and
#: single-thread runs time the same, so extra threads only add scheduler noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    pinned = all(os.environ.get(var) == "1" for var in THREAD_VARS)
    if "numpy" in sys.modules and not pinned:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    """Import ``indefcanon`` from the checkout's ``src``; exit with code 2 if
    the checkout has no library source."""
    if not (SRC / "indefcanon" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import indefcanon
    if Path(indefcanon.__file__).resolve().parent.parent != SRC:
        print(f"error: indefcanon imported from {indefcanon.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return indefcanon
