"""Thread pinning and the environment record for the benchmark.

``pin_threads`` must run before numpy is first imported: OpenBLAS reads
its thread count once, when the library loads. With more than one BLAS
thread the generator's small per-step gate matmuls can run 10-40x
slower on a 2-core machine, so the benchmark pins one thread rather
than measuring whatever the environment happens to set.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Entry points that report OpenBLAS's live thread count, by build flavour
# (numpy's bundled scipy-openblas, a 64-bit-int OpenBLAS, a plain one).
_THREAD_QUERIES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin was set")
    os.environ.update(PINNED)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> tuple[int | None, str | None]:
    """(thread count, config string) of the loaded OpenBLAS, or Nones."""
    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))  # make sure the BLAS library is loaded
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for count_fn, config_fn in _THREAD_QUERIES:
            if hasattr(lib, count_fn):
                getter = getattr(lib, count_fn)
                getter.restype = ctypes.c_int
                config = None
                if hasattr(lib, config_fn):
                    get_config = getattr(lib, config_fn)
                    get_config.restype = ctypes.c_char_p
                    config = get_config().decode(errors="replace")
                return int(getter()), config
    return None, None


def check_pin() -> dict:
    """Environment record; raises unless OpenBLAS reports exactly one thread."""
    import numpy as np

    threads, config = blas_threads()
    if threads is None:
        raise RuntimeError("cannot read the BLAS thread count: no OpenBLAS thread query found")
    if threads != 1:
        raise RuntimeError(f"BLAS thread pin did not take: OpenBLAS reports {threads} threads")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config,
        "blas_threads": threads,
        "pinned_env": {k: os.environ.get(k) for k in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }
