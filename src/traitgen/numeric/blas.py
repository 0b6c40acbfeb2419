"""One OpenBLAS thread for the whole process.

OpenBLAS splits a large enough matrix product across its threads, and
the split changes the order of the sums, so trained weights (and hence
every later artifact) would depend on ``OPENBLAS_NUM_THREADS``. The pin
runs when :mod:`traitgen.numeric` is imported, before any product of
this package: the CLI and code that calls the trainers directly (the
acceptance tests do) get the same bits at any thread setting. One
thread is also the fastest at this package's matrix sizes, and the
decoder's second thread runs its own products beside the caller's.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy  # noqa: F401  (maps numpy's BLAS into the process)

# openblas_set_num_threads by build flavour: numpy's bundled scipy-openblas,
# a 64-bit-int OpenBLAS, a plain one
_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def pin_one_thread() -> None:
    """Set every loaded OpenBLAS to one thread.

    Without a setter to call (another BLAS, or no ``/proc/self/maps``) it
    warns: results may then depend on the BLAS thread count, but nothing
    else is wrong, so it does not fail.
    """
    found = False
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _THREAD_SETTERS if hasattr(lib, name)),
                      None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            found = True
    if not found:
        warnings.warn("no OpenBLAS thread setter found; results may depend on the BLAS "
                      "thread count", RuntimeWarning, stacklevel=2)
