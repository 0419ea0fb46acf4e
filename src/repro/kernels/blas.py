"""Per-process thread counts of the loaded OpenBLAS libraries.

The paper's cost model, like :mod:`repro.vmpi.machine`'s α–β–γ model,
charges every rank one core's flop rate.  A process-parallel run gets
that only if ``ranks × BLAS threads ≤ CPUs``: a forked rank otherwise
inherits the driver's whole OpenBLAS pool, and on a 2-CPU host a
2-rank solve runs 4 BLAS threads that slow each other's GEMMs (and a
collective then waits on the slowest rank's GEMM).

NumPy and SciPy each ship their own OpenBLAS (``libscipy_openblas64_``
and ``libscipy_openblas`` in the wheels), so this module finds every
loaded library whose file name contains ``openblas`` and drives its
exported ``*openblas_get_num_threads*`` / ``*openblas_set_num_threads*``
pair through ``ctypes``.  The symbols are resolved on first use and
cached for the life of the process; a forked child inherits the cache
(its address space is a copy), and a library loaded after the first
use is not seen.  Other BLAS libraries (MKL, BLIS, Accelerate) and
platforms whose libc lacks ``dl_iterate_phdr`` are left alone:
discovery finds nothing and every function here returns ``None``.

Nothing here reads or sets an environment variable, and nothing runs
on import.  The rank runtime calls :func:`limit_blas_threads` once at
the start of each rank process (see
:func:`repro.vmpi.mp_comm._budget_rank_blas`); the driver only
resolves the symbols before forking, and its own thread counts are
never changed.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable
from typing import Any, NamedTuple

__all__ = ["blas_threads", "limit_blas_threads"]

_PREFIXES = ("openblas", "scipy_openblas")
# "" for LP64 builds, "64_" for the ILP64 build NumPy ships.
_SUFFIXES = ("", "64_")


class _OpenBLAS(NamedTuple):
    get: Callable[[], int]
    set: Callable[[int], None]
    shutdown: Callable[[], int] | None


_resolved: tuple[_OpenBLAS, ...] | None = None


class _DlPhdrInfo(ctypes.Structure):
    # The leading fields of ``struct dl_phdr_info``; only these are read.
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_VISIT = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t, ctypes.c_void_p
)


def _loaded_paths() -> list[str]:
    """File paths of the OpenBLAS libraries loaded into this process.

    Walks the loader's object list with ``dl_iterate_phdr`` (glibc,
    musl, the BSDs); where libc lacks it the list is empty.
    """
    iterate = getattr(ctypes.CDLL(None), "dl_iterate_phdr", None)
    if iterate is None:
        return []
    paths: list[str] = []

    def visit(info: Any, size: int, data: object) -> int:
        name = info.contents.dlpi_name
        if name and b"openblas" in os.path.basename(name).lower():
            paths.append(os.fsdecode(name))
        return 0

    iterate(_VISIT(visit), None)
    return paths


def _bind(path: str) -> _OpenBLAS | None:
    """The thread-count entry points of one already-loaded library."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_NOW)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.restype, shutdown.argtypes = ctypes.c_int, []
            return _OpenBLAS(get, set_, shutdown)
    return None


def _libraries() -> tuple[_OpenBLAS, ...]:
    global _resolved
    if _resolved is None:
        found = (_bind(path) for path in _loaded_paths())
        _resolved = tuple(lib for lib in found if lib is not None)
    return _resolved


def blas_threads() -> int | None:
    """The largest thread count among the loaded OpenBLAS libraries,
    or ``None`` when no OpenBLAS is loaded."""
    libs = _libraries()
    if not libs:
        return None
    return max(lib.get() for lib in libs)


def limit_blas_threads(n: int) -> int | None:
    """Cap every loaded OpenBLAS at ``n`` threads; never raises a
    library's count.  Returns :func:`blas_threads` afterwards, or
    ``None`` (and changes nothing) when no OpenBLAS is loaded.

    A library capped to one thread also has its worker pool shut down
    (``blas_thread_shutdown_``, when exported).  After a fork OpenBLAS
    re-creates its pool lazily, and its setter does so even when
    asked for one thread, so without the shutdown the process keeps
    idle pool threads that compete with the other ranks for the CPUs.
    A library already at or below ``n`` is not touched at all: calling
    the setter would re-create its pool after a fork for nothing.
    Call this before starting any thread that may run BLAS.
    """
    if n < 1:
        raise ValueError(f"thread count must be positive, got {n}")
    libs = _libraries()
    if not libs:
        return None
    for lib in libs:
        if lib.get() <= n:
            continue
        lib.set(n)
        if n == 1 and lib.shutdown is not None:
            lib.shutdown()
    return blas_threads()
