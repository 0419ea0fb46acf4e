"""Native-speed TTM/Gram kernels behind a selectable backend.

The paper's cost model (Tables 1-2) charges the local compute of every
distributed algorithm as GEMM flops, so the local kernels must actually
run at GEMM speed.  The historical implementations in
:mod:`repro.tensor.ops` went through ``np.tensordot`` + ``np.moveaxis``:
correct, but the tensordot packs the tensor operand into a fresh
transposed copy on every call and the ``moveaxis`` hands back a
non-contiguous view that forces yet another copy in the *next* kernel of
the chain.  This package provides reshape-GEMM-reshape paths that
operate on contiguous unfoldings directly:

* mode ``0`` / mode ``d-1`` TTMs are a single GEMM on a zero-copy
  reshape of the (C-contiguous) tensor;
* interior modes batch the ``prod(shape[:mode])`` small per-slab GEMMs
  into one ``np.matmul`` call over a zero-copy 3-D view — no transpose
  copy in, and a C-contiguous result out, so chained TTMs (the
  dimension-tree engine's inner loop) never re-pack;
* the Gram of an unfolding reuses the same boundary-mode zero-copy
  reshapes and needs at most one contiguous pack for interior modes.

Backend contract
----------------
``REPRO_KERNELS`` selects the backend process-wide:

* ``numpy`` (default) — pure NumPy/BLAS, always available.
* ``numba`` — JIT-compiled slab loops (parallel packing and per-slab
  GEMMs).  numba is a *soft* dependency: when it is not importable the
  selection falls back to ``numpy`` with a ``RuntimeWarning``; nothing
  in the package ever hard-requires it.

Unknown values also fall back to ``numpy`` (with a warning) so a typo in
a job script degrades to the portable path instead of crashing a sweep.
:func:`set_backend` / :func:`use_backend` override the environment for
tests and benchmarks.

Bit-compatibility
-----------------
``repro.tensor.ops.ttm``/``gram`` route through this package, so the
sequential, cost-simulated, and real-process execution layers all share
one kernel implementation and remain mutually bit-identical (the
``tests/test_parity_fuzz.py`` invariants).  The NumPy backend is the
definition of the public kernels; the numba backend is fuzz-checked
against it (``tests/test_kernels.py``), and both are fuzz-checked at
tight tolerance against the retained tensordot/unfold reference
implementations (:func:`repro.kernels.gemm.ttm_reference`,
:func:`repro.kernels.gemm.gram_reference`).  On large shapes the GEMM
path is empirically bit-identical to the tensordot path as well, but
only the tight-tolerance equivalence is contractual: BLAS may choose a
different (equally valid) accumulation blocking for the two
formulations on small shapes.

BLAS threads
------------
:func:`blas_threads` / :func:`limit_blas_threads` (:mod:`repro.kernels.blas`)
read and cap the thread counts of the loaded OpenBLAS libraries; the
rank runtime uses them to give each rank process its share of the
CPUs.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from repro.kernels import gemm
from repro.kernels.blas import blas_threads, limit_blas_threads

__all__ = [
    "BACKENDS",
    "backend_name",
    "blas_threads",
    "gram",
    "limit_blas_threads",
    "set_backend",
    "ttm",
    "use_backend",
]

#: Recognized ``REPRO_KERNELS`` values.
BACKENDS = ("numpy", "numba")

_ENV_VAR = "REPRO_KERNELS"

# Resolved lazily on first kernel call so importing repro never warns;
# ``None`` means "not resolved yet".
_active: str | None = None


def _resolve(requested: str | None) -> str:
    """Map a requested backend name to the one that will actually run."""
    name = (requested or os.environ.get(_ENV_VAR, "") or "numpy")
    name = name.strip().lower()
    if name not in BACKENDS:
        warnings.warn(
            f"{_ENV_VAR}={name!r} is not a known kernels backend "
            f"(expected one of {BACKENDS}); using the NumPy kernels",
            RuntimeWarning,
            stacklevel=3,
        )
        return "numpy"
    if name == "numba":
        from repro.kernels import numba_backend

        if not numba_backend.AVAILABLE:
            warnings.warn(
                f"{_ENV_VAR}=numba requested but numba is not importable; "
                "falling back to the NumPy kernels",
                RuntimeWarning,
                stacklevel=3,
            )
            return "numpy"
    return name


def backend_name() -> str:
    """The active backend, resolving ``REPRO_KERNELS`` on first use."""
    global _active
    if _active is None:
        _active = _resolve(None)
    return _active


def set_backend(name: str | None = None) -> str:
    """Select the kernels backend; returns the backend actually active.

    ``None`` re-reads ``REPRO_KERNELS``.  Requesting ``numba`` without
    numba installed warns and activates ``numpy`` (the return value says
    so), mirroring the environment-variable behaviour.
    """
    global _active
    _active = _resolve(name)
    return _active


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Context manager form of :func:`set_backend` for tests."""
    global _active
    previous = _active
    try:
        yield set_backend(name)
    finally:
        _active = previous


def ttm(
    tensor: np.ndarray,
    matrix: np.ndarray,
    mode: int,
    *,
    transpose: bool = False,
) -> np.ndarray:
    """Reshape-GEMM-reshape tensor-times-matrix along ``mode``.

    Semantics match :func:`repro.tensor.ops.ttm` (which delegates
    here): ``unfold(Y, mode) = op(matrix) @ unfold(tensor, mode)``.
    ``matrix`` may be any strided view — transposed operands are passed
    to BLAS natively instead of being pack-copied, which is what makes
    the contiguous row slice ``u[a:b]`` with ``transpose=True`` the
    preferred spelling for distributed factor slabs.

    The result is always C-contiguous.
    """
    d = tensor.ndim
    if not -d <= mode < d:
        raise ValueError(f"mode {mode} out of range for order {d}")
    mode %= d
    if matrix.ndim != 2:
        raise ValueError("ttm factor must be a matrix")
    op = matrix.T if transpose else matrix
    if op.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"factor contracts {op.shape[1]} entries but mode {mode} has "
            f"extent {tensor.shape[mode]}"
        )
    x = np.ascontiguousarray(tensor)
    if backend_name() == "numba":
        from repro.kernels import numba_backend

        return numba_backend.ttm_apply(x, op, mode)
    return gemm.ttm_apply(x, op, mode)


def gram(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Gram matrix of the mode-``mode`` unfolding, ``Y_(j) @ Y_(j).T``.

    The Gram is invariant to the column *order* of the unfolding up to
    floating-point summation order, so this kernel is free to enumerate
    columns in C order (zero-copy on the boundary modes) rather than
    the Fortran order of :func:`repro.tensor.dense.unfold`.  All
    execution layers share this kernel, so their Grams stay mutually
    bit-identical; the result is exactly symmetric (``G[i, j]`` and
    ``G[j, i]`` are the same dot product evaluated in the same order).
    """
    d = tensor.ndim
    if not -d <= mode < d:
        raise ValueError(f"mode {mode} out of range for order {d}")
    mode %= d
    x = np.ascontiguousarray(tensor)
    if backend_name() == "numba":
        from repro.kernels import numba_backend

        return numba_backend.gram_apply(x, mode)
    return gemm.gram_apply(x, mode)
