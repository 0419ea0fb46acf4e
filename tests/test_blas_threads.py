"""The per-rank BLAS thread budget.

Every rank process caps each loaded OpenBLAS at ``min(current,
max(1, usable CPUs // rank processes))`` threads before its program
starts, so ``ranks × threads ≤ CPUs`` and a lower count the user set
is never raised.  The driver's own BLAS state is never touched.  All
checks read thread counts, none reads a clock.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.kernels import blas
from repro.kernels.blas import blas_threads, limit_blas_threads
from repro.vmpi.faults import FaultPlan
from repro.vmpi.mp_comm import CommConfig, RankFailureError, run_spmd

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS loaded"
)

WIRES = ["shm", "tcp", "launched"]


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _driver_counts() -> tuple[int, ...]:
    """Every loaded library's count, not just the largest."""
    return tuple(lib.get() for lib in blas._libraries())


@contextmanager
def _driver_at(n: int):
    """Set the driver's libraries to ``n`` threads, then restore."""
    libs = blas._libraries()
    before = _driver_counts()
    try:
        for lib in libs:
            lib.set(n)
        yield
    finally:
        for lib, count in zip(libs, before):
            lib.set(count)


# Module-level SPMD programs (must be picklable / importable).


def _prog_threads(comm) -> int | None:
    return blas_threads()


def _prog_allreduce_threads(comm) -> int | None:
    for _ in range(3):
        comm.allreduce(np.ones(4))
    return blas_threads()


def _prog_raise_attempt(comm) -> int | None:
    limit_blas_threads(1 << 10)
    return blas_threads()


def _prog_native_threads(comm) -> tuple[int | None, int]:
    a = np.random.default_rng(comm.rank).random((512, 512))
    a @ a
    native = len(os.listdir("/proc/self/task")) - threading.active_count()
    return blas_threads(), native


@needs_openblas
class TestRankBudget:
    @pytest.mark.parametrize("wire", WIRES)
    def test_two_ranks_share_the_cpus(self, run_on, wire):
        want = min(blas_threads(), max(1, _cpus() // 2))
        assert run_on(wire, _prog_threads, 2) == [want, want]

    @pytest.mark.parametrize("wire", WIRES)
    def test_one_rank_keeps_the_driver_count(self, run_on, wire):
        assert run_on(wire, _prog_threads, 1) == [
            min(blas_threads(), _cpus())
        ]

    def test_budget_is_a_cap_not_a_floor(self):
        want = min(blas_threads(), max(1, _cpus() // 2))
        assert run_spmd(_prog_raise_attempt, 2) == [want, want]

    @pytest.mark.parametrize("wire", ["shm", "tcp"])
    def test_single_threaded_driver_never_raised(self, wire):
        with _driver_at(1):
            assert run_spmd(_prog_threads, 2, transport=wire) == [1, 1]
            assert run_spmd(_prog_threads, 1, transport=wire) == [1]


@needs_openblas
class TestDriverUntouched:
    def test_after_a_clean_run(self):
        before = _driver_counts()
        assert run_spmd(_prog_allreduce_threads, 2) is not None
        assert _driver_counts() == before

    def test_after_a_failed_run(self):
        before = _driver_counts()
        cfg = CommConfig(fault_plan=FaultPlan.kill(1, op_index=1, seed=3))
        with pytest.raises(RankFailureError) as exc_info:
            run_spmd(_prog_allreduce_threads, 2, config=cfg, timeout=60.0)
        assert exc_info.value.failed_ranks == (1,)
        assert _driver_counts() == before


@needs_openblas
@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/task"
)
@pytest.mark.parametrize("wire", ["shm", "tcp"])
def test_one_thread_budget_leaves_no_pool_threads(monkeypatch, wire):
    # Two usable CPUs over two ranks: a budget of one thread per rank
    # on any host (forked ranks inherit the patched affinity).  The
    # setter re-creates OpenBLAS's pool after the fork, so the pool
    # must be shut down or its idle threads outlive the budget.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = run_spmd(_prog_native_threads, 2, transport=wire)
    assert out == [(1, 0), (1, 0)]


def test_no_openblas_is_a_no_op(monkeypatch):
    before = _driver_counts()
    monkeypatch.setattr(blas, "_loaded_paths", lambda: [])
    monkeypatch.setattr(blas, "_resolved", None)
    assert blas_threads() is None
    assert limit_blas_threads(1) is None
    monkeypatch.undo()
    assert _driver_counts() == before


def test_rejects_a_non_positive_count():
    with pytest.raises(ValueError):
        limit_blas_threads(0)
