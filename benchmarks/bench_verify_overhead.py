"""Verify-mode overhead on ``mp_hooi_dt``.

Times the dimension-tree HOOI sweep loop on real processes with
``CommConfig(verify=False)`` against ``verify=True`` — the tier-2
collective-matching verifier, wait-for deadlock monitor, and shm
sanitizer all armed — on the same worker set.  Per mode: a warm-up
iteration (builds segment pools, faults in buffers), a barrier, then
``REPS`` timed iterations; the reported figure is the slowest rank's
per-iteration time, best of ``TRIALS`` launches.

Acceptance (non-smoke): verify overhead stays **below 10%** on the
guard shape.  The verifier's control round is a handful of sub-KB
frames on the ordinary message stream per collective, so its cost is
a fixed per-collective
latency — on the paper-scale shapes where bandwidth and FLOPs
dominate, it vanishes; the guard shape is sized so compute dominates
the same way.  Plain/verify launches are *interleaved* and each mode
takes its best-of-trials, so slow scheduler phases on a shared host
cannot bias one mode.  Smoke mode (``MP_BENCH_SMOKE=1``, the CI
path) runs a tiny shape where that fixed latency IS the runtime, so
it only checks completion + bit-identity, not the ratio.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _util import save_json, save_result
from repro.analysis.reporting import format_table
from repro.core.dimension_tree import hooi_iteration_dt
from repro.distributed.layout import BlockLayout
from repro.distributed.mp_hooi import MPTreeEngine
from repro.tensor.random import random_orthonormal, tucker_plus_noise
from repro.vmpi.grid import ProcessorGrid
from repro.vmpi.mp_comm import CommConfig, ProcessComm, run_spmd

#: CI smoke mode: tiny tensor, one trial, no overhead-ratio assertion.
SMOKE = os.environ.get("MP_BENCH_SMOKE", "") == "1"

SHAPE, RANKS, GRID = (224, 224, 224), (56, 56, 56), (2, 2, 1)
REPS = 3
TRIALS = 5
MAX_OVERHEAD = 0.10
if SMOKE:
    SHAPE, RANKS = (10, 10, 10), (3, 3, 3)
    REPS = 1
    TRIALS = 1


def _sweep_program(
    comm: ProcessComm,
    blocks: list[np.ndarray],
    grid_dims: tuple[int, ...],
    shape: tuple[int, ...],
    ranks: tuple[int, ...],
    reps: int,
) -> tuple[float, np.ndarray]:
    """Per-iteration seconds for the memoized HOOI sweep, plus the
    first factor after the timed reps (for the bit-identity check)."""
    grid = ProcessorGrid(grid_dims)
    coords = grid.coords(comm.rank)
    layout = BlockLayout(shape, grid)
    rng = np.random.default_rng(0)
    factors = [
        random_orthonormal(n, r, seed=rng) for n, r in zip(shape, ranks)
    ]
    engine = MPTreeEngine(comm, coords, factors, ranks, memoize=True)
    state = (blocks[comm.rank], layout, ())

    hooi_iteration_dt(state, engine)  # warm-up
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(reps):
        hooi_iteration_dt(state, engine)
    dt = time.perf_counter() - t0
    return dt / reps, factors[0]


def _launch(
    blocks: list[np.ndarray], verify: bool
) -> tuple[float, np.ndarray]:
    """One ``run_spmd`` launch; slowest rank's per-iteration time."""
    outs = run_spmd(
        _sweep_program,
        len(blocks),
        blocks,
        tuple(GRID),
        tuple(SHAPE),
        tuple(RANKS),
        REPS,
        timeout=600.0,
        config=CommConfig(verify=verify),
    )
    return max(o[0] for o in outs), outs[0][1]


def test_verify_overhead(benchmark):
    def run():
        grid = ProcessorGrid(GRID)
        layout = BlockLayout(SHAPE, grid)
        x = tucker_plus_noise(SHAPE, RANKS, noise=1e-3, seed=7)
        blocks = [
            np.ascontiguousarray(x[layout.local_slices(coords)])
            for _, coords in grid.iter_ranks()
        ]
        # Interleave modes so a slow phase of the host machine hits
        # both equally; best-of-trials per mode rejects the spikes.
        t_plain, t_verify = float("inf"), float("inf")
        f_plain = f_verify = None
        for _ in range(TRIALS):
            t, f_plain = _launch(blocks, verify=False)
            t_plain = min(t_plain, t)
            t, f_verify = _launch(blocks, verify=True)
            t_verify = min(t_verify, t)
        overhead = t_verify / t_plain - 1.0
        # Verify mode must never perturb the numbers, at any size.
        assert f_plain is not None and f_verify is not None
        assert np.array_equal(f_plain, f_verify)
        return t_plain, t_verify, overhead

    t_plain, t_verify, overhead = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    save_result(
        "verify_overhead",
        format_table(
            ["shape", "grid", "plain ms", "verify ms", "overhead"],
            [
                [
                    "x".join(map(str, SHAPE)),
                    "x".join(map(str, GRID)),
                    t_plain * 1e3,
                    t_verify * 1e3,
                    f"{overhead * 100:.1f}%",
                ]
            ],
            title="mp_hooi_dt sweep: verify=True overhead "
            "(per iteration, slowest rank)",
        ),
    )
    save_json(
        "verify_overhead",
        {
            "plain_seconds": t_plain,
            "verify_seconds": t_verify,
            "overhead_ratio": overhead,
        },
        params={
            "shape": list(SHAPE),
            "ranks": list(RANKS),
            "grid": list(GRID),
            "reps": REPS,
            "trials": TRIALS,
        },
    )
    if SMOKE:
        # Latency-bound toy shape: completing with bit-identical
        # factors is the acceptance; the ratio is meaningless here.
        return
    assert overhead < MAX_OVERHEAD, (
        f"verify overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}%"
    )
