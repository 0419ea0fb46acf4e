#!/usr/bin/env python
"""CI telemetry smoke: live monitoring plus a forced-deadlock postmortem.

Run once per backend (``--backend shm`` / ``tcp`` / ``launched``):

1. **Monitored sweep** — a small ``mp_hooi_dt`` run on 4 processes
   (``launched``: a small sweep program on 4 ``launch_spmd``
   subprocesses) with a :class:`TelemetryMonitor` attached: heartbeats
   must arrive from every rank, every rank must finish ``ok``, and the
   JSONL export must validate against telemetry schema v1.
2. **Forced deadlock** — a seeded divergence (one rank exits a
   collective early), forked by ``run_spmd`` on the shm/tcp legs and
   spawned by ``launch_spmd`` on the launched leg: the raised
   ``RankFailureError`` must carry a merged causal postmortem whose
   verdict is the same literal on every leg, the flight-recorder tails
   must appear in the error message, and the monitor must log the
   ``postmortem`` record.

Artifacts (``telemetry-<backend>.jsonl``, ``postmortem-<backend>.txt``)
are written to ``--out-dir`` for upload.  Exits non-zero on any
violated expectation.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.hooi import HOOIOptions
from repro.distributed.launch import launch_spmd
from repro.distributed.mp_hooi import mp_hooi_dt
from repro.observability.telemetry import (
    TelemetryMonitor,
    validate_telemetry_jsonl,
)
from repro.tensor.random import tucker_plus_noise
from repro.vmpi.mp_comm import CommConfig, RankFailureError, run_spmd

SIZE = 4
GRID = (2, 2, 1)
SHAPE, RANKS = (16, 14, 12), (4, 4, 3)
BACKENDS = ("shm", "tcp", "launched")
#: The forced deadlock's verdict: one literal for every backend.
DEADLOCK_VERDICT = (
    "rank(s) [1] completed while ranks [0, 2, 3] still blocked in "
    "allreduce (op #2)"
)


def _deadlock_program(comm):
    """Rank 1 skips the second allreduce: ranks {0, 2, 3} hang at op #2."""
    comm.phase = "gram"
    comm.allreduce(np.ones(2))
    if comm.rank == 1:
        return "early"
    comm.allreduce(np.ones(2))
    return "late"


def _sweep_program(comm) -> int:
    """A few monitored iterations, slow enough for heartbeats."""
    for it in range(1, 4):
        comm.phase = "ttm"
        comm.note_progress(iteration=it, total=3)
        comm.allreduce(np.ones(4))
        time.sleep(0.3)
    return comm.rank


def _run(backend: str, fn, config: CommConfig, monitor) -> list:
    """``fn`` on SIZE ranks: spawned by ``launch_spmd`` for the
    launched backend, forked by ``run_spmd`` otherwise."""
    if backend == "launched":
        # Spawned ranks unpickle the program by module name, and
        # "__main__" names their own entry point: resolve it through
        # this file imported as a module.
        import telemetry_smoke

        return launch_spmd(
            getattr(telemetry_smoke, fn.__name__), SIZE, config=config,
            timeout=60.0, monitor=monitor,
        )
    return run_spmd(
        fn, SIZE, timeout=60.0, transport=backend, config=config,
        monitor=monitor,
    )


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"telemetry smoke FAILED: {what}")


def monitored_sweep(backend: str, out_dir: Path) -> None:
    mon = TelemetryMonitor(stall_after=30.0)
    x = tucker_plus_noise(SHAPE, RANKS, noise=1e-4, seed=0)
    cfg = CommConfig(telemetry_interval=0.1)
    if backend == "launched":
        _run(backend, _sweep_program, cfg, mon)
    else:
        mp_hooi_dt(
            x,
            RANKS,
            GRID,
            HOOIOptions(max_iters=2, seed=0),
            comm_config=cfg,
            transport=backend,
            monitor=mon,
        )
    path = out_dir / f"telemetry-{backend}.jsonl"
    mon.write_jsonl(str(path))
    counts = validate_telemetry_jsonl(path.read_text().splitlines())
    _check(counts.get("run") == 1, f"expected 1 run record: {counts}")
    _check(
        counts.get("final") == SIZE,
        f"expected {SIZE} final records: {counts}",
    )
    _check(counts.get("heartbeat", 0) >= SIZE, f"too few heartbeats: {counts}")
    _check(
        all(status == "ok" for status in mon.done.values()),
        f"non-ok finals: {mon.done}",
    )
    view = mon.render()
    _check("done(ok)" in view, "render missing finished ranks")
    print(f"[{backend}] monitored sweep OK: {counts}")
    print(view)


def forced_deadlock(backend: str, out_dir: Path) -> None:
    mon = TelemetryMonitor(stall_after=30.0)
    try:
        _run(
            backend,
            _deadlock_program,
            CommConfig(collective_timeout=3.0, telemetry_interval=0.1),
            mon,
        )
    except RankFailureError as exc:
        pm = exc.postmortem
        _check(pm is not None, "RankFailureError carried no postmortem")
        (out_dir / f"postmortem-{backend}.txt").write_text(
            pm.render() + "\n"
        )
        _check(pm.diverging == [1], f"diverging {pm.diverging} != [1]")
        _check(
            pm.collective == "allreduce" and pm.op_id == 2,
            f"collective {pm.collective!r} op {pm.op_id} != allreduce #2",
        )
        _check(
            pm.verdict == DEADLOCK_VERDICT,
            f"unexpected verdict: {pm.verdict}",
        )
        _check(
            "flight recorder (last" in str(exc),
            "flight tails missing from error message",
        )
        counts = validate_telemetry_jsonl(mon.jsonl())
        _check(
            counts.get("postmortem") == 1,
            f"monitor missing postmortem record: {counts}",
        )
        print(f"[{backend}] forced deadlock OK: {pm.verdict}")
        return
    raise SystemExit(
        "telemetry smoke FAILED: seeded deadlock did not raise"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", choices=BACKENDS, default="shm")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    monitored_sweep(args.backend, out_dir)
    forced_deadlock(args.backend, out_dir)
    print(f"telemetry smoke OK on {args.backend}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
