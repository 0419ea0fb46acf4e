"""Rank launcher for socket-connected SPMD runs.

:func:`repro.vmpi.mp_comm.run_spmd` forks ranks from one parent
process, which is the right tool on one host.  This module is the
other half of ROADMAP item 1: spawn ranks as *independent processes*
that find each other over TCP, in the style of hydroFlow's
``produtil.mpi_impl`` runner layer — detect what launchers exist on
the machine, build the per-rank command line, and plumb a small env
contract so the same worker entry point works whether ranks are
started by this module (loopback subprocesses), by ``ssh`` on other
hosts, or by a site scheduler.

The env contract (everything a rank needs to join a job):

``REPRO_RANK``
    This rank's index, ``0 .. world_size - 1``.
``REPRO_WORLD_SIZE``
    Number of ranks in the job.
``REPRO_RENDEZVOUS``
    ``host:port`` of the launcher's rendezvous listener.  Ranks
    announce their own mesh listener there, receive the full address
    map (:func:`repro.vmpi.transport.serve_rendezvous`), and later
    post their result to the same address.
``REPRO_BACKEND``
    Transport backend (currently ``"tcp"``; the fork path of
    ``run_spmd`` covers ``"shm"``).
``REPRO_PROGRAM``
    Path to the pickled ``(pickle.dumps(fn), args, config)`` job
    file.  Only meaningful on a shared filesystem (loopback now; for
    multi-host the job file must be shipped first — the contract
    deliberately keeps that concern out of the worker).

Entry point: ``python -m repro.distributed.launch`` reads the
contract and runs the same rank body as a forked rank
(:func:`repro.vmpi.mp_comm._rank_body` over a
:class:`~repro.vmpi.transport.TcpSocketTransport`), posting each
``(rank, status, payload)`` report over a fresh connection to the
rendezvous address.  The launcher feeds those reports to the same
collector as ``run_spmd``, so failures get the same verdict.
"""

from __future__ import annotations

import os
import pickle
import shutil
import socket
import subprocess
import sys
import tempfile
from collections.abc import Callable, Sequence

from dataclasses import replace

from repro.vmpi.mp_comm import (
    CommConfig,
    ProcessComm,
    _budget_rank_blas,
    _rank_body,
    _ReportCollector,
)
from repro.vmpi.transport import (
    CollectiveTimeoutError,
    _sock_recv_obj,
    _sock_send_obj,
    open_rendezvous_listener,
    serve_rendezvous,
)

__all__ = [
    "build_rank_command",
    "detect_runners",
    "launch_spmd",
]

#: Environment variable names of the rank contract.
ENV_RANK = "REPRO_RANK"
ENV_WORLD_SIZE = "REPRO_WORLD_SIZE"
ENV_RENDEZVOUS = "REPRO_RENDEZVOUS"
ENV_BACKEND = "REPRO_BACKEND"
ENV_PROGRAM = "REPRO_PROGRAM"


def detect_runners() -> list[str]:
    """Rank-spawn mechanisms available on this machine, best first.

    ``"fork"`` (always: ``run_spmd``'s in-process fork) and
    ``"loopback"`` (always: ``sys.executable`` subprocesses on
    127.0.0.1, this module) are unconditional; ``"ssh"`` and
    ``"mpiexec"`` are reported when the binaries exist — the env
    contract is what they would plumb, but no remote spawn is wired
    up yet.
    """
    runners = ["fork", "loopback"]
    for tool in ("ssh", "mpiexec"):
        if shutil.which(tool):
            runners.append(tool)
    return runners


def _src_root() -> str:
    """The directory that must be on ``PYTHONPATH`` for ``import
    repro`` to work in a spawned rank (the parent of the package)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def build_rank_command(
    rank: int,
    world_size: int,
    rendezvous: tuple[str, int],
    program_path: str,
    *,
    backend: str = "tcp",
    python: str | None = None,
    extra_paths: Sequence[str] = (),
) -> tuple[list[str], dict[str, str]]:
    """The ``(argv, env)`` that starts one rank of a job.

    ``env`` contains only the contract variables (plus ``PYTHONPATH``
    with the package root and any ``extra_paths`` prepended); the
    caller merges it over whatever base environment the spawn
    mechanism provides — exactly what an ``ssh`` or scheduler
    integration needs to template.
    """
    argv = [python or sys.executable, "-m", "repro.distributed.launch"]
    parts = [_src_root(), *extra_paths]
    existing = os.environ.get("PYTHONPATH", "")
    if existing:
        parts.append(existing)
    path = os.pathsep.join(dict.fromkeys(parts))
    env = {
        ENV_RANK: str(rank),
        ENV_WORLD_SIZE: str(world_size),
        ENV_RENDEZVOUS: f"{rendezvous[0]}:{rendezvous[1]}",
        ENV_BACKEND: backend,
        ENV_PROGRAM: program_path,
        "PYTHONPATH": path,
    }
    return argv, env


def launch_spmd(
    fn: Callable[..., object],
    size: int,
    *args: object,
    config: CommConfig | None = None,
    runner: str = "loopback",
    timeout: float = 120.0,
    host: str = "127.0.0.1",
    monitor: object | None = None,
) -> list[object]:
    """Run ``fn(comm, *args)`` on ``size`` socket-connected processes.

    The subprocess counterpart of
    :func:`~repro.vmpi.mp_comm.run_spmd`: ranks are spawned as fresh
    ``python -m repro.distributed.launch`` processes (no inherited
    address space, no fork), mesh up over TCP through this launcher's
    rendezvous listener, and post results back over the same listener.
    Returns each rank's return value in rank order; raises
    :class:`~repro.vmpi.mp_comm.RankFailureError` if any rank failed.
    Ranks run ``run_spmd``'s rank body and their reports go through
    its collector, so a failure gets the same failed/aborted split,
    partial profiles, and postmortem verdict as a forked tcp run.

    ``monitor`` mirrors ``run_spmd``'s parameter: ranks push periodic
    telemetry heartbeats over fresh rendezvous connections (out of
    band — never on the collective wire), routed to the monitor from
    the launcher's drain loop, and flight rings collected on failure
    are merged into a causal postmortem attached to the error.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if runner != "loopback":
        known = detect_runners()
        if runner not in known:
            raise ValueError(
                f"unknown runner {runner!r} (detected: {known})"
            )
        raise NotImplementedError(
            f"runner {runner!r}: only 'loopback' spawning is wired up; "
            f"'fork' is run_spmd's job, and remote runners need a "
            f"job-file shipping step (the env contract is ready for "
            f"them)"
        )
    cfg = config or CommConfig()
    if monitor is not None and cfg.telemetry_interval <= 0:
        cfg = replace(cfg, telemetry_interval=0.5)
    if monitor is not None:
        monitor.on_start(size, "tcp")
    listener = open_rendezvous_listener(host)
    rendezvous = listener.getsockname()[:2]
    procs: list[subprocess.Popen] = []
    program_path = None
    reports = _ReportCollector(size, cfg, monitor)
    try:
        fd, program_path = tempfile.mkstemp(
            prefix="repro-job-", suffix=".pkl"
        )
        with os.fdopen(fd, "wb") as f:
            # fn travels pre-pickled, like run_spmd's, so a rank that
            # cannot import it reports the error instead of dying.
            pickle.dump((pickle.dumps(fn), args, cfg), f)
        # The pickled program references fn by module name: make its
        # defining module importable in the spawned rank too (the
        # package root alone covers repro-internal programs).
        extra_paths = []
        mod = sys.modules.get(getattr(fn, "__module__", ""), None)
        mod_file = getattr(mod, "__file__", None)
        if mod_file:
            extra_paths.append(os.path.dirname(os.path.abspath(mod_file)))
        for rank in range(size):
            argv, env = build_rank_command(
                rank, size, rendezvous, program_path,
                extra_paths=extra_paths,
            )
            procs.append(
                subprocess.Popen(argv, env={**os.environ, **env})
            )
        if size > 1:
            serve_rendezvous(listener, size, cfg.tcp_connect_timeout)
        reports.drain(
            lambda wait: _accept_report(listener, wait),
            lambda r: procs[r].poll(),
            timeout,
        )
    finally:
        listener.close()
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                p.kill()
        if program_path is not None:
            try:
                os.unlink(program_path)
            except OSError:  # pragma: no cover - already gone
                pass
    return reports.finish(timeout)


def _accept_report(listener: socket.socket, wait: float) -> tuple | None:
    """The next ``(rank, status, payload)`` frame a rank posted to the
    rendezvous listener, or ``None`` after ``wait`` idle seconds (or a
    torn frame)."""
    listener.settimeout(wait)
    try:
        conn, _ = listener.accept()
    except OSError:  # socket.timeout included
        return None
    try:
        with conn:
            conn.settimeout(5.0)
            msg = _sock_recv_obj(conn)
    except (OSError, CollectiveTimeoutError, pickle.PickleError):
        return None
    return msg if isinstance(msg, tuple) and len(msg) == 3 else None


# ---------------------------------------------------------------------------
# worker entry point (python -m repro.distributed.launch)
# ---------------------------------------------------------------------------


def _smoke_program(comm: ProcessComm) -> float:
    """Tiny conformance program for launcher smoke tests
    (``repro run --backend tcp --smoke``): one allreduce, one
    barrier, returns the reduced value."""
    import numpy as np

    total = comm.allreduce(np.array([float(comm.rank + 1)]))
    comm.barrier()
    return float(total[0])


def _post_frame(rendezvous: tuple[str, int], frame: tuple) -> None:
    """Ship one report frame to the rendezvous listener over a fresh
    connection (connect-send-close, so no rank holds a socket the
    launcher must babysit)."""
    try:
        conn = socket.create_connection(rendezvous, timeout=10.0)
    except OSError:  # pragma: no cover - launcher already gone
        return
    try:
        _sock_send_obj(conn, frame)
    finally:
        conn.close()


def _worker_main() -> int:
    rank = int(os.environ[ENV_RANK])
    size = int(os.environ[ENV_WORLD_SIZE])
    host, _, port = os.environ[ENV_RENDEZVOUS].rpartition(":")
    rendezvous = (host, int(port))
    backend = os.environ.get(ENV_BACKEND, "tcp")
    if backend != "tcp":
        print(
            f"repro.distributed.launch: unsupported backend "
            f"{backend!r} (spawned ranks are socket-connected)",
            file=sys.stderr,
        )
        return 2
    with open(os.environ[ENV_PROGRAM], "rb") as f:
        fn_bytes, args, cfg = pickle.load(f)
    _budget_rank_blas(size)
    _rank_body(
        fn_bytes, rank, size,
        lambda status, payload: _post_frame(
            rendezvous, (rank, status, payload)
        ),
        cfg, args,
        backend="tcp",
        rendezvous=rendezvous if size > 1 else None,
    )
    return 0


if __name__ == "__main__":
    sys.exit(_worker_main())
