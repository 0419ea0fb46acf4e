"""Host calibration and single-layer probes, all through public APIs.

- BLAS vendor and effective thread count, ``nproc``, last-level cache;
- GEMM peak from a compute-bound ``repro.kernels.ttm`` call and copy
  bandwidth from an array at least 4x the last-level cache;
- ping-pong through ``ProcessComm.send``/``recv`` on each wire, fitted
  to ``t = alpha + beta * bytes`` with
  ``repro.vmpi.collectives.fit_alpha_beta``, and the raw floors
  (``multiprocessing.Pipe`` for shm, a loopback TCP socket for tcp);
- a no-op ``run_spmd`` world, and a replay of a solve's recorded
  collective sequence with no compute;
- two recorders installed from outside while a traced solve runs:
  one records rank 0's collective calls (for the replay), one counts
  the bytes the TTM kernel calls touch.  Ranks are forked, so the
  patches and the shared counters reach them.
"""

from __future__ import annotations

import ctypes
import inspect
import multiprocessing as mp
import os
import socket
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

import repro.distributed.kernels as dist_kernels
from repro.kernels import ttm as kernel_ttm
from repro.vmpi.collectives import fit_alpha_beta
from repro.vmpi.mp_comm import ProcessComm, run_spmd

_FORK = mp.get_context("fork")

#: Ping-pong sizes (bytes) of the alpha-beta fit.
FIT_SIZES = (8, 256, 4096, 65536, 262144, 1048576)


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker the
    shared-memory transport started, so no process outlives the run
    (``_stop`` is the only way to wait for it)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# -- host facts -------------------------------------------------------------


def blas_info() -> dict:
    """BLAS library and its effective thread count, read from the
    library NumPy loaded (OpenBLAS exports a thread-count getter)."""
    info: dict = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in os.path.basename(path).lower() and ".so" in path:
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def llc_bytes() -> int | None:
    """Size of the highest-level CPU cache, from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best: tuple[int, int] | None = None
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = int(fh.read())
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        nbytes = int(size.rstrip("KMG")) * mult
        if best is None or level > best[0]:
            best = (level, nbytes)
    return None if best is None else best[1]


def gemm_peak_gflops(dtype) -> float:
    """Best of three compute-bound TTMs: a 1024 x 1024 operand on a
    1024 x 64 x 64 tensor (8.6 GF each)."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1024, 64, 64)).astype(dtype)
    u = rng.standard_normal((1024, 1024)).astype(dtype)
    flops = 2.0 * 1024 * x.size
    kernel_ttm(x, u, 0)
    best = min(_timed(lambda: kernel_ttm(x, u, 0)) for _ in range(3))
    return flops / best / 1e9


def copy_bandwidth(llc: int | None) -> tuple[float | None, int]:
    """Read+write GB/s of an in-place pass over an array of at least
    4x the last-level cache (and at least 1.2 GB); ``None`` when the
    host lacks the memory to hold it twice over."""
    nbytes = max(4 * (llc or 0), 1_200_000_000)
    avail = _mem_available()
    if avail is None or avail < 2 * nbytes:
        return None, nbytes
    a = np.ones(nbytes // 8)
    try:
        best = min(
            _timed(lambda: np.multiply(a, 1.0, out=a)) for _ in range(2)
        )
    finally:
        del a
    return 2.0 * nbytes / best / 1e9, nbytes


def _mem_available() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- ping-pong through ProcessComm -----------------------------------------


def _pingpong_program(comm, sizes, reps):
    out = {}
    peer = 1 - comm.rank
    for nbytes in sizes:
        buf = np.zeros(max(nbytes // 8, 1))
        comm.barrier()
        rtts = []
        for i in range(reps(nbytes) + 2):
            t0 = time.perf_counter()
            if comm.rank == 0:
                comm.send(peer, buf)
                comm.recv(peer)
            else:
                comm.recv(peer)
                comm.send(peer, buf)
            if i >= 2:
                rtts.append(time.perf_counter() - t0)
        out[nbytes] = statistics.median(rtts) / 2.0
    return out


def _reps(nbytes: int) -> int:
    return 60 if nbytes < 65536 else (20 if nbytes < 1 << 20 else 8)


def comm_pingpong(wire: str, sizes) -> dict[int, float]:
    """Median one-way seconds per size through ProcessComm send/recv."""
    outs = run_spmd(
        _pingpong_program, 2, tuple(sizes), _reps, transport=wire
    )
    return outs[0]


def fit_wire(wire: str) -> dict:
    oneway = comm_pingpong(wire, FIT_SIZES)
    alpha, beta = fit_alpha_beta(list(oneway), list(oneway.values()))
    return {
        "alpha_s": alpha,
        "beta_s_per_byte": beta,
        "oneway_s": {str(k): v for k, v in oneway.items()},
    }


# -- raw floors ---------------------------------------------------------------


def _pipe_echo(conn, count):
    for _ in range(count):
        conn.send_bytes(conn.recv_bytes())
    conn.close()


def pipe_oneway(nbytes: int) -> float:
    """Median one-way seconds over a raw duplex ``multiprocessing.Pipe``."""
    count = _reps(nbytes) + 2
    a, b = _FORK.Pipe(duplex=True)
    proc = _FORK.Process(target=_pipe_echo, args=(b, count))
    proc.start()
    b.close()
    payload = bytes(nbytes)
    rtts = []
    try:
        for i in range(count):
            t0 = time.perf_counter()
            a.send_bytes(payload)
            a.recv_bytes()
            if i >= 2:
                rtts.append(time.perf_counter() - t0)
    finally:
        a.close()
        proc.join(30)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return statistics.median(rtts) / 2.0


def _recv_exact(sock, n):
    view = memoryview(bytearray(n))
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            raise ConnectionError("peer closed")
        got += k
    return view


def _socket_echo(port, nbytes, count):
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for _ in range(count):
            s.sendall(_recv_exact(s, nbytes))


def socket_oneway(nbytes: int) -> float:
    """Median one-way seconds over a raw loopback TCP socket."""
    count = _reps(nbytes) + 2
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]
        proc = _FORK.Process(target=_socket_echo, args=(port, nbytes, count))
        proc.start()
        rtts = []
        try:
            conn, _ = srv.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                payload = bytes(nbytes)
                for i in range(count):
                    t0 = time.perf_counter()
                    conn.sendall(payload)
                    _recv_exact(conn, nbytes)
                    if i >= 2:
                        rtts.append(time.perf_counter() - t0)
        finally:
            proc.join(30)
            if proc.is_alive():
                proc.kill()
                proc.join()
    return statistics.median(rtts) / 2.0


def floor_oneway(wire: str, nbytes: int) -> float:
    return pipe_oneway(nbytes) if wire == "shm" else socket_oneway(nbytes)


# -- worlds and replay -----------------------------------------------------


def _noop(comm):
    return None


def world_seconds(wire: str, count: int = 5) -> float:
    """Median wall time of ``run_spmd`` of a no-op program at P=2."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        run_spmd(_noop, 2, transport=wire)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_OPS = ("allreduce", "reduce_scatter", "allgather", "bcast", "gather", "barrier")


def _replay_program(comm, records):
    comm.barrier()
    t0 = time.perf_counter()
    for op_code, group_size, words, itemsize, root in records:
        op = _OPS[int(op_code)]
        group = None if int(group_size) == comm.size else (comm.rank,)
        block = np.zeros(int(words), dtype=np.float32 if itemsize == 4 else np.float64)
        if op == "allreduce":
            comm.allreduce(block, group=group)
        elif op == "reduce_scatter":
            comm.reduce_scatter(block, axis=0, group=group)
        elif op == "allgather":
            comm.allgather(block, axis=0, group=group)
        elif op == "bcast":
            comm.bcast(block, root=int(root) if group is None else comm.rank, group=group)
        elif op == "gather":
            comm.gather(block, root=int(root) if group is None else comm.rank, group=group)
        else:
            comm.barrier(group=group)
    return time.perf_counter() - t0


def replay_seconds(records: list[tuple], wire: str) -> float:
    """Slowest rank's time to replay ``records`` with no compute."""
    return max(run_spmd(_replay_program, 2, records, transport=wire))


def largest_message_bytes(records: list[tuple]) -> int:
    """Largest message of a recorded P=2 collective sequence: pairwise
    reduce-scatter sends half its block, the others the whole block."""
    out = 0
    for op_code, group_size, words, itemsize, _ in records:
        if group_size >= 2:
            nbytes = int(words * itemsize)
            if _OPS[int(op_code)] == "reduce_scatter":
                nbytes //= 2
            out = max(out, nbytes)
    return out


# -- recorders installed from outside -------------------------------------

_MAX_RECORDS = 8192


class SolveRecorder:
    """Shared counters the forked ranks write into while installed:
    rank 0's collective calls as ``(op code, group size, words, item
    size, root)``, and the bytes every ``ttm`` call of the distributed
    kernels reads and writes (operand, matrix and result)."""

    def __init__(self) -> None:
        self._lock = _FORK.Lock()
        self._records = _FORK.RawArray("d", 5 * _MAX_RECORDS)
        self._count = _FORK.RawValue("l", 0)
        self._ttm_bytes = _FORK.RawValue("d", 0.0)

    def reset(self) -> None:
        with self._lock:
            self._count.value = 0
            self._ttm_bytes.value = 0.0

    @property
    def collectives(self) -> list[tuple]:
        n = min(self._count.value, _MAX_RECORDS)
        r = self._records
        return [tuple(r[5 * i : 5 * i + 5]) for i in range(n)]

    @property
    def ttm_bytes(self) -> float:
        return self._ttm_bytes.value

    def _note_collective(self, comm, op: str, args: dict) -> None:
        block = args.get("block")
        arr = np.zeros(0) if block is None else np.asarray(block)
        group = args.get("group")
        with self._lock:
            i = self._count.value
            if i < _MAX_RECORDS:
                self._records[5 * i : 5 * i + 5] = [
                    float(_OPS.index(op)),
                    float(comm.size if group is None else len(group)),
                    float(arr.size),
                    float(arr.dtype.itemsize),
                    float(args.get("root", 0)),
                ]
            self._count.value = i + 1

    def _note_ttm(self, nbytes: int) -> None:
        with self._lock:
            self._ttm_bytes.value += nbytes

    @contextmanager
    def installed(self) -> Iterator["SolveRecorder"]:
        originals = {op: getattr(ProcessComm, op) for op in _OPS}
        orig_ttm = dist_kernels.ttm
        depth = [0]  # collectives built from other collectives count once

        def wrap(op):
            fn = originals[op]
            sig = inspect.signature(fn)

            def wrapper(comm, *args, **kw):
                if depth[0] == 0 and comm.rank == 0:
                    self._note_collective(comm, op, sig.bind(comm, *args, **kw).arguments)
                depth[0] += 1
                try:
                    return fn(comm, *args, **kw)
                finally:
                    depth[0] -= 1

            return wrapper

        def counting_ttm(tensor, matrix, mode, *, transpose=False):
            out = orig_ttm(tensor, matrix, mode, transpose=transpose)
            self._note_ttm(tensor.nbytes + matrix.nbytes + out.nbytes)
            return out

        for op in _OPS:
            setattr(ProcessComm, op, wrap(op))
        dist_kernels.ttm = counting_ttm
        try:
            yield self
        finally:
            for op, fn in originals.items():
                setattr(ProcessComm, op, fn)
            dist_kernels.ttm = orig_ttm
