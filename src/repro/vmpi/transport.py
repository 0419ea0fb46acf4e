"""Point-to-point transports for the process-parallel layer.

:class:`~repro.vmpi.mp_comm.ProcessComm` runs its collective
algorithms over a :class:`Transport`: tagged, non-blocking ``send`` /
blocking ``recv`` point-to-point messaging plus the lifecycle,
fault-injection, verification, and profiling hooks the rest of the
stack taps.  Every wire moves every kind of traffic — payloads,
control rounds, free-credits, revoke notices — as length-prefixed
pickled frames over one connected stream socket per peer
(``socket`` + ``selectors``, non-blocking with buffered writes so
symmetric exchange patterns cannot deadlock on full socket buffers; a
writer thread delivers whatever the kernel could not take at once, so
a frame arrives even while its sender computes).
A peer that exits or dies closes its sockets, so a survivor waiting on
it learns in-band on either wire — :class:`TransportClosedError` for a
peer that failed or died, :class:`CollectiveTimeoutError` for one
whose program returned (a divergence).  The two backends differ only
in how the sockets are made and how large arrays are encoded:

* :class:`ShmPoolTransport` — the fast single-host default.  The
  sockets come from :func:`socketpair_mesh` (one ``socketpair`` per
  rank pair, made by the launcher before it forks); NumPy payloads
  above ``CommConfig.shm_min_bytes`` travel through *pooled*
  ``multiprocessing.shared_memory`` segments without pickling, the
  frame carrying only the segment header (two memcpys and one credit
  frame in steady state).
* :class:`TcpSocketTransport` — per-peer persistent TCP connections.
  Ranks find each other through a tiny rendezvous server
  (:func:`serve_rendezvous`) reached via a ``host:port`` the launcher
  plumbs in — the same env contract whether ranks are forked locally,
  spawned as loopback subprocesses by
  :mod:`repro.distributed.launch`, or (later) started over ssh on
  other hosts.

The contract that makes backends interchangeable:

* **Counters** (``sent_words``/``sent_bytes``/... ) account *payload*
  array words/bytes, not wire encodings, so
  :class:`~repro.vmpi.trace.CollectiveRecord` traces are identical
  across backends (``shm_messages`` is the one backend-specific
  column: it counts zero-copy segment rides and is 0 on TCP).
* **Fault hooks** (:class:`~repro.vmpi.faults.FaultInjector`) fire at
  the transport boundary in :meth:`Transport.send`, so seeded
  delay/drop/bitflip plans corrupt shm segments and TCP frames alike.
* **Timeouts** all surface as :class:`CollectiveTimeoutError`
  (:class:`TransportClosedError`, a subclass, for a peer that
  vanished), so retry-with-backoff, purge-on-timeout, and the
  launcher's failure detection work unchanged.
* **Control traffic** (:meth:`Transport.ctrl_send` /
  :meth:`Transport.ctrl_recv`, used by the tier-2 verifier) and the
  shm free-credits are counter-neutral, so verified runs stay
  trace-identical to plain runs on every backend.
"""

from __future__ import annotations

import os
import pickle
import random
import selectors
import socket
import struct
import threading
import time
from collections import deque

import numpy as np

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover - platform without shm
    _shm_mod = None

__all__ = [
    "CollectiveTimeoutError",
    "ShmPoolTransport",
    "TcpSocketTransport",
    "Transport",
    "TransportClosedError",
    "WorldRevokedError",
    "open_rendezvous_listener",
    "serve_rendezvous",
    "socketpair_mesh",
]


class CollectiveTimeoutError(RuntimeError):
    """A communicator wait exceeded ``CommConfig.collective_timeout``.

    Raised instead of hanging when collective call sequences diverge
    across ranks (mismatched operations, different call counts) or a
    peer died.
    """


class TransportClosedError(CollectiveTimeoutError):
    """A peer connection broke or closed mid-conversation.

    Subclasses :class:`CollectiveTimeoutError` so every existing
    timeout path (purge, retry-with-backoff, launcher abort) treats a
    vanished peer exactly like a diverged one — just without waiting
    out the full collective timeout.
    """


class WorldRevokedError(RuntimeError):
    """The communicator was revoked after a peer failure.

    ULFM-style: once a surviving rank sees a peer die (a
    :class:`TransportClosedError`), it posts a revoke notice on
    :data:`_REVOKE_TAG`; every blocked ``recv`` on the receiving
    transport then raises this instead of waiting out its timeout.
    Deliberately *not* a :class:`CollectiveTimeoutError` subclass: the
    retry-with-backoff path must not swallow a revoke (the world is
    not coming back), it must surface to the recovery handler.
    """

    def __init__(self, message: str, failed: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        #: best-effort hint of the dead ranks carried by the notice.
        self.failed_hint = tuple(failed)


# ---------------------------------------------------------------------------
# payload helpers (shared by all backends)
# ---------------------------------------------------------------------------


def _contig(a: np.ndarray) -> np.ndarray:
    """C-contiguous view/copy that, unlike ``np.ascontiguousarray``,
    preserves 0-d shapes."""
    a = np.asarray(a)
    return a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)


def _payload_arrays(payload: object) -> list[tuple[object, np.ndarray]] | None:
    """View a payload as keyed arrays, or ``None`` if it is not one.

    Collectives move either a bare ``ndarray`` or a ``dict`` mapping
    group positions to ``ndarray`` chunks; anything else (tags, tokens,
    user objects) takes the pickle path.
    """
    if isinstance(payload, np.ndarray):
        return [(None, payload)]
    if isinstance(payload, dict) and payload and all(
        isinstance(v, np.ndarray) for v in payload.values()
    ):
        return list(payload.items())
    return None


def _unregister_shm(shm) -> None:
    """Detach ``shm`` from this process's resource tracker.

    The receiving rank unlinks every segment after copying it out; the
    creator must forget it or the (fork-shared) resource tracker would
    warn about, and double-unlink, segments at interpreter shutdown.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _unlink_segment(shm) -> None:
    """Remove a segment's backing file without touching the resource
    tracker.

    ``SharedMemory.unlink()`` also unregisters the name, but every
    process already unregistered at create/attach time (fork shares one
    tracker, so unmatched unregisters make it spew KeyErrors)."""
    try:
        os.unlink(os.path.join("/dev/shm", shm._name.lstrip("/")))
    except OSError:  # pragma: no cover - already swept / non-Linux
        pass


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _segment_class(nbytes: int) -> int:
    """Pooled segments come in power-of-two size classes (>= 256 B) so
    a freed segment can be reused for any later payload of its class."""
    size = 256
    while size < nbytes:
        size <<= 1
    return size


# Transport-internal tag on which a receiver returns a drained segment
# to its owner for reuse.  Credit traffic, not data traffic: it is
# excluded from the message counters the cost formulas are checked
# against (like the rendezvous control messages of a real MPI).
_FREE_TAG = ("shmfree",)

# Revoke notices (elastic recovery).  Counter-neutral like the free
# credits: a revoked run must leave the CollectiveRecord traces of the
# work done so far identical to an unfailed run's prefix.  The body is
# a sequence of suspected-dead ranks, posted by a surviving rank that
# saw a peer's connection close.
_REVOKE_TAG = ("revoke",)

# Sent by a rank whose program returned, just before its stream
# closes.  A later wait on that rank is a divergence of the waiter's
# schedule (a primary failure, CollectiveTimeoutError), not the
# casualty of a death (TransportClosedError).  Counter-neutral.
_BYE_TAG = ("bye",)

#: Lazily resolved races._TracedBody (the analysis package imports the
#: distributed drivers, which import this module — a module-scope
#: import here would be circular, exactly like the verifier hooks).
_TRACED_BODY = None


def _traced_body_cls():
    global _TRACED_BODY
    if _TRACED_BODY is None:
        from repro.analysis.verify.races import _TracedBody

        _TRACED_BODY = _TracedBody
    return _TRACED_BODY


#: Frame header: 8-byte big-endian payload length.
_LEN = struct.Struct(">Q")

#: Per-syscall read/write granularity.
_IO_CHUNK = 1 << 20


def socketpair_mesh(size: int) -> list[dict[int, socket.socket]]:
    """One connected ``socketpair`` per rank pair: ``mesh[r][p]`` is
    rank ``r``'s end of its stream to rank ``p``.

    The launcher makes the mesh before it starts the ranks and hands
    each rank only its own row; every other end must be closed in
    that process, or a rank's death never reaches its peers as EOF.
    """
    mesh: list[dict[int, socket.socket]] = [{} for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            mesh[i][j], mesh[j][i] = socket.socketpair()
    return mesh


# ---------------------------------------------------------------------------
# the Transport: one framed stream per peer
# ---------------------------------------------------------------------------


class Transport:
    """Tagged point-to-point messaging between SPMD ranks.

    ``send`` never blocks (outbound frames are buffered per peer; what
    the kernel does not take at once, a writer thread delivers as the
    peer reads) so the symmetric exchange patterns of the collective
    algorithms cannot deadlock, and a sender that goes back to compute
    does not stall its receivers; ``recv``
    buffers out-of-order arrivals by ``(source, tag)`` and raises
    :class:`CollectiveTimeoutError` when nothing arrives in time.

    The wire is one connected stream socket per peer (``peers`` maps
    peer rank to socket; subclasses may attach them later via
    :meth:`_attach`).  Every message — payloads, control rounds,
    free-credits, revoke notices — is one frame,
    ``8-byte big-endian length || pickle((tag, body))``, posted by
    :meth:`_post` and parsed into the pending buffers by :meth:`_pump`.
    Subclasses choose only how array payloads are encoded
    (:meth:`_encode` / :meth:`_decode`).  A wait on a peer whose
    socket closed fails as soon as no buffered message from it
    matches (:meth:`_check_peer`; mid-frame closes are reported as
    torn frames with the byte counts), feeding the same failure paths
    as a collective timeout.

    The hook attributes (``injector``, ``sanitizer``, ``monitor``,
    ``profiler``) are installed by :class:`~repro.vmpi.mp_comm.
    ProcessComm` / the launcher; ``None`` keeps every boundary at a
    single ``is None`` test.
    """

    #: backend name, e.g. ``"shm"`` / ``"tcp"`` (``repro run --backend``).
    kind = "stream"
    #: whether payloads may ride pooled shared-memory segments — gates
    #: the shm-lifecycle sanitizer (meaningless on socket backends).
    uses_shm_pool = False

    #: A blocked recv registers on the wait-for board immediately but
    #: only starts probing for cycles after this long — transient
    #: cycles of correct send-then-recv patterns (ring allgather,
    #: dissemination barrier) resolve within a message latency and
    #: never survive until the probe phase, let alone two stable
    #: probes.
    _PROBE_AFTER = 1.0
    #: Poll slice while a deadlock monitor is watching (the monitor
    #: needs wake-ups to probe; without one the socket wait can park a
    #: full second per slice).
    _PROBE_SLICE = 0.25

    def __init__(
        self,
        rank: int,
        size: int,
        config,
        peers: dict[int, socket.socket] | None = None,
    ) -> None:
        self.rank = rank
        self.size = size
        self._config = config
        #: set by ProcessComm when a FaultPlan targets this rank.
        self.injector = None
        #: verify mode only: shm lifecycle state machine and wait-for
        #: board (both from repro.analysis.verify.runtime, installed
        #: lazily by ProcessComm so the import stays one-directional).
        self.sanitizer = None
        self.monitor = None
        #: profile mode only: the rank's SpanProfiler (installed by
        #: ProcessComm) — recv() splits its time into blocked-wait vs
        #: copy-out histograms.  None keeps the hot path at one test.
        self.profiler = None
        #: race_detect mode only: the process-global happens-before
        #: detector (repro.analysis.verify.races, installed lazily by
        #: ProcessComm).  Sends snapshot the sender's vector clock
        #: onto a per-(src, dst) channel, arrivals carry it to the
        #: consuming thread, and shm segment accesses plus endpoint
        #: occupancy are checked.  None keeps every boundary at one
        #: `is None` test, like the other hooks.
        self.race_detector = None
        #: always-on flight recorder (repro.observability.telemetry,
        #: installed by ProcessComm unless CommConfig.flight is off) —
        #: send() logs one "post" event per outbound payload.  A pure
        #: observer: nothing on the payload path changes, and None
        #: keeps the boundary at one `is None` test like the other
        #: hooks.
        self.flight = None
        #: elastic recovery: set when a revoke notice arrives on
        #: :data:`_REVOKE_TAG`; every blocked wait then raises
        #: :class:`WorldRevokedError` unless ``_in_recovery`` is set
        #: (the agreement rounds themselves must keep receiving).
        self.revoked = False
        self.revoked_hint: set[int] = set()
        self._in_recovery = False
        self._finished: set[int] = set()  # peers that said bye
        self._pending: dict[tuple, deque] = {}
        self.sent_messages = 0
        self.sent_words = 0
        self.sent_bytes = 0
        self.recv_messages = 0
        self.recv_words = 0
        self.recv_bytes = 0
        self.shm_messages = 0
        self._sel = selectors.DefaultSelector()
        self._peers: dict[int, socket.socket] = {}
        self._rx: dict[int, bytearray] = {}
        self._tx: dict[int, bytearray] = {}
        # Peers whose connection closed, with the failure seen reading
        # it ("" for a plain close); only a receive judges them.
        self._gone: dict[int, str] = {}
        self._deaf: set[int] = set()  # peers that refused a write
        self._closed = False
        # Guards _tx and socket writes: output the kernel could not take
        # at once is left in _backlog for the writer thread.
        self._tx_lock = threading.Condition()
        self._backlog: set[int] = set()
        self._writer: threading.Thread | None = None
        # Reused receive buffer: a fresh 1 MiB bytes object per recv()
        # costs an mmap/munmap pair, several times a small frame's
        # whole trip.
        self._scratch = memoryview(bytearray(_IO_CHUNK))
        if peers:
            self._attach(peers)

    def _attach(self, peers: dict[int, socket.socket]) -> None:
        """Adopt connected per-peer sockets as the wire."""
        for peer, sock in peers.items():
            sock.setblocking(False)
            self._peers[peer] = sock
            self._rx[peer] = bytearray()
            self._tx[peer] = bytearray()
            self._sel.register(sock, selectors.EVENT_READ, peer)

    def counters(self) -> tuple[int, ...]:
        return (
            self.sent_messages,
            self.sent_words,
            self.sent_bytes,
            self.recv_messages,
            self.recv_words,
            self.recv_bytes,
            self.shm_messages,
        )

    # -- the stream wire ----------------------------------------------------

    def _post(self, dest: int, tag: tuple, body: object) -> None:
        """Raw wire write of an already-encoded body — no counters, no
        fault hooks (control traffic and free-credits ride this).

        A peer that closed its connection can read nothing more, so
        frames for it are dropped: the failure surfaces at the next
        receive that depends on that peer (:meth:`_check_peer`), which
        alone can tell a divergence from a death.
        """
        if dest in self._gone or dest in self._deaf:
            return
        det = self.race_detector
        if det is not None:
            det.channel_send((self.rank, dest))
        if dest == self.rank:
            # Self-sends never touch the wire: they land straight in
            # the pending map.
            self._note(dest, tag, body)
            return
        data = pickle.dumps((tag, body), protocol=pickle.HIGHEST_PROTOCOL)
        with self._tx_lock:
            buf = self._tx[dest]
            buf += _LEN.pack(len(data))
            buf += data
            if self._flush(dest) or dest in self._backlog:
                return
            self._backlog.add(dest)
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._write_backlog,
                    name=f"transport-writer-r{self.rank}",
                    daemon=True,
                )
                self._writer.start()
            else:
                self._tx_lock.notify()

    def _send_payload(self, dest: int, tag: tuple, payload: object) -> None:
        """Encode ``payload``, account it, and post it to ``dest``."""
        arrays = _payload_arrays(payload)
        if arrays is not None:
            contig = [(k, _contig(a)) for k, a in arrays]
            self.sent_words += sum(a.size for _, a in contig)
            self.sent_bytes += sum(a.nbytes for _, a in contig)
            body = self._encode(contig, isinstance(payload, np.ndarray))
        else:
            body = ("pkl", payload)
        self.sent_messages += 1
        self._post(dest, tag, body)

    def _encode(
        self, contig: list[tuple[object, np.ndarray]], single: bool
    ) -> tuple:
        """Wire body of a contiguous array payload (pickled in-frame;
        protocol 5 keeps the encode side zero-copy)."""
        return ("pkl", contig[0][1] if single else dict(contig))

    def _flush(self, peer: int) -> bool:
        """Write as much buffered output to ``peer`` as the kernel
        accepts (caller holds ``_tx_lock``); True once none is left."""
        buf = self._tx[peer]
        sock = self._peers[peer]
        while buf:
            try:
                n = sock.send(memoryview(buf)[:_IO_CHUNK])
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                # The peer closed: drop what it can never read, and
                # every later frame for it.  The read side still
                # parses its last frames (a bye) and its EOF, in
                # order, before judging it.
                buf.clear()
                self._deaf.add(peer)
                break
            del buf[:n]
        return True

    def _write_backlog(self) -> None:
        """Writer thread: deliver the backlog as peers read it, so a
        sender that returns to compute (or never calls the transport
        again) still gets its frames through.  Exits on :meth:`close`,
        which lingers over whatever is left."""
        sel = selectors.DefaultSelector()
        try:
            while True:
                with self._tx_lock:
                    for peer in list(self._backlog):
                        if self._flush(peer):
                            self._backlog.discard(peer)
                    while not self._backlog and not self._closed:
                        self._tx_lock.wait()
                    if self._closed:
                        return
                    socks = {self._peers[p]: p for p in self._backlog}
                for key in list(sel.get_map().values()):
                    if key.fileobj not in socks:
                        sel.unregister(key.fileobj)
                for sock, peer in socks.items():
                    if sock not in sel.get_map():
                        sel.register(sock, selectors.EVENT_WRITE, peer)
                sel.select(0.01)
        finally:
            sel.close()

    def _mark_gone(self, peer: int, why: str = "") -> None:
        self._gone[peer] = why
        try:
            self._sel.unregister(self._peers[peer])
        except (KeyError, ValueError):  # pragma: no cover - already out
            pass

    def _read(self, peer: int) -> None:
        sock = self._peers[peer]
        buf = self._rx[peer]
        scratch = self._scratch
        closed = False
        while True:
            try:
                n = sock.recv_into(scratch)
            except (BlockingIOError, InterruptedError):
                break
            except ConnectionResetError:
                # The peer closed with our frames (credits, notices)
                # still unread on its side: everything it sent has
                # been read, so this is an ordinary close.
                closed = True
                break
            except OSError as exc:
                why = (
                    f"rank {self.rank}: connection from rank {peer} "
                    f"failed mid-recv ({exc})"
                )
                self._mark_gone(peer, why)
                raise TransportClosedError(why) from exc
            if not n:
                closed = True
                break
            buf += scratch[:n]
            if n < _IO_CHUNK:
                break  # drained for now; selector wakes us for more
        self._parse(peer)
        if closed:
            if not buf:
                self._mark_gone(peer)
                return
            promised = (
                _LEN.unpack_from(buf)[0] if len(buf) >= _LEN.size else None
            )
            why = (
                f"rank {self.rank}: rank {peer} closed the connection "
                f"mid-frame — partial recv of {len(buf)} bytes"
                + (
                    f" of a frame promising {promised}"
                    if promised is not None
                    else " (incomplete header)"
                )
                + " (torn frame)"
            )
            self._mark_gone(peer, why)
            raise TransportClosedError(why)

    def _parse(self, peer: int) -> None:
        buf = self._rx[peer]
        while len(buf) >= _LEN.size:
            (n,) = _LEN.unpack_from(buf)
            end = _LEN.size + n
            if len(buf) < end:
                break
            tag, body = pickle.loads(bytes(memoryview(buf)[_LEN.size:end]))
            del buf[:end]
            self._note(peer, tag, body)

    def _pump(self, timeout: float) -> None:
        """Block up to ``timeout`` seconds for inbound traffic, moving
        every arrival into the pending buffers via :meth:`_note`."""
        if not self._peers or self._closed:
            if timeout > 0:
                time.sleep(min(timeout, 0.01))
            return
        for key, _ in self._sel.select(timeout):
            self._read(key.data)

    def _check_peer(self, src: int) -> None:
        """Raise if ``src`` closed its connection — called only once no
        buffered message matches, so nothing more can arrive."""
        if src not in self._gone or src == self.rank:
            return
        if src in self._finished:
            raise CollectiveTimeoutError(
                f"rank {self.rank}: rank {src} finished its program and "
                "no buffered message matches — collective call sequences "
                "have diverged across ranks"
            )
        raise TransportClosedError(
            self._gone[src]
            or f"rank {self.rank}: rank {src} closed its connection and "
            "no buffered message matches — the peer failed or died"
        )

    # -- shared plumbing ----------------------------------------------------

    def _note(self, src: int, tag: tuple, body: object) -> None:
        det = self.race_detector
        # Every _post appends exactly one clock snapshot to the
        # (src, dst) channel, so every noted arrival pops exactly one
        # (revoke notices included — a skipped pop would shift the
        # FIFO and merge stale, weaker clocks into later consumers).
        # The snapshot is present only when the sender shares this
        # process (hosted ranks); cross-process channels stay empty.
        clock = (
            det.channel_pop((src, self.rank)) if det is not None else None
        )
        if tag == _REVOKE_TAG:
            self.revoked = True
            try:
                self.revoked_hint.update(int(r) for r in body)
            except TypeError:  # pragma: no cover - malformed notice
                pass
            return
        if tag == _BYE_TAG:
            self._finished.add(src)
            return
        if clock is not None:
            # Carry the sender's clock with the body so the
            # happens-before edge is merged by the thread that
            # *consumes* the message in _recv_body — under overlap the
            # pumping thread may be the prefetch worker, and crediting
            # it with the edge would invent order that does not exist.
            body = _traced_body_cls()(clock, body)
        self._pending.setdefault((src, tag), deque()).append(body)

    def post_revoke(self, failed: set[int] | frozenset[int]) -> None:
        """Broadcast a revoke notice to every peer believed alive.

        Best effort: posts to ranks not in ``failed`` (a peer that
        died between detection and broadcast is exactly who the
        notice is about, and :meth:`_post` drops frames for closed
        peers).  Also revokes *this* transport so the local rank
        cannot re-enter a collective.
        """
        self.revoked = True
        self.revoked_hint.update(failed)
        notice = sorted(self.revoked_hint)
        for peer in range(self.size):
            if peer != self.rank and peer not in failed:
                self._post(peer, _REVOKE_TAG, notice)

    def post_bye(self) -> None:
        """Tell every peer this rank's program returned."""
        for peer in self._peers:
            self._post(peer, _BYE_TAG, None)

    def _check_revoked(self) -> None:
        if self.revoked and not self._in_recovery:
            raise WorldRevokedError(
                f"rank {self.rank}: communicator revoked — peer "
                f"failure reported (suspected dead: "
                f"{sorted(self.revoked_hint) or 'unknown'})",
                failed=tuple(sorted(self.revoked_hint)),
            )

    def _decode(self, src: int, body: tuple) -> object:
        """Decode a received body and account the payload arrays."""
        self.recv_messages += 1
        payload = body[1]
        arrays = _payload_arrays(payload)
        if arrays is not None:
            self.recv_words += sum(a.size for _, a in arrays)
            self.recv_bytes += sum(a.nbytes for _, a in arrays)
        return payload

    # -- send ---------------------------------------------------------------

    def send(self, dest: int, tag: tuple, payload: object) -> None:
        """Send ``payload`` to ``dest`` (non-blocking).

        The fault-injection boundary: seeded drop/bitflip specs fire
        here, on every backend — a dropped message advances the
        sender's counters but never touches the wire, a bit-flipped
        one is corrupted before encoding (so it rides an shm segment
        or a TCP frame identically).
        """
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        fr = self.flight
        if fr is not None:
            # Collective tags lead with the op counter; p2p tags with
            # "p2p".  Observational only — dropped-injected sends are
            # logged too (the rank *did* post them).
            op_id = tag[0] if tag and isinstance(tag[0], int) else 0
            fr.record("post", op_id, "", dest)
        det = self.race_detector
        if det is not None:
            det.enter_transport(id(self))
        try:
            if self.injector is not None:
                payload, dropped = self.injector.on_send(payload)
                if dropped:
                    # Lost on the wire: the sender did its part
                    # (counters advance) but nothing reaches the peer.
                    arrays = _payload_arrays(payload)
                    if arrays is not None:
                        self.sent_words += sum(a.size for _, a in arrays)
                        self.sent_bytes += sum(a.nbytes for _, a in arrays)
                    self.sent_messages += 1
                    return
            self._send_payload(dest, tag, payload)
        finally:
            if det is not None:
                det.exit_transport(id(self))

    # -- recv ---------------------------------------------------------------

    def recv(self, src: int, tag: tuple, timeout: float | None = None) -> object:
        prof = self.profiler
        if prof is None:
            return self._decode(src, self._recv_body(src, tag, timeout))
        # Wait-vs-transfer split: time blocked for the message versus
        # time copying the payload out (shm memcpy / unpickle).
        t0 = time.perf_counter()
        body = self._recv_body(src, tag, timeout)
        t1 = time.perf_counter()
        out = self._decode(src, body)
        prof.metrics.observe("collective_wait_seconds", t1 - t0)
        prof.metrics.observe(
            "collective_transfer_seconds", time.perf_counter() - t1
        )
        return out

    def recv_prefetch(
        self, src: int, tag: tuple, timeout: float | None = None
    ) -> object:
        """:meth:`recv`, called from the overlap worker.

        Identical wire behavior, but blocked time lands in
        ``collective_wait_hidden_seconds``: the main thread is doing
        payload math while this wait runs, so attributing it to
        ``collective_wait_seconds`` would double-count the interval as
        both compute and wait.  Single-user contract: the comm layer
        guarantees at most one thread is inside the transport at any
        instant (a prefetch is submitted only after every send of the
        step has completed, and joined before the main thread's next
        transport call), so no locking is needed here.
        """
        prof = self.profiler
        if prof is None:
            return self._decode(src, self._recv_body(src, tag, timeout))
        t0 = time.perf_counter()
        body = self._recv_body(src, tag, timeout)
        t1 = time.perf_counter()
        out = self._decode(src, body)
        prof.metrics.observe("collective_wait_hidden_seconds", t1 - t0)
        prof.metrics.observe(
            "collective_transfer_seconds", time.perf_counter() - t1
        )
        return out

    def _recv_body(
        self, src: int, tag: tuple, timeout: float | None
    ) -> object:
        """The shared blocking wait: next body for ``(src, tag)``."""
        if not 0 <= src < self.size:
            raise ValueError(f"src {src} out of range for size {self.size}")
        timeout = (
            self._config.collective_timeout if timeout is None else timeout
        )
        key = (src, tag)
        start = time.monotonic()
        deadline = start + timeout
        mon = self.monitor
        det = self.race_detector
        if det is not None:
            det.enter_transport(id(self))
        registered = False
        try:
            while True:
                waiting = self._pending.get(key)
                if waiting:
                    body = waiting.popleft()
                    if det is not None and isinstance(
                        body, _traced_body_cls()
                    ):
                        det.merge_clock(body.clock)
                        body = body.body
                    return body
                self._check_revoked()
                self._check_peer(src)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise CollectiveTimeoutError(
                        f"rank {self.rank}: no message from rank {src} "
                        f"with tag {tag!r} after {timeout:.1f}s — "
                        f"collective call sequences have diverged across "
                        f"ranks (or a peer died)"
                    )
                poll = min(remaining, 1.0)
                if mon is not None:
                    if not registered:
                        op_id = tag[0] if isinstance(tag[0], int) else 0
                        mon.begin_wait(src, op_id)
                        registered = True
                    if time.monotonic() - start >= self._PROBE_AFTER:
                        mon.probe()  # raises DeadlockError when stable
                    poll = min(poll, self._PROBE_SLICE)
                self._pump(poll)
        finally:
            if det is not None:
                det.exit_transport(id(self))
            if registered:
                mon.end_wait()

    # -- verify-mode control channel ----------------------------------------
    #
    # Signature/verdict traffic of the tier-2 verifier.  Deliberately
    # counter-neutral (like the shm free-credits): it must not perturb
    # the CollectiveRecord counters the alpha-beta cost formulas are
    # certified against, so a verify run stays trace-identical to a
    # plain one.

    def ctrl_send(self, dest: int, tag: tuple, payload: object) -> None:
        self._post(dest, ("ctl",) + tuple(tag), ("ctl", payload))

    def ctrl_recv(
        self, src: int, tag: tuple, timeout: float | None = None
    ) -> object:
        body = self._recv_body(src, ("ctl",) + tuple(tag), timeout)
        return body[1]

    # -- lifecycle ----------------------------------------------------------

    def close(self, linger: float = 5.0) -> None:
        """Flush buffered output (bounded by ``linger`` seconds), then
        close every peer connection — peers see EOF.  Safe to call
        twice."""
        if self._closed:
            return
        with self._tx_lock:
            self._closed = True
            self._tx_lock.notify()
        if self._writer is not None:
            self._writer.join()
        deadline = time.monotonic() + linger
        for peer, sock in self._peers.items():
            while peer not in self._gone and not self._flush(peer):
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.002)
            try:
                self._sel.unregister(sock)
            except (KeyError, ValueError):
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._sel.close()
        self._peers.clear()

    def purge(self) -> None:
        """Exception-path cleanup after a dead collective: release
        anything a non-returning peer could leak (pending buffers
        always; pooled shm segments on the shm backend)."""
        self._pending.clear()

    def verify_shutdown(self, grace: float = 0.5) -> None:
        """End-of-rank sanitizer check: every segment this rank sent
        must have been credited back.  Late credits from peers that
        finished marginally after us get a bounded grace drain before
        a leak is declared (SPMD213).  A no-op on backends without a
        sanitizer (non-shm transports skip the lifecycle checks but
        keep signature matching and deadlock detection)."""
        if self.sanitizer is None:
            return
        deadline = time.monotonic() + grace
        while self.sanitizer.leaked() and time.monotonic() < deadline:
            self._pump(0.01)
        self.sanitizer.check_exit()


# ---------------------------------------------------------------------------
# pooled shared-memory backend (the fast single-host default)
# ---------------------------------------------------------------------------


class ShmPoolTransport(Transport):
    """The stream wire over a fork-time ``socketpair`` mesh, with large
    arrays riding pooled shared memory.

    Array payloads of at least ``CommConfig.shm_min_bytes`` travel
    through *pooled* ``multiprocessing.shared_memory`` segments: the
    frame carries only the segment header, the receiver copies the
    data out, caches its mapping, and returns the segment name to the
    owner on :data:`_FREE_TAG` so the next send reuses the
    already-faulted-in pages.  In steady state a large message is two
    memcpys and two tiny frames — no pickling of the data, no segment
    creation.  ``close`` unlinks every pooled segment the rank owns;
    ``run_spmd`` sweeps the run-token prefix afterwards as a backstop
    for in-flight segments and crashed ranks.
    """

    kind = "shm"
    uses_shm_pool = True

    _POOL_CAP = 16  # free segments kept per size class before unlinking

    def __init__(
        self,
        rank: int,
        size: int,
        config,
        peers: dict[int, socket.socket],
        run_token: str,
    ) -> None:
        super().__init__(rank, size, config, peers)
        self._run_token = run_token
        self._shm_seq = 0
        self._owned: dict[str, object] = {}  # name -> SharedMemory
        self._seg_size: dict[str, int] = {}
        self._free: dict[int, deque] = {}  # size class -> free names
        self._rx_cache: dict[str, object] = {}  # attached peer segments

    # -- shared-memory segment pool -----------------------------------------

    def _obtain_segment(self, total: int):
        """A segment with >= ``total`` bytes: pooled if available."""
        try:
            self._pump(0)  # credits that already arrived refill the pool
        except TransportClosedError:
            pass  # kept in _gone: the receive that waits on it reports it
        cls = _segment_class(total)
        free = self._free.get(cls)
        if free:
            name = free.popleft()
            if self.sanitizer is not None:
                self.sanitizer.on_obtain(name)
            return self._owned[name], name
        self._shm_seq += 1
        name = f"mpx{self._run_token}r{self.rank}n{self._shm_seq}"
        shm = _shm_mod.SharedMemory(create=True, size=cls, name=name)
        _unregister_shm(shm)
        # Sanctioned escape: the pool owns the handle; close()/purge()
        # and the launcher's run-token sweep end its lifecycle, and in
        # verify mode the ShmSanitizer audits every transition.
        self._owned[name] = shm  # spmdlint: ignore[SPMD105]
        self._seg_size[name] = cls
        return shm, name

    def _release_segment(self, name: str) -> None:
        """An ack came back: pool the segment (or unlink the excess)."""
        cls = self._seg_size.get(name)
        if cls is None:
            return  # purged after a dead collective: already unlinked
        if self.sanitizer is not None:
            self.sanitizer.on_release(name)
        free = self._free.setdefault(cls, deque())
        if len(free) < self._POOL_CAP:
            free.append(name)
            return
        shm = self._owned.pop(name)
        del self._seg_size[name]
        shm.close()
        _unlink_segment(shm)
        if self.sanitizer is not None:
            self.sanitizer.on_unlink(name)

    def _note(self, src: int, tag: tuple, body: object) -> None:
        if tag != _FREE_TAG:
            super()._note(src, tag, body)
            return
        det = self.race_detector
        if det is not None:
            # Consumer -> owner edge: the peer finished reading the
            # segment before crediting it back, so the owner's next
            # write to this segment is ordered after that read.  The
            # credit rode _post, so this pops its (src, dst) snapshot
            # exactly as the base _note would.
            det.channel_recv((src, self.rank))
        self._release_segment(body)

    def close(self, linger: float = 5.0) -> None:
        """Unlink pooled segments, unmap everything this rank touched,
        close the stream.

        In-flight segments (sent, not yet acked) stay on disk for the
        launcher's run-token sweep — a peer may not have attached yet.
        """
        try:
            self._pump(0)  # credits that already arrived
        except CollectiveTimeoutError:
            pass  # a peer died mid-frame; its credits are moot
        for free in self._free.values():
            for name in free:
                shm = self._owned.pop(name)
                del self._seg_size[name]
                shm.close()
                _unlink_segment(shm)
        self._free.clear()
        for shm in self._owned.values():
            shm.close()
        for shm in self._rx_cache.values():
            shm.close()
        self._rx_cache.clear()
        super().close(linger)

    def purge(self) -> None:
        """Unlink *every* segment this rank owns, pooled and in-flight.

        The exception path of a timed-out collective: the peers this
        rank was exchanging with are not coming back for the in-flight
        segments, so leaving them on disk would leak ``/dev/shm`` for
        any embedder that drives the transport without ``run_spmd``'s
        run-token sweep.  Unlinking is safe even if a straggler is
        still attached — the mapping stays valid until it closes.
        """
        super().purge()
        for name, shm in list(self._owned.items()):
            shm.close()
            _unlink_segment(shm)
        self._owned.clear()
        self._seg_size.clear()
        self._free.clear()
        for shm in self._rx_cache.values():
            shm.close()
        self._rx_cache.clear()
        if self.sanitizer is not None:
            self.sanitizer.clear()

    # -- segment encode / decode --------------------------------------------

    def _encode(
        self, contig: list[tuple[object, np.ndarray]], single: bool
    ) -> tuple:
        nbytes = sum(a.nbytes for _, a in contig)
        if (
            _shm_mod is None
            or nbytes == 0
            or nbytes < self._config.shm_min_bytes
        ):
            return super()._encode(contig, single)
        total = sum(_align8(a.nbytes) for _, a in contig)
        shm, name = self._obtain_segment(total)
        if self.race_detector is not None:
            self.race_detector.on_access(("shm", name), "w")
        metas: list[tuple[object, tuple, str, int]] = []
        offset = 0
        for key, a in contig:
            view = np.ndarray(
                a.shape, dtype=a.dtype, buffer=shm.buf, offset=offset
            )
            view[...] = a
            del view
            metas.append((key, a.shape, a.dtype.str, offset))
            offset += _align8(a.nbytes)
        self.shm_messages += 1
        if self.sanitizer is not None:
            self.sanitizer.on_send(name)
        return ("shm", name, metas, single)

    def _decode(self, src: int, body: tuple) -> object:
        kind = body[0]
        if kind != "shm":
            return super()._decode(src, body)
        self.recv_messages += 1
        _, name, metas, single = body
        shm = self._rx_cache.get(name)
        if shm is None:
            shm = _shm_mod.SharedMemory(name=name)
            _unregister_shm(shm)  # attach auto-registers on 3.11
            # Sanctioned escape: the receive cache keeps peer
            # mappings warm across messages; close() unmaps them.
            self._rx_cache[name] = shm  # spmdlint: ignore[SPMD105]
        det = self.race_detector
        if det is not None:
            det.on_access(("shm", name), "r")
        items: list[tuple[object, np.ndarray]] = []
        for key, shape, dtype_str, offset in metas:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype_str),
                buffer=shm.buf, offset=offset,
            )
            items.append((key, view.copy()))
            del view
        # Hand the drained segment back to its owner for reuse.  An
        # owner that already closed its stream never sees the credit;
        # run_spmd's run-token sweep reclaims the segment.
        self._post(src, _FREE_TAG, name)
        self.recv_words += sum(a.size for _, a in items)
        self.recv_bytes += sum(a.nbytes for _, a in items)
        if single:
            return items[0][1]
        return dict(items)


# ---------------------------------------------------------------------------
# TCP socket backend
# ---------------------------------------------------------------------------


def _sock_send_obj(sock: socket.socket, obj: object) -> None:
    """Blocking framed pickle send (rendezvous / handshake only)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(data)) + data)


def _sock_recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportClosedError(
                f"connection closed after {len(buf)} of {n} expected "
                "bytes (torn frame)"
            )
        buf += chunk
    return bytes(buf)


def _sock_recv_obj(sock: socket.socket) -> object:
    (n,) = _LEN.unpack(_sock_recv_exact(sock, _LEN.size))
    return pickle.loads(_sock_recv_exact(sock, n))


def open_rendezvous_listener(
    host: str = "127.0.0.1", port: int = 0
) -> socket.socket:
    """A listening socket for :func:`serve_rendezvous` — bind first,
    read the chosen port from ``getsockname()``, then hand the
    ``host:port`` to the ranks (env var or worker argument)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(128)
    return listener


def serve_rendezvous(
    listener: socket.socket, size: int, timeout: float = 60.0
) -> dict[int, tuple[str, int]]:
    """Run one address-exchange round for ``size`` ranks.

    Every rank connects, announces ``("hello", rank, host, port)`` (its
    own mesh listener), and receives the full ``{rank: (host, port)}``
    map once all ranks have checked in.  Returns the map (the launcher
    may log it).  Closes the accepted connections but not ``listener``
    — the caller owns that (and may keep serving result traffic on it,
    as :mod:`repro.distributed.launch` does).
    """
    listener.settimeout(timeout)
    conns: list[socket.socket] = []
    addrs: dict[int, tuple[str, int]] = {}
    try:
        while len(addrs) < size:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                raise CollectiveTimeoutError(
                    f"rendezvous: only {len(addrs)} of {size} ranks "
                    f"checked in within {timeout:.1f}s"
                ) from None
            conn.settimeout(timeout)
            msg = _sock_recv_obj(conn)
            if not (isinstance(msg, tuple) and msg and msg[0] == "hello"):
                conn.close()
                continue
            _, rank, host, port = msg
            addrs[int(rank)] = (str(host), int(port))
            conns.append(conn)
        for conn in conns:
            _sock_send_obj(conn, addrs)
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
    return addrs


class TcpSocketTransport(Transport):
    """The stream wire over per-peer persistent TCP connections.

    Mesh establishment: each rank opens its own listener on an
    ephemeral port, registers ``(rank, host, port)`` with the
    rendezvous server at ``rendezvous``, receives the full address
    map, then connects to every lower rank and accepts from every
    higher one (a rank handshake names the connector).  Connections
    are persistent for the lifetime of the rank; everything after
    setup — framing, buffering, in-band death detection, the linger
    close — is the shared :class:`Transport` stream wire, with every
    array payload pickled in-frame.
    """

    kind = "tcp"
    uses_shm_pool = False

    def __init__(
        self,
        rank: int,
        size: int,
        config,
        rendezvous: tuple[str, int] | None = None,
        *,
        bind_host: str = "127.0.0.1",
        advertise_host: str | None = None,
    ) -> None:
        super().__init__(rank, size, config)
        if size > 1:
            if rendezvous is None:
                raise ValueError(
                    "TcpSocketTransport needs a rendezvous (host, port) "
                    "for size > 1"
                )
            self._attach(
                self._establish_mesh(rendezvous, bind_host, advertise_host)
            )

    # -- mesh setup ---------------------------------------------------------

    @property
    def _connect_timeout(self) -> float:
        return float(getattr(self._config, "tcp_connect_timeout", 20.0))

    def _connect_retry(
        self, addr: tuple[str, int], deadline: float
    ) -> socket.socket:
        """Connect with jittered exponential backoff until ``deadline``
        — the peer's listener (or the rendezvous server) may not be up
        yet.

        The backoff doubles from 50 ms toward 1 s with ±50% jitter, so
        a wide world starting up does not hammer one listener in
        lockstep.  Exhaustion raises :class:`TransportClosedError`
        *from* the last socket error, so callers (and tracebacks) see
        the real cause (``ConnectionRefusedError``, ``EHOSTUNREACH``,
        ...) chained under the timeout instead of a bare refusal.
        """
        last: Exception | None = None
        delay = 0.05
        while time.monotonic() < deadline:
            try:
                return socket.create_connection(addr, timeout=1.0)
            except OSError as exc:
                last = exc
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                sleep = delay * (0.5 + random.random())
                time.sleep(min(sleep, max(remaining, 0.0)))
                delay = min(delay * 2.0, 1.0)
        raise TransportClosedError(
            f"rank {self.rank}: could not connect to {addr[0]}:{addr[1]} "
            f"within {self._connect_timeout:.1f}s "
            f"(last error: {last!r})"
        ) from last

    def _establish_mesh(
        self,
        rendezvous: tuple[str, int],
        bind_host: str,
        advertise_host: str | None,
    ) -> dict[int, socket.socket]:
        timeout = self._connect_timeout
        deadline = time.monotonic() + timeout
        peers: dict[int, socket.socket] = {}
        listener = open_rendezvous_listener(bind_host)
        try:
            port = listener.getsockname()[1]
            rdv = self._connect_retry(tuple(rendezvous), deadline)
            try:
                rdv.settimeout(timeout)
                _sock_send_obj(
                    rdv,
                    ("hello", self.rank, advertise_host or bind_host, port),
                )
                addrs = _sock_recv_obj(rdv)
            finally:
                rdv.close()
            # Lower ranks are (or will be) accepting: connect to them;
            # higher ranks connect to us: accept and read the rank
            # handshake.  The listen backlog holds early connectors,
            # so ordering across ranks cannot deadlock.
            for peer in range(self.rank):
                sock = self._connect_retry(tuple(addrs[peer]), deadline)
                sock.settimeout(timeout)
                _sock_send_obj(sock, ("peer", self.rank))
                peers[peer] = sock
            for _ in range(self.size - self.rank - 1):
                listener.settimeout(max(0.1, deadline - time.monotonic()))
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    raise CollectiveTimeoutError(
                        f"rank {self.rank}: mesh setup timed out waiting "
                        f"for higher-rank connections "
                        f"({len(peers)} of {self.size - 1} peers up)"
                    ) from None
                sock.settimeout(timeout)
                msg = _sock_recv_obj(sock)
                peers[int(msg[1])] = sock
        finally:
            listener.close()
        for sock in peers.values():
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return peers
