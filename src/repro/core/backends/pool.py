"""DispatcherPool: N spawner worker processes fed from one sharded queue.

The paper's Fig. 3 shows the launch-rate ceiling is a *single-dispatcher*
phenomenon: one GNU Parallel instance forks at ~470 jobs/s while N
concurrent instances reach ~6,400/s node-wide before the kernel's own
fork bandwidth saturates.  One in-process dispatcher cannot use the
node's other cores for fork/exec and pipe collection, so the next order
of magnitude has to come from *parallel dispatchers* — this module is
that decomposition.  The ``hthpc`` benchmark measures it: ``efficiency``
on ``sharded_spawn`` against ``true_spawn``.

Architecture (``--dispatchers N``)::

    scheduler (one) ── OutputSequencer / JoblogWriter / retries / halt
        │
        LocalShellBackend.run_job            (merge stays centralized)
        │
        DispatcherPool ── least-loaded shard pick, failover re-queue
        ├── shard 0: worker process  [SpawnLauncher + PipeReaper(pidfd)]
        ├── shard 1: worker process  [SpawnLauncher + PipeReaper(pidfd)]
        └── shard k: ...

    Each worker owns a private posix_spawn launcher and pidfd-driven
    PipeReaper, so fork/exec + pipe collection run in N kernel task
    contexts concurrently.  Results travel back over the shard's duplex
    pipe and are delivered to the scheduler worker thread that submitted
    the job — everything above ``run_job`` (``--keep-order`` sequencing,
    ``--joblog`` rows, ``--tag`` prefixes, retries, ``--halt``) is the
    *same code* as the single-dispatcher path, which is what makes the
    cross-shard parity matrix byte-for-byte by construction.

Control-plane framing (the amortization layer):

    Per-job pickled ``Connection.send``/``recv`` round-trips made sharded
    dispatch *lose* to a single in-process dispatcher on small machines
    — every job paid ~6 wakeups of pipe syscall + pickle cost.  The hot
    message kinds (spawn, result, kill) therefore travel as
    length-prefixed ``struct``-packed *frames* carrying up to ``batch``
    records each.  Outbound spawns buffer in a
    per-shard outbox whose flush is gated by the *pipe*, not a timer:
    the dispatching thread appends its record and immediately drains the
    outbox, but the swap happens only after the shard's send lock is
    acquired — so while one thread's frame is on the wire, records from
    concurrent dispatches pile up and ride the next frame (Nagle-style
    coalescing with zero added latency: a lone job ships at once, a
    burst amortizes automatically).  Workers batch result records the
    same way on the return path.  Rare/complex payloads (``intern``,
    ``kill_all``, ``close``, spawn errors) stay pickled: the first byte
    of a message distinguishes a frame (``_MAGIC``) from a pickle (which
    always starts with ``\\x80`` for protocol ≥ 2).

    On top of framing, the pool supports run-start **template interning**:
    the backend sends each shard the command template *source* once, and
    per-job spawn records then carry only the argument tuple + seq/slot —
    the worker re-renders the command locally, byte-identical to the
    parent's own render (string-mode templates only; argv-mode quoting is
    not worth re-deriving remotely).

Fault model: a shard that dies mid-run (its pipe hits EOF, or a send
fails) is marked dead and every job in flight on it — the flushed frames
*and* the records still sitting in its outbox — is transparently
re-dispatched to a surviving shard exactly once (``_pending`` is the
single source of truth; late duplicate deliveries drop at ``_deliver``).
With no survivors, pending jobs complete as ``lost`` and the backend
re-runs them in-process.

The pool deliberately does NOT own retries, ordering, or halt policy;
those live in the scheduler.  It is a throughput device, not a scheduler.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.core.backends.spawn import (
    REAPER_GONE,
    LiveReaper,
    SpawnLauncher,
    kill_group,
    set_nice,
    spawn_supported,
    wait_inline,
)

__all__ = [
    "DispatcherPool",
    "PoolReply",
    "pool_supported",
    "pack_spawn_record",
    "pack_result_record",
    "pack_frame",
    "iter_spawn_records",
    "iter_result_records",
    "FRAME_MAGIC",
    "FK_SPAWN",
    "FK_RESULT",
    "FK_KILL",
]

#: Reply kinds a ``run()`` call can resolve to.
DONE = "done"    #: job ran; exit status + captured bytes attached
ERR = "err"      #: worker could not spawn it (message in ``stderr``)
LOST = "lost"    #: shard died and no survivor could take the job

# -- frame protocol ----------------------------------------------------------
#: First byte of a packed frame.  Pickle streams (protocol >= 2) start
#: with 0x80, so one byte disambiguates the two formats on a shared pipe.
FRAME_MAGIC = 0x9E
FK_SPAWN = 1    #: parent → worker: batch of spawn records
FK_RESULT = 2   #: worker → parent: batch of completion records
FK_KILL = 3     #: parent → worker: batch of kill tokens

_HEADER = struct.Struct("<BBH")          # magic, kind, record count
#: Spawn record header: token, flags, seq, slot, payload length.
#: flags bit 0: payload is a packed argument tuple for the interned
#: template (otherwise payload is the raw utf-8 command string).
_SPAWN_REC = struct.Struct("<QBIII")
_F_INTERNED = 1
#: Result record header: token, returncode, start, end, spawn_dur, pid,
#: stdout length, stderr length (the two byte blobs follow).
_RESULT_REC = struct.Struct("<QqdddqII")
_KILL_REC = struct.Struct("<Q")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _enc(text: str) -> bytes:
    # surrogatepass keeps os.fsdecode()-style lone surrogates (possible
    # in filename inputs) round-trippable through the frame.
    return text.encode("utf-8", "surrogatepass")


def _dec(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


def pack_spawn_record(
    token: int,
    seq: int,
    slot: int,
    command: "str | None" = None,
    args: "tuple[str, ...] | None" = None,
) -> bytes:
    """One spawn record: raw command, or an argument delta when interned."""
    if args is not None:
        parts = [_U16.pack(len(args))]
        for a in args:
            blob = _enc(a)
            parts.append(_U32.pack(len(blob)))
            parts.append(blob)
        payload = b"".join(parts)
        flags = _F_INTERNED
    else:
        assert command is not None
        payload = _enc(command)
        flags = 0
    return _SPAWN_REC.pack(token, flags, seq, slot, len(payload)) + payload


def pack_result_record(
    token: int, rc: int, out: bytes, err: bytes,
    start: float, end: float, spawn_dur: float, pid: int,
) -> bytes:
    return (
        _RESULT_REC.pack(token, rc, start, end, spawn_dur, pid,
                         len(out), len(err))
        + out + err
    )


def pack_frame(kind: int, records: "list[bytes]") -> bytes:
    """Assemble one length-implicit frame from packed records."""
    return _HEADER.pack(FRAME_MAGIC, kind, len(records)) + b"".join(records)


def iter_spawn_records(
    frame: bytes,
) -> "Iterator[tuple[int, int, int, str | None, tuple[str, ...] | None]]":
    """Yield ``(token, seq, slot, command, args)`` from a spawn frame."""
    _, _, count = _HEADER.unpack_from(frame, 0)
    off = _HEADER.size
    for _ in range(count):
        token, flags, seq, slot, plen = _SPAWN_REC.unpack_from(frame, off)
        off += _SPAWN_REC.size
        payload = frame[off:off + plen]
        off += plen
        if flags & _F_INTERNED:
            (n_args,) = _U16.unpack_from(payload, 0)
            p = _U16.size
            args = []
            for _ in range(n_args):
                (alen,) = _U32.unpack_from(payload, p)
                p += _U32.size
                args.append(_dec(payload[p:p + alen]))
                p += alen
            yield token, seq, slot, None, tuple(args)
        else:
            yield token, seq, slot, _dec(payload), None


def iter_result_records(
    frame: bytes,
) -> "Iterator[tuple[int, int, bytes, bytes, float, float, float, int]]":
    """Yield ``(token, rc, out, err, start, end, spawn_dur, pid)``."""
    _, _, count = _HEADER.unpack_from(frame, 0)
    off = _HEADER.size
    for _ in range(count):
        token, rc, start, end, spawn_dur, pid, olen, elen = (
            _RESULT_REC.unpack_from(frame, off)
        )
        off += _RESULT_REC.size
        out = frame[off:off + olen]
        off += olen
        err = frame[off:off + elen]
        off += elen
        yield token, rc, out, err, start, end, spawn_dur, pid


#: A frame's record count travels as u16.
_MAX_BATCH = 65535


def pool_supported() -> bool:
    """True where sharded dispatch can run: workers fork, and spawn only
    through ``posix_spawn``."""
    return spawn_supported()


@dataclass
class PoolReply:
    """Outcome of one pooled job, in worker-native (bytes) form.

    Decoding to text happens in the backend with the *same* codec and
    newline translation as the in-process paths — parity requires the
    decode step to be shared, so the pool never decodes.
    """

    kind: str                 # DONE / ERR / LOST
    returncode: int = -1
    stdout: bytes = b""
    stderr: bytes = b""
    start: float = 0.0
    end: float = 0.0
    spawn_dur: float = 0.0    # worker-side spawn latency, seconds
    pid: int = -1             # the job's own pid (worker-side)
    shard: int = -1           # shard that ran (or lost) it
    timed_out: bool = False


class _Pending:
    """Parent-side record of one in-flight job."""

    __slots__ = ("token", "record", "shard", "event", "reply")

    def __init__(self, token: int, record: bytes, shard: int):
        self.token = token
        #: The packed spawn record — shard-independent, so failover
        #: re-dispatch reuses it byte-for-byte.
        self.record = record
        self.shard = shard
        self.event = threading.Event()
        self.reply: Optional[PoolReply] = None


@dataclass
class _Shard:
    """Parent-side view of one dispatcher worker process."""

    index: int
    process: multiprocessing.process.BaseProcess
    conn: "multiprocessing.connection.Connection"
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = True
    #: Jobs currently dispatched to this shard (parent-side estimate,
    #: used for least-loaded shard selection).
    load: int = 0
    #: Spawn records buffered for the next frame (guarded by the pool
    #: lock; swapped out wholesale at flush time).
    outbox: "list[bytes]" = field(default_factory=list)
    receiver: Optional[threading.Thread] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def send(self, msg: tuple) -> bool:
        """Post one pickled op to the worker; False (and mark dead) on failure."""
        return self.send_bytes(pickle.dumps(msg))

    def send_bytes(self, frame: bytes) -> bool:
        """Write one packed frame; False (and mark dead) on failure."""
        with self.send_lock:
            if not self.alive:
                return False
            try:
                self.conn.send_bytes(frame)
                return True
            except (OSError, ValueError, BrokenPipeError):
                self.alive = False
                return False


class _ResultBatcher:
    """Worker-side mirror of the parent outbox: coalesce result records.

    ``add`` is called from the reaper and main threads.  Flushing is gated
    by the pipe rather than a timer: the caller appends its record and
    drains the buffer one frame per send, swapping records out only
    after the send lock is held — completions that land while another
    thread's frame is on the wire ride the next frame.  A lone result
    ships immediately; a reap burst amortizes into one write.
    """

    def __init__(self, conn, send_lock: threading.Lock, batch: int):
        self._conn = conn
        self._send_lock = send_lock
        self._batch = max(1, min(batch, _MAX_BATCH))
        self._records: "list[bytes]" = []
        self._lock = threading.Lock()

    def add(self, record: bytes, defer: bool = False) -> None:
        """Queue one record; ship unless the caller owns a later flush.

        ``defer=True`` is the reaper-thread path: records accumulate
        across one ``select()`` cycle and the reaper's ``on_batch_end``
        hook flushes them as a single frame.
        """
        with self._lock:
            self._records.append(record)
        if not defer:
            self.flush()

    def flush(self) -> None:
        while True:
            with self._send_lock:
                with self._lock:
                    if not self._records:
                        return
                    records = self._records[:self._batch]
                    del self._records[:self._batch]
                try:
                    self._conn.send_bytes(pack_frame(FK_RESULT, records))
                except (OSError, ValueError, BrokenPipeError):
                    return  # parent is gone; the recv EOF path will exit us


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------
def _worker_main(
    conn,
    shard_index: int,
    shell: str,
    env: "dict[str, str] | None",
    nice: "int | None",
    batch: int = 1,
) -> None:
    """One dispatcher worker: spawn loop + private reaper, results by pipe.

    Runs until the parent sends ``("close",)`` or its end of the pipe
    disappears (parent death) — then kills every job it still owns and
    exits via ``os._exit`` so inherited buffers never double-flush.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns ^C policy

    send_lock = threading.Lock()

    def post(msg: tuple) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                pass  # parent is gone; the EOF path below will exit us

    batcher = _ResultBatcher(conn, send_lock, batch)
    #: With batch > 1, results collected by the reaper defer their flush
    #: to its per-select()-cycle batch boundary: completions that queued
    #: while this worker waited for CPU ride one frame (and one parent
    #: wakeup) instead of one write each.
    defer_results = batch > 1

    launcher = SpawnLauncher(shell, env=env)
    reapers = LiveReaper(on_batch_end=batcher.flush if defer_results else None)

    #: Interned command template: (CommandTemplate, quote flag).  Set by
    #: the pickled ("intern", source, quote) op; spawn records flagged
    #: _F_INTERNED then carry only the argument tuple.
    interned = None

    procs: dict[int, int] = {}      # token -> job pgid
    #: Kill tokens that raced ahead of their spawn record (a parent-side
    #: flusher may ship the kill frame before another thread's spawn
    #: frame hits the pipe); the spawn path delivers the kill on arrival.
    early_kills: set[int] = set()
    procs_lock = threading.Lock()

    def finish(token: int, rc: int, out: bytes, err: bytes,
               start: float, end: float, spawn_dur: float, pid: int,
               defer: bool = False) -> None:
        with procs_lock:
            procs.pop(token, None)
        batcher.add(pack_result_record(
            token, rc, out, err, start, end, spawn_dur, pid
        ), defer=defer)

    def spawn(token: int, seq: int, slot: int,
              command: "str | None", args) -> None:
        if command is None:
            if interned is None:
                post(("err", token, b"spawn frame references no interned "
                                    b"template"))
                return
            template, quote = interned
            try:
                command = template.render(args, seq=seq, slot=slot, quote=quote)
            except Exception as exc:
                post(("err", token, f"render failed: {exc}".encode()))
                return
        # The asynchronous twin of run_command's posix_spawn leg: the
        # reaper's on_done posts the result, so no thread waits per job.
        start = time.time()
        try:
            pid, out_r, err_r = launcher.spawn(command)
        except OSError as exc:
            post(("err", token, f"spawn failed: {exc}".encode()))
            return
        spawn_dur = time.time() - start
        set_nice(pid, nice)
        with procs_lock:
            procs[token] = pid
            killed_early = token in early_kills
            early_kills.discard(token)
        if killed_early:
            kill_group(pid)

        def on_done(handle, _token=token, _start=start,
                    _spawn_dur=spawn_dur, _pid=pid) -> None:
            finish(_token, handle.returncode, bytes(handle.stdout_buf),
                   bytes(handle.stderr_buf), _start, time.time(),
                   _spawn_dur, _pid, defer=defer_results)

        try:
            reapers.get().register(pid, out_r, err_r, on_done=on_done)
        except RuntimeError:
            finish(token, wait_inline(pid, out_r, err_r), b"", REAPER_GONE,
                   start, time.time(), spawn_dur, pid)

    def kill_token(token: int) -> None:
        with procs_lock:
            pid = procs.get(token)
            if pid is None:
                early_kills.add(token)
        if pid is not None:
            kill_group(pid)

    def kill_all() -> None:
        with procs_lock:
            pids = list(procs.values())
        for pid in pids:
            kill_group(pid)

    try:
        while True:
            try:
                buf = conn.recv_bytes()
            except (EOFError, OSError):
                break  # parent gone
            if buf and buf[0] == FRAME_MAGIC:
                kind = buf[1]
                if kind == FK_SPAWN:
                    for token, seq, slot, command, args in iter_spawn_records(buf):
                        spawn(token, seq, slot, command, args)
                elif kind == FK_KILL:
                    off = _HEADER.size
                    while off < len(buf):
                        (token,) = _KILL_REC.unpack_from(buf, off)
                        off += _KILL_REC.size
                        kill_token(token)
                continue
            # Pickle fallback lane: rare/complex ops.
            msg = pickle.loads(buf)
            op = msg[0]
            if op == "intern":
                from repro.core.template import CommandTemplate

                try:
                    interned = (CommandTemplate(msg[1]), msg[2])
                except Exception:
                    interned = None  # parent falls back to raw commands
            elif op == "kill_all":
                kill_all()
            elif op == "close":
                break
    finally:
        kill_all()
        batcher.flush()
        reapers.close()
        launcher.close()
        try:
            conn.close()
        except OSError:
            pass
        os._exit(0)  # no inherited-buffer flush, no atexit double-runs


# --------------------------------------------------------------------------
# Parent-side pool
# --------------------------------------------------------------------------
class DispatcherPool:
    """Parent handle: shard selection, result routing, failover re-queue.

    One instance serves one run.  Thread-safe: scheduler worker threads
    call :meth:`run` concurrently; each blocks on its own event until the
    shard's receiver thread delivers the reply.

    ``batch`` caps the spawn/result frame size.  Flushing is gated by
    the pipe, not a timer: a record ships as soon as the shard's send
    lock is free, and records appended while another thread's frame is
    on the wire coalesce into the next frame.  ``batch=1`` (the
    default) pins every frame to one record — the per-message wire
    shape — through the same code path.
    """

    def __init__(
        self,
        n: int,
        shell: str = "/bin/sh",
        env: "dict[str, str] | None" = None,
        nice: "int | None" = None,
        on_event: "Callable[[str, int, int], None] | None" = None,
        batch: int = 1,
    ):
        if n < 1:
            raise ValueError(f"dispatcher count must be >= 1, got {n}")
        self.n = n
        self.shell = shell
        self.env = env
        self.nice = nice
        #: Optional ``(event_name, shard_index, n)`` hook; the backend
        #: wires it to the tracer (``dispatcher_death`` instants with the
        #: re-queued job count, ``rpc_frame`` instants with the frame's
        #: record count).
        self.on_event = on_event
        self.batch = max(1, min(int(batch), _MAX_BATCH))
        self._shards: list[_Shard] = []
        self._pending: dict[int, _Pending] = {}
        self._lock = threading.Lock()
        self._tokens = itertools.count(1)
        self._started = False
        self._closed = False
        self._interned = False
        #: Jobs re-dispatched after a shard death (monotone counter).
        self.requeued = 0
        #: Control-plane counters (guarded by ``_lock`` on the send side;
        #: receive side is single-writer per shard).
        self.frames_sent = 0
        self.jobs_sent = 0
        self.frames_recv = 0
        self.results_recv = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        for k in range(self.n):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, k, self.shell, self.env, self.nice,
                      self.batch),
                name=f"repro-dispatcher-{k}",
                daemon=True,
            )
            proc.start()
            child_conn.close()  # parent keeps only its end
            shard = _Shard(index=k, process=proc, conn=parent_conn)
            shard.receiver = threading.Thread(
                target=self._recv_loop, args=(shard,), daemon=True,
                name=f"repro-pool-recv-{k}",
            )
            self._shards.append(shard)
            shard.receiver.start()

    def intern_template(self, source: str, quote: bool = False) -> None:
        """Ship the command template to every shard once, at run start.

        After this, :meth:`run` calls that pass ``args`` send only the
        argument delta per job; the worker re-renders locally.
        """
        sent = False
        for shard in self._shards:
            if shard.alive and shard.send(("intern", source, quote)):
                sent = True
        self._interned = sent

    @property
    def interned(self) -> bool:
        """True once a template was interned on at least one shard."""
        return self._interned

    @property
    def alive(self) -> bool:
        """True while at least one shard can still take work."""
        return any(s.alive for s in self._shards)

    @property
    def shard_pids(self) -> "list[int | None]":
        """Worker pids by shard index (None once unknown); for tests."""
        return [s.pid for s in self._shards]

    def shard_loads(self) -> list[int]:
        """Parent-side in-flight estimate per shard; for tests/benchmarks."""
        with self._lock:
            return [s.load for s in self._shards]

    def stats(self) -> dict:
        """Control-plane counters for the RUN_END summary / tracer meta."""
        with self._lock:
            frames_sent = self.frames_sent
            jobs_sent = self.jobs_sent
        return {
            "batch": self.batch,
            "frames_sent": frames_sent,
            "jobs_sent": jobs_sent,
            "frames_recv": self.frames_recv,
            "results_recv": self.results_recv,
            "jobs_per_frame": (
                round(jobs_sent / frames_sent, 2) if frames_sent else 0.0
            ),
            "interned": self._interned,
            "requeued": self.requeued,
        }

    def close(self) -> None:
        """Stop every worker and release any still-blocked callers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards)
            leftovers = list(self._pending.values())
            self._pending.clear()
            for shard in shards:
                shard.outbox.clear()
        for shard in shards:
            shard.send(("close",))
        deadline = time.time() + 2.0
        for shard in shards:
            shard.process.join(timeout=max(0.0, deadline - time.time()))
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=1.0)
            shard.alive = False
            try:
                shard.conn.close()
            except OSError:
                pass
        for pending in leftovers:
            self._complete(pending, PoolReply(kind=LOST, shard=pending.shard))

    # -- job path ------------------------------------------------------------
    def run(
        self,
        command: str,
        timeout: "float | None" = None,
        cancelled: "threading.Event | None" = None,
        args: "tuple[str, ...] | None" = None,
        seq: int = 0,
        slot: int = 0,
    ) -> PoolReply:
        """Run one command on some shard; blocks until collected.

        When a template has been interned and ``args`` is given, the spawn
        record carries only the argument tuple (plus ``seq``/``slot`` for
        ``{#}``/``{%}`` rendering); ``command`` is still required as the
        failover/raw form.  Timeout semantics mirror the in-process paths:
        on expiry the job's group gets SIGTERM and we keep waiting
        (unbounded) for collection, returning the reply with
        ``timed_out=True``.  ``cancelled`` closes the cancel_all race: if
        it is set after dispatch, the kill that a concurrent
        ``kill_all()`` may have missed is delivered here.
        """
        pending = self._dispatch(command, args, seq, slot)
        if pending is None:
            return PoolReply(kind=LOST)
        if cancelled is not None and cancelled.is_set():
            # kill_all's shard snapshot may have raced this dispatch.
            self._kill(pending)
        timed_out = False
        if not pending.event.wait(timeout):
            self._kill(pending)
            timed_out = True
            pending.event.wait()
        reply = pending.reply
        assert reply is not None
        reply.timed_out = timed_out
        return reply

    def kill_all(self) -> None:
        """Fan SIGTERM out to every job on every live shard."""
        self._flush_all()
        for shard in self._shards:
            if shard.alive:
                shard.send(("kill_all",))

    # -- internals -----------------------------------------------------------
    def _pick_shard(self) -> "_Shard | None":
        """Least-loaded live shard (caller holds the lock)."""
        best = None
        for shard in self._shards:
            if not shard.alive:
                continue
            if best is None or shard.load < best.load:
                best = shard
        return best

    def _dispatch(
        self,
        command: str,
        args: "tuple[str, ...] | None",
        seq: int,
        slot: int,
    ) -> "_Pending | None":
        token = next(self._tokens)
        if self._interned and args is not None:
            record = pack_spawn_record(token, seq, slot, args=args)
        else:
            record = pack_spawn_record(token, seq, slot, command=command)
        with self._lock:
            if self._closed:
                return None
            shard = self._pick_shard()
            if shard is None:
                return None
            pending = _Pending(token, record, shard.index)
            self._pending[token] = pending
            shard.load += 1
            shard.outbox.append(record)
        self._flush_shard(shard)
        return pending

    def _flush_shard(self, shard: _Shard) -> None:
        """Drain the shard's outbox, one frame (≤ ``batch`` records) per write.

        The records are swapped out *after* the send lock is acquired:
        while one thread's frame is on the wire, records appended by
        concurrent dispatchers accumulate and ride the next frame.  The
        flush is gated by the pipe itself, never a timer — a lone record
        ships immediately, a burst coalesces, and the loop guarantees
        the caller never returns with its own record still buffered.
        """
        while True:
            with shard.send_lock:
                with self._lock:
                    if not shard.outbox:
                        return
                    records = shard.outbox[:self.batch]
                    del shard.outbox[:self.batch]
                failed = not shard.alive
                if not failed:
                    try:
                        shard.conn.send_bytes(pack_frame(FK_SPAWN, records))
                    except (OSError, ValueError, BrokenPipeError):
                        shard.alive = False
                        failed = True
            if failed:
                # The shard died under us.  Everything it owed — this
                # frame's records included (they are all registered in
                # _pending) — re-queues exactly once via _shard_down.
                self._shard_down(shard)
                return
            with self._lock:
                self.frames_sent += 1
                self.jobs_sent += len(records)
            if self.on_event is not None:
                try:
                    self.on_event("rpc_frame", shard.index, len(records))
                except Exception:
                    pass

    def _flush_all(self) -> None:
        for shard in self._shards:
            if shard.outbox:
                self._flush_shard(shard)

    def _redispatch(self, pending: _Pending) -> None:
        """Failover: move one orphaned job to a surviving shard."""
        with self._lock:
            if self._closed:
                shard = None
            else:
                shard = self._pick_shard()
                if shard is not None:
                    pending.shard = shard.index
                    self._pending[pending.token] = pending
                    shard.load += 1
                    shard.outbox.append(pending.record)
        if shard is None:
            self._complete(pending, PoolReply(kind=LOST, shard=pending.shard))
            return
        # Failover flushes immediately: promptness over amortization.  If
        # this flush finds the survivor dead too, _shard_down re-queues
        # again, terminating at LOST once no shard remains.
        self._flush_shard(shard)

    def _kill(self, pending: _Pending) -> None:
        with self._lock:
            shard = self._shards[pending.shard]
        # The spawn record may still be sitting in the outbox; a kill
        # overtaking its own spawn would be lost without this flush (the
        # worker's early_kills set covers the cross-thread residue).
        self._flush_shard(shard)
        shard.send_bytes(
            pack_frame(FK_KILL, [_KILL_REC.pack(pending.token)])
        )

    def _recv_loop(self, shard: _Shard) -> None:
        """Per-shard receiver: deliver replies until the pipe dies."""
        while True:
            try:
                buf = shard.conn.recv_bytes()
            except (EOFError, OSError):
                break
            if buf and buf[0] == FRAME_MAGIC and buf[1] == FK_RESULT:
                records = list(iter_result_records(buf))
                with self._lock:
                    self.frames_recv += 1
                    self.results_recv += len(records)
                for token, rc, out, err, start, end, spawn_dur, pid in records:
                    self._deliver(token, PoolReply(
                        kind=DONE, returncode=rc, stdout=out, stderr=err,
                        start=start, end=end, spawn_dur=spawn_dur, pid=pid,
                        shard=shard.index,
                    ))
                continue
            msg = pickle.loads(buf)
            if msg[0] == "err":
                _, token, message = msg
                self._deliver(token, PoolReply(
                    kind=ERR, returncode=127, stderr=bytes(message),
                    shard=shard.index,
                ))
        self._shard_down(shard)

    def _deliver(self, token: int, reply: PoolReply) -> None:
        with self._lock:
            pending = self._pending.pop(token, None)
            if pending is not None:
                self._shards[pending.shard].load -= 1
        if pending is None:
            return  # duplicate after failover re-dispatch; drop
        self._complete(pending, reply)

    @staticmethod
    def _complete(pending: _Pending, reply: PoolReply) -> None:
        pending.reply = reply
        pending.event.set()

    def _shard_down(self, shard: _Shard) -> None:
        """A shard died: mark it, re-queue its in-flight jobs elsewhere.

        "In flight" covers both frames already on the wire and records
        still buffered in the dead shard's outbox — every one of them is
        registered in ``_pending``, which is the single re-queue source,
        so each victim re-dispatches exactly once regardless of where in
        the frame pipeline the shard died.
        """
        with self._lock:
            if self._closed:
                return
            first_notice = shard.alive
            shard.alive = False
            shard.outbox.clear()
            victims = [p for p in self._pending.values()
                       if p.shard == shard.index]
            for p in victims:
                self._pending.pop(p.token, None)
            shard.load = 0
        if not (victims or first_notice):
            return  # duplicate notification (send failure + recv EOF)
        self.requeued += len(victims)
        if self.on_event is not None:
            try:
                self.on_event("dispatcher_death", shard.index, len(victims))
            except Exception:
                pass
        for p in victims:
            self._redispatch(p)
