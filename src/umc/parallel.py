"""`umc enumerate` with the root subtrees searched in worker processes.

Each root vertex's subtree depends on that root alone (see
algorithms._enumerate), so the roots can be searched in any process and
in any order.  The parent loads and size-filters the graph once, and
builds the filtered graph's rows (enumerate_into does), then forks; the
workers share the graph and its rows copy-on-write.  Every worker, the
parent among them, claims roots from a counter in a shared ledger file,
searches them, formats their cliques and writes them to its own
temporary file, one segment per claim, recording each segment in the
ledger.  The kernel hands out every clique through its one
output, emit(c, u, q, ext), where c is the clique tuple of the search
frame the clique comes from, shared by all the frame's cliques (see
algorithms._enumerate).  Labels ascend with the index (see umc.graph),
so a worker joins each frame's labels once, and graph.format_batch adds
the last one or two labels of each clique from label strings built in
the process that formats.  It is looked up in this module's globals at
call time.  Once every worker has finished, the parent copies the
segments into the output in claim order, which is root order, so the
output is byte for byte that of a serial run.

The counter is guarded by fcntl.lockf, which the kernel releases when its
holder dies, so a worker that fails can never leave the others waiting.
"""

from __future__ import annotations

import fcntl
import os
import signal
import struct
import tempfile
import threading
import time

from .algorithms import _enumerate, search_roots, size_filter
from .graph import UncertainGraph, format_batch

_COUNTER = struct.Struct("q")  # ledger offset 0: the next claim to hand out
_SEGMENT = struct.Struct("3q")  # per claim: worker, offset, length
BUFFER_LINES = 1024  # formatted lines a worker holds before it writes
COPY_CHUNK = 1 << 16  # bytes per read and write; the buffer counts in RSS


class WorkerError(RuntimeError):
    """A search worker exited with a nonzero status."""


class OutputError(OSError):
    """Writing the output failed; errno and text are the failed call's."""


def available_workers(out) -> int:
    """How many processes may search for out: the CPUs this process may
    run on, or 1 when the parallel path cannot serve it (out has no
    descriptor, the platform cannot fork, or another thread is running,
    which fork would copy in an unknown state)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    try:
        out.fileno()
    except (AttributeError, OSError, ValueError):
        return 1
    return len(os.sched_getaffinity(0))


def enumerate_into(out, g: UncertainGraph, alpha: float, t: int,
                   workers: int) -> tuple[int, float]:
    """Write the clique-stream lines (graph.format_clique's) of g's
    alpha-maximal cliques with at least t vertices to out, in the order
    large_mule emits them, using at most `workers` processes (this one
    included).  Returns the clique count, taken from the lines copied
    (one line per clique), and the milliseconds spent from the size
    filter to the last byte copied, as cli._run_enumeration does for its
    sink.  The filtered graph's rows are built here, before the fork, so
    that the workers share one copy of them.

    One claim is handed out per root that starts a search; it also covers
    the roots just before it that start none, and the last claim covers
    every root after it.  Raises WorkerError, after killing and reaping
    the other workers, when one exits nonzero; that worker has printed its
    traceback to file descriptor 2.  Raises OutputError when flushing or
    writing out fails; a failure on the spool side keeps its exception.
    """
    start = time.perf_counter()
    g = size_filter(g, alpha, t)
    g.rows()  # built before the fork, so every worker shares them
    ends = [u + 1 for u in search_roots(g, alpha, t)][:-1] + [g.n]
    workers = max(1, min(workers, len(ends)))
    files = []  # the ledger, then one spool per worker
    pids: list[int] = []
    try:
        for _ in range(1 + workers):
            files.append(tempfile.TemporaryFile())
        ledger, spools = files[0].fileno(), files[1:]
        os.ftruncate(ledger, _COUNTER.size + _SEGMENT.size * len(ends))

        def work(w):
            _work(w, spools[w], ledger, ends, g, alpha, t)

        for w in range(1, workers):
            pids.append(_fork(work, w))
        work(0)
        while pids:
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise WorkerError(f"a search worker exited with status {code}")
        segments = _SEGMENT.iter_unpack(os.pread(
            ledger, _SEGMENT.size * len(ends), _COUNTER.size))
        _output(out.flush)
        count = sum(_copy(spools[w].fileno(), out.fileno(), offset,
                          offset + length)
                    for w, offset, length in segments)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for fh in files:
            fh.close()
    return count, (time.perf_counter() - start) * 1000.0


def _fork(work, w: int) -> int:
    """Start worker w in a child process; returns its pid.  The child
    ends only through os._exit, so it never returns into the caller's
    stack, runs no exit handler and flushes no buffer it inherited."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        work(w)
        status = 0
    except BaseException:
        import traceback  # only a failing worker pays for the import

        os.write(2, traceback.format_exc().encode(errors="replace"))
        raise  # no further than the os._exit below
    finally:
        os._exit(status)


def _work(w, spool, ledger, ends, g, alpha, t) -> None:
    """Worker w: claim, search, format and spool until no claim is left."""
    lines: list[str] = []

    def flush():
        if lines:
            lines.append("")
            spool.write("\n".join(lines).encode("ascii"))
            lines.clear()

    frame = head = None  # the last output's frame clique and its labels

    def emit(c, u, q, ext):
        nonlocal frame, head
        if c is not frame:  # the frame's cliques share its clique tuple
            frame = c
            head = g.label_text(c)
        lines.extend(format_batch(g, head, u, q, ext))
        if len(lines) >= BUFFER_LINES:
            flush()

    def roots():
        while (k := _claim(ledger)) < len(ends):
            offset = spool.tell()
            yield from range(ends[k - 1] if k else 0, ends[k])
            flush()
            os.pwrite(ledger, _SEGMENT.pack(w, offset, spool.tell() - offset),
                      _COUNTER.size + _SEGMENT.size * k)

    _enumerate(g, alpha, emit, roots(), t, check_invariants=False)
    spool.flush()


def _claim(ledger: int) -> int:
    """The next claim number, taken under the ledger's lock."""
    fcntl.lockf(ledger, fcntl.LOCK_EX)
    try:
        (k,) = _COUNTER.unpack(os.pread(ledger, _COUNTER.size, 0))
        os.pwrite(ledger, _COUNTER.pack(k + 1), 0)
    finally:
        fcntl.lockf(ledger, fcntl.LOCK_UN)
    return k


def _copy(src: int, dst: int, offset: int, end: int) -> int:
    """Copy bytes offset..end of src to dst's current position, one pread
    and one write of at most COPY_CHUNK bytes at a time; returns the
    number of lines copied.  Only a failed write raises OutputError."""
    lines = 0
    while offset < end:
        data = os.pread(src, min(end - offset, COPY_CHUNK), offset)
        if not data:
            raise EOFError(f"spool ended at byte {offset} of {end}")
        sent = _output(os.write, dst, data)
        lines += data.count(b"\n", 0, sent)
        offset += sent
    return lines


def _output(call, *args):
    """call(*args), with an OSError it raises turned into OutputError."""
    try:
        return call(*args)
    except OSError as exc:
        raise OutputError(exc.errno, exc.strerror) from None
