"""The claim loop that writes `umc enumerate --algo mule` output.

Each root vertex's subtree depends on that root alone (see
algorithms._enumerate), so the roots can be searched in any process and
in any order.  The kernel hands out every clique through its one output,
emit(c, u, q, ext), where c is the clique tuple of the search frame, shared
by all the frame's cliques.  Labels ascend with the index (see umc.graph),
so a worker joins each frame's labels once, and graph.format_batch, looked
up in this module's globals at call time, adds each clique's last one or
two labels.  A worker hands on its lines BUFFER_LINES at a time.

The roots are handed out in claims.  Claim 0, the roots up to the first
that starts a search, is this process's at every worker count: it
searches it first and writes each buffer straight to the output's
descriptor, so the output streams from its first line.  One worker (one
CPU, a live thread, no os.fork) has that one claim, every root, and no
ledger, temporary file or fork.  Two or more share the search graph and
its rows, built before the fork, copy-on-write, and one ledger file, a
table of one _SLOT per claim k >= 1 (slot k at byte _SLOT.size * (k - 1)),
filled before the fork.  Each of them (this process once claim 0 is
written) takes its next claim by reading one slot through the file offset
they all share, writes the claim's lines to its own temporary file, and
overwrites the slot it read with that segment.  Once every worker has
finished, this process copies the segments the table lists into the
output in claim order, which is root order, so the output is byte for
byte that of one worker.

A read() on a regular file is atomic with respect to its file offset
(POSIX), and Linux serialises such reads for processes that share an open
file description (since 3.14), so each slot is read exactly once, in
ascending order.  No lock is held, so a worker that dies can never leave
the others waiting.
"""

from __future__ import annotations

import os
import signal
import struct
import tempfile
import threading

from .algorithms import _enumerate, search_roots
from .graph import UncertainGraph, format_batch

_SLOT = struct.Struct("4q")  # claim k; then its worker, spool offset, length
BUFFER_LINES = 1024  # formatted lines a worker holds before it writes
COPY_CHUNK = 1 << 16  # bytes per read and write; the buffer counts in RSS


class WorkerError(RuntimeError):
    """A search worker exited with a nonzero status."""


class OutputError(OSError):
    """Writing the output failed; errno and text are the failed call's."""


def available_workers(out) -> int:
    """How many processes may search for out: 0 when out has no
    descriptor, else the CPUs this process may run on, or 1 where it
    cannot fork (no os.fork or os.sched_getaffinity) or another thread
    runs, which fork would copy in an unknown state."""
    try:
        out.fileno()
    except (AttributeError, OSError, ValueError):
        return 0
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "fork") else 1


def enumerate_into(out, g: UncertainGraph, alpha: float, t: int,
                   workers: int) -> int:
    """Write the clique-stream lines (graph.format_clique's) of g's
    alpha-maximal cliques with at least t vertices to out's descriptor,
    in the order large_mule emits them, using at most `workers` (>= 1)
    processes, this one included.  g is taken as the search graph that
    algorithms.search_graph(..., alpha, t) made: no edge is tested
    against alpha here.  Returns the clique count (the lines written).

    One claim is handed out per root that starts a search; it also covers
    the roots just before it that start none, and the last claim every
    root after it; one worker has one claim, every root.  Claim 0 is
    searched here first, after any fork, and written straight to out; a
    single claim makes no fork or temporary file.  With several claims,
    the ledger's table holds one slot per claim k >= 1, written with
    os.pwrite before the fork, so the offset the workers share stays at 0;
    they (this process once claim 0 is written) read their claims from
    it, and record each claim's segment in the slot they read.  Raises
    WorkerError, after killing and reaping the other workers, when one
    exits nonzero; it has printed its traceback to file descriptor 2.
    Raises OutputError when flushing or writing out fails; a failure on
    the spool side keeps its exception.
    """
    ends = [g.n]  # claim k: roots ends[k - 1] (0 for k = 0) to ends[k] - 1
    if workers > 1:
        g.rows()  # built before the fork, so every worker shares them
        ends = [u + 1 for u in search_roots(g, t)][:-1] + [g.n]
        workers = min(workers, len(ends))
    _output(out.flush)
    files, pids = [], []  # the ledger, then one spool per worker; worker pids
    try:
        if workers > 1:
            for _ in range(1 + workers):
                files.append(tempfile.TemporaryFile())
            ledger, spools = files[0].fileno(), files[1:]
            os.pwrite(ledger, b"".join(_SLOT.pack(k, 0, 0, 0)
                                       for k in range(1, len(ends))), 0)
            for w in range(1, workers):
                pids.append(_fork(_spool, w, spools[w], ledger, ends, g,
                                  alpha, t))
        count = _work(g, alpha, t, lambda flush: range(ends[0]),
                      lambda data: _send(out.fileno(), data))
        if workers > 1:
            _spool(0, spools[0], ledger, ends, g, alpha, t)
            while pids:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if code:
                    raise WorkerError(
                        f"a search worker exited with status {code}")
            slots = _SLOT.iter_unpack(os.pread(
                ledger, _SLOT.size * (len(ends) - 1), 0))
            count += sum(_copy(spools[w].fileno(), out.fileno(), offset,
                               offset + size) for _, w, offset, size in slots)
        return count
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fh in files:
            fh.close()


def _fork(work, *args) -> int:
    """Run work(*args) in a child process; returns its pid.  The child
    ends only through os._exit, so it never returns into the caller's
    stack, runs no exit handler and flushes no buffer it inherited."""
    pid = os.fork()
    if pid:
        return pid
    try:
        work(*args)
        os._exit(0)
    except BaseException:
        import traceback  # only a failing worker pays for the import

        os.write(2, traceback.format_exc().encode(errors="replace"))
        raise  # no further than the os._exit below
    finally:
        os._exit(1)  # also when printing the traceback fails


def _spool(w, spool, ledger, ends, g, alpha, t) -> None:
    """Worker w of several: read the next slot of the ledger's claim
    table, search, format and spool its claim, and overwrite the slot with
    the claim's segment, until a read finds no slot left."""
    def claims(flush):
        while slot := os.read(ledger, _SLOT.size):
            k = _SLOT.unpack(slot)[0]
            offset = spool.tell()
            yield from range(ends[k - 1], ends[k])
            flush()
            os.pwrite(ledger, _SLOT.pack(k, w, offset, spool.tell() - offset),
                      _SLOT.size * (k - 1))

    _work(g, alpha, t, claims, spool.write)
    spool.flush()


def _work(g, alpha, t, roots, write) -> int:
    """Search the roots that roots(flush) yields and hand their lines to
    write() as bytes: BUFFER_LINES at a time, when roots calls flush() and
    at the end.  Returns the sum of what write() returned."""
    lines: list[str] = []
    written: list[int] = []  # write()'s result for each buffer

    def flush():
        if lines:
            lines.append("")
            written.append(write("\n".join(lines).encode("ascii")))
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

    _enumerate(g, alpha, emit, roots(flush), t, check_invariants=False)
    flush()
    return sum(written)


def _copy(src: int, dst: int, offset: int, end: int) -> int:
    """Copy bytes offset..end of src to dst's current position, one pread
    and one _send of at most COPY_CHUNK bytes at a time; returns the
    number of lines copied."""
    lines = 0
    while offset < end:
        data = os.pread(src, min(end - offset, COPY_CHUNK), offset)
        if not data:
            raise EOFError(f"spool ended at byte {offset} of {end}")
        lines += _send(dst, data)
        offset += len(data)
    return lines


def _send(fd: int, data: bytes) -> int:
    """Write all of data to fd; returns the number of lines in it.  Only a
    failed write raises, as OutputError, and it leaves nothing buffered."""
    view = memoryview(data)
    while view:
        view = view[_output(os.write, fd, view):]
    return data.count(b"\n")


def _output(call, *args):
    """call(*args), with an OSError it raises turned into OutputError."""
    try:
        return call(*args)
    except OSError as exc:
        raise OutputError(exc.errno, exc.strerror) from None
