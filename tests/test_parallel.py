"""The claim loop of `umc enumerate` (umc.parallel) against the serial
sink (cli._run_enumeration with graph.format_clique), which stays the
reference: the bytes must be equal at one worker and at several, one
worker must search in process, claim 0 must stream at one worker and at
two, a failing worker must end the run, and an output without a
descriptor and `--algo dfs-noip` must take the sink.  The workers must
take each claim of the ledger's claim table exactly once.

Through cmd_enumerate no test starts more processes than
os.sched_getaffinity(0) allows; the claim-table tests start four and five
workers whatever the CPU count.  Every wait has a timeout."""

import errno
import io
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from itertools import combinations
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from umc import cli, parallel
from umc.algorithms import (
    _enumerate,
    dfs_noip,
    large_mule,
    mule,
    search_graph,
    search_roots,
)
from umc.generators import GenSpec
from umc.graph import UncertainGraph, dump_graph
from umc.oracle import build_extremal_graph, exact_enumerate

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the parallel path needs os.fork and os.sched_getaffinity")

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
WORKERS = min(2, CPUS)
TIMEOUT_S = 60
SRC = Path(__file__).resolve().parent.parent / "src"


def serial_bytes(g, alpha, t):
    buf = io.StringIO()
    count = cli._run_enumeration(
        g, "mule", alpha, t,
        lambda c: buf.write(cli.format_clique(g, c) + "\n"))
    return count, buf.getvalue().encode()


def parallel_bytes(g, alpha, t, workers=WORKERS):
    """The claim loop's count and bytes, as cmd_enumerate runs it: on
    g's search graph."""
    with tempfile.TemporaryFile("w") as out:
        count = parallel.enumerate_into(out, search_graph(g, alpha, t),
                                        alpha, t, workers)
        fd = out.fileno()
        return count, os.pread(fd, os.fstat(fd).st_size, 0)


def gapped_labels(n):
    """n distinct positive labels, ascending, not necessarily 1..n."""
    return st.sets(st.integers(1, 1000), min_size=n, max_size=n).map(sorted)


@st.composite
def graphs_with_isolated_vertices(draw):
    """Up to 12 vertices, some of them isolated, under ascending labels
    with gaps (so labels other than 1..n and of mixed widths are covered)."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.integers(0, 2)) == 0:
                p = draw(st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.0]))
                edges.append((u, v, p))
    return UncertainGraph(n, edges, draw(gapped_labels(n)))


@settings(max_examples=60, deadline=None)
@given(graphs_with_isolated_vertices(), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(min_value=1, max_value=4))
def test_parallel_bytes_equal_serial_bytes(g, alpha, t):
    expected = serial_bytes(g, alpha, t)
    assert parallel_bytes(g, alpha, t) == expected
    assert parallel_bytes(g, alpha, t, workers=1) == expected


@st.composite
def ceiling_graphs(draw):
    """4 to 10 vertices, some of them isolated, under ascending labels
    with gaps.
    The edges share one or two probabilities below 1 and alpha is the
    cube or a higher power of one of them, so many cliques of 3 to 5
    vertices sit at alpha and the kernel decides them by its factor
    ceiling, in batches (in about 40% of the examples)."""
    probs = draw(st.lists(st.sampled_from([0.5, 0.6, 0.8, 0.9]),
                          min_size=1, max_size=2, unique=True))
    n = draw(st.integers(min_value=4, max_value=10))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    edges = [(u, v, draw(st.sampled_from(probs)))
             for u, v in combinations(range(n), 2)
             if not isolated & {u, v} and draw(st.integers(0, 5))]
    alpha = draw(st.sampled_from(probs)) ** draw(st.integers(3, 6))
    return UncertainGraph(n, edges, draw(gapped_labels(n))), alpha


def built_list_case(p_03):
    """Vertices 0..4 (internal indices, under labels 2, 3, 5, 8, 13):
    0-1, 0-2, 1-2, 1-3, 2-3, 1-4 and 2-4 at 0.9, and 0-3 at p_03.  Root
    1's child {1,2} has the candidates 3 and 4, so it is pushed with its
    exclusion list built from root 1's list, [0], through the row of 2,
    and its leaf {1,2,3} is decided by the scan of that list through the
    row of 3: it finds 0 when {0,1,2,3} is at or above alpha = 0.5 and
    none when it is below."""
    edges = [(0, 1, 0.9), (0, 2, 0.9), (0, 3, p_03), (1, 2, 0.9),
             (1, 3, 0.9), (1, 4, 0.9), (2, 3, 0.9), (2, 4, 0.9)]
    return UncertainGraph(5, edges, [2, 3, 5, 8, 13]), 0.5


@settings(max_examples=100, deadline=None)
@given(ceiling_graphs(), st.integers(min_value=1, max_value=4))
@example(built_list_case(0.9), 1)
@example(built_list_case(0.3), 1)
def test_parallel_bytes_equal_serial_bytes_at_the_ceiling(case, t):
    g, alpha = case
    assert parallel_bytes(g, alpha, t) == serial_bytes(g, alpha, t)


@settings(max_examples=60, deadline=None)
@given(graphs_with_isolated_vertices(), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(min_value=1, max_value=4))
def test_search_roots(g, alpha, t):
    """A search root has enough neighbours above it in the search graph to
    reach size t; any other root emits at most its singleton, so a claim
    can cover it.  The roots strictly ascend."""
    g = search_graph(g, alpha, t)
    roots = search_roots(g, t)
    assert roots == sorted(set(roots))
    for u in range(g.n):
        above = [w for w in g.row(u) if w > u]
        assert (u in roots) == (len(above) >= max(t - 1, 1))
        if u not in roots:
            emitted = []
            _enumerate(g, alpha, lambda *out: emitted.append(out), [u], t,
                       check_invariants=False)
            assert emitted in ([], [((), u, 1.0, None)])


def sink_bytes(g, run):
    """The bytes that run(sink) writes through the serial sink's
    format_clique."""
    buf = io.StringIO()
    run(lambda c: buf.write(cli.format_clique(g, c) + "\n"))
    return buf.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(graphs_with_isolated_vertices(), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(min_value=1, max_value=4))
def test_every_enumerator_writes_the_same_bytes_on_its_search_graph(
        g, alpha, t):
    """No alpha-clique holds an edge below alpha, and no alpha-clique of t
    or more vertices an edge outside the t-truss, so every enumerator
    writes the same bytes on g as on search_graph(g, alpha, t)."""
    def outputs(x):
        return (sink_bytes(x, lambda sink: large_mule(x, alpha, t, sink)),
                sink_bytes(x, lambda sink: dfs_noip(x, alpha, sink, t)),
                parallel_bytes(x, alpha, t, workers=1),
                parallel_bytes(x, alpha, t))

    assert outputs(search_graph(g, alpha, t)) == outputs(g)
    h = search_graph(g, alpha, 1)
    assert (sink_bytes(h, lambda sink: mule(h, alpha, sink))
            == sink_bytes(g, lambda sink: mule(g, alpha, sink)))


@pytest.mark.parametrize("n", [12, 14])
def test_extremal_graph(n):
    g = build_extremal_graph(n, 0.5)
    count, data = parallel_bytes(g, 0.5, 1)
    assert (count, data) == serial_bytes(g, 0.5, 1)
    assert data.count(b"\n") == count > 0


@pytest.fixture(scope="module")
def ba2000():
    return GenSpec("ba", 2000, m=10, seed=1).build()


@pytest.mark.parametrize("alpha", [0.001, 0.5, 0.9])
def test_ba_graph(ba2000, alpha):
    assert parallel_bytes(ba2000, alpha, 1) == serial_bytes(ba2000, alpha, 1)


def test_ba_graph_size_threshold(ba2000):
    for t in (3, 4):
        assert (parallel_bytes(ba2000, 0.1, t)
                == serial_bytes(ba2000, 0.1, t))


@pytest.fixture(scope="module")
def er400():
    return GenSpec("er", 400, density=0.01, seed=3).build()


@pytest.mark.parametrize("alpha", [0.001, 0.3])
def test_sparse_er_graph(er400, alpha):
    """Singletons (5 at alpha 0.001, 18 at 0.3) and 2- and 3-cliques, so
    the sink's format_clique meets format_batch on those."""
    expected = serial_bytes(er400, alpha, 1)
    assert parallel_bytes(er400, alpha, 1) == expected
    assert parallel_bytes(er400, alpha, 1, workers=1) == expected


@pytest.fixture(scope="module")
def er200():
    return GenSpec("er", 200, density=0.3, seed=5).build()


def test_dense_er_graph(er200):
    """ER n=200 at density 0.3: 16,458 cliques at alpha 0.05, of 2 to 5
    vertices, most of them triangles."""
    expected = serial_bytes(er200, 0.05, 1)
    assert expected[0] == 16458
    assert parallel_bytes(er200, 0.05, 1) == expected
    assert parallel_bytes(er200, 0.05, 1, workers=1) == expected


def test_dense_er_graph_matches_the_exact_reference(er200):
    out = []
    mule(er200, 0.05, out.append)
    assert ({c.vertices for c in out}
            == exact_enumerate(er200, 0.05))


def exit_codes(pids):
    """The exit codes of the child processes pids; one still running
    TIMEOUT_S after the first wait is killed."""
    deadline = time.monotonic() + TIMEOUT_S
    codes = []
    for pid in pids:
        while not (done := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.01)
        codes.append(os.waitstatus_to_exitcode(done[1]))
    return codes


def test_forked_readers_take_each_claim_once():
    """Four forked workers drain a claim table of 19,999 slots through
    the shared file offset.  Claim k is root k of an edgeless graph, whose
    one line is its singleton, so the spools together hold each claim's
    line once, and each slot records the segment that holds its line."""
    claims = 20_000  # claim 0 is not in the table
    g = UncertainGraph(claims, [])
    g.rows()
    ends = list(range(1, claims + 1))
    files = [tempfile.TemporaryFile() for _ in range(5)]
    try:
        ledger, spools = files[0].fileno(), files[1:]
        os.pwrite(ledger, b"".join(parallel._SLOT.pack(k, 0, 0, 0)
                                   for k in range(1, claims)), 0)
        pids = [parallel._fork(parallel._spool, w, spools[w], ledger, ends,
                               g, 0.5, 1) for w in range(4)]
        assert exit_codes(pids) == [0] * 4
        data = [os.pread(fh.fileno(), os.fstat(fh.fileno()).st_size, 0)
                for fh in spools]
        slots = list(parallel._SLOT.iter_unpack(
            os.pread(ledger, parallel._SLOT.size * claims, 0)))
    finally:
        for fh in files:
            fh.close()
    lines = sorted(b"".join(data).splitlines(), key=lambda ln: int(ln[2:]))
    assert lines == [f"1 {k + 1}".encode() for k in range(1, claims)]
    assert len(slots) == claims - 1
    for k, (claim, w, offset, size) in enumerate(slots, start=1):
        assert claim == k
        assert data[w][offset:offset + size] == f"1 {k + 1}\n".encode()


@pytest.mark.parametrize("graph, alpha, t", [
    ("k16", 0.5, 1), ("ba2000", 0.1, 4), ("er200", 0.05, 1)])
def test_more_workers_than_cpus_write_the_bytes_of_one(graph, alpha, t,
                                                      request):
    """Six workers, more than the CPUs of a small machine, so that they
    contend for the claim table, write what one worker writes."""
    g = (build_extremal_graph(16, 0.5) if graph == "k16"
         else request.getfixturevalue(graph))
    expected = parallel_bytes(g, alpha, t, workers=1)
    assert expected[0] > 0
    assert parallel_bytes(g, alpha, t, workers=6) == expected


def assert_streams_into_a_pipe(monkeypatch, workers):
    """This process's search is held once it has formatted BUFFER_LINES
    lines, and line 1 reaches the reader of the pipe before the hold is
    released.  A forked worker is never held: it cannot see the event."""
    g = build_extremal_graph(16, 0.5)
    expected = serial_bytes(g, 0.5, 1)[1]
    release = threading.Event()
    formatted = 0
    real = parallel.format_batch
    here = os.getpid()

    def held_format_batch(*args):
        nonlocal formatted
        if os.getpid() != here:
            return real(*args)
        if formatted >= parallel.BUFFER_LINES:
            release.wait(TIMEOUT_S)
        lines = real(*args)
        formatted += len(lines)
        return lines

    monkeypatch.setattr(parallel, "format_batch", held_format_batch)
    r, w = os.pipe()
    counts = []

    def search(out):
        with out:
            counts.append(parallel.enumerate_into(out, g, 0.5, 1, workers))

    with os.fdopen(r, "rb") as reader:
        thread = threading.Thread(target=search, args=(os.fdopen(w, "w"),))
        thread.start()
        try:
            ready, _, _ = select.select([reader], [], [], TIMEOUT_S)
            first = reader.readline() if ready else b""
            held = thread.is_alive() and not release.is_set()
        finally:
            release.set()
        rest = reader.read()  # ends when the search closes its end
    thread.join(TIMEOUT_S)
    assert not thread.is_alive()
    assert first == expected[:expected.index(b"\n") + 1]
    assert held
    assert first + rest == expected
    assert counts == [expected.count(b"\n")]


def test_one_worker_streams_into_a_pipe(monkeypatch):
    assert_streams_into_a_pipe(monkeypatch, 1)


@pytest.mark.skipif(CPUS < 2, reason="needs two CPUs for a worker process")
def test_two_workers_stream_claim_0_into_a_pipe(monkeypatch):
    """Claim 0, root 0's C(15, 7) cliques, goes straight to the pipe
    while a forked worker searches the later claims."""
    assert_streams_into_a_pipe(monkeypatch, 2)


@pytest.mark.parametrize("flags", [[], ["--min-size", "3"]],
                         ids=["mule", "large-mule"])
def test_one_cpu_searches_in_process(k12, forks, tmp_path, monkeypatch,
                                     flags):
    """Pinned to one CPU, the claim loop runs as one worker, in process:
    no fork, no temporary file, no Clique formatted by the sink."""
    g = cli._load_file(str(k12), "prob")
    expected = serial_bytes(g, 0.5, 3 if flags else 1)[1]

    def refuse(*args, **kwargs):
        raise AssertionError("not on the one-worker path")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "format_clique", refuse)
    monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
    out = tmp_path / "c.txt"
    assert cli.main(["enumerate", "--input", str(k12), "--alpha", "0.5",
                     "--out", str(out), *flags]) == 0
    assert forks == []
    assert out.read_bytes() == expected


@pytest.fixture
def k12(tmp_path):
    path = tmp_path / "k12.txt"
    with open(path, "w") as fh:
        dump_graph(build_extremal_graph(12, 0.5), fh)
    return path


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork made while the test runs, by the process it runs in."""
    made = []
    real = os.fork

    def counting_fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


@pytest.mark.parametrize("text", [
    "n 12\n" + "".join(f"{u} {v} 1\n" for u in range(1, 13)
                       for v in range(u + 1, 13)),
    "n 6\n2 5 0.9\n",  # one root starts a search: no fork
])
def test_forks_at_most_cpus_and_search_roots(tmp_path, forks, text):
    inp = tmp_path / "g.txt"
    inp.write_text(text)
    out = tmp_path / "c.txt"
    assert cli.main(["enumerate", "--input", str(inp), "--alpha", "0.5",
                     "--out", str(out)]) == 0
    g = cli._load_file(str(inp), "prob")
    roots = search_roots(search_graph(g, 0.5, 1), 1)
    assert len(forks) == max(min(CPUS, len(roots)), 1) - 1
    assert out.read_bytes() == serial_bytes(g, 0.5, 1)[1]


def test_capsys_stdout_takes_serial_path(k12, forks, capsys):
    assert cli.main(["enumerate", "--input", str(k12), "--alpha", "0.5"]) == 0
    assert forks == []
    g = cli._load_file(str(k12), "prob")
    assert capsys.readouterr().out.encode() == serial_bytes(g, 0.5, 1)[1]


@pytest.mark.parametrize("flags, target", [
    ([], "--out"), ([], "stdout"), (["--algo", "dfs-noip"], "--out"),
    (["--min-size", "2"], "--out")],
    ids=["parallel", "capsys", "dfs-noip", "min-size-2"])
def test_headerless_stream_sorted_by_label_tuple(tmp_path, monkeypatch, forks,
                                                 capsys, flags, target):
    # labels first appear as 5, 2, 1; the stream lists {1, 2} first on
    # every path
    inp = tmp_path / "g.txt"
    inp.write_text("5 2 0.9\n2 1 0.8\n")
    out = tmp_path / "c.txt"
    where = ["--out", str(out)] if target == "--out" else []
    if where:  # two workers, one per search root, whatever the CPU count
        monkeypatch.setattr(parallel, "available_workers", lambda _: 2)
    assert cli.main(["enumerate", "--input", str(inp), "--alpha", "0.75",
                     *flags, *where]) == 0
    text = out.read_text() if where else capsys.readouterr().out
    assert [ln.split()[1:] for ln in text.splitlines()] == [["1", "2"],
                                                          ["2", "5"]]
    assert len(forks) == (0 if "dfs-noip" in flags or not where else 1)


def test_serial_only_options(k12, forks, tmp_path):
    out = tmp_path / "c.txt"
    assert cli.main(["enumerate", "--input", str(k12), "--alpha", "0.5",
                     "--out", str(out), "--algo", "dfs-noip"]) == 0
    assert forks == []
    assert out.read_bytes().count(b"\n") == 924  # C(12, 6)


def test_live_thread_takes_serial_path(k12, forks, tmp_path):
    """A live thread makes the run one worker, searched in process."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(TIMEOUT_S,))
    thread.start()
    try:
        out = tmp_path / "c.txt"
        assert cli.main(["enumerate", "--input", str(k12), "--alpha", "0.5",
                         "--out", str(out)]) == 0
    finally:
        release.set()
        thread.join(TIMEOUT_S)
    assert not thread.is_alive()
    assert forks == []
    g = cli._load_file(str(k12), "prob")
    assert out.read_bytes() == serial_bytes(g, 0.5, 1)[1]


def run_cli_script(script, *args, stdout=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=TIMEOUT_S)


# Runs `umc enumerate` with the worker's one formatter (format_batch, as
# umc.parallel looks it up) replaced by one that raises in one process
# (argv[3]: the parent or its worker) and stalls argv[4] seconds on the
# first clique in the other, then prints the exit code and whether any
# child process is left.
FAILING_RUN = """
import os, sys, time
import umc.cli as cli
from umc import parallel

parent = os.getpid()
stalled = []

def failing(real):
    def fmt(*args):
        if (os.getpid() == parent) == (sys.argv[3] == "parent"):
            raise RuntimeError("format failed")
        if not stalled:
            stalled.append(True)
            time.sleep(float(sys.argv[4]))
        return real(*args)
    return fmt

parallel.format_batch = failing(parallel.format_batch)
try:
    rc = cli.main(["enumerate", "--input", sys.argv[1], "--alpha", "0.5",
                   "--out", sys.argv[2]])
except RuntimeError:
    rc = "raised"
try:
    os.waitpid(-1, os.WNOHANG)
    left = "children left"
except ChildProcessError:
    left = "no children"
print(rc, left)
"""


@pytest.mark.skipif(CPUS < 2, reason="needs two CPUs for a worker process")
def test_failing_worker_fails_the_run(k12, tmp_path):
    # The parent stalls 1 s on its first clique, so the worker claims
    # roots with cliques while it waits.
    proc = run_cli_script(FAILING_RUN, k12, tmp_path / "c.txt", "worker", 1)
    assert proc.stdout.split() == ["1", "no", "children"]
    assert "RuntimeError: format failed" in proc.stderr
    assert "error: a search worker exited with status 1" in proc.stderr


@pytest.mark.skipif(CPUS < 2, reason="needs two CPUs for a worker process")
def test_failing_parent_kills_the_worker(k12, tmp_path):
    # The worker would stall far past the timeout; the parent must kill it.
    proc = run_cli_script(FAILING_RUN, k12, tmp_path / "c.txt", "parent",
                          2 * TIMEOUT_S)
    assert proc.stdout.split() == ["raised", "no", "children"]


# stdout as the shell hands it over: a file, a file opened for appending
# and a pipe.
STDOUT_RUN = """
import sys
import umc.cli as cli
sys.exit(cli.main(["enumerate", "--input", sys.argv[1], "--alpha", "0.5"]))
"""


def test_stdout_file_append_and_pipe(k12, tmp_path):
    expected = serial_bytes(cli._load_file(str(k12), "prob"), 0.5, 1)[1]
    piped = run_cli_script(STDOUT_RUN, k12)
    assert piped.returncode == 0
    assert piped.stdout.encode() == expected
    for mode in ("wb", "ab"):
        path = tmp_path / f"stdout-{mode}.txt"
        path.write_bytes(b"head\n")
        with open(path, mode) as fh:
            proc = run_cli_script(STDOUT_RUN, k12, stdout=fh)
        assert proc.returncode == 0
        head = b"head\n" if mode == "ab" else b""
        assert path.read_bytes() == head + expected


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Graph files by the size of their output: C(16, 8) = 12,870 lines,
    far more than a pipe holds, and two lines, which fit in any buffer."""
    folder = tmp_path_factory.mktemp("outputs")
    with open(folder / "k16.txt", "w") as fh:
        dump_graph(build_extremal_graph(16, 0.5), fh)
    (folder / "two-lines.txt").write_text("n 3\n1 2 0.9\n")
    return {"k16": folder / "k16.txt", "two-lines": folder / "two-lines.txt"}


# Runs `umc enumerate` in development mode, where a file left open is
# reported on stderr, and reports there too any child process left.
WRITE_ERROR_RUN = """
import os, sys
import umc.cli as cli
rc = cli.main(["enumerate", "--input", *sys.argv[1:]])
try:
    os.waitpid(-1, os.WNOHANG)
    print("children left", file=sys.stderr)
except ChildProcessError:
    pass
sys.exit(rc)
"""


def write_error_run(*args, **kwargs):
    """Popen keyword arguments for WRITE_ERROR_RUN with args; stdout is
    block-buffered, as it is for a user, whatever PYTHONUNBUFFERED says
    here."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return dict(args=[sys.executable, "-X", "dev", "-W",
                      "error::ResourceWarning", "-c", WRITE_ERROR_RUN,
                      *map(str, args)],
                stderr=subprocess.PIPE, text=True, env=env, **kwargs)


def assert_clean(stderr):
    for text in ("Traceback", "Exception ignored", "children left"):
        assert text not in stderr


# dfs-noip writes on the serial path, whose write errors are the plain
# OSErrors of out.write and out.flush.
@pytest.mark.parametrize("flags", [[], ["--algo", "dfs-noip"]],
                         ids=["default", "serial"])
@pytest.mark.parametrize("size", ["k16", "two-lines"])
def test_reader_closing_the_pipe_early_ends_the_run_quietly(outputs, flags,
                                                           size):
    # The reader takes one line of k16's output.  Two lines fit in the
    # pipe, so there it reads none and closes at once, and the run fails
    # only on its last flush.
    proc = subprocess.Popen(**write_error_run(
        outputs[size], "--alpha", "0.5", *flags, stdout=subprocess.PIPE))
    try:
        first = proc.stdout.readline() if size == "k16" else ""
        proc.stdout.close()
        _, err = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=TIMEOUT_S)
    if size == "k16":
        assert len(first.split()) == 9  # a probability and 8 vertices
    assert proc.returncode == 1
    assert_clean(err)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, a device that is always full")
@pytest.mark.parametrize("flags", [[], ["--algo", "dfs-noip"]],
                         ids=["default", "serial"])
@pytest.mark.parametrize("target", ["--out", "stdout"])
@pytest.mark.parametrize("size", ["k16", "two-lines"])
def test_full_output_is_one_error_line(outputs, flags, target, size):
    out = ["--out", "/dev/full"] if target == "--out" else []
    with open("/dev/full", "wb") as stdout:
        proc = subprocess.run(**write_error_run(
            outputs[size], "--alpha", "0.5", *flags, *out, stdout=stdout,
            timeout=TIMEOUT_S))
    assert proc.returncode == 2
    name = "/dev/full" if out else "stdout"
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: cannot write {name}: ")
    assert_clean(proc.stderr)


@pytest.mark.parametrize("flags", [[], ["--algo", "dfs-noip"]],
                         ids=["default", "serial"])
def test_closed_stdout_is_one_error_line(outputs, flags):
    # The interpreter sets sys.stdout to None when it starts with file
    # descriptor 1 closed.
    proc = subprocess.run(**write_error_run(
        outputs["two-lines"], "--alpha", "0.5", *flags,
        preexec_fn=lambda: os.close(1), timeout=TIMEOUT_S))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert_clean(proc.stderr)


# Runs `umc enumerate --out argv[2]` with every read of a whole COPY_CHUNK
# failing with EIO.  Only the parent's copy phase reads that many bytes.
SPOOL_READ_ERROR_RUN = """
import errno, os, sys
import umc.cli as cli
from umc import parallel

real = os.pread

def pread(fd, size, offset):
    if size == parallel.COPY_CHUNK:
        raise OSError(errno.EIO, os.strerror(errno.EIO))
    return real(fd, size, offset)

os.pread = pread
sys.exit(cli.main(["enumerate", "--input", sys.argv[1], "--alpha", "0.5",
                   "--out", sys.argv[2]]))
"""


@pytest.mark.skipif(CPUS < 2, reason="needs two CPUs for a worker process")
def test_failed_spool_read_is_not_an_output_error(outputs, tmp_path):
    # Root 0's claim goes straight to the output, unspooled; the segment
    # of root 1, its C(14, 7) = 3,432 cliques, is spooled and longer than
    # one chunk.
    proc = run_cli_script(SPOOL_READ_ERROR_RUN, outputs["k16"],
                          tmp_path / "c.txt")
    assert proc.returncode == 1
    assert f"OSError: [Errno {errno.EIO}] " in proc.stderr
    assert "cannot write" not in proc.stderr
