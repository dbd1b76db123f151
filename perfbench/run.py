"""Benchmark of `umc enumerate`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ba-mule --seed 1 --seconds 30 --trace 0

--trace 0 generates the workload input with `umc generate`, then times
`umc enumerate` child processes one after another, with nothing else
running, until --seconds of runs (at least three) are done.  It reports
the median run time, peak memory and set-up time.

--trace 1 runs the same input once untraced and then through
trace_child.py, which wraps each layer's public functions, and reports
per-layer times and deterministic work counts.

Every run's output is checked outside the timed region: each line must be
an alpha-maximal clique with the right probability and appear once, and
the clique set must match a reference (see check.py).  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exit 0 when every check passes, 1 when one fails, 2 when the
benchmark cannot run at all (for example, with no package source beside
it).  See README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACE_CHILD = HERE / "trace_child.py"
CHECK = HERE / "check.py"

MIN_RUNS = 3
SETUP_REPEATS = 3
TIME_LIMIT_S = 170
MIN_SPAN_COVERAGE = 0.9
MAX_PROBLEMS_SHOWN = 5

# One interpreter thread per child: numpy's BLAS would otherwise start a
# thread pool on import that the enumeration never uses.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (exit 2)."""


@dataclass(frozen=True)
class Workload:
    name: str
    generate: tuple[str, ...]  # `umc generate` arguments but --seed/--out
    seeded: bool  # BA inputs take the seed; the extremal graph has none
    alpha: float
    min_size: int  # > 1 selects large_mule

    @property
    def reference(self) -> str:
        """How check.py finds the expected cliques."""
        return "dfs_noip" if self.seeded else "extremal"

    def generate_argv(self, seed: int, out: Path) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.seeded else []
        return [sys.executable, "-m", "umc.cli", "generate", *self.generate,
                *seed_args, "--out", str(out)]

    def enumerate_args(self, inp: Path, out: Path) -> list[str]:
        return ["--input", str(inp), "--alpha", repr(self.alpha),
                "--algo", "mule", "--min-size", str(self.min_size),
                "--out", str(out)]


BA_10K = ("--family", "ba", "--n", "10000", "--m", "10")
WORKLOADS = {w.name: w for w in (
    Workload("ba-mule", BA_10K, True, 0.001, 1),
    Workload("ba-large", BA_10K, True, 0.1, 4),
    Workload("extremal20", ("--family", "extremal", "--n", "20",
                            "--alpha", "0.5"), False, 0.5, 1),
)}


@dataclass
class Child:
    wall_s: float
    rc: int
    peak_rss_mb: float
    cpu_s: float
    spawned: float  # perf_counter() just before the spawn


def run_child(argv: list[str], log: Path) -> Child:
    """Run argv to completion; rusage comes from wait4, so it covers the
    child and every descendant it waited for."""
    with open(log, "w") as log_fh:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log_fh,
                                env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime, spawned)


def log_tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class Checker:
    """check.py for one input, started after set-up.  It computes the
    reference once, then checks each run's output on request; it waits on
    its stdin, idle, while a run is timed."""

    def __init__(self, w: Workload, inp: Path, log: Path):
        self._log_path = log
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(CHECK), str(inp), repr(w.alpha),
             str(w.min_size), w.reference],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True, env=CHILD_ENV, cwd=ROOT)

    def wait_ready(self) -> None:
        """Block until the reference is built."""
        self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"output checker stopped: {log_tail(self._log_path)}")
        return json.loads(line)

    def check(self, out: Path) -> dict:
        self.proc.stdin.write(f"{out}\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._log.close()


class Session:
    """One benchmark invocation: its scratch directory, the checkers it
    started and the tally of runs."""

    def __init__(self, w: Workload, work: Path):
        self.w = w
        self.work = work
        self.attempted = 0
        self.failed_runs: set[int] = set()
        self._checkers: list[Checker] = []

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    def generate(self, seed: int, inp: Path) -> float:
        log = self.work / "generate.log"
        child = run_child(self.w.generate_argv(seed, inp), log)
        if child.rc != 0:
            raise BenchError(f"umc generate exited {child.rc}: {log_tail(log)}")
        return child.wall_s

    def checker(self, inp: Path) -> Checker:
        checker = Checker(self.w, inp,
                          self.work / f"check{len(self._checkers)}.log")
        self._checkers.append(checker)
        checker.wait_ready()
        return checker

    def close(self) -> None:
        for checker in self._checkers:
            checker.close()

    def fail(self, message: str) -> None:
        """Mark the latest run failed."""
        self.failed_runs.add(self.attempted)
        print(f"FAILED {self.w.name} run {self.attempted}: {message}",
              file=sys.stderr)

    def run(self, checker: Checker, inp: Path, trace: str | None = None
            ) -> tuple[Child, dict, Path | None]:
        """One enumerate process, checked after it exits.  trace is None
        for a plain `umc enumerate` run, else "spans" or "calls".  Returns
        the child, the check result and the spans file of a traced run."""
        self.attempted += 1
        out = self.work / "cliques.txt"
        log = self.work / f"run{self.attempted}.log"
        spans = self.work / f"spans{self.attempted}.json" if trace else None
        args = self.w.enumerate_args(inp, out)
        if trace is None:
            argv = [sys.executable, "-m", "umc.cli", "enumerate", *args]
        else:
            flag = ["--count-calls"] if trace == "calls" else []
            argv = [sys.executable, str(TRACE_CHILD), *flag, str(spans), *args]
        out.unlink(missing_ok=True)
        child = run_child(argv, log)
        if child.rc != 0:
            result = {"count": 0, "problems": [f"exit {child.rc}: {log_tail(log)}"]}
        elif not out.is_file():
            result = {"count": 0, "problems": ["no output file"]}
        else:
            result = checker.check(out)
        if result["problems"]:
            self.fail("; ".join(result["problems"]))
        return child, result, spans


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(s: Session, seed: int, seconds: float) -> dict:
    inp = s.work / "input.txt"
    setups, inputs = [], set()
    for _ in range(SETUP_REPEATS):
        setups.append(s.generate(seed, inp))
        inputs.add(file_digest(inp))
    if len(inputs) != 1:
        raise BenchError("umc generate wrote different inputs for one seed")
    checker = s.checker(inp)

    walls, rates, rss = [], [], []
    while len(walls) < MIN_RUNS or sum(walls) < seconds:
        child, result, _ = s.run(checker, inp)
        walls.append(child.wall_s)
        rates.append(result["count"] / child.wall_s)
        rss.append(child.peak_rss_mb)
    rows = {
        "run_s": (walls, "s"),
        "cliques_per_s": (rates, "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setups, "s"),
        "failed_runs": ([s.failed / s.attempted], "ratio"),
    }
    for name, (values, unit) in rows.items():
        q1, med, q3 = quartiles(values)
        print(f"{s.w.name} seed={seed} {name}: median={med:.6g} q1={q1:.6g} "
              f"q3={q3:.6g} n={len(values)} unit={unit}")
    # cliques_per_s is printed but not returned: on ba-large the clique
    # count itself moves with the seed (about 60 to 125), so the figure
    # spreads too widely across seeds to carry a bound.
    return {name: metric(statistics.median(rows[name][0]), rows[name][1])
            for name in ("run_s", "peak_rss_mb", "setup_s")}


def layer_summary(spans_path: Path, child: Child, out_bytes: int) -> dict:
    """Per-layer times (self time for the search), deterministic counts and
    span coverage of one traced run."""
    with open(spans_path) as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    child_time: dict[int, float] = {}
    child_calls: dict[int, dict] = {}
    for sp in spans:
        parent = sp["parent"]
        if parent is None:
            continue
        child_time[parent] = child_time.get(parent, 0.0) + sp["duration"]
        calls = child_calls.setdefault(parent, {})
        for k, v in sp.get("calls", {}).items():
            calls[k] = calls.get(k, 0) + v

    def named(name):
        return [sp for sp in spans if sp["name"] == name]

    def only(name):
        found = named(name)
        if len(found) > 1:
            raise BenchError(f"{len(found)} {name} spans in one run")
        return found[0] if found else None

    load, search = only("graph.load"), only("algorithms.search")
    if load is None or search is None:
        raise BenchError("the traced run made no load or no search call")
    # A layer that a later design drops reads as 0 s with nothing removed.
    prune = only("graph.prune") or {"duration": 0.0, "edges_in": None,
                                    "edges_out": None}
    filt = only("algorithms.filter") or {"duration": 0.0, "edges_in": None,
                                         "edges_out": None}
    search_calls = {k: v - child_calls.get(search["id"], {}).get(k, 0)
                    for k, v in search["calls"].items()}
    startup = doc["imported"] - child.spawned
    accounted = startup + sum(sp["duration"] for sp in spans
                              if sp["parent"] is None)
    return {
        "times": {
            "cli.startup_s": startup,
            "graph.load_s": load["duration"],
            "graph.prune_s": prune["duration"],
            "algorithms.filter_s": filt["duration"],
            "algorithms.search_s": (search["duration"]
                                    - child_time.get(search["id"], 0.0)),
            "cli.write_s": sum(sp["duration"] for sp in named("cli.write")),
        },
        "counts": {
            "graph.load_edges": load["edges_out"],
            "graph.prune_edges_in": prune["edges_in"],
            "graph.prune_edges_out": prune["edges_out"],
            "algorithms.filter_edges_in": filt["edges_in"],
            "algorithms.filter_edges_out": filt["edges_out"],
            "algorithms.search_cliques": search["cliques"],
            "algorithms.search_max_size": search["max_size"],
            "cli.write_bytes": out_bytes,
        },
        "calls": search_calls,
        "coverage": accounted / child.wall_s,
    }


def traced_run(s: Session, checker: Checker, inp: Path, trace: str):
    child, _, spans = s.run(checker, inp, trace)
    if child.rc != 0:
        raise BenchError(f"traced run exited {child.rc}")
    summary = layer_summary(spans, child,
                            (s.work / "cliques.txt").stat().st_size)
    return child, summary


def per_layer(s: Session, seed: int) -> dict:
    inp = s.work / "input.txt"
    s.generate(seed, inp)
    checker = s.checker(inp)
    plain, _, _ = s.run(checker, inp)
    # Span times come from a run without the accessor counters, which
    # slow the search loop; two counting runs show the counts repeat.
    timed_child, timed = traced_run(s, checker, inp, "spans")
    _, first = traced_run(s, checker, inp, "calls")
    _, second = traced_run(s, checker, inp, "calls")

    def counts(summary):
        return summary["counts"], summary["calls"]

    if counts(first) != counts(second):
        s.fail(f"counts differ between two traced runs of seed {seed}: "
               f"{counts(first)} vs {counts(second)}")
    if timed["counts"] != first["counts"]:
        s.fail("counts differ between the span-only and the counting run")
    if timed["coverage"] < MIN_SPAN_COVERAGE:
        s.fail(f"spans cover {timed['coverage']:.3f} of the traced wall time")
    if s.w.seeded:
        # A reference or a count keyed to one seed would not move.
        other = s.work / "input2.txt"
        s.generate(seed + 1, other)
        _, moved = traced_run(s, s.checker(other), other, "calls")
        if counts(moved) == counts(first):
            s.fail(f"seed {seed + 1} gives the same counts as seed {seed}")

    t, c, calls = timed["times"], first["counts"], first["calls"]
    cliques = c["algorithms.search_cliques"]

    def kept(layer):
        edges_in = c[f"{layer}_edges_in"]
        return c[f"{layer}_edges_out"] / edges_in if edges_in else 1.0

    metrics = {
        "cli.startup_s": metric(t["cli.startup_s"], "s"),
        "graph.load_s": metric(t["graph.load_s"], "s"),
        "graph.load_edges_per_s": metric(
            c["graph.load_edges"] / t["graph.load_s"], "1/s"),
        "graph.prune_s": metric(t["graph.prune_s"], "s"),
        "graph.prune_kept_ratio": metric(kept("graph.prune"), "ratio"),
        "algorithms.filter_s": metric(t["algorithms.filter_s"], "s"),
        "algorithms.filter_kept_ratio": metric(kept("algorithms.filter"),
                                               "ratio"),
        "algorithms.search_s": metric(t["algorithms.search_s"], "s"),
        "algorithms.search_cliques": metric(cliques, "count"),
        "algorithms.search_max_size": metric(
            c["algorithms.search_max_size"], "count"),
        "algorithms.search_adj_set_calls": metric(calls["adj_set"], "count"),
        "algorithms.search_edge_prob_calls": metric(calls["edge_prob"], "count"),
        "algorithms.search_edge_prob_per_clique": metric(
            calls["edge_prob"] / cliques if cliques else 0.0, "count"),
        "cli.write_s": metric(t["cli.write_s"], "s"),
        "cli.write_bytes": metric(c["cli.write_bytes"], "bytes"),
        "run.cpu_s": metric(plain.cpu_s, "s"),
        "run.trace_overhead_s": metric(timed_child.wall_s - plain.wall_s, "s"),
        "run.span_coverage": metric(timed["coverage"], "ratio"),
    }
    for name, m in metrics.items():
        print(f"{s.w.name} seed={seed} {name}: {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "umc" / "cli.py").is_file():
        print(f"error: no umc package source under {SRC}", file=sys.stderr)
        return 2

    def out_of_time(_signum, _frame):
        raise BenchError(f"no result within {TIME_LIMIT_S} s")

    def terminated(_signum, _frame):
        sys.exit(128 + signal.SIGTERM)  # unwinds, so children are stopped

    signal.signal(signal.SIGALRM, out_of_time)
    signal.signal(signal.SIGTERM, terminated)
    signal.alarm(TIME_LIMIT_S)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    s = Session(WORKLOADS[args.workload], work)
    try:
        if args.trace:
            metrics = per_layer(s, args.seed)
        else:
            metrics = end_to_end(s, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        s.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation is still using it
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                      "failed": s.failed, "metrics": metrics}))
    return 0 if s.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
