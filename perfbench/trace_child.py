"""Run one `umc enumerate` with spans around each layer's public functions.

Usage: python3 trace_child.py [--count-calls] SPANS_JSON <umc enumerate args...>

The benchmark (run.py) starts this file instead of `python3 -m umc.cli`
for its traced runs.  It replaces the names that umc.cli and
umc.algorithms look up at call time with timing wrappers, runs
umc.cli.main unchanged and writes the spans to SPANS_JSON.  No package
source is changed.  With --count-calls it also counts the calls to
UncertainGraph's public accessors; that wrapper sits on the search's
innermost loop and slows it, so the benchmark takes span times from a run
without it.

Timestamps are time.perf_counter() readings.  On Linux that is the
system-wide monotonic clock, so the parent can set them against the time
it spawned this process.
"""

import time

import umc.cli

IMPORTED = time.perf_counter()

import builtins  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from umc import algorithms, cli  # noqa: E402
from umc.graph import UncertainGraph  # noqa: E402

COUNTED_ACCESSORS = ("adj_set", "edge_prob")


class Tracer:
    """Spans in memory, written out once main() returns.

    A span is a dict with name, id, parent id, start, end, duration and
    the accessor calls made while it was open.  All the clique writes made
    under one parent are folded into a single "cli.write" span whose
    duration is the sum of their intervals.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.calls = dict.fromkeys(COUNTED_ACCESSORS, 0)
        self.max_size = 0
        self.format = cli.format_clique
        self._write_start = 0.0
        self._write_spans: dict[int | None, dict] = {}

    def _open(self, name: str) -> dict:
        span = {"name": name, "id": len(self.spans),
                "parent": self.stack[-1]["id"] if self.stack else None,
                "calls": dict(self.calls)}
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["duration"] = span["end"] - span["start"]
        self.stack.pop()
        span["calls"] = {k: self.calls[k] - v for k, v in span["calls"].items()}

    def wrap(self, name: str, fn, describe=None):
        """fn wrapped in a span; describe(args, result) adds fields to it."""
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.update(describe(args, result))
            return result
        return traced

    def count_calls(self, name: str, fn):
        calls = self.calls

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def format_clique(self, g, c):
        """Start of one clique write: the sink formats, then writes."""
        self._write_start = time.perf_counter()
        if len(c.vertices) > self.max_size:
            self.max_size = len(c.vertices)
        return self.format(g, c)

    def wrote(self) -> None:
        """End of one clique write, seen from the output file."""
        end = time.perf_counter()
        parent = self.stack[-1]["id"] if self.stack else None
        span = self._write_spans.get(parent)
        if span is None:
            span = {"name": "cli.write", "id": len(self.spans),
                    "parent": parent, "start": self._write_start,
                    "duration": 0.0, "writes": 0}
            self.spans.append(span)
            self._write_spans[parent] = span
        span["end"] = end
        span["duration"] += end - self._write_start
        span["writes"] += 1


class TracedOutput:
    """The enumerate output file: each write ends a clique-write interval
    and the final flush on close is a write span of its own."""

    def __init__(self, tracer: Tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def write(self, text: str) -> int:
        n = self._fh.write(text)
        self._tracer.wrote()
        return n

    def close(self) -> None:
        self._tracer.wrap("cli.write", self._fh.close)()


def install(tracer: Tracer, count_calls: bool) -> None:
    def edges_of(_args, g):
        return {"edges_out": g.num_edges}

    def edges_in_out(args, g):
        return {"edges_in": args[0].num_edges, "edges_out": g.num_edges}

    def cliques(_args, count):
        return {"cliques": count, "max_size": tracer.max_size}

    cli.load_graph = tracer.wrap("graph.load", cli.load_graph, edges_of)
    cli.prune_by_alpha = tracer.wrap("graph.prune", cli.prune_by_alpha,
                                     edges_in_out)
    for name in ("mule", "large_mule", "dfs_noip"):
        setattr(cli, name, tracer.wrap("algorithms.search",
                                       getattr(cli, name), cliques))
    algorithms.shared_neighborhood_filter = tracer.wrap(
        "algorithms.filter", algorithms.shared_neighborhood_filter,
        edges_in_out)
    cli.format_clique = tracer.format_clique

    def traced_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return TracedOutput(tracer, fh) if "w" in mode else fh

    # umc.cli resolves open() through its module globals before builtins.
    cli.open = traced_open
    if count_calls:
        for name in COUNTED_ACCESSORS:
            setattr(UncertainGraph, name,
                    tracer.count_calls(name, getattr(UncertainGraph, name)))


def main(argv: list[str]) -> int:
    count_calls = argv[0] == "--count-calls"
    if count_calls:
        argv = argv[1:]
    spans_path, enumerate_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer, count_calls)
    rc = cli.main(["enumerate", *enumerate_args])
    doc = {"imported": IMPORTED, "main_end": time.perf_counter(),
           "rc": rc, "spans": tracer.spans}
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
