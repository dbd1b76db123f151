"""Command-line front end: enumerate, verify, generate, bench.

Exit codes: 0 success, 1 verification failure, a failed search worker or a
closed output pipe, 2 usage/validation error, an output write error or
running out of memory.  Every input file is opened by _read, so a graph
file and a clique stream report a fault alike, as "<path>: line N:
<fault>" (a line longer than its bound included), and a file that cannot
be read as "cannot read <path>: ...".
Generator settings (`generate`'s flags, `bench --gen` specs) are
umc.generators.GenSpec's: its fields hold the only defaults, and a
setting the family does not read is refused.  bench loads or builds one
graph at a time, when its rows are due.

Clique stream format (enumerate output, verify input): one clique per
line, "<prob:17sig> <v1> <v2> ... <vk>" with external vertex ids ascending,
as umc.graph.format_clique writes it and umc.graph.load_cliques reads it.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import math
import os
import sys
import time
from typing import TextIO

from . import parallel
from .algorithms import dfs_noip, large_mule, mule, search_graph
from .graph import (
    GraphFormatError,
    UncertainGraph,
    check_alpha,
    clique_probability,
    dump_graph,
    format_clique,
    is_alpha_maximal,
    load_cliques,
    load_graph,
    number,
    prune_by_alpha,
)

# umc.generators, umc.oracle and csv serve only generate, bench, verify and
# --prob-model coauthor; those import them, so `umc enumerate` does not.

CSV_COLUMNS = ["graph", "algo", "alpha", "t", "count", "out_vertices",
               "ms", "depth"]

PROB_REL_TOL = 1e-9

# The enumerators `enumerate --algo` and `bench --algos` accept; a size
# threshold t > 1 turns "mule" into large_mule.
ALGOS = ("mule", "dfs-noip")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad option is one more UsageError
        raise UsageError(f"{self.prog}: {message}")


def integer(text: str) -> int:
    return number(text, int)


def _open_for_write(path: str, **kwargs) -> TextIO:
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _parse_list(text: str, convert, flag: str) -> list:
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag}: malformed list {text!r}")


def _read(path: str, load, *args):
    """load(fh, *args) on the file at path, every fault as a UsageError."""
    # Graph and clique files are ASCII.  A byte outside it reads as a lone
    # surrogate, so a comment may hold any bytes while any other line
    # fails the loaders' isascii() checks, which give its line number.
    try:
        with open(path, encoding="ascii", errors="surrogateescape") as fh:
            return load(fh, *args)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}")


def _load_file(path: str, prob_model: str) -> UncertainGraph:
    parser = float
    if prob_model == "coauthor":
        from .generators import coauthor_prob_parser as parser
    return _read(path, load_graph, parser)


def _check_alpha_arg(alpha: float) -> float:
    try:
        check_alpha(alpha)
    except ValueError as exc:
        raise UsageError(str(exc))
    return alpha


def _run_enumeration(g: UncertainGraph, algo: str, alpha: float, t: int,
                     sink) -> int:
    """Emit g's alpha-maximal cliques with at least t vertices into sink,
    with one search call: dfs_noip when algo is "dfs-noip", else
    large_mule when t > 1 and mule at t = 1.  Each enumerator searches
    its own search graph (algorithms.search_graph) and applies t itself.
    Returns the number of cliques sink received.

    The enumerators are looked up as module globals at call time, not
    through a table built at import, so a caller that replaces one on this
    module (to trace it, say) sees its replacement run.  That holds for
    this sink only: umc.parallel's claim loop, which writes every mule run
    whose output has a descriptor, takes the search graph from
    cmd_enumerate, calls the kernel directly and looks up format_batch
    itself.
    """
    if algo == "dfs-noip":
        return dfs_noip(g, alpha, sink, t)
    if t > 1:
        return large_mule(g, alpha, t, sink)
    return mule(g, alpha, sink)


def cmd_enumerate(args) -> int:
    alpha = _check_alpha_arg(args.alpha)
    if args.min_size < 1:
        raise UsageError("--min-size must be >= 1")
    g = _load_file(args.input, args.prob_model)
    out: TextIO = _open_for_write(args.out) if args.out else sys.stdout
    if out is None:  # the interpreter started with file descriptor 1 closed
        raise UsageError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    workers = parallel.available_workers(out) if args.algo == "mule" else 0
    # time_ms: from making the search graph to the last byte written,
    # closing out included, on either path
    start = time.perf_counter()
    if workers:  # the loaded graph goes before any row is built
        g = search_graph(g, alpha, args.min_size)
    try:
        try:
            if workers:
                count = parallel.enumerate_into(
                    out, g, alpha, args.min_size, workers)
            else:
                count = _run_enumeration(
                    g, args.algo, alpha, args.min_size,
                    lambda c: out.write(format_clique(g, c) + "\n"))
            if not args.out:
                out.flush()
        finally:
            if args.out:
                out.close()  # its last flush can fail like any write
    # In the claim loop any other OSError is the spool files', not out's.
    except (parallel.OutputError if workers else OSError) as exc:
        if not args.out:
            # What stdout still buffers goes to devnull, not to a failed flush.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        if exc.errno == errno.EPIPE:
            return 1  # the reader closed early: end quietly, as on SIGPIPE
        raise UsageError(f"cannot write {args.out or 'stdout'}: {exc}")
    ms = (time.perf_counter() - start) * 1000.0
    print(f"cliques={count} time_ms={ms:.3f}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    from .oracle import exact_enumerate

    alpha = _check_alpha_arg(args.alpha)
    g = _load_file(args.input, args.prob_model)
    entries = _read(args.cliques, load_cliques, g)
    if args.complete:  # a refusal, like a malformed line, precedes any verdict
        try:
            expected = exact_enumerate(g, alpha)
        except ValueError as exc:
            raise UsageError(f"--complete: {exc}")
    # Verdicts are the loaded graph's: an edge below alpha keeps any
    # product it is in below alpha, so no alpha-clique can hold one.
    g = prune_by_alpha(g, alpha)

    def names(verts):
        return [g.label(v) for v in verts]

    failures = 0
    seen: set[tuple[int, ...]] = set()
    for line_no, prob, verts in entries:
        if verts in seen:
            print(f"DUPLICATE line {line_no}: {names(verts)}")
            failures += 1
            continue
        seen.add(verts)
        # One product per line: is_alpha_maximal's, or for a line the
        # reference lists, clique_probability's; None for any other line.
        if args.complete:
            exact = clique_probability(g, verts) if verts in expected else None
        else:
            exact = is_alpha_maximal(g, verts, alpha)
        if exact is None:
            print(f"NOT ALPHA-MAXIMAL line {line_no}: {names(verts)}")
            failures += 1
            continue
        if not math.isfinite(prob) or abs(prob - exact) > PROB_REL_TOL * exact:
            print(f"PROBABILITY MISMATCH line {line_no}: {names(verts)} "
                  f"stated {prob!r} actual {exact!r}")
            failures += 1
    if args.complete:
        for verts in sorted(expected - seen):
            print(f"MISSING: {names(verts)}")
            failures += 1
    if failures:
        print(f"verification failed: {failures} violation(s)", file=sys.stderr)
        return 1
    print("verification ok", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    from .generators import GenSpec

    given = {key: getattr(args, key) for key in GenSpec._fields[2:]
             if getattr(args, key) is not None}
    try:
        g = GenSpec.checked(args.family, args.n, **given).build()
    except ValueError as exc:
        raise UsageError(str(exc))
    with _open_for_write(args.out) as fh:
        dump_graph(g, fh)
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges}", file=sys.stderr)
    return 0


def _bench_cell(g: UncertainGraph, algo: str, alpha: float, t: int):
    """Run one (graph, algo, alpha, t) cell; timing covers the search and
    the making of its search graph (algorithms.search_graph), not
    loading."""
    out_vertices = 0
    depth = 0

    def sink(c):
        nonlocal out_vertices, depth
        k = len(c.vertices)
        out_vertices += k
        if k > depth:
            depth = k

    start = time.perf_counter()
    count = _run_enumeration(g, algo, alpha, t, sink)
    return count, out_vertices, (time.perf_counter() - start) * 1000.0, depth


def _from_spec(text: str, step, *args):
    """step(*args) for the generator spec text, a ValueError refused."""
    try:
        return step(*args)
    except ValueError as exc:
        raise UsageError(f"bad generator spec {text!r}: {exc}")


def cmd_bench(args) -> int:
    import csv

    from .generators import GenSpec

    if not args.input and not args.gen:
        raise UsageError("bench requires --input and/or --gen")
    alphas = [_check_alpha_arg(a)
              for a in _parse_list(args.alphas, number, "--alphas")]
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in ALGOS:
            raise UsageError(f"unknown algorithm {algo!r}")
    min_sizes = _parse_list(args.min_sizes, integer, "--min-sizes")
    if any(t < 1 for t in min_sizes):
        raise UsageError("--min-sizes entries must be >= 1")

    # Each graph is loaded or built when its rows are due, so a file or a
    # spec that fails there exits 2 with the earlier graphs' rows kept.
    graphs = [(os.path.basename(path),
               functools.partial(_load_file, path, args.prob_model))
              for path in args.input]
    for text in args.gen:
        spec = _from_spec(text, GenSpec.parse, text)
        graphs.append((spec.label(),
                       functools.partial(_from_spec, text, spec.build)))

    with _open_for_write(args.csv, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        fh.flush()
        for label, make in graphs:
            g = make()
            for algo, alpha, t in itertools.product(algos, alphas, min_sizes):
                count, ov, ms, depth = _bench_cell(g, algo, alpha, t)
                writer.writerow([label, algo, alpha, t, count, ov,
                                 f"{ms:.3f}", depth])
                fh.flush()
            del g  # before the next graph is made: one graph at a time
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umc",
        description="Maximal clique enumeration on uncertain graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate alpha-maximal cliques")
    p_enum.add_argument("--input", required=True)
    p_enum.add_argument("--alpha", type=number, required=True)
    p_enum.add_argument("--algo", choices=ALGOS, default="mule")
    p_enum.add_argument("--min-size", type=integer, default=1)
    p_enum.add_argument("--prob-model", choices=["prob", "coauthor"],
                        default="prob")
    p_enum.add_argument("--out")
    p_enum.set_defaults(func=cmd_enumerate)

    p_ver = sub.add_parser("verify", help="check a clique stream")
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--cliques", required=True)
    p_ver.add_argument("--alpha", type=number, required=True)
    p_ver.add_argument("--prob-model", choices=["prob", "coauthor"],
                       default="prob")
    p_ver.add_argument("--complete", action="store_true",
                       help="also enumerate the graph exactly and report "
                       "missing/extra cliques")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="write a synthetic graph file")
    p_gen.add_argument("--family", choices=["ba", "er", "extremal"],
                       required=True)
    p_gen.add_argument("--n", type=integer, required=True)
    # No default here: a flag left out takes GenSpec's field default.
    p_gen.add_argument("--m", type=integer,
                       help="edges per new vertex (ba; default 10)")
    p_gen.add_argument("--density", type=number, help="er (default 0.5)")
    p_gen.add_argument("--alpha", type=number, help="extremal (required)")
    p_gen.add_argument("--seed", type=integer, help="ba, er (default 0)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="sweep (graph, algo, alpha, t) cells")
    p_bench.add_argument("--input", action="append", default=[])
    p_bench.add_argument("--gen", action="append", default=[],
                         help="generator spec, e.g. ba:n=2000,m=10")
    p_bench.add_argument("--alphas", required=True)
    p_bench.add_argument("--algos", default="mule")
    p_bench.add_argument("--min-sizes", default="1")
    p_bench.add_argument("--prob-model", choices=["prob", "coauthor"],
                         default="prob")
    p_bench.add_argument("--csv", required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code if exc.code is not None else 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except parallel.WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
