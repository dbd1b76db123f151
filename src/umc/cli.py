"""Command-line front end: enumerate, verify, generate, bench.

Exit codes: 0 success, 1 verification failure, 2 usage/validation error.
The default seed is 0, overridable via the UMC_SEED environment variable
or per-command --seed flags.

Clique stream format (enumerate output, verify input): one clique per
line, "<prob:17sig> <v1> <v2> ... <vk>" with external vertex ids ascending.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from typing import TextIO

from .algorithms import dfs_noip, large_mule, mule
from .generators import (
    GenSpec,
    assign_uniform_probabilities,
    coauthor_prob_parser,
    gen_barabasi_albert,
    gen_erdos_renyi,
)
from .graph import (
    Clique,
    GraphFormatError,
    UncertainGraph,
    check_alpha,
    clique_probability,
    dump_graph,
    is_alpha_maximal,
    load_graph,
    prune_by_alpha,
)
from .oracle import BRUTE_FORCE_MAX_N, brute_force_enumerate, build_extremal_graph

CSV_COLUMNS = ["graph", "algo", "alpha", "t", "count", "out_vertices",
               "ms", "depth", "seed"]

PROB_REL_TOL = 1e-9


class UsageError(ValueError):
    pass


def default_seed() -> int:
    return int(os.environ.get("UMC_SEED", "0"))


def _load_file(path: str, prob_model: str) -> UncertainGraph:
    parser = coauthor_prob_parser if prob_model == "coauthor" else None
    try:
        with open(path) as fh:
            return load_graph(fh, prob_parser=parser)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}")


def _check_alpha_arg(alpha: float) -> float:
    try:
        check_alpha(alpha)
    except ValueError as exc:
        raise UsageError(str(exc))
    return alpha


def format_clique(g: UncertainGraph, c: Clique) -> str:
    return f"{c.prob:.17g} " + g.label_text(c.vertices)


def _run_enumeration(g: UncertainGraph, algo: str, alpha: float, t: int,
                     sink) -> int:
    """Dispatch on the pre-pruned graph.  For dfs-noip a size threshold is
    applied as an output filter (the baseline has no pruned variant)."""
    if algo == "dfs-noip":
        if t > 1:
            inner = sink

            def sink(c, _inner=inner):  # noqa: A001 - shadow on purpose
                if len(c.vertices) >= t:
                    _inner(c)
        return dfs_noip(g, alpha, sink)
    if t > 1:
        return large_mule(g, alpha, t, sink)
    return mule(g, alpha, sink)


def cmd_enumerate(args) -> int:
    alpha = _check_alpha_arg(args.alpha)
    if args.min_size < 1:
        raise UsageError("--min-size must be >= 1")
    g = _load_file(args.input, args.prob_model)
    pruned = prune_by_alpha(g, alpha)
    out: TextIO = open(args.out, "w") if args.out else sys.stdout
    try:
        emitted: list[Clique] = []
        count = 0
        start = time.perf_counter()
        if args.canonical:
            count = _run_enumeration(pruned, args.algo, alpha, args.min_size,
                                     emitted.append)
            ms = (time.perf_counter() - start) * 1000.0
            emitted.sort(key=lambda c: (tuple(sorted(g.label(v) for v in c.vertices))))
            for c in emitted:
                out.write(format_clique(g, c) + "\n")
        else:
            def sink(c):
                nonlocal count
                count += 1
                out.write(format_clique(g, c) + "\n")
            _run_enumeration(pruned, args.algo, alpha, args.min_size, sink)
            ms = (time.perf_counter() - start) * 1000.0
        print(f"cliques={count} time_ms={ms:.3f}", file=sys.stderr)
    finally:
        if args.out:
            out.close()
    return 0


def _parse_clique_file(g: UncertainGraph, path: str):
    """Yield (line_no, prob, internal vertex tuple) from a clique stream."""
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise UsageError(f"{path}:{line_no}: expected '<prob> <v1> ...'")
            try:
                prob = float(parts[0])
                labels = [int(tok) for tok in parts[1:]]
            except ValueError:
                raise UsageError(f"{path}:{line_no}: malformed clique line")
            verts = []
            for lab in labels:
                if not g.has_label(lab):
                    raise UsageError(f"{path}:{line_no}: unknown vertex {lab}")
                verts.append(g.index(lab))
            yield line_no, prob, tuple(sorted(verts))


def cmd_verify(args) -> int:
    alpha = _check_alpha_arg(args.alpha)
    g = _load_file(args.input, args.prob_model)
    failures = 0
    seen: set[tuple[int, ...]] = set()
    for line_no, prob, verts in _parse_clique_file(g, args.cliques):
        names = sorted(g.label(v) for v in verts)
        if verts in seen:
            print(f"DUPLICATE line {line_no}: {names}")
            failures += 1
            continue
        seen.add(verts)
        if not is_alpha_maximal(g, verts, alpha):
            print(f"NOT ALPHA-MAXIMAL line {line_no}: {names}")
            failures += 1
            continue
        exact = clique_probability(g, verts)
        if abs(prob - exact) > PROB_REL_TOL * exact:
            print(f"PROBABILITY MISMATCH line {line_no}: {names} "
                  f"stated {prob!r} actual {exact!r}")
            failures += 1
    if args.complete:
        if g.n > BRUTE_FORCE_MAX_N:
            raise UsageError(f"--complete requires n <= {BRUTE_FORCE_MAX_N}")
        expected = brute_force_enumerate(g, alpha).vertex_sets()
        for verts in sorted(expected - seen):
            print(f"MISSING: {sorted(g.label(v) for v in verts)}")
            failures += 1
        for verts in sorted(seen - expected):
            print(f"EXTRA: {sorted(g.label(v) for v in verts)}")
            failures += 1
    if failures:
        print(f"verification failed: {failures} violation(s)", file=sys.stderr)
        return 1
    print("verification ok", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    if args.family == "extremal":
        if args.alpha is None:
            raise UsageError("extremal family requires --alpha")
        try:
            g = build_extremal_graph(args.n, args.alpha)
        except ValueError as exc:
            raise UsageError(str(exc))
    else:
        try:
            if args.family == "ba":
                base = gen_barabasi_albert(args.n, args.m, seed)
            else:
                base = gen_erdos_renyi(args.n, args.density, seed)
        except ValueError as exc:
            raise UsageError(str(exc))
        # separate stream for the probability draw
        g = assign_uniform_probabilities(base, seed + 1)
    with open(args.out, "w") as fh:
        dump_graph(g, fh)
    print(f"wrote {args.out}: n={g.n} edges={g.num_edges}", file=sys.stderr)
    return 0


def _bench_cell(g: UncertainGraph, algo: str, alpha: float, t: int):
    """Run one (graph, algo, alpha, t) cell; timing covers only the
    enumeration call (pruning and loading excluded)."""
    pruned = prune_by_alpha(g, alpha)
    count = 0
    out_vertices = 0
    depth = 0

    def sink(c):
        nonlocal count, out_vertices, depth
        count += 1
        k = len(c.vertices)
        out_vertices += k
        if k > depth:
            depth = k

    start = time.perf_counter()
    _run_enumeration(pruned, algo, alpha, t, sink)
    ms = (time.perf_counter() - start) * 1000.0
    return count, out_vertices, ms, depth


def cmd_bench(args) -> int:
    if not args.input and not args.gen:
        raise UsageError("bench requires --input and/or --gen")
    seed = args.seed if args.seed is not None else default_seed()
    alphas = [_check_alpha_arg(float(tok)) for tok in args.alphas.split(",")]
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in ("mule", "dfs-noip", "large-mule"):
            raise UsageError(f"unknown algorithm {algo!r}")
    min_sizes = [int(tok) for tok in args.min_sizes.split(",")]
    if any(t < 1 for t in min_sizes):
        raise UsageError("--min-sizes entries must be >= 1")

    graphs: list[tuple[str, UncertainGraph, int]] = []
    for path in args.input:
        graphs.append((os.path.basename(path),
                       _load_file(path, args.prob_model), seed))
    for spec_text in args.gen:
        try:
            spec = GenSpec.parse(spec_text)
            if "seed=" not in spec_text:
                spec = GenSpec(**{**spec.__dict__, "seed": seed})
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad generator spec {spec_text!r}: {exc}")
        graphs.append((spec.label(), spec.build(), spec.seed))

    with open(args.csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        fh.flush()
        for label, g, gseed in graphs:
            for algo in algos:
                for alpha in alphas:
                    for t in min_sizes:
                        if algo == "large-mule":
                            count, ov, ms, depth = _bench_cell(
                                g, "mule", alpha, max(t, 2))
                        else:
                            count, ov, ms, depth = _bench_cell(g, algo, alpha, t)
                        writer.writerow([label, algo, alpha, t, count, ov,
                                         f"{ms:.3f}", depth, gseed])
                        fh.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umc",
        description="Maximal clique enumeration on uncertain graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate alpha-maximal cliques")
    p_enum.add_argument("--input", required=True)
    p_enum.add_argument("--alpha", type=float, required=True)
    p_enum.add_argument("--algo", choices=["mule", "dfs-noip"], default="mule")
    p_enum.add_argument("--min-size", type=int, default=1)
    p_enum.add_argument("--canonical", action="store_true",
                        help="sort output lexicographically")
    p_enum.add_argument("--prob-model", choices=["prob", "coauthor"],
                        default="prob")
    p_enum.add_argument("--out")
    p_enum.set_defaults(func=cmd_enumerate)

    p_ver = sub.add_parser("verify", help="check a clique stream")
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--cliques", required=True)
    p_ver.add_argument("--alpha", type=float, required=True)
    p_ver.add_argument("--prob-model", choices=["prob", "coauthor"],
                       default="prob")
    p_ver.add_argument("--complete", action="store_true",
                       help="also brute-force and report missing/extra cliques")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="write a synthetic graph file")
    p_gen.add_argument("--family", choices=["ba", "er", "extremal"],
                       required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, default=10,
                       help="edges per new vertex (ba)")
    p_gen.add_argument("--density", type=float, default=0.5, help="er density")
    p_gen.add_argument("--alpha", type=float, help="extremal threshold")
    p_gen.add_argument("--seed", type=int)
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
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--csv", required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
