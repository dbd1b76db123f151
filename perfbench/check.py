"""Output checker for the benchmark's `umc enumerate` runs.

Usage: python3 check.py INPUT ALPHA MIN_SIZE dfs_noip|extremal

Loads INPUT and builds the expected clique set: with dfs_noip, the
baseline enumerator's output on the alpha-pruned graph, keeping cliques of
at least MIN_SIZE vertices; with extremal, the C(n, n/2) cliques of n/2
vertices each that oracle.build_extremal_graph guarantees.  It then prints
one JSON line, {"expected": <count>}, and for every path read from stdin
checks that enumerate output and prints {"count": <cliques>,
"problems": [...]}.

It runs as its own process so that the benchmark process, which spawns
the timed runs, never imports umc or holds a graph: Linux carries the
spawning process's peak resident memory into the child's rusage.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

from umc.algorithms import dfs_noip
from umc.graph import (
    UncertainGraph,
    clique_probability,
    is_alpha_maximal,
    load_graph,
    prune_by_alpha,
)
from umc.oracle import max_clique_count_bound

PROB_REL_TOL = 1e-9  # the tolerance `umc verify` applies
MAX_PROBLEMS = 5


def digest(cliques) -> str:
    """Order-independent digest of a clique set (label tuples)."""
    h = hashlib.sha256()
    for c in sorted(cliques):
        h.update((" ".join(map(str, c)) + "\n").encode())
    return h.hexdigest()


@dataclass(frozen=True)
class Expected:
    count: int
    digest: str | None = None  # canonical digest of the whole set
    size: int | None = None    # every clique has this many vertices


def expected_cliques(g: UncertainGraph, alpha: float, min_size: int,
                     reference: str) -> Expected:
    if reference == "extremal":
        return Expected(max_clique_count_bound(g.n), size=g.n // 2)
    found = []

    def sink(c):
        if len(c.vertices) >= min_size:
            found.append(tuple(sorted(g.label(v) for v in c.vertices)))

    dfs_noip(prune_by_alpha(g, alpha), alpha, sink)
    return Expected(len(found), digest(found))


class OutputCheck:
    """Soundness, as `umc verify` checks it: every line is alpha-maximal in
    the unpruned input graph, states its probability within PROB_REL_TOL,
    and no clique appears twice.  Completeness: the count (and the digest
    or the clique size) equals the expected clique set.

    The verdict is a function of the file's bytes, so a file identical to
    one already checked gets that verdict again; a line found sound once is
    not re-checked in a later file.
    """

    def __init__(self, g: UncertainGraph, alpha: float, expected: Expected):
        self.g = g
        self.alpha = alpha
        self.expected = expected
        self._sound: set[str] = set()
        self._verdicts: dict[str, dict] = {}

    def check(self, path: str) -> dict:
        with open(path, "rb") as fh:
            key = hashlib.sha256(fh.read()).hexdigest()
        if key not in self._verdicts:
            self._verdicts[key] = self._check(path)
        return self._verdicts[key]

    def _check(self, path: str) -> dict:
        g, alpha = self.g, self.alpha
        problems: list[str] = []
        seen: set[tuple[int, ...]] = set()
        cliques: list[tuple[int, ...]] = []
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.split()
                try:
                    prob = float(parts[0])
                    labels = tuple(sorted(int(x) for x in parts[1:]))
                    verts = tuple(sorted(g.index(x) for x in labels))
                except (ValueError, IndexError, KeyError):
                    problems.append(f"line {line_no}: malformed {line!r}")
                    continue
                if not verts:
                    problems.append(f"line {line_no}: no vertices")
                    continue
                if verts in seen:
                    problems.append(f"line {line_no}: duplicate {labels}")
                    continue
                seen.add(verts)
                cliques.append(labels)
                if line in self._sound:
                    continue
                if not is_alpha_maximal(g, verts, alpha):
                    problems.append(f"line {line_no}: not alpha-maximal {labels}")
                    continue
                exact = clique_probability(g, verts)
                if abs(prob - exact) > PROB_REL_TOL * exact:
                    problems.append(f"line {line_no}: probability {prob!r} "
                                    f"!= {exact!r} for {labels}")
                    continue
                self._sound.add(line)
        exp = self.expected
        if len(cliques) != exp.count:
            problems.append(f"{len(cliques)} cliques, expected {exp.count}")
        elif exp.digest is not None and digest(cliques) != exp.digest:
            problems.append("clique set differs from the dfs_noip reference")
        if exp.size is not None:
            wrong = sum(1 for c in cliques if len(c) != exp.size)
            if wrong:
                problems.append(f"{wrong} cliques without {exp.size} vertices")
        return {"count": len(cliques), "problems": problems[:MAX_PROBLEMS]}


def main(argv: list[str]) -> int:
    path, alpha, min_size, reference = argv
    alpha, min_size = float(alpha), int(min_size)
    with open(path) as fh:
        g = load_graph(fh)
    checker = OutputCheck(g, alpha,
                          expected_cliques(g, alpha, min_size, reference))
    print(json.dumps({"expected": checker.expected.count}), flush=True)
    for line in sys.stdin:
        print(json.dumps(checker.check(line.rstrip("\n"))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
