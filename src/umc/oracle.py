"""Independent reference machinery: a brute-force enumerator over all
subsets, the combinatorial ceiling on output size, the extremal complete
graph achieving that ceiling, and a Monte-Carlo estimator of clique
probability under possible-worlds sampling.

Nothing here shares code with the incremental enumerators beyond the
graph container and the direct product formula.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

from .graph import (
    UncertainGraph,
    check_alpha,
    clique_probability,
    clique_probability_or_none,
)

BRUTE_FORCE_MAX_N = 25


@dataclass(frozen=True)
class OracleResult:
    """Canonically sorted (vertex tuple, probability) pairs.

    The collection is non-redundant: no member contains another.
    """

    cliques: tuple[tuple[tuple[int, ...], float], ...]

    def vertex_sets(self) -> set[tuple[int, ...]]:
        return {verts for verts, _ in self.cliques}


def brute_force_enumerate(g: UncertainGraph, alpha: float) -> OracleResult:
    """Test every nonempty subset, keep the alpha-cliques, and of those
    the maximal ones: the ones no single vertex extends to another
    alpha-clique, which suffices by subset monotonicity.  Definitionally
    correct; exponential; refuses n > 25."""
    check_alpha(alpha)
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {g.n}")
    alpha_cliques: dict[tuple[int, ...], float] = {}
    for size in range(1, g.n + 1):
        before = len(alpha_cliques)
        for combo in combinations(range(g.n), size):
            q = clique_probability_or_none(g, combo)
            if q is not None and q >= alpha:
                alpha_cliques[combo] = q
        if len(alpha_cliques) == before:
            break  # no alpha-clique of this size, so none larger
    kept = [(combo, q) for combo, q in alpha_cliques.items()
            if not any(tuple(sorted(combo + (v,))) in alpha_cliques
                       for v in range(g.n) if v not in combo)]
    return OracleResult(tuple(sorted(kept)))


def max_clique_count_bound(n: int) -> int:
    """Largest possible number of alpha-maximal cliques on n vertices for
    0 < alpha < 1: the middle binomial coefficient, computed exactly."""
    if n < 2:
        raise ValueError("bound defined for n >= 2")
    return math.comb(n, n // 2)


def build_extremal_graph(n: int, alpha: float) -> UncertainGraph:
    """Complete graph on n (even) vertices whose alpha-maximal cliques are
    exactly the n/2-subsets, so enumeration yields C(n, n/2) cliques.

    Every edge gets q with q^kappa = alpha, kappa = C(n/2, 2): an n/2-subset
    has probability exactly alpha, and adding any vertex multiplies by at
    least one more q < 1, dropping below alpha.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("extremal construction requires even n >= 4")
    if not 0.0 < alpha < 1.0:
        raise ValueError("extremal construction requires 0 < alpha < 1")
    half = n // 2
    kappa = math.comb(half, 2)
    q = alpha ** (1.0 / kappa) if kappa > 1 else alpha
    # The float root can land a hair low, making every n/2-subset product
    # fall just under alpha and wrongly emptying the output.  Nudge q up by
    # ULPs until both product orders used in this artifact clear alpha.
    while _chain_product(q, kappa) < alpha or _incremental_product(q, half) < alpha:
        q = math.nextafter(q, 1.0)
    edges = [(u, v, q) for u, v in combinations(range(n), 2)]
    return UncertainGraph(n, edges)


def _chain_product(q: float, k: int) -> float:
    """Left-to-right product of k copies of q (direct-formula order)."""
    total = 1.0
    for _ in range(k):
        total *= q
    return total


def _incremental_product(q: float, size: int) -> float:
    """Probability of a size-vertex clique as accumulated by the
    incremental enumerator: the i-th vertex contributes a factor built by
    multiplying its i-1 edge probabilities one at a time."""
    total = 1.0
    for i in range(size):
        r = 1.0
        for _ in range(i):
            r *= q
        total *= r
    return total


def estimate_clique_probability(g: UncertainGraph, c, samples: int,
                                seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the clique probability of c: the fraction
    of sampled possible worlds (each edge drawn independently) in which all
    internal edges of c appear.  Returns (estimate, standard error)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    clique_probability(g, c)  # raises NotACliqueError if not a clique
    probs = [g.row(u)[v] for u, v in combinations(sorted(set(c)), 2)]
    rand = random.Random(seed).random
    hits = 0
    for _ in range(samples):
        for p in probs:
            if rand() >= p:
                break  # this edge is absent from the sampled world
        else:
            hits += 1
    est = hits / samples
    stderr = math.sqrt(est * (1.0 - est) / samples)
    return est, stderr
