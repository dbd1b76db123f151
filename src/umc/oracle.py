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
from itertools import combinations
from typing import NamedTuple

from .graph import (
    UncertainGraph,
    check_alpha,
    clique_probability,
    clique_probability_or_none,
)

BRUTE_FORCE_MAX_N = 25


class OracleResult(NamedTuple):
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

    Every edge gets q = alpha^(1/(kappa + n/4)), kappa = C(n/2, 2).  An
    n/2-subset has kappa edges, so its probability q^kappa lies above
    alpha; any larger subset has at least kappa + n/2 edges, so its
    probability lies below alpha.  The relative margins, above
    (q^kappa/alpha - 1) and below (1 - q^(kappa + n/2)/alpha), are about
    7.2% and 6.7% at n = 20, alpha = 0.5, and about 1% at alpha = 0.9.

    A float product of k factors is within a relative k*2^-53 of the
    exact one, in any order of multiplication.  Raises ValueError when
    either margin is within 4*(kappa + n/2)*2^-53, where rounding could
    decide a subset (alpha close enough to 1 for the given n).
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("extremal construction requires even n >= 4")
    if not 0.0 < alpha < 1.0:
        raise ValueError("extremal construction requires 0 < alpha < 1")
    half = n // 2
    kappa = math.comb(half, 2)
    q = alpha ** (1.0 / (kappa + half / 2))
    above = q ** kappa / alpha - 1.0
    below = 1.0 - q ** (kappa + half) / alpha
    band = 4 * (kappa + half) * 2.0 ** -53
    if min(above, below) <= band:
        raise ValueError(
            f"alpha={alpha!r} leaves the extremal graph on {n} vertices a "
            f"relative margin of {min(above, below):.2g}, within the "
            f"rounding band {band:.2g}")
    edges = [(u, v, q) for u, v in combinations(range(n), 2)]
    return UncertainGraph(n, edges)


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
