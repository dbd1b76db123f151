"""Independent reference machinery: an exact enumerator of the
alpha-maximal cliques, the combinatorial ceiling on output size, and the
extremal complete graph achieving that ceiling.

Nothing here shares code with the incremental enumerators beyond the
graph container and its range check on alpha: the reference takes no
float product.
"""

from __future__ import annotations

import math
from itertools import combinations, count

from .graph import UncertainGraph, check_alpha

# exact_enumerate refuses a graph with more alpha-cliques than this:
# K20 at alpha = 0.5 has 616,665, K22 has 2,449,867.
MAX_VISITS = 10 ** 6


def exact_enumerate(g: UncertainGraph, alpha: float
                    ) -> set[tuple[int, ...]]:
    """The alpha-maximal cliques of g, as the set of their ascending
    vertex tuples, with "q >= alpha" decided on the exact product of the
    binary64 edge probabilities.  No member contains another.

    Only edges with p >= alpha can lie in an alpha-clique.  From each
    vertex, a depth-first search extends each alpha-clique by its larger
    common alpha-neighbours, each carrying the exact product of its edges
    into the clique; a neighbour that fails leaves the subtree, since no
    superset passes where a subset fails.  A clique is maximal when no
    common alpha-neighbour, earlier ones included, extends it.  Past
    MAX_VISITS alpha-cliques it raises ValueError.
    """
    check_alpha(alpha)
    # A binary64 value is num / den with den a power of two, kept here as
    # its exponent, so "num * a_den >= a_num * den" is a test of shifts.
    a_num, a_den = alpha.as_integer_ratio()
    a_exp = a_den.bit_length() - 1
    nbrs: list[dict[int, tuple[int, int]]] = [{} for _ in range(g.n)]
    for u, v, p in g.edges():
        if p >= alpha:
            num, den = p.as_integer_ratio()
            nbrs[u][v] = nbrs[v][u] = (num, den.bit_length() - 1)
    kept: set[tuple[int, ...]] = set()
    visits = count(1)

    def grow(clique, num, exp, cands):
        if next(visits) > MAX_VISITS:
            raise ValueError(f"more than {MAX_VISITS} alpha-cliques to visit")
        ext = {}
        for w, (f_num, f_exp) in cands.items():
            q_num, q_exp = num * f_num, exp + f_exp
            if q_num << a_exp >= a_num << q_exp:
                ext[w] = (q_num, q_exp)
        if not ext:
            kept.add(clique)
        for w in sorted(ext):
            if w > clique[-1]:
                row = nbrs[w]
                grow(clique + (w,), *ext[w],
                     {x: (cands[x][0] * row[x][0], cands[x][1] + row[x][1])
                      for x in row.keys() & ext.keys()})

    for v in range(g.n):
        grow((v,), 1, 0, nbrs[v])
    return kept


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
