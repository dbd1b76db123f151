"""Enumerators for alpha-maximal cliques.

mule        incremental depth-first enumeration: each candidate carries a
            cached factor so extending the working clique costs O(1) per
            candidate, and maximality is decided from the candidate sets
            alone (no graph rescans).
large_mule  size-thresholded variant: shared-neighborhood pre-filtering
            (t >= 3) plus a branch guard that skips subtrees too small to
            reach the threshold t >= 1; mule is large_mule at t = 1.
dfs_noip    baseline that recomputes every clique probability from scratch
            and runs full maximality checks, and emits only the cliques
            of at least t vertices; kept for benchmarking.

Every enumerator searches search_graph(g, alpha, t), which holds only
the edges with p >= alpha: the alpha-subgraph (graph.prune_by_alpha) for
t <= 2, its t-truss (shared_neighborhood_filter) for t >= 3.  Both are
selected from g's edge arrays (UncertainGraph.select), so rows are built
for the search graph alone, and the kernel tests no edge against alpha.
mule and large_mule build each root vertex's frame straight from its
row (UncertainGraph.rows) and run one depth-first search per root; no
search step scans vertices outside a neighbourhood.  Each step reads the
added vertex's row once and does one dict lookup per candidate; a child
left with no extension candidates, or with one (whose one child is then
a leaf), is decided in place, without a frame.  A factor ceiling, a
bound on every cached factor of a frame, decides cliques at the
threshold unscanned and hands them over as one batch.  Every frame is
pushed with its exclusion list built.
The search has one output, emit(c, u, q, ext) (see _enumerate), for
single cliques and batches alike, and counts nothing: large_mule's
adapter builds each Clique for its sink and counts, and umc.parallel
formats straight from the tuples.
A root's subtree depends on that root alone, so umc.parallel can split
the roots across processes.
The graph's edge arrays are sorted by (lo, hi), so they list each
vertex's neighbours above it (its later neighbours, in Eppstein, Loffler
and Strash's terms) back to back; search_roots counts the roots'
neighbours there.
"""

from __future__ import annotations

from itertools import compress, groupby, repeat
from operator import contains, le
from typing import Callable

from .graph import (
    Clique,
    UncertainGraph,
    check_alpha,
    clique_probability,
    clique_probability_or_none,
    is_alpha_maximal,
    prune_by_alpha,
)

Sink = Callable[[Clique], None]

REL_TOL = 1e-9  # factor drift tolerance in debug verification


class InvariantViolation(AssertionError):
    """A cached candidate factor disagrees with the direct product."""


class _Frame:
    """One node of the search tree.

    clique   current working clique (sorted tuple, ascending)
    q        its clique probability, maintained incrementally
    ext      extension candidates (u, r), u > max(clique), sorted by u;
             q*r is the probability of clique+{u} and is >= alpha
    excl     exclusion witnesses (v, s), v < max(clique), v not in clique;
             q*s is the probability of clique+{v} and is >= alpha
    cap      factor ceiling: bounds every factor ext and excl ever hold
    """

    __slots__ = ("clique", "q", "ext", "excl", "cap", "i")

    def __init__(self, clique, q, ext, excl, cap):
        self.clique = clique
        self.q = q
        self.ext = ext
        self.excl = excl
        self.cap = cap
        self.i = 0  # next extension index to process


def mule(g: UncertainGraph, alpha: float, sink: Sink, *,
         check_invariants: bool = False) -> int:
    """Emit every alpha-maximal clique of g exactly once; returns the count.

    A clique is emitted when both candidate sets are empty: no vertex above
    max(C) extends it (ext) and no vertex below does either (excl), which
    is exactly maximality.  This is large_mule at t = 1, which searches
    g's alpha-subgraph and prunes nothing else.
    """
    return large_mule(g, alpha, 1, sink, check_invariants=check_invariants)


def large_mule(g: UncertainGraph, alpha: float, t: int, sink: Sink, *,
               check_invariants: bool = False) -> int:
    """Emit exactly the alpha-maximal cliques with at least t vertices;
    returns the count.

    Searches search_graph(g, alpha, t), the alpha-subgraph with no
    pre-filtering for t <= 2, and prunes any branch where
    |C'| + |ext'| < t: that subtree cannot reach size t, and every
    surviving witness needed for maximality of a size->=t clique is
    preserved (on the path to such a clique the guard never fires).
    The search hands its cliques out as (c, u, q, ext) (see _enumerate);
    one adapter builds each Clique, passes it to sink and counts it.
    """
    count = 0

    def emit(c, u, q, ext):
        nonlocal count
        c2 = c + (u,)
        if ext is None:
            sink(Clique(c2, q))
            count += 1
        else:
            for w, r in ext:
                sink(Clique(c2 + (w,), q * r))
            count += len(ext)

    _enumerate(search_graph(g, alpha, t), alpha, emit, range(g.n), t,
               check_invariants=check_invariants)
    return count


def search_graph(g: UncertainGraph, alpha: float, t: int) -> UncertainGraph:
    """The graph every search for g's alpha-maximal cliques with at least
    t vertices runs on; it holds only edges with p >= alpha, the only ones
    such a clique can contain.  prune_by_alpha(g, alpha) for t <= 2, g
    itself when no edge lies below alpha: every alpha-edge is an
    alpha-clique of two vertices, so the size filter drops none at t = 2.
    shared_neighborhood_filter(g, alpha, t) for t >= 3."""
    if t < 1:
        raise ValueError("size threshold must be >= 1")
    return (prune_by_alpha(g, alpha) if t <= 2
            else shared_neighborhood_filter(g, alpha, t))


def search_roots(g: UncertainGraph, t: int) -> list[int]:
    """The roots, ascending, whose frame _enumerate pushes for threshold t
    on the search graph g: those with enough neighbours above them to
    reach size t, and at least one.  Every other root emits at most its
    singleton, unsearched.  Read from g's edge arrays, which list each
    vertex's neighbours above it back to back in ascending order, so no
    row is built."""
    # one run of equal lower endpoints per vertex with a neighbour above
    # it, ascending, so every run has one at least
    return [u for u, run in groupby(g.edge_arrays()[0])
            if len(list(run)) >= t - 1]


def _enumerate(g, alpha, emit, roots, t, *, check_invariants):
    """One depth-first search per root vertex u, taken from the iterable
    roots in ascending order, handing every alpha-maximal clique with at
    least t vertices to emit, in order.

    emit(c, u, q, ext) is the search's one output.  With ext None it is
    the single clique c+(u,) with probability q; a root's singleton goes
    out as ((), u, 1.0, None).  Otherwise it is a batch, the cliques
    c+(u, w) with probability q*r for (w, r) in ext, in that order: one
    per child C+u that the factor ceiling decides, and a one-entry batch
    for the one child of a child with one candidate (see _search).  c is
    the clique tuple of the frame the clique comes from, the same object
    for every clique of that frame, so a caller can key per-frame work on
    its identity.  The search keeps no count; the caller counts what emit
    receives.

    g is a search graph (see search_graph): every edge has p >= alpha,
    and alpha was checked in its making.
    u's frame is built from its row alone: ext holds the neighbours above
    u and excl those below, each with its edge probability as the cached
    factor.  Every vertex below u that
    could extend a clique containing u is adjacent to u, so excl holds
    every witness the search below needs.  Its factor ceiling is
    rowmax[u].  So each root's subtree and output depend on the root
    alone, and any set of roots can be searched in any process.
    """
    rows = g.rows()
    rowmax = [max(row.values(), default=0.0) for row in rows]
    for u in roots:
        items = rows[u].items()
        ext = [(w, p) for w, p in items if w > u]
        if 1 + len(ext) < t:
            continue  # no clique containing u as its minimum is large enough
        excl = [(v, p) for v, p in items if v < u]
        if check_invariants:
            _check_frame(g, (u,), 1.0, ext, excl, alpha)
        if ext:
            root = _Frame((u,), 1.0, ext, excl, rowmax[u])
            _search(g, rows, root, rowmax, alpha, emit, t,
                    check_invariants=check_invariants)
        elif not excl:
            emit((), u, 1.0, None)


def _search(g, rows, root, rowmax, alpha, emit, t, *, check_invariants):
    """Hand the alpha-maximal cliques with at least t vertices in root's
    subtree to emit (see _enumerate).  rows is g.rows(); g itself serves
    only check_invariants.

    A child whose ext comes out empty is a leaf, decided without a frame:
    it is maximal exactly when no exclusion witness survives its addition,
    and it goes to emit as (C, u, q2, None).
    A child C+{u} with one extension candidate w is not maximal, and its
    one child C+{u,w} is a leaf, decided here against fr's list through
    the rows of u and w, as C+{u}'s frame would decide it; it goes to emit
    as the one-entry batch (C, u, q2, [(w, r2)]).
    The factor ceiling cap2 = fr.cap*rowmax[u] of C+{u} bounds every
    factor its candidates will hold, and rounding is monotone, so when
    (q2*cap2)*cap2 < alpha no child of C+{u} can be extended: each is a
    leaf with no witness, and the batch goes to emit as (C, u, q2, ext2).
    In all three, C is fr's own clique tuple.  The ceiling only skips
    tests that would fail, so the output is unchanged.

    Every other child C+{u} is pushed with its exclusion list built, fr's
    list filtered through u's row.  Under check_invariants every child's
    candidate sets are checked, neither shortcut runs and every child with
    candidates gets a frame, so that mode is the reference the shortcuts
    are compared against.
    """
    # Explicit frame stack: depth reaches the largest clique size, up to n,
    # far beyond what native recursion survives.
    stack = [root]
    while stack:
        fr = stack[-1]
        ext = fr.ext
        i = fr.i
        if i >= len(ext):
            stack.pop()
            continue
        entry = ext[i]
        u, r = entry
        i += 1
        fr.i = i
        c = fr.clique
        q2 = fr.q * r
        # ext is sorted by vertex, so the entries after u are those above
        # it; the last child has none
        ext2 = _filter(rows, u, q2, ext[i:], alpha) if i < len(ext) else []
        if len(c) + 1 + len(ext2) < t:
            continue  # subtree cannot reach the size threshold
        if check_invariants:
            _check_frame(g, c + (u,), q2, ext2,
                         _filter(rows, u, q2, fr.excl, alpha), alpha)
        if not ext2:
            if not _has_witness(rows, u, q2, fr.excl, alpha):
                emit(c, u, q2, None)
        elif (q2 * (cap2 := fr.cap * rowmax[u]) * cap2 < alpha
              and not check_invariants):
            if len(c) + 2 >= t:
                emit(c, u, q2, ext2)
        elif len(ext2) > 1 or check_invariants:
            stack.append(_Frame(c + (u,), q2, ext2,
                                _filter(rows, u, q2, fr.excl, alpha), cap2))
        else:
            # C+u's one child, C+u+w, is a leaf: decided here, as its
            # frame would decide it, without the frame
            w, r2 = ext2[0]
            if not _has_inherited_witness(rows, u, q2, w, q2 * r2,
                                          fr.excl, alpha):
                emit(c, u, q2, ext2)
        # u's subtree is settled before any later sibling is expanded, so
        # u is already a maximality witness for everything to its right.
        fr.excl.append(entry)


def _filter(rows, m, q_new, entries, alpha):
    """The candidates (v, f) of entries still able to extend the clique
    once m joins it: v adjacent to m, with the updated factor f*p keeping
    the product >= alpha.  rows is the graph's rows(); one lookup in m's
    row per entry."""
    row = rows[m]
    out = []
    for v, f in entries:
        p = row.get(v)
        if p is not None and q_new * (f2 := f * p) >= alpha:
            out.append((v, f2))
    return out


def _has_witness(rows, m, q_new, excl, alpha):
    """Whether _filter(rows, m, q_new, excl, alpha) is nonempty, found
    early."""
    row = rows[m]
    for v, s in excl:
        p = row.get(v)
        if p is not None and q_new * (s * p) >= alpha:
            return True
    return False


def _has_inherited_witness(rows, m, q_m, u, q_new, excl, alpha):
    """Whether _filter(rows, u, q_new, _filter(rows, m, q_m, excl, alpha),
    alpha) is nonempty, found early: m's row and then u's, each product
    taken as the two filters take it."""
    row_m, row_u = rows[m], rows[u]
    for v, s in excl:
        p = row_m.get(v)
        if p is not None and q_m * (s := s * p) >= alpha:
            p = row_u.get(v)
            if p is not None and q_new * (s * p) >= alpha:
                return True
    return False


def _check_frame(g, clique, q, ext, excl, alpha):
    """Debug verification: every cached factor must reproduce the directly
    computed clique probability within REL_TOL, and satisfy the ordering
    and threshold contracts of its set."""
    direct_q = clique_probability(g, clique)
    if abs(q - direct_q) > REL_TOL * direct_q:
        raise InvariantViolation(f"q drift at {clique}: {q} vs {direct_q}")
    mx = clique[-1]
    members = set(clique)
    for u, r in ext:
        if u <= mx:
            raise InvariantViolation(f"extension {u} not above max {mx}")
        direct = clique_probability(g, clique + (u,))
        if abs(q * r - direct) > REL_TOL * direct or q * r < alpha:
            raise InvariantViolation(
                f"extension factor drift at {clique}+{u}: {q * r} vs {direct}")
    for v, s in excl:
        if v >= mx or v in members:
            raise InvariantViolation(f"exclusion {v} out of place for {clique}")
        direct = clique_probability(g, tuple(sorted(members | {v})))
        if abs(q * s - direct) > REL_TOL * direct or q * s < alpha:
            raise InvariantViolation(
                f"exclusion factor drift at {clique}+{v}: {q * s} vs {direct}")


def shared_neighborhood_filter(g: UncertainGraph, alpha: float,
                               t: int) -> UncertainGraph:
    """The edges with p >= alpha that can sit inside a clique of size >= t.

    Drops every edge whose endpoints share fewer than t-2 neighbours, and
    repeats until none is dropped: the t-truss (Cohen 2008) of the
    alpha-subgraph.  The vertex set (and labelling) is unchanged.  Each
    edge of an alpha-clique of size >= t has the clique's other vertices
    as shared neighbours, so every such clique survives intact.

    The filter reads g's edge arrays, never its rows, so g's rows are not
    built (see UncertainGraph), and the graph it returns keeps the edges
    that survive in g's (lo, hi) order and builds rows only for them.  It
    groups each vertex's alpha-neighbours in a list, with one int object
    per vertex, and checks each edge (u, v), v > u, against a set made of
    u's list; sets are built only for the edges that survive that first
    round.  An edge's shared count falls only when an edge at one of its
    endpoints is dropped, so each later round checks only the edges at a
    vertex that lost one in the round before, and the filter stops after
    a round that drops nothing.
    """
    check_alpha(alpha)
    if t < 2:
        raise ValueError("size threshold must be >= 2 for filtering")
    need = t - 2
    us, vs, ps = g.edge_arrays()
    ids = list(range(g.n))
    nbrs: list[list[int]] = [[] for _ in ids]
    for u, v in compress(zip(us, vs), map(le, repeat(alpha), ps)):
        nbrs[u].append(ids[v])
        nbrs[v].append(ids[u])
    adj: dict[int, set[int]] = {}
    for u, nu in enumerate(nbrs):
        if len(nu) <= need:
            continue  # every edge at u has at most len(nu) - 1 shared
        su = set(nu)
        for v in nu:
            if v > u and len(su.intersection(nbrs[v])) >= need:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
    lost = [u for u, nu in enumerate(nbrs) if len(adj.get(u, ())) < len(nu)]
    del nbrs
    while lost:
        dropped = set()
        for u in lost:
            au = adj.get(u, ())
            for v in [w for w in au if len(au & adj[w]) < need]:
                au.discard(v)
                adj[v].discard(u)
                dropped.update((u, v))
        lost = dropped
    # adj holds only alpha-edges, so an edge is kept when adj[u] holds v
    return g.select(map(contains, map(adj.get, us, repeat(())), vs))


def dfs_noip(g: UncertainGraph, alpha: float, sink: Sink, t: int = 1) -> int:
    """Baseline enumerator with no incremental probability bookkeeping.

    Same search-tree shape as mule (vertices added in increasing order),
    but every candidate's clique probability is recomputed from scratch
    and maximality is decided by a full definition-level check
    (is_alpha_maximal), whose product each clique carries.  Emits,
    and counts, the alpha-maximal cliques with at least t vertices: the
    same clique set as large_mule (mule at t = 1).  Whatever t is, it
    searches the whole tree of search_graph(g, alpha, 1), the alpha-
    subgraph, with no size filter or guard, and is kept as the
    performance comparison point.  Unlike mule it recurses, one level per
    vertex of the working clique.
    """
    g = search_graph(g, alpha, min(t, 1))  # at t < 1 it raises ValueError
    count = 0

    def visit(c: tuple[int, ...], cand) -> None:
        """c is an alpha-clique; cand, ascending, holds every vertex
        above max(c) that extends c to an alpha-clique."""
        nonlocal count
        if (q := is_alpha_maximal(g, c, alpha)) is not None:
            if len(c) >= t:
                sink(Clique(c, q))
                count += 1
            return
        mx = c[-1]
        row = g.row(mx)
        kept = [u for u in cand if u > mx and u in row
                and (q := clique_probability_or_none(g, c + (u,))) is not None
                and q >= alpha]
        for v in kept:
            visit(c + (v,), kept)

    # A single vertex is an alpha-clique (probability 1), so each root
    # starts from its own neighbours, not from all n vertices.
    for v in range(g.n):
        visit((v,), g.row(v))
    return count
