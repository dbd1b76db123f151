"""Property-based tests over random small uncertain graphs: the exact
reference enumerator is the ground truth for every enumerator, and a
brute force over all subsets with Fraction products is its own."""

import math
from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from umc import algorithms
from umc.algorithms import (
    dfs_noip,
    large_mule,
    mule,
    shared_neighborhood_filter,
)
from umc.graph import (
    PROB_REL_TOL,
    UncertainGraph,
    clique_probability,
    is_alpha_maximal,
    prune_by_alpha,
)
from umc.oracle import exact_enumerate, max_clique_count_bound


@st.composite
def uncertain_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for u, v in combinations(range(n), 2):
        if draw(st.booleans()):
            p = draw(st.floats(min_value=0.05, max_value=1.0,
                               allow_nan=False, allow_infinity=False))
            edges.append((u, v, p))
    return UncertainGraph(n, edges)


alphas = st.sampled_from([0.2, 0.5, 0.8, 1.0])


def run(fn, g, alpha, *args):
    out = []
    fn(prune_by_alpha(g, alpha), alpha, *args, out.append)
    return out


def exact_clique_products(g):
    """Every clique of g with its product as a Fraction, exact over the
    binary64 inputs."""
    products = {}
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            pairs = list(combinations(combo, 2))
            if all(v in g.row(u) for u, v in pairs):
                products[combo] = math.prod(
                    (Fraction(g.row(u)[v]) for u, v in pairs), start=1)
    return products


@st.composite
def graphs_with_alphas(draw):
    """A graph and an alpha from `alphas` or, as often, the binary64
    nearest to one of its cliques' exact products."""
    g = draw(uncertain_graphs())
    products = sorted(exact_clique_products(g).values())
    return g, draw(st.one_of(alphas, st.sampled_from(products).map(float)))


@settings(max_examples=100, deadline=None)
@given(graphs_with_alphas())
@example((UncertainGraph(3, [(0, 1, 0.6), (0, 2, 0.2), (1, 2, 0.7)]), 0.084))
def test_exact_enumerate_matches_fraction_brute_force(case):
    g, alpha = case
    kept = {c for c, q in exact_clique_products(g).items() if q >= alpha}
    maximal = {c for c in kept if not any(set(c) < set(d) for d in kept)}
    assert exact_enumerate(g, alpha) == maximal


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(), alphas)
def test_mule_matches_oracle(g, alpha):
    got = {c.vertices for c in run(mule, g, alpha)}
    assert got == exact_enumerate(g, alpha)


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(max_n=9), alphas)
def test_oracle_keeps_alpha_cliques_without_alpha_supersets(g, alpha):
    """The oracle's maximality test against the definition: an
    alpha-clique is maximal iff no alpha-clique is a proper superset."""
    found = {}
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            q = clique_probability(g, combo)
            if q is not None and q >= alpha:
                found[frozenset(combo)] = combo
    maximal = {found[c] for c in found
               if not any(c < other for other in found)}
    assert exact_enumerate(g, alpha) == maximal


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(), alphas)
def test_emissions_are_sound_and_unique(g, alpha):
    out = run(mule, g, alpha)
    assert len({c.vertices for c in out}) == len(out)
    for c in out:
        assert is_alpha_maximal(g, c.vertices, alpha)
        direct = clique_probability(g, c.vertices)
        assert abs(c.prob - direct) <= PROB_REL_TOL * direct


def emitted(fn, g, alpha, *args, **kwargs):
    """The emitted stream in order, probabilities as exact bit patterns.
    The count fn returns must be the number of cliques its sink received
    (for mule and large_mule, their adapter's count: the kernel keeps
    none)."""
    out = []
    assert fn(g, alpha, *args, out.append, **kwargs) == len(out)
    return [(c.vertices, c.prob.hex()) for c in out]


def assert_pruning_is_invisible(g, alpha):
    """Each enumerator emits the same stream, in the same order and with
    bit-equal probabilities, whether or not sub-alpha edges are present."""
    pruned = prune_by_alpha(g, alpha)
    runs = [(mule, (), {"check_invariants": True}), (dfs_noip, (), {})]
    runs += [(large_mule, (t,), {"check_invariants": True})
             for t in (2, 3, 4)]
    for fn, args, kwargs in runs:
        assert emitted(fn, g, alpha, *args, **kwargs) == \
            emitted(fn, pruned, alpha, *args, **kwargs), (fn.__name__, args)


@settings(max_examples=100, deadline=None)
@given(uncertain_graphs(max_n=12), alphas)
def test_pruning_preserves_output(g, alpha):
    assert_pruning_is_invisible(g, alpha)


# Vertex 1 has only sub-alpha edges; {0, 2, 3} is a triangle above alpha.
SUB_ALPHA_VERTEX = UncertainGraph(4, [(0, 1, 0.1), (1, 2, 0.3), (0, 2, 0.9),
                                      (0, 3, 0.9), (2, 3, 0.9)])


def test_vertex_with_only_sub_alpha_edges_is_a_singleton():
    assert_pruning_is_invisible(SUB_ALPHA_VERTEX, 0.5)
    assert emitted(mule, SUB_ALPHA_VERTEX, 0.5) == \
        [((0, 2, 3), (0.9 * 0.9 * 0.9).hex()), ((1,), (1.0).hex())]


def test_large_mule_threshold_above_every_degree_emits_nothing():
    g = SUB_ALPHA_VERTEX
    t = max(len(g.row(u)) for u in range(g.n)) + 2
    for graph in (g, prune_by_alpha(g, 0.5)):
        assert emitted(large_mule, graph, 0.5, t, check_invariants=True) == []


@settings(max_examples=100, deadline=None)
@given(uncertain_graphs(max_n=12), alphas, st.integers(min_value=2, max_value=6))
def test_filter_is_the_t_truss_of_the_alpha_subgraph(g, alpha, t):
    """The filter reads only edges with p >= alpha, keeps no edge with
    fewer than t-2 kept shared neighbours, and drops no edge of an
    alpha-maximal clique of size >= t."""
    kept = shared_neighborhood_filter(g, alpha, t)
    assert list(kept.edges()) == \
        list(shared_neighborhood_filter(prune_by_alpha(g, alpha), alpha,
                                        t).edges())
    for u, v, p in kept.edges():
        assert p >= alpha and p == g.row(u)[v]
        assert len(kept.row(u).keys() & kept.row(v).keys()) >= t - 2
    for verts in exact_enumerate(g, alpha):
        if len(verts) >= t:
            assert all(v in kept.row(u) for u, v in combinations(verts, 2))


@settings(max_examples=100, deadline=None)
@given(uncertain_graphs(max_n=12), alphas)
def test_kernel_stream_is_independent_of_invariant_checks(g, alpha):
    """mule and large_mule (t=3) emit the same ordered stream, with
    bit-equal probabilities, whether or not every frame and leaf is
    re-derived by _check_frame; large_mule's stream is mule's restricted
    to cliques of size >= 3."""
    streams = {}
    for check in (False, True):
        streams[check] = (emitted(mule, g, alpha, check_invariants=check),
                          emitted(large_mule, g, alpha, 3,
                                  check_invariants=check))
    assert streams[False] == streams[True]
    full, large = streams[False]
    assert large == [c for c in full if len(c[0]) >= 3]


@st.composite
def ceiling_graphs(draw, max_n=10):
    """A graph whose edges share a few probabilities, with alpha an exact
    power of one of them, so that many cliques sit at alpha and the
    kernel's factor ceiling fires."""
    probs = draw(st.lists(st.sampled_from([0.3, 0.5, 0.6, 0.8, 0.9, 1.0]),
                          min_size=1, max_size=3, unique=True))
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = [(u, v, draw(st.sampled_from(probs)))
             for u, v in combinations(range(n), 2) if draw(st.booleans())]
    alpha = draw(st.sampled_from(probs)) ** draw(st.integers(1, 6))
    return UncertainGraph(n, edges), alpha


@settings(max_examples=150, deadline=None)
@given(ceiling_graphs())
def test_ceiling_decisions_match_the_full_tests(case):
    """Under check_invariants every ceiling decision is re-derived by the
    full candidate filters, so mule and large_mule must emit the same
    ordered stream, with bit-equal probabilities, with the checks on and
    off."""
    g, alpha = case
    for fn, args in ((mule, ()), (large_mule, (2,)), (large_mule, (3,))):
        assert emitted(fn, g, alpha, *args, check_invariants=False) == \
            emitted(fn, g, alpha, *args, check_invariants=True), args


def pushed_exclusion_lists(g, alpha, check_invariants):
    """(clique, q, excl as a set) of every frame mule pushes, roots
    included, with excl taken at the push."""
    pushed = []

    class RecordingFrame(algorithms._Frame):
        __slots__ = ()

        def __init__(self, clique, q, ext, excl, cap):
            pushed.append((clique, q, set(excl)))
            super().__init__(clique, q, ext, excl, cap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_Frame", RecordingFrame)
        mule(g, alpha, lambda c: None, check_invariants=check_invariants)
    return pushed


def exclusion_list(g, clique, q, alpha):
    """clique's exclusion list built from scratch, as a set of (v, s):
    each v below max(clique), outside it and adjacent to all of it, with
    s the product of v's edge probabilities to clique, in clique order as
    the kernel multiplies them, and q*s >= alpha."""
    members = set(clique)
    excl = set()
    for v in range(clique[-1]):
        row = g.row(v)
        if v not in members and all(c in row for c in clique):
            s = math.prod(row[c] for c in clique)
            if q * s >= alpha:
                excl.add((v, s))
    return excl


@settings(max_examples=150, deadline=None)
@given(st.one_of(ceiling_graphs(), st.tuples(uncertain_graphs(), alphas)))
def test_every_frame_is_pushed_with_its_exclusion_list_built(case):
    g, alpha = case
    for check in (False, True):
        for clique, q, excl in pushed_exclusion_lists(g, alpha, check):
            assert excl == exclusion_list(g, clique, q, alpha), clique


@settings(max_examples=40, deadline=None)
@given(uncertain_graphs(), alphas, st.integers(min_value=1, max_value=6))
def test_large_mule_is_a_size_filter(g, alpha, t):
    full = {c.vertices for c in run(mule, g, alpha)}
    got = []
    large_mule(prune_by_alpha(g, alpha), alpha, t, got.append)
    assert {c.vertices for c in got} == {v for v in full if len(v) >= t}


@settings(max_examples=40, deadline=None)
@given(uncertain_graphs(), alphas)
def test_dfs_noip_matches_mule(g, alpha):
    assert {c.vertices for c in run(dfs_noip, g, alpha)} == \
        {c.vertices for c in run(mule, g, alpha)}


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(), alphas, st.integers(min_value=1, max_value=4))
def test_dfs_noip_applies_the_size_threshold(g, alpha, t):
    """dfs_noip at threshold t returns and emits exactly large_mule's
    vertex sets, which are the oracle's cliques of at least t vertices."""
    pruned = prune_by_alpha(g, alpha)
    got, want = [], []
    count = dfs_noip(pruned, alpha, got.append, t)
    large_mule(pruned, alpha, t, want.append)
    sets = {c.vertices for c in got}
    assert count == len(got) == len(sets)
    assert sets == {c.vertices for c in want}
    assert sets == {v for v in exact_enumerate(g, alpha) if len(v) >= t}


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(max_n=7), alphas)
def test_output_count_never_exceeds_bound(g, alpha):
    if g.n < 2:
        return
    assert len(run(mule, g, alpha)) <= max_clique_count_bound(g.n)


@settings(max_examples=60, deadline=None)
@given(uncertain_graphs(max_n=6))
def test_subset_monotonicity(g):
    verts = tuple(range(g.n))
    for size in range(1, g.n + 1):
        for combo in combinations(verts, size):
            qa = clique_probability(g, combo)
            if qa is None:
                continue
            for sub in combinations(combo, size - 1):
                qb = clique_probability(g, sub)
                assert qb is not None
                assert qb >= qa
