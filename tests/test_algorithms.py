"""Enumerator tests: hand-traced fixtures, candidate-set maintenance,
the size-thresholded variant, pre-filtering, and the baseline."""

import io
import math
from fractions import Fraction

import pytest

from umc import algorithms, graph
from umc.algorithms import (
    InvariantViolation,
    dfs_noip,
    large_mule,
    mule,
    search_graph,
    shared_neighborhood_filter,
    _enumerate,
    _filter,
)
from umc.cli import PROB_REL_TOL
from umc.generators import GenSpec
from umc.graph import UncertainGraph, dump_graph, load_graph, prune_by_alpha
from umc.oracle import build_extremal_graph, exact_enumerate


def parse(text):
    return load_graph(io.StringIO(text))


def collect(fn, *args, **kwargs):
    out = []
    count = fn(*args, sink=out.append, **kwargs)
    assert count == len(out)
    return {c.vertices: c.prob for c in out}


PATH_3 = "1 2 0.9\n2 3 0.8\n"


class TestMule:
    def test_path_graph(self):
        got = collect(mule, parse(PATH_3), 0.75)
        assert got == {(0, 1): pytest.approx(0.9), (1, 2): pytest.approx(0.8)}

    def test_extremal_k4(self):
        g = build_extremal_graph(4, 0.5)
        got = collect(mule, g, 0.5)
        assert len(got) == 6
        assert all(len(v) == 2 for v in got)
        assert all(p >= 0.5 for p in got.values())

    def test_edgeless_graph_emits_singletons(self):
        g = UncertainGraph(3, [])
        assert set(collect(mule, g, 0.5)) == {(0,), (1,), (2,)}

    def test_empty_graph(self):
        assert collect(mule, UncertainGraph(0, []), 0.5) == {}

    def test_isolated_vertex_is_singleton_clique(self):
        g = parse("n 3\n1 2 0.9\n")
        assert set(collect(mule, g, 0.5)) == {(0, 1), (2,)}

    def test_no_duplicates(self):
        g = build_extremal_graph(8, 0.5)
        out = []
        mule(g, 0.5, out.append)
        assert len({c.vertices for c in out}) == len(out)

    def test_alpha_one_degenerates_to_deterministic(self):
        g = parse("1 2 1\n2 3 1\n1 3 1\n3 4 0.9\n")
        got = collect(mule, prune_by_alpha(g, 1.0), 1.0)
        assert set(got) == {(0, 1, 2), (3,)}

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            mule(parse(PATH_3), 0.0, lambda c: None)
        with pytest.raises(ValueError):
            mule(parse(PATH_3), 1.5, lambda c: None)

    def test_uses_explicit_stack_not_native_recursion(self):
        # search depth on K_16 is 16; with the interpreter limit pinned just
        # above the current stack depth, any per-level native recursion
        # would raise RecursionError
        import sys
        n = 16
        edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]
        g = UncertainGraph(n, edges)
        old = sys.getrecursionlimit()
        try:
            # smallest limit at which a depth-1 enumeration runs at all,
            # i.e. the fixed call overhead of this test environment
            trivial = UncertainGraph(1, [])
            floor = old
            for limit in range(old, 0, -25):
                try:
                    sys.setrecursionlimit(limit)
                    mule(trivial, 0.5, lambda c: None)
                    floor = limit
                except RecursionError:
                    break
            sys.setrecursionlimit(floor + 8)
            got = collect(mule, g, 0.5)
        finally:
            sys.setrecursionlimit(old)
        assert got == {tuple(range(n)): 1.0}


class TestCandidateMaintenance:
    # Hand-trace of extending {} by vertex 1 (internal 0) on the 3-path:
    # candidate 2 keeps factor p(1,2)=0.9, candidate 3 is not adjacent.
    def test_extension_keeps_adjacent_above_threshold(self):
        g = parse(PATH_3)
        ext = [(0, 1.0), (1, 1.0), (2, 1.0)]
        got = _filter(g.rows(), 0, 1.0, ext[1:], 0.75)
        assert got == [(1, pytest.approx(0.9))]

    def test_extension_empty_input(self):
        g = parse(PATH_3)
        assert _filter(g.rows(), 0, 1.0, [], 0.5) == []

    def test_extension_boundary_product_exactly_alpha_kept(self):
        g = parse("1 2 0.5\n")
        got = _filter(g.rows(), 0, 1.0, [(0, 1.0), (1, 1.0)][1:], 0.5)
        assert got == [(1, 0.5)]

    def test_exclusion_drops_non_neighbors(self):
        # after backtracking from {1,2}, vertex 1 sits in the exclusion set
        # of {2}; extending to {2,3} drops it (no 1-3 edge), so {2,3} is
        # emitted as maximal
        g = parse(PATH_3)
        assert _filter(g.rows(), 2, 0.8, [(0, 0.9)], 0.75) == []
        got = collect(mule, g, 0.75)
        assert (1, 2) in got

    def test_exclusion_empty_input(self):
        g = parse(PATH_3)
        assert _filter(g.rows(), 1, 0.9, [], 0.75) == []

    def test_exclusion_keeps_surviving_witness(self):
        g = parse("1 2 0.9\n1 3 0.9\n2 3 0.9\n")
        got = _filter(g.rows(), 2, 0.9, [(0, 0.9)], 0.5)
        assert got == [(0, pytest.approx(0.81))]


class TestLargeMule:
    def test_extremal_k6_thresholds(self):
        g = build_extremal_graph(6, 0.5)
        got3 = collect(large_mule, g, 0.5, 3)
        assert len(got3) == 20
        assert all(len(v) == 3 for v in got3)
        assert collect(large_mule, g, 0.5, 4) == {}

    def test_t1_identical_to_mule(self):
        g = prune_by_alpha(parse(PATH_3), 0.75)
        assert collect(large_mule, g, 0.75, 1) == collect(mule, g, 0.75)

    def test_path_t3_empty(self):
        assert collect(large_mule, parse(PATH_3), 0.75, 3) == {}

    def test_matches_filtered_mule(self):
        g = build_extremal_graph(8, 0.3)
        full = collect(mule, g, 0.3)
        for t in (2, 3, 4, 5):
            got = collect(large_mule, g, 0.3, t)
            assert set(got) == {v for v in full if len(v) >= t}

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            large_mule(parse(PATH_3), 0.5, 0, lambda c: None)


class TestFrameFreeLeaves:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_extremal_counts_with_and_without_checks(self, n):
        g = build_extremal_graph(n, 0.5)
        streams = []
        for check in (False, True):
            for fn, args in ((mule, ()), (large_mule, (n // 2,))):
                out = []
                assert fn(g, 0.5, *args, out.append,
                          check_invariants=check) == math.comb(n, n // 2)
                streams.append([(c.vertices, c.prob.hex()) for c in out])
        assert all(s == streams[0] for s in streams)
        assert all(len(v) == n // 2 for v, _ in streams[0])

    def test_no_frame_is_pushed_for_a_leaf(self, monkeypatch):
        pushed = count_frames(monkeypatch)
        # K6 at its extremal alpha: every edge has q = 0.5**(2/9).  A
        # 2-clique {u, w} (probability q) has the factor ceiling q*q, and
        # q * (q*q)**2 < 0.5, so its children, the 3-cliques, are decided
        # from its ext without a frame.  Frames go only to the roots 0..4.
        assert len(collect(mule, build_extremal_graph(6, 0.5), 0.5)) == 20
        assert len(pushed) == 5 and all(ext for _, ext in pushed)

    def test_no_frame_is_pushed_for_a_child_with_one_candidate(
            self, monkeypatch):
        # A triangle at p = 0.9: {0,1}'s one extension candidate is 2, so
        # its one child {0,1,2} is a leaf, decided without {0,1}'s frame.
        pushed = count_frames(monkeypatch)
        g = UncertainGraph(3, [(0, 1, 0.9), (0, 2, 0.9), (1, 2, 0.9)])
        assert set(collect(mule, g, 0.5)) == {(0, 1, 2)}
        assert [c for c, _ in pushed] == [(0,), (1,)]


def count_frames(monkeypatch):
    """(clique, ext) of every frame the search pushes, roots included."""
    pushed = []

    class CountingFrame(algorithms._Frame):
        __slots__ = ()

        def __init__(self, clique, q, ext, *rest):
            pushed.append((clique, ext))
            super().__init__(clique, q, ext, *rest)

    monkeypatch.setattr(algorithms, "_Frame", CountingFrame)
    return pushed


class TestFactorCeiling:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_no_frame_near_the_threshold_on_extremal_graphs(self, n,
                                                            monkeypatch):
        pushed = count_frames(monkeypatch)
        assert len(collect(mule, build_extremal_graph(n, 0.5), 0.5)) == \
            math.comb(n, n // 2)
        assert pushed and all(len(c) < n // 2 - 1 for c, _ in pushed)

    @pytest.mark.parametrize("text, expected", [
        # {1,2} sits at alpha and vertex 3 (both edges 1.0) extends it, so
        # its extension test must keep a product exactly at alpha.
        ("1 2 0.5\n1 3 1.0\n2 3 1.0\n", {(0, 1, 2)}),
        # the same one level up: for {1,2}, (q2 * cap2) * cap2 == alpha, and
        # its children {1,2,3}, {1,2,4} grow into {1,2,3,4}
        ("1 2 0.5\n1 3 1.0\n2 3 1.0\n1 4 1.0\n2 4 1.0\n3 4 1.0\n",
         {(0, 1, 2, 3)}),
    ], ids=["leaf", "frame"])
    def test_a_clique_at_the_ceiling_still_grows(self, text, expected):
        g = parse(text)
        for check in (False, True):
            assert set(collect(mule, g, 0.5, check_invariants=check)) == \
                expected
        assert exact_enumerate(g, 0.5) == expected

    def test_children_decided_by_the_ceiling_obey_the_size_threshold(self):
        # K4 at p = 0.8, alpha = 0.5: the triangles (0.512) are the
        # alpha-maximal cliques.  Each 2-clique's children are decided by
        # the ceiling, and none of them reaches t = 4.
        g = UncertainGraph(4, [(u, v, 0.8) for u in range(4)
                               for v in range(u + 1, 4)])
        assert len(collect(large_mule, g, 0.5, 3)) == 4
        for check in (False, True):
            assert collect(large_mule, g, 0.5, 4,
                           check_invariants=check) == {}


class TestLazyExclusionLists:
    # Labels; the internal indices are one less.  Root 2's list is [1].
    # Its child {2,3} has one extension candidate, 4, so it is decided in
    # place and its own list is never built: the leaf {2,3,4} is decided
    # by the scan of root 2's list through the rows of 3 and then 4,
    # which finds 1 or not.
    @pytest.mark.parametrize("edge_14, found", [
        ("1 4 0.9\n", True),
        ("", False),  # 1 is not adjacent to 4
        ("1 4 0.3\n", False),  # {1,2,3,4} is below alpha (0.177)
    ], ids=["in-place-witness", "in-place-not-adjacent",
            "in-place-below-alpha"])
    def test_leaf_decided_through_the_parent_list(self, edge_14, found,
                                                 monkeypatch):
        g = parse("1 2 0.9\n1 3 0.9\n2 3 0.9\n2 4 0.9\n3 4 0.9\n" + edge_14)
        pushed = count_frames(monkeypatch)
        scans = []
        real = algorithms._has_inherited_witness

        def spy(g, m, q_m, u, q_new, excl, alpha):
            excl = list(excl)
            result = real(g, m, q_m, u, q_new, excl, alpha)
            scans.append((m, u, [v for v, _ in excl], result))
            return result

        monkeypatch.setattr(algorithms, "_has_inherited_witness", spy)
        got = collect(mule, g, 0.5)
        assert (2, 3, [0], found) in scans
        assert (1, 2) not in [c for c, _ in pushed]
        assert set(got) == exact_enumerate(g, 0.5)
        assert got == collect(mule, g, 0.5, check_invariants=True)


class TestSharedNeighborhoodFilter:
    def test_triangle_t3_unchanged(self):
        g = parse("1 2 0.9\n2 3 0.9\n1 3 0.9\n")
        assert shared_neighborhood_filter(g, 0.5, 3).num_edges == 3

    def test_sub_alpha_edge_breaks_the_triangle(self):
        g = parse("1 2 0.9\n2 3 0.9\n1 3 0.4\n")
        assert shared_neighborhood_filter(g, 0.5, 2).num_edges == 2
        assert shared_neighborhood_filter(g, 0.5, 3).num_edges == 0

    def test_path_t3_removes_everything(self):
        assert shared_neighborhood_filter(parse(PATH_3), 0.5, 3).num_edges == 0

    def test_k4_minus_edge_t4_reaches_empty_fixpoint(self):
        # without the 1-2 edge, no edge has 2 shared neighbors; checked
        # against the oracle that no 4-clique exists
        g = parse("1 3 0.9\n1 4 0.9\n2 3 0.9\n2 4 0.9\n3 4 0.9\n")
        assert shared_neighborhood_filter(g, 0.5, 4).num_edges == 0
        assert all(len(v) < 4 for v in exact_enumerate(g, 0.5))

    def test_preserves_large_cliques(self):
        g = build_extremal_graph(8, 0.5)
        assert shared_neighborhood_filter(g, 0.5, 4).num_edges == g.num_edges

    def test_rejects_t_below_two(self):
        with pytest.raises(ValueError):
            shared_neighborhood_filter(parse(PATH_3), 0.5, 1)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            shared_neighborhood_filter(parse(PATH_3), 0.0, 3)

    def test_input_rows_are_never_built(self, monkeypatch):
        # The filter reads the loaded graph's edge arrays; rows are built
        # only for the graphs it returns, which large_mule searches.
        text = io.StringIO()
        dump_graph(GenSpec("ba", n=2000, m=10, seed=1).build(), text)
        g = parse(text.getvalue())
        built = []
        real = graph._build_rows

        def spy(n, us, vs, ps):
            built.append(us)
            return real(n, us, vs, ps)

        monkeypatch.setattr(graph, "_build_rows", spy)
        kept = search_graph(g, 0.1, 4)
        assert 0 < kept.num_edges < g.num_edges
        assert collect(large_mule, g, 0.1, 4)
        assert len(built) == 1  # large_mule's own filtered graph
        assert all(us is not g.edge_arrays()[0] for us in built)
        assert kept.rows()  # built now, for kept alone
        assert len(built) == 2 and built[1] is kept.edge_arrays()[0]


class TestSearchGraph:
    ALPHA = 0.3

    @pytest.fixture(scope="class")
    def ba(self):
        return GenSpec("ba", n=300, m=5, seed=1).build()

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_holds_only_alpha_edges(self, ba, t):
        alpha_edges = [e for e in ba.edges() if e[2] >= self.ALPHA]
        assert 0 < len(alpha_edges) < ba.num_edges
        h = search_graph(ba, self.ALPHA, t)
        assert h.n == ba.n
        if t == 1:
            assert list(h.edges()) == alpha_edges
        else:
            assert (list(h.edges()) == list(
                shared_neighborhood_filter(ba, self.ALPHA, t).edges()))
            assert set(h.edges()) <= set(alpha_edges)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_applied_twice(self, ba, t):
        h = search_graph(ba, self.ALPHA, t)
        again = search_graph(h, self.ALPHA, t)
        if t <= 2:
            assert again is h
        else:
            assert list(again.edges()) == list(h.edges())

    def test_no_edge_below_alpha_is_no_copy(self):
        g = build_extremal_graph(8, 0.5)
        assert search_graph(g, 0.5, 1) is g
        edgeless = UncertainGraph(3, [])
        assert search_graph(edgeless, 0.5, 1) is edgeless

    def test_t2_is_the_alpha_subgraph(self, ba, monkeypatch):
        # every alpha-edge is an alpha-clique of two vertices, so the
        # size filter could drop none at t = 2 and is not called there
        expected = prune_by_alpha(ba, self.ALPHA).edge_arrays()

        def refuse(*args):
            raise AssertionError("size filter called")
        monkeypatch.setattr(algorithms, "shared_neighborhood_filter", refuse)
        assert search_graph(ba, self.ALPHA, 2).edge_arrays() == expected
        g = build_extremal_graph(8, 0.5)
        assert search_graph(g, 0.5, 2) is g
        with pytest.raises(AssertionError, match="size filter called"):
            search_graph(ba, self.ALPHA, 3)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            search_graph(parse(PATH_3), 0.5, 0)

    def test_kernel_checks_that_its_graph_is_a_search_graph(self):
        # 2-3 at 0.8 lies below alpha: root 2's frame would carry it
        g = parse(PATH_3)
        with pytest.raises(InvariantViolation):
            _enumerate(g, 0.85, lambda *out: None, range(g.n), 1,
                       check_invariants=True)


class TestDfsNoip:
    def test_path_graph(self):
        assert collect(dfs_noip, parse(PATH_3), 0.75) == \
            collect(mule, parse(PATH_3), 0.75)

    def test_extremal_k4(self):
        assert len(collect(dfs_noip, build_extremal_graph(4, 0.5), 0.5)) == 6

    def test_edgeless(self):
        g = UncertainGraph(3, [])
        assert set(collect(dfs_noip, g, 0.9)) == {(0,), (1,), (2,)}

    def test_matches_mule_on_extremal(self):
        # dfs_noip multiplies row by row and mule incrementally, so the
        # last bits of a probability can differ; verify allows as much.
        g = build_extremal_graph(8, 0.5)
        noip, ours = collect(dfs_noip, g, 0.5), collect(mule, g, 0.5)
        assert noip.keys() == ours.keys()
        assert all(abs(noip[c] - p) <= PROB_REL_TOL * p
                   for c, p in ours.items())


@pytest.mark.xfail(strict=True, reason=(
    "known wrong answer: float products taken in different orders fall on "
    "opposite sides of alpha; mule and large_mule give {1,2} {2,3}, "
    "dfs_noip {1,2} {1,3}, the oracle all three pairs"))
def test_enumerators_agree_when_a_product_rounds_across_alpha():
    g = parse("n 3\n1 2 0.6\n1 3 0.2\n2 3 0.7\n")
    alpha = 0.084
    # Exactly, the triangle is below alpha, so every edge is maximal.
    assert Fraction(0.6) * Fraction(0.2) * Fraction(0.7) < Fraction(alpha)
    expected = exact_enumerate(g, alpha)
    assert expected == {(0, 1), (0, 2), (1, 2)}
    assert set(collect(mule, g, alpha)) == expected
    assert set(collect(large_mule, g, alpha, 2)) == expected
    assert set(collect(dfs_noip, g, alpha)) == expected
