"""Tests for the graph container, edge-list parsing, pruning, and the
probability/maximality primitives."""

import io
import math
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import umc
from umc import graph
from umc.algorithms import shared_neighborhood_filter
from umc.generators import GenSpec
from umc.graph import (
    GraphFormatError,
    NotACliqueError,
    UncertainGraph,
    clique_probability,
    dump_graph,
    is_alpha_maximal,
    load_cliques,
    load_graph,
    prune_by_alpha,
)


def parse(text):
    return load_graph(io.StringIO(text))


PATH_3 = "1 2 0.9\n2 3 0.8\n"
INT_DIGITS = sys.get_int_max_str_digits()


class TestLoadGraph:
    def test_basic(self):
        g = parse("1 2 0.9\n2 3 0.8")
        assert g.n == 3
        assert g.num_edges == 2
        assert g.row(0)[1] == 0.9

    def test_comments_and_blank_lines(self):
        g = parse("# a comment\n\n1 2 0.5\n")
        assert g.num_edges == 1

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse("1 1 0.5")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2.*duplicate"):
            parse("1 2 0.9\n2 1 0.7")

    @pytest.mark.parametrize("p", ["0", "-0.5", "1.5"])
    def test_probability_out_of_range(self, p):
        with pytest.raises(GraphFormatError):
            parse(f"1 2 {p}")

    def test_header_declares_isolated_vertices(self):
        g = parse("n 5\n1 2 0.9\n")
        assert g.n == 5
        assert g.row(4) == {}

    def test_header_bounds_labels(self):
        with pytest.raises(GraphFormatError, match="exceeds"):
            parse("n 2\n1 3 0.9\n")

    def test_vertices_indexed_by_ascending_label(self):
        g = parse("7 3 0.5\n3 2 0.5\n")
        assert [g.label(i) for i in range(g.n)] == [2, 3, 7]
        assert g.index(7) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10**20), st.integers(1, 10**20),
                              st.floats(0.01, 1.0))
                    .filter(lambda e: e[0] != e[1]),
                    min_size=1, max_size=20,
                    unique_by=lambda e: frozenset(e[:2])),
           st.randoms(use_true_random=False))
    def test_headerless_order_ignores_line_and_endpoint_order(self, edges,
                                                              rng):
        def text(es):
            return "".join(f"{u} {v} {p!r}\n" for u, v, p in es)
        g = parse(text(edges))
        moved = [(v, u, p) if rng.random() < 0.5 else (u, v, p)
                 for u, v, p in edges]
        rng.shuffle(moved)
        h = parse(text(moved))
        labels = [g.label(i) for i in range(g.n)]
        assert labels == sorted(set(labels))
        assert [h.label(i) for i in range(h.n)] == labels
        assert ([list(h.row(u).items()) for u in range(h.n)]
                == [list(g.row(u).items()) for u in range(g.n)])

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse("1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("# c\n\n1 2 0.5\n7 7 0.5\n", "line 4: self-loop at vertex 7"),
        ("1 2 0.9\n2 1 0.7\n", "line 2: duplicate edge {2, 1}"),
        ("7 3 0.5\n1 2 0.5\n3 7 0.4\n", "line 3: duplicate edge {3, 7}"),
        ("1 2 1.5\n", "line 1: probability 1.5 outside (0, 1]"),
        ("1 2 0.5\n2 3 nan\n", "line 2: probability nan outside (0, 1]"),
        ("1 2 -0.5\n", "line 1: probability -0.5 outside (0, 1]"),
        ("1 2 0.5\n0 2 0.5\n", "line 2: vertex id 0 must be positive"),
        ("n 2\n1 3 0.9\n", "line 2: vertex id 3 exceeds declared count 2"),
        ("1 b 0.5\n", "line 1: vertex ids must be integers"),
        ("1 2\n", "line 1: expected 'u v p'"),
        # only a line whose first token starts with '#' is a comment
        ("1 2 0.5\n2 3 0.5 # x\n", "line 2: expected 'u v p'"),
        ("1 2 0.5\nn 3\n", "line 2: header must precede all edges"),
        ("n 3\nn 3\n", "line 2: header given twice"),
        # Python literal syntax that int() and float() accept
        ("1_0 2 0.5\n", "line 1: '_' or non-ASCII character"),
        ("1 2 0.5\n3 2 0.1_1\n", "line 2: '_' or non-ASCII character"),
        ("n 1_0\n", "line 1: '_' or non-ASCII character"),
        ("1 \u0663 0.5\n", "line 1: '_' or non-ASCII character"),
        ("1 2 0.\u0665\n", "line 1: '_' or non-ASCII character"),
        ("n \uff13\n1 2 0.5\n", "line 1: '_' or non-ASCII character"),
        ("1 2 0.5\n+3 2 0.1\n", "line 2: vertex ids must not carry a '+'"),
        ("1 +2 0.5\n", "line 1: vertex ids must not carry a '+'"),
        ("n +3\n1 2 0.5\n", "line 1: header must be 'n <count>'"),
        ("n -1\n", "line 1: header must be 'n <count>'"),
        # Refused before anything is allocated for the vertices.  A count
        # from about 10**8 up to sys.maxsize passes and then allocates its
        # vertices, so none is tried here.
        ("n 1" + "0" * 400 + "\n1 2 0.5\n",
         f"line 1: vertex count exceeds {sys.maxsize}"),
        (f"# c\nn {sys.maxsize + 1}\n",
         f"line 2: vertex count exceeds {sys.maxsize}"),
        (f"n {'0' * 30}{sys.maxsize + 1}\n",
         f"line 1: vertex count exceeds {sys.maxsize}"),
        ("n " + "9" * 5000 + "\n",
         f"line 1: vertex count exceeds {sys.maxsize}"),
        # int() refuses more digits than sys.get_int_max_str_digits()
        ("1 " + "9" * 5000 + " 0.5\n",
         f"line 1: vertex id of 5000 digits exceeds the {INT_DIGITS}-digit limit"),
        ("1 2 0.5\n" + "0" * INT_DIGITS + "3 2 0.5\n",
         f"line 2: vertex id of {INT_DIGITS + 1} digits exceeds the "
         f"{INT_DIGITS}-digit limit"),
    ], ids=["self-loop", "reverse-duplicate", "headerless-duplicate",
            "p-above-one", "p-nan", "p-negative", "id-zero",
            "id-above-header", "id-not-integer", "two-tokens",
            "trailing-comment", "late-header", "header-twice",
            "id-underscore", "p-underscore",
            "count-underscore", "id-arabic-indic-digit", "p-arabic-indic-digit",
            "count-fullwidth-digit", "id-plus", "second-id-plus",
            "count-plus", "count-negative", "count-beyond-maxsize",
            "count-maxsize-plus-one", "count-leading-zeros",
            "count-5000-digits", "id-5000-digits", "id-leading-zeros"])
    def test_single_fault_message(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse(text)
        assert str(info.value) == message
        assert info.value.line_no == int(message.split()[1].rstrip(":"))

    @pytest.mark.parametrize("newline", ["\n", ""])
    def test_a_line_may_hold_max_line_characters(self, newline):
        comment = "#" + "x" * (graph.MAX_LINE - 1)
        assert parse("1 2 0.5\n" + comment + newline).num_edges == 1
        edge = "1 2 " + "0" * (graph.MAX_LINE - 7) + "0.5"
        assert parse(edge + newline).num_edges == 1

    @pytest.mark.parametrize("newline", ["\n", ""])
    def test_a_longer_line_is_refused_with_its_number(self, newline):
        text = "1 2 0.5\n#" + "x" * graph.MAX_LINE + newline + "2 3 0.5\n"
        with pytest.raises(GraphFormatError) as info:
            parse(text)
        assert str(info.value) == (
            f"line 2: line longer than {graph.MAX_LINE} characters")
        assert info.value.line_no == 2

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="ab\n", max_size=200),
           limit=st.integers(min_value=1, max_value=40))
    def test_bounded_lines_split_as_a_file_does(self, text, limit):
        """Pieces of limit characters, so lines cross piece boundaries."""
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        long = [no for no, line in enumerate(lines, 1) if len(line) > limit]
        got = graph.bounded_lines(io.StringIO(text), limit)
        if long:
            with pytest.raises(GraphFormatError) as info:
                list(got)
            assert info.value.line_no == long[0]
        else:
            assert list(got) == list(enumerate(lines, 1))

    def test_a_line_of_twenty_million_characters_is_refused_promptly(self):
        """The pieces of a line are joined once, so reading up to a bound
        of 2*10**7 characters takes time in the line's length; copying
        the unfinished line on every piece took seconds."""
        class Endless:
            def read(self, size):
                return "x" * size

        start = time.perf_counter()
        with pytest.raises(GraphFormatError) as info:
            list(graph.bounded_lines(Endless(), 2 * 10**7))
        assert time.perf_counter() - start < 2.0
        assert str(info.value) == "line 1: line longer than 20000000 characters"

    def test_round_trip_is_bit_exact(self):
        g = parse("n 4\n1 2 0.12345678901234567\n2 3 0.9999999999999999\n")
        buf = io.StringIO()
        dump_graph(g, buf)
        g2 = parse(buf.getvalue())
        assert g2.n == g.n
        assert list(g2.edges()) == list(g.edges())


def assert_rows_ascending_and_symmetric(g):
    for u in range(g.n):
        row = g.row(u)
        assert list(row) == sorted(row)
        for v, p in row.items():
            assert g.row(v)[u] == p
            assert g.row(u)[v] == g.row(v)[u] == p
            assert v in g.row(u).keys()


class TestLoadCliques:
    G = parse("n 4\n1 2 0.9\n2 3 0.8\n1 3 0.5\n")

    def cliques(self, text, g=G):
        return load_cliques(io.StringIO(text), g)

    def test_entries_in_line_order_with_ascending_indices(self):
        text = "# c\n\n0.36 3 1 2\n  0.9 2 1\n1 4\n"
        assert self.cliques(text) == [(3, 0.36, (0, 1, 2)), (4, 0.9, (0, 1)),
                                      (5, 1.0, (3,))]

    @pytest.mark.parametrize("text, message", [
        ("0.9 1 2\n0.9\n", "line 2: expected '<prob> <v1> ...'"),
        ("x 1 2\n", "line 1: malformed clique line"),
        ("0.9_0 1 2\n", "line 1: malformed clique line"),
        ("0.9 1 2\n0.8 +2 3\n", "line 2: malformed clique line"),
        ("0.8 \u0662 3\n", "line 1: malformed clique line"),
        ("0.8 2 \udce93\n", "line 1: malformed clique line"),
        ("1 3 3\n", "line 1: malformed clique line (repeated vertex)"),
        ("1.0 9\n", "line 1: unknown vertex 9"),
        # only a line whose first token starts with '#' is a comment
        ("0.9 1 2\n0.5 1 2 # c\n", "line 2: malformed clique line"),
    ], ids=["one-token", "prob", "underscore", "plus", "non-ascii-digit",
            "surrogate", "repeated-vertex", "unknown-vertex",
            "trailing-comment"])
    def test_single_fault_message(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            self.cliques(text)
        assert str(info.value) == message
        assert info.value.line_no == int(message.split()[1].rstrip(":"))

    def test_bound_follows_the_edge_count(self):
        """A million declared vertices and one edge hold cliques of at
        most two vertices, so the bound is a graph file's."""
        wide = parse("n 1000000\n1 2 0.5\n")
        text = "0.5 1 2\n#" + "x" * graph.MAX_LINE + "\n"
        with pytest.raises(GraphFormatError) as info:
            self.cliques(text, wide)
        assert str(info.value) == (
            f"line 2: line longer than {graph.MAX_LINE} characters")

    @pytest.mark.parametrize("m, k", [(190, 20), (189, 19)])
    def test_bound_holds_the_largest_clique_the_edges_allow(self, m, k):
        """Twenty labels of 4,000 digits: m edges of K20 hold a clique of
        k vertices at most, so a line may hold a probability and k labels
        and, a comment too, no more."""
        labels = [10**3999 + i for i in range(20)]
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
        g = UncertainGraph(20, [(u, v, 1.0) for u, v in pairs[:m]], labels)
        limit = 32 + k * 4001
        assert limit > graph.MAX_LINE
        comment = "#" + "x" * (limit - 1)
        line = "1 " + " ".join(map(str, labels[:k]))
        assert self.cliques(comment + "\n" + line, g) == [
            (2, 1.0, tuple(range(k)))]
        with pytest.raises(GraphFormatError) as info:
            self.cliques(comment + "x", g)
        assert str(info.value) == (
            f"line 1: line longer than {limit} characters")


class TestUncertainGraph:
    def test_adjacency_symmetric_and_sorted(self):
        g = parse("1 3 0.5\n1 2 0.5\n")
        assert list(g.row(0)) == [1, 2]
        for u in range(g.n):
            for v in g.row(u):
                assert u in g.row(v)

    def test_rows_ascending_for_shuffled_edges(self):
        edges = [(u, v, (u + 1) / (v + 2)) for u in range(7)
                 for v in range(u + 1, 7) if (u * v) % 3 != 1]
        rng = random.Random(4)
        for _ in range(5):
            rng.shuffle(edges)
            mixed = [(v, u, p) if rng.random() < 0.5 else (u, v, p)
                     for u, v, p in edges]
            reversed_ = [(v, u, p) for u, v, p in edges]
            for given in (edges, mixed, reversed_):
                g = UncertainGraph(7, given)
                assert_rows_ascending_and_symmetric(g)
                assert list(zip(*g.edge_arrays())) == sorted(edges)
            assert list(g.edges()) == sorted(edges)
            assert g.num_edges == len(edges)

    def test_rows_ascending_for_first_appearance_input(self):
        # labels first appear as 9, 4, 7, 1, 2, but internal order 0..4 is
        # labels 1, 2, 4, 7, 9: edges arrive far from ascending order
        g = parse("9 4 0.5\n7 1 0.6\n1 9 0.7\n2 4 0.8\n2 9 0.9\n7 9 0.4\n")
        assert [g.label(i) for i in range(g.n)] == [1, 2, 4, 7, 9]
        assert_rows_ascending_and_symmetric(g)
        assert list(g.row(4).items()) == [(0, 0.7), (1, 0.9), (2, 0.5),
                                          (3, 0.4)]
        assert list(g.edges()) == sorted(g.edges())

    def test_reverse_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            UncertainGraph(3, [(0, 1, 0.5), (2, 1, 0.5), (1, 0, 0.5)])

    def test_select_keeps_labels_and_edge_order_in_new_arrays(self):
        g = UncertainGraph(4, [(2, 3, 0.5), (0, 1, 0.5), (3, 0, 0.25),
                               (1, 2, 0.75)], labels=(5, 6, 7, 8))
        # the mask indexes the sorted order: (0,1), (0,3), (1,2), (2,3)
        assert [a.tolist() for a in g.edge_arrays()] == \
            [[0, 0, 1, 2], [1, 3, 2, 3], [0.5, 0.25, 0.75, 0.5]]
        h = g.select(iter([False, True, True, True]))
        assert (h.n, h.num_edges, h.label(3)) == (4, 3, 8)
        assert [a.tolist() for a in h.edge_arrays()] == \
            [[0, 1, 2], [3, 2, 3], [0.25, 0.75, 0.5]]
        assert [a.typecode for a in h.edge_arrays()] == ["q", "q", "d"]
        assert list(h.edges()) == [(0, 3, 0.25), (1, 2, 0.75), (2, 3, 0.5)]
        assert g.num_edges == 4 and h.row(1) == {2: 0.75}
        assert g.row(1) == {0: 0.5, 2: 0.75}
        assert not any(a is b for a in h.edge_arrays()
                       for b in g.edge_arrays())

    @pytest.mark.parametrize("keep", [[True], [True] * 4])
    def test_select_refuses_a_mask_of_another_length(self, keep):
        g = UncertainGraph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        with pytest.raises(ValueError, match=f"{len(keep)} flags for 3 edges"):
            g.select(keep)

    @pytest.mark.parametrize("text, vertices, expected", [
        ("n 12\n1 2 0.5\n", (0, 3, 11), "1 4 12"),
        ("10 3 0.5\n3 2 0.5\n", (0, 1, 2), "2 3 10"),
        ("10 3 0.5\n3 2 0.5\n", (1,), "3"),
    ])
    def test_label_text_is_ascending(self, text, vertices, expected):
        g = parse(text)
        assert g.label_text(vertices) == expected
        assert g.label_text(vertices) == expected  # after the names are cached

    def test_errors_name_external_labels(self):
        with pytest.raises(ValueError) as info:
            UncertainGraph(2, [(0, 0, 0.5)], labels=(7, 9))
        assert str(info.value) == "self-loop at vertex 7"

    @pytest.mark.parametrize("labels", [(2, 1, 3), (1, 1, 3), (1, 2)])
    def test_labels_must_strictly_ascend(self, labels):
        # sorting them would renumber the caller's vertices
        with pytest.raises(ValueError):
            UncertainGraph(3, [], labels=labels)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            UncertainGraph(2, [(0, 0, 0.5)])
        with pytest.raises(ValueError):
            UncertainGraph(2, [(0, 1, 0.0)])
        with pytest.raises(ValueError):
            UncertainGraph(2, [(0, 1, 0.5), (1, 0, 0.4)])
        with pytest.raises(ValueError, match="vertex count must be non-"):
            UncertainGraph(-1, [])
        with pytest.raises(ValueError, match="arrays of different lengths"):
            UncertainGraph.from_arrays(2, array("q", [0]), array("q", [1, 1]),
                                       array("d", [0.5]))


def reference_check(n, edges, labels):
    """The constructor's former per-edge loop, kept as the reference: the
    position and message of the first edge that breaks a graph rule, or
    the rows (each ascending) when none does."""
    rows = [{} for _ in range(n)]
    for i, (u, v, p) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return i, f"edge endpoint out of range: ({u}, {v})"
        if u == v:
            return i, f"self-loop at vertex {labels[u]}"
        if not 0.0 < p <= 1.0:
            return i, f"probability {p} outside (0, 1]"
        row = rows[u]
        if v in row:
            return i, f"duplicate edge {{{labels[u]}, {labels[v]}}}"
        row[v] = p
        rows[v][u] = p
    return [sorted(row.items()) for row in rows]


@st.composite
def faulty_edge_lists(draw):
    """(n, labels, edges) with faults drawn in: endpoints just outside
    0..n-1, self-loops, p of 0, below 0, above 1 or NaN, and edges given
    twice in either orientation; often several in one list."""
    n = draw(st.integers(1, 7))
    labels = draw(st.none() | st.lists(st.integers(1, 50), min_size=n,
                                       max_size=n, unique=True).map(sorted))
    vertex = st.integers(-1, n)
    prob = st.floats(0.01, 1.0) | st.sampled_from(
        [0.0, -0.5, 1.0, 1.5, math.nan])
    edges = draw(st.lists(st.tuples(vertex, vertex, prob), max_size=12))
    for i, j, flip in draw(st.lists(st.tuples(st.integers(0, 12),
                                              st.integers(0, 12),
                                              st.booleans()), max_size=3)):
        if edges:  # give an edge again, possibly reversed
            u, v, p = edges[i % len(edges)]
            edges.insert(j % (len(edges) + 1),
                         (v, u, p) if flip else (u, v, p))
    return n, labels, edges


class TestBulkChecks:
    """The constructor checks all edges at once and walks them one by one
    only after a fault; either way it must say what the per-edge loop
    says, and load_graph must name the line of that edge."""

    @settings(max_examples=400, deadline=None)
    @given(faulty_edge_lists())
    def test_constructor_matches_the_per_edge_loop(self, case):
        n, labels, edges = case
        lab = labels or range(1, n + 1)
        expected = reference_check(n, edges, lab)
        if isinstance(expected, list):
            g = UncertainGraph(n, edges, labels)
            assert [list(row.items()) for row in g.rows()] == expected
            assert g.num_edges == len(edges)
        else:
            with pytest.raises(ValueError) as info:
                UncertainGraph(n, edges, labels)
            assert str(info.value) == expected[1]

    @settings(max_examples=400, deadline=None)
    @given(faulty_edge_lists(), st.booleans(),
           st.randoms(use_true_random=False))
    def test_load_graph_names_the_line_of_the_first_fault(self, case, header,
                                                          rng):
        n, _, edges = case
        lines = [f"n {n}"] if header else []
        line_of = []
        for u, v, p in edges:
            while rng.random() < 0.3:
                lines.append(rng.choice(["", "# a comment"]))
            lines.append(f"{u + 1} {v + 1} {p!r}")
            line_of.append(len(lines))
        # ids the loader refuses; without a header any positive id is a
        # vertex
        bad = [(i, x) for i, e in enumerate(edges) for x in e[:2]
               if x < 0 or header and x >= n]
        if bad:  # refused at the first such line
            i, x = bad[0]
            expected = (f"vertex id {x + 1} must be positive" if x < 0 else
                        f"vertex id {x + 1} exceeds declared count {n}")
        else:
            names = sorted({x + 1 for e in edges for x in e[:2]})
            lab = range(1, n + 1) if header else names
            index = {name: k for k, name in enumerate(lab)}
            internal = [(index[u + 1], index[v + 1], p) for u, v, p in edges]
            result = reference_check(len(lab), internal, lab)
            if isinstance(result, list):
                g = parse("\n".join(lines) + "\n")
                assert [list(row.items()) for row in g.rows()] == result
                return
            i, expected = result
        with pytest.raises(GraphFormatError) as info:
            parse("\n".join(lines) + "\n")
        assert str(info.value) == f"line {line_of[i]}: {expected}"
        assert info.value.line_no == line_of[i]

    def test_per_edge_loop_runs_only_after_a_fault(self, monkeypatch):
        calls = []
        real = graph._check_each

        def spy(*args):
            calls.append(args)
            real(*args)

        monkeypatch.setattr(graph, "_check_each", spy)
        rng = random.Random(3)
        edges = [(u, v, rng.random() or 1.0) for u in range(40)
                 for v in range(u + 1, 40) if rng.random() < 0.3]
        text = "".join(f"{u + 1} {v + 1} {p!r}\n" for u, v, p in edges)
        parse(f"n 40\n{text}")  # dump_graph order
        GenSpec("ba", n=300, m=5, seed=1).build()  # by higher endpoint
        rng.shuffle(edges)
        mixed = [(v, u, p) if rng.random() < 0.5 else (u, v, p)
                 for u, v, p in edges]
        UncertainGraph(40, mixed)
        assert calls == []
        u, v, p = mixed[0]
        with pytest.raises(ValueError, match="duplicate edge"):
            UncertainGraph(40, mixed + [(v, u, p)])
        assert len(calls) == 1

    def test_keys_beyond_64_bits_sort(self):
        # lo*n+hi exceeds 64 bits here; the graph allocates nothing per
        # vertex until its rows or labels are asked for
        g = UncertainGraph(sys.maxsize, [(1, 2, 0.5), (0, 1, 0.25)])
        assert list(g.edges()) == [(0, 1, 0.25), (1, 2, 0.5)]
        with pytest.raises(ValueError, match=r"duplicate edge \{3, 2\}"):
            UncertainGraph(sys.maxsize, [(1, 2, 0.5), (0, 1, 0.25),
                                         (2, 1, 0.5)])

    def test_endpoint_beyond_64_bits_is_out_of_range(self):
        with pytest.raises(ValueError) as info:
            UncertainGraph(3, [(0, 1, 0.5), (1, 2**70, 0.5)])
        assert str(info.value) == f"edge endpoint out of range: (1, {2**70})"

    @pytest.mark.parametrize("edges, error, message", [
        # the first fault is named before an endpoint no array holds
        ([(1, 1, 0.5), (0, 2**70, 0.5)], ValueError, "self-loop at vertex 2"),
        ([(0, 1)], ValueError, "not enough values to unpack"),
        ([(0, 1, "x")], TypeError, "not supported between"),
    ], ids=["self-loop-then-endpoint-beyond-64-bits", "two-item-edge",
            "str-probability"])
    def test_malformed_edges_keep_their_errors(self, edges, error, message):
        with pytest.raises(error, match=message):
            UncertainGraph(3, edges)

    def test_iterator_of_edges_is_taken_in_one_pass_and_sorted(self):
        given = [(2, 3, 0.5), (1, 0, 0.25), (3, 0, 0.75), (1, 2, 1.0)]
        g = UncertainGraph(4, (e for e in given))
        assert list(g.edges()) == [(0, 1, 0.25), (0, 3, 0.75), (1, 2, 1.0),
                                   (2, 3, 0.5)]
        assert g.num_edges == 4


class TestPruneByAlpha:
    def test_threshold(self):
        g = parse("1 2 0.9\n3 4 0.3\n")
        pruned = prune_by_alpha(g, 0.5)
        assert pruned.num_edges == 1
        assert pruned.n == g.n

    def test_alpha_one_drops_all_sub_one_edges(self):
        pruned = prune_by_alpha(parse(PATH_3), 1.0)
        assert pruned.num_edges == 0

    def test_edge_exactly_at_alpha_is_kept(self):
        g = parse("1 2 0.5\n")
        assert prune_by_alpha(g, 0.5).num_edges == 1

    def test_path_alpha_085(self):
        pruned = prune_by_alpha(parse(PATH_3), 0.85)
        assert list(pruned.edges()) == [(0, 1, 0.9)]


def test_derived_graphs_select_from_the_parent_arrays(monkeypatch):
    """prune_by_alpha and the size filter's t-truss take their edges from
    the parent's arrays, never through the constructor's (u, v, p) path."""
    g = GenSpec("ba", n=300, m=5, seed=1).build()
    alpha_edges = [e for e in g.edges() if e[2] >= 0.3]
    calls = []
    real = UncertainGraph.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(UncertainGraph, "__init__", spy)
    pruned = prune_by_alpha(g, 0.3)
    truss = shared_neighborhood_filter(g, 0.3, 3)
    assert calls == []
    assert list(pruned.edges()) == alpha_edges
    assert 0 < truss.num_edges < len(alpha_edges)
    assert set(truss.edges()) <= set(alpha_edges)


class TestCliqueProbability:
    def test_triangle_product(self):
        g = parse("1 2 0.9\n2 3 0.8\n1 3 0.7\n")
        assert clique_probability(g, (0, 1, 2)) == pytest.approx(0.504, rel=1e-12)

    def test_empty_and_singleton_are_one(self):
        g = parse(PATH_3)
        assert clique_probability(g, ()) == 1.0
        assert clique_probability(g, (1,)) == 1.0

    def test_non_clique_raises(self):
        g = parse(PATH_3)
        with pytest.raises(NotACliqueError):
            clique_probability(g, (0, 2))


class TestIsAlphaMaximal:
    # Expected values below were fixed by hand-enumerating all 7 nonempty
    # subsets of the 3-vertex path.  A maximal clique's result is its
    # clique_probability, bit for bit; anything else gives None.
    def test_path_edge_is_maximal(self):
        g = parse(PATH_3)
        assert is_alpha_maximal(g, (0, 1), 0.75) == \
            clique_probability(g, (0, 1)) == 0.9

    def test_contained_vertex_is_not_maximal(self):
        g = parse(PATH_3)
        assert is_alpha_maximal(g, (1,), 0.75) is None

    def test_full_triangle(self):
        g = parse("1 2 0.9\n2 3 0.9\n1 3 0.9\n")
        assert math.isclose(clique_probability(g, (0, 1, 2)), 0.729)
        assert is_alpha_maximal(g, (2, 0, 1), 0.7) == \
            clique_probability(g, (0, 1, 2))

    def test_below_alpha_is_not_maximal(self):
        g = parse("1 2 0.9\n2 3 0.9\n1 3 0.9\n")
        assert is_alpha_maximal(g, (0, 1, 2), 0.75) is None

    def test_non_clique_is_not_maximal(self):
        g = parse(PATH_3)
        assert is_alpha_maximal(g, (0, 2), 0.1) is None

    def test_empty_set_rejected(self):
        g = parse(PATH_3)
        with pytest.raises(ValueError):
            is_alpha_maximal(g, (), 0.5)


def test_library_modules_load_without_numpy():
    """numpy serves only the seeded BA and ER generators, which import it
    when they draw; importing any module, the CLI included, must not."""
    code = ("import sys, umc.graph, umc.algorithms, umc.oracle, "
            "umc.generators, umc.cli; print('numpy' in sys.modules)")
    src = str(Path(umc.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
