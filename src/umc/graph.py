"""Uncertain graph data model: simple undirected graphs with a per-edge
existence probability in (0, 1].

Vertices are dense internal indices 0..n-1.  External positive integer
labels are kept only for I/O.  The total order that drives the
enumeration ("add vertices in increasing order") is the internal index
order, and that is ascending label order for every graph, so a clique's
vertices and its labels sort alike.

The module reads and writes both text formats: load_graph and dump_graph
the edge list, load_cliques the clique stream (see umc.cli), whose lines
format_clique writes for a Clique and format_batch for one output of the
search kernel's, a single clique or a batch, from the tuples the kernel
hands out.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from itertools import chain, compress, pairwise, repeat, starmap
from typing import Iterable, Iterator, KeysView, NamedTuple, Sequence, TextIO


class GraphFormatError(ValueError):
    """A graph file or a clique stream violates its format."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Clique(NamedTuple):
    """One unit of enumeration output: a sorted vertex tuple (internal
    indices) plus its clique probability."""

    vertices: tuple[int, ...]
    prob: float


class UncertainGraph:
    """Immutable simple undirected graph with edge probabilities.

    The edges are kept as checked, in three typed arrays (edge_arrays()):
    endpoints as array('q') and probabilities as array('d'), each edge as
    (lo, hi, p) with lo < hi, strictly ascending by (lo, hi) whatever
    order and orientation they came in.  The adjacency, one row per vertex
    (a dict {neighbour: p} whose keys ascend), is built from them on the
    first rows() or row() call and kept, as are the label index and the
    label strings on their first use.  Listing the edges (edges(),
    dump_graph) or filtering them (select), as every search graph is
    made, builds no rows.  Every other access is a pure read.  Two threads
    that race on a first build each build the same result and one of them
    is kept, so instances are safe to share across threads.

    The constructor reads its (u, v, p) triples from any iterable, once,
    and converts them into the three arrays in one pass; from_arrays takes
    the arrays themselves.  The constructor and from_arrays share the one
    place that enforces the graph rules: each endpoint in 0..n-1, no
    self-loop, p in (0, 1] and no edge given twice.  It checks all the
    edges at once, and sorts them when they do not already ascend.  Only
    when these checks find a fault does it go through the edges one by
    one, as given, so that its ValueError names the first faulty edge.
    The messages name the external labels, which must strictly ascend with
    the index (default 1..n); they are never re-sorted, as that would
    renumber the caller's vertices.  select keeps some of a graph's
    edges, checked there already, in their order, so it checks none again.
    """

    __slots__ = ("n", "num_edges", "_us", "_vs", "_ps", "_rows", "_labels",
                 "_index", "_label_names")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]],
                 labels: Iterable[int] | None = None):
        lab = _checked_labels(n, labels)
        edges = list(edges)
        try:
            us = array("q", [u for u, _, _ in edges])
            vs = array("q", [v for _, v, _ in edges])
            ps = array("d", [p for _, _, p in edges])
        except (TypeError, OverflowError):
            # A value no array holds (an endpoint beyond 64 bits, say):
            # the first edge that breaks a graph rule is named if there is
            # one, else the array's own error is raised.
            _check_each(n, edges, lab)
            raise
        self._take(n, us, vs, ps, lab)

    @classmethod
    def from_arrays(cls, n: int, us: array, vs: array, ps: array,
                    labels: Iterable[int] | None = None) -> "UncertainGraph":
        """The graph on the edges (us[i], vs[i], ps[i]), given as an
        array('q') of endpoints each and an array('d') of probabilities
        of one length.  Arrays already in the kept order (see the class)
        are taken over without a copy, so the caller must not change
        them; any others are copied in that order."""
        if not len(us) == len(vs) == len(ps):
            raise ValueError("edge arrays of different lengths")
        lab = _checked_labels(n, labels)
        g = cls.__new__(cls)
        g._take(n, us, vs, ps, lab)
        return g

    def _take(self, n, us, vs, ps, labels, checked=False) -> None:
        """Check the edges (us[i], vs[i], ps[i]), unless they are already
        checked and in order, and keep them in order."""
        edges = (us, vs, ps) if checked else _ordered(n, us, vs, ps)
        if edges is None:
            _check_each(n, zip(us, vs, ps), labels)
        self.n = n
        self.num_edges = len(us)
        self._us, self._vs, self._ps = edges
        self._rows: tuple[dict[int, float], ...] | None = None
        self._labels = labels
        self._index: dict[int, int] | None = None
        self._label_names: tuple[str, ...] | None = None

    def edge_arrays(self) -> tuple[array, array, array]:
        """The edges: endpoints us[i] < vs[i] and probability ps[i] of
        edge i, strictly ascending by (us[i], vs[i]).  Shared with the
        graph: callers must not mutate them."""
        return self._us, self._vs, self._ps

    def rows(self) -> tuple[dict[int, float], ...]:
        """Every vertex's row (see row), by index.  Built on the first
        call and kept."""
        rows = self._rows
        if rows is None:
            rows = self._rows = _build_rows(self.n, *self.edge_arrays())
        return rows

    def row(self, u: int) -> dict[int, float]:
        """u's neighbours in ascending order, each mapped to its edge
        probability.  Shared with the graph: callers must not mutate it."""
        rows = self._rows
        if rows is None:
            rows = self.rows()
        return rows[u]

    def adj_set(self, u: int) -> KeysView[int]:
        return self.row(u).keys()

    def edge_prob(self, u: int, v: int) -> float:
        return self.row(u)[v]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Edges as (u, v, p) with u < v, in sorted order, read from the
        edge arrays."""
        return zip(self._us, self._vs, self._ps)

    def label(self, u: int) -> int:
        """External 1-based label of internal index u."""
        return self._labels[u]

    def label_names(self) -> tuple[str, ...]:
        """The label strings by internal index.  Built on the first call,
        in the calling process, and kept."""
        if self._label_names is None:
            self._label_names = tuple(map(str, self._labels))
        return self._label_names

    def label_text(self, vertices: Iterable[int]) -> str:
        """External labels of `vertices` (internal indices, ascending),
        which therefore ascend too, joined by single spaces."""
        names = self.label_names()
        return " ".join([names[v] for v in vertices])

    def index(self, label: int) -> int:
        """Internal index of an external label; KeyError if unknown."""
        if self._index is None:
            self._index = dict(zip(self._labels, range(self.n)))
        return self._index[label]

    def select(self, keep: Iterable[bool]) -> "UncertainGraph":
        """The graph on the same vertices and labels with the edges i of
        edge_arrays() for which keep, one flag per edge, is true; they
        keep their order.  ValueError if keep has another length."""
        keep = bytes(keep)  # one byte per edge, read by each compress
        if len(keep) != self.num_edges:
            raise ValueError(f"{len(keep)} flags for {self.num_edges} edges")
        g = UncertainGraph.__new__(UncertainGraph)
        g._take(self.n, *[array(a.typecode, compress(a, keep))
                          for a in self.edge_arrays()],
                self._labels, checked=True)
        return g


def format_clique(g: UncertainGraph, c: Clique) -> str:
    """c's clique-stream line: its probability to 17 significant digits,
    then its labels, ascending."""
    return f"{c.prob:.17g} " + g.label_text(c.vertices)


def format_batch(g: UncertainGraph, head: str, u: int, q: float,
                 ext: list | None) -> list[str]:
    """The format_clique lines of the cliques c+(u, w), with probability
    q*r, for (w, r) in ext, or with ext None the one line of c+(u,),
    with probability q.  head is g.label_text(c), which the caller joins
    once for all the cliques of one frame, and empty for c = (); each
    line is head followed by the label strings of u and w, taken from
    g.label_names()."""
    names = g.label_names()
    prefix = f"{head} {names[u]}" if head else names[u]
    if ext is None:
        return [f"{q:.17g} {prefix}"]
    return [f"{q * r:.17g} {prefix} {names[w]}" for w, r in ext]


def _checked_labels(n: int, labels: Iterable[int] | None) -> Sequence[int]:
    """The external labels of n vertices: 1..n by default, else labels,
    which must be n and strictly ascend."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if labels is None:
        return range(1, n + 1)
    lab = tuple(labels)
    if len(lab) != n:
        raise ValueError(f"{len(lab)} labels for {n} vertices")
    if not all(map(operator.lt, lab, lab[1:])):
        raise ValueError("labels must strictly ascend")
    return lab


class _EdgeFault(ValueError):
    """Edge number `index` of a graph's edge list breaks a graph rule."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _ordered(n: int, us: array, vs: array, ps: array) -> Sequence | None:
    """The edges (us[i], vs[i], ps[i]) as (lo, hi, p), lo < hi, strictly
    ascending by (lo, hi), or None when one breaks a graph rule; checked
    over all of them at once, in C loops over the arrays.  Arrays already
    in that order are returned as they are.  Duplicates in either
    orientation share the key lo*n+hi, so ascending keys prove there are
    none, and sorted keys show one as two equal neighbours."""
    if not us:
        return us, vs, ps
    if all(map(operator.lt, us, vs)):  # so no edge is a self-loop
        lo, hi = us, vs
    elif any(map(operator.eq, us, vs)):
        return None
    else:
        lo, hi = array("q", map(min, us, vs)), array("q", map(max, us, vs))
    # min() and max() skip a NaN after the first item; their sum does not
    if (min(lo) < 0 or max(hi) >= n or not (0.0 < min(ps) and max(ps) <= 1.0)
            or math.isnan(sum(ps))):
        return None
    keys = map(operator.add, map(operator.mul, lo, repeat(n)), hi)
    if all(starmap(operator.lt, pairwise(keys))):
        return lo, hi, ps
    # The keys again, as Python ints (lo*n+hi may exceed 64 bits).  There
    # are two at least, so take returns tuples, which arrays copy fast.
    keys = list(map(operator.add, map(operator.mul, lo, repeat(n)), hi))
    take = operator.itemgetter(*sorted(range(len(lo)), key=keys.__getitem__))
    if any(starmap(operator.eq, pairwise(take(keys)))):
        return None
    del keys  # before the copies: the peak stays that of the sort
    return [array(a.typecode, take(a)) for a in (lo, hi, ps)]


def _check_each(n: int, edges: Iterable[tuple[int, int, float]],
                labels: Sequence[int]) -> None:
    """Check the edges one by one and raise _EdgeFault for the first that
    breaks a graph rule, with the message of the rule it breaks first."""
    seen = set()
    for i, (u, v, p) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise _EdgeFault(f"edge endpoint out of range: ({u}, {v})", i)
        if u == v:
            raise _EdgeFault(f"self-loop at vertex {labels[u]}", i)
        if not 0.0 < p <= 1.0:
            raise _EdgeFault(f"probability {p} outside (0, 1]", i)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise _EdgeFault(f"duplicate edge {{{labels[u]}, {labels[v]}}}", i)
        seen.add(key)


def _build_rows(n: int, us: array, vs: array,
                ps: array) -> tuple[dict[int, float], ...]:
    """The rows of the edges (us[i], vs[i], ps[i]), in the graph's order.
    Each row ascends as built: row u gets its neighbours below u, in
    ascending order, from the edges before u's own, and then its
    neighbours above u, in ascending order, from those."""
    # One int object per vertex, shared by every row that holds it as a
    # key, not one per edge end.
    ids = list(range(n))
    rows: list[dict[int, float]] = [{} for _ in ids]
    for u, v, p in zip(us, vs, ps):
        rows[u][ids[v]] = p
        rows[v][ids[u]] = p
    return tuple(rows)


_MAX_COUNT_DIGITS = len(str(sys.maxsize))

# The characters a graph-file line may hold, its newline excluded.  Real
# lines need far fewer; the bound lets a reader refuse an endless line
# (/dev/zero) at once instead of reading it until memory runs out.
MAX_LINE = 1 << 16


def bounded_lines(source: TextIO, limit: int = MAX_LINE
                  ) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) for each line of source.

    source is read in pieces of at most 8192 characters, so a line longer
    than limit raises GraphFormatError with its number as soon as the
    piece that makes it too long is read, and no more than limit + 8192
    characters of it are held.  The pieces of a line are joined once,
    when its end is read, so a long line costs time in its length."""
    size = min(limit, 8192)

    def numbered_pieces():
        line_no = 0
        head: list[str] = []  # the pieces of the unfinished last line
        width = 0  # its length so far
        while piece := source.read(size):
            # Every line but the first lies inside piece, so only the
            # first can be longer than limit.
            end = piece.find("\n")
            if width + (end if end >= 0 else len(piece)) > limit:
                raise GraphFormatError(
                    f"line longer than {limit} characters", line_no + 1)
            head.append(piece)
            if end < 0:
                width += len(piece)
                continue
            lines = "".join(head).split("\n")
            rest = lines.pop()
            head, width = [rest], len(rest)
            yield enumerate(lines, line_no + 1)
            line_no += len(lines)
        if width:
            yield [(line_no + 1, "".join(head))]

    # chained, the lines pass through no Python frame of their own
    return chain.from_iterable(numbered_pieces())


def load_graph(source: TextIO, prob_parser=float) -> UncertainGraph:
    """Parse the edge-list text format.

    Lines are "u v p" with positive integer labels u != v and p in (0, 1],
    and no line, comments included, holds more than MAX_LINE characters;
    a line whose first token starts with '#' is a comment (a '#' after
    the first token is not); an optional leading header "n <count>" declares
    the vertex count (and thereby isolated vertices), in which case labels
    must lie in 1..count.  Without a header, vertices are the union of the
    endpoints.  Either way internal indices follow ascending label order,
    whatever order the lines and endpoints come in.

    prob_parser maps the third token to a probability (default: float);
    pass generators.coauthor_prob_parser to ingest "u v c" weighted lists.

    This function checks the text; UncertainGraph checks the graph rules
    (self-loop, probability range, duplicate edge).  Either way a fault is
    raised as GraphFormatError carrying the line number it was found on.
    """
    header_n: int | None = None
    label_order: dict[int, int] = {}
    # The parsed edges, unboxed: endpoints (internal indices, or without a
    # header first-appearance indices until the labels are all known),
    # probabilities and line numbers.  The graph takes the endpoint and
    # probability arrays over, without a copy.
    us, vs, ps, edge_lines = array("q"), array("q"), array("d"), array("q")

    def intern(ext: int, line_no: int) -> int:
        if ext <= 0:
            raise GraphFormatError(f"vertex id {ext} must be positive", line_no)
        if header_n is not None:
            if ext > header_n:
                raise GraphFormatError(
                    f"vertex id {ext} exceeds declared count {header_n}", line_no)
            return ext - 1
        return label_order.setdefault(ext, len(label_order))

    for line_no, raw in bounded_lines(source):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        # int() and float() also take '_', non-ASCII digits and '+3' (below)
        if "_" in raw or not raw.isascii():
            raise GraphFormatError("'_' or non-ASCII character", line_no)
        if parts[0] == "n":
            if header_n is not None:
                raise GraphFormatError("header given twice", line_no)
            if us:
                raise GraphFormatError("header must precede all edges", line_no)
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphFormatError("header must be 'n <count>'", line_no)
            # the length first: int() refuses more than 4300 digits
            count = parts[1].lstrip("0") or "0"
            if len(count) > _MAX_COUNT_DIGITS or int(count) > sys.maxsize:
                raise GraphFormatError(
                    f"vertex count exceeds {sys.maxsize}", line_no)
            header_n = int(count)
            continue
        if len(parts) != 3:
            raise GraphFormatError("expected 'u v p'", line_no)
        if parts[0][0] == "+" or parts[1][0] == "+":
            raise GraphFormatError("vertex ids must not carry a '+'", line_no)
        try:
            eu, ev = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(_id_fault(parts[:2]), line_no)
        u, v = intern(eu, line_no), intern(ev, line_no)
        try:
            p = prob_parser(parts[2])
        except ValueError as exc:
            raise GraphFormatError(str(exc), line_no)
        us.append(u)
        vs.append(v)
        ps.append(p)
        edge_lines.append(line_no)

    labels: list[int] | None = None
    if header_n is None:
        n = len(label_order)
        labels = sorted(label_order)
        rank = [0] * n  # first-appearance index -> internal index
        for r, ext in enumerate(labels):
            rank[label_order[ext]] = r
        us = array("q", map(rank.__getitem__, us))
        vs = array("q", map(rank.__getitem__, vs))
    else:
        n = header_n
    try:
        return UncertainGraph.from_arrays(n, us, vs, ps, labels)
    except _EdgeFault as exc:
        raise GraphFormatError(str(exc), edge_lines[exc.index])


def load_cliques(source: TextIO, g: UncertainGraph
                 ) -> list[tuple[int, float, tuple[int, ...]]]:
    """(line number, probability, internal vertex tuple, ascending) for
    each clique of a clique stream of g's.

    Lines are "<prob> <v1> ... <vk>" with plain decimal labels of g's
    vertices, none repeated; blank lines and lines that start with '#'
    are skipped.  A line holds a probability and the labels of a clique,
    which has at most k = min(n, (1 + isqrt(1 + 8m)) // 2) vertices on m
    edges, and g's last label is its longest.  A line longer than that
    bound, or than a graph file's MAX_LINE if that is larger, raises
    GraphFormatError, as does any other fault, with its line number.
    The whole stream is read before any entry is returned.
    """
    k = min(g.n, (1 + math.isqrt(1 + 8 * g.num_edges)) // 2)
    limit = MAX_LINE
    if k:  # 32 characters hold a probability's 17 significant digits
        limit = max(limit, 32 + k * (len(str(g.label(g.n - 1))) + 1))
    entries = []
    for line_no, raw in bounded_lines(source, limit):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) < 2:
            raise GraphFormatError("expected '<prob> <v1> ...'", line_no)
        try:
            # float() and int() also take '_', non-ASCII digits and '+3'
            if ("_" in raw or not raw.isascii()
                    or not all(map(str.isdigit, parts[1:]))):
                raise ValueError
            prob = float(parts[0])
            labels = [int(tok) for tok in parts[1:]]
        except ValueError:
            raise GraphFormatError("malformed clique line", line_no)
        if len(set(labels)) < len(labels):
            raise GraphFormatError("malformed clique line (repeated vertex)",
                                   line_no)
        try:
            verts = sorted(map(g.index, labels))
        except KeyError as exc:
            raise GraphFormatError(f"unknown vertex {exc}", line_no)
        entries.append((line_no, prob, tuple(verts)))
    return entries


def _id_fault(ids: list[str]) -> str:
    """Why int() refused one of ids: a string of digits fails only when it
    is longer than the interpreter converts (4300 digits by default)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for text in ids:
        digits = text.removeprefix("-")
        if limit and digits.isdigit() and len(digits) > limit:
            return (f"vertex id of {len(digits)} digits exceeds the "
                    f"{limit}-digit limit")
    return "vertex ids must be integers"


def number(text: str, kind=float):
    """kind(text) under the data-file rules: int() and float() also take
    '_', non-ASCII digits and (refused for an integer only) a '+'."""
    if "_" in text or not text.isascii() or (kind is int and "+" in text):
        raise ValueError(f"malformed number {text!r}")
    return kind(text)


def dump_graph(g: UncertainGraph, out: TextIO) -> None:
    """Write the edge-list format; round-trips bit-exactly through
    load_graph (probabilities printed with 17 significant digits).

    The header (which preserves isolated vertices) is emitted only when
    the labels are exactly 1..n; other graphs are written as bare edges.
    Either way the edges come in ascending label order, as g keeps them,
    so no row is built.
    """
    if all(g.label(u) == u + 1 for u in range(g.n)):
        out.write(f"n {g.n}\n")
    names = g.label_names()
    out.writelines(f"{names[u]} {names[v]} {p:.17g}\n"
                   for u, v, p in g.edges())


def prune_by_alpha(g: UncertainGraph, alpha: float) -> UncertainGraph:
    """Drop every edge with p(e) < alpha; vertex set unchanged.  g itself
    when no edge lies below alpha, so a second call costs one min().

    Sound for enumeration: an edge below the threshold cannot appear in
    any clique whose probability reaches alpha.
    """
    check_alpha(alpha)
    ps = g.edge_arrays()[2]
    return (g if min(ps, default=alpha) >= alpha
            else g.select(map(operator.le, repeat(alpha), ps)))


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")


# Two float products of one clique's m edge probabilities, taken in
# different orders, differ by a relative error of at most about 2*m*2**-53;
# this tolerance covers that for any clique of fewer than 4 million edges
# (some 3,000 vertices).  umc verify and the check_invariants reference
# mode compare a stated or cached product with clique_probability's by it.
PROB_REL_TOL = 1e-9


def clique_probability(g: UncertainGraph, c: Iterable[int]) -> float | None:
    """Product of edge probabilities inside c, taken row by row in
    ascending vertex order; 1.0 for the empty set and singletons.  None
    when some pair of c is not an edge (a product is never 0, as every
    edge probability is above it)."""
    verts = sorted(set(c))
    q = 1.0
    for i, u in enumerate(verts):
        row = g.row(u)
        for v in verts[i + 1:]:
            if v not in row:
                return None
            q *= row[v]
    return q


def is_alpha_maximal(g: UncertainGraph, c: Iterable[int],
                     alpha: float) -> float | None:
    """Definition-level check, independent of the enumerator: when c is
    an alpha-clique and no single vertex extends it to another
    alpha-clique, c's probability, clique_probability(g, c), so a caller
    needs no second product; else None, as for a c that is not a clique.
    (Single-vertex extension suffices by subset monotonicity.)  The
    result is truthy exactly when c is alpha-maximal, as its probability
    is at least alpha > 0."""
    check_alpha(alpha)
    verts = tuple(sorted(set(c)))
    if not verts:
        raise ValueError("empty vertex set")
    q = clique_probability(g, verts)
    if q is None or q < alpha:
        return None
    cset = set(verts)
    base = min(verts, key=lambda u: len(g.row(u)))
    for w in g.row(base):
        # c+w's product: q times w's edges into c, ascending
        row = g.row(w)
        if (w not in cset and row.keys() >= cset
                and math.prod(map(row.__getitem__, verts), start=q) >= alpha):
            return None
    return q
