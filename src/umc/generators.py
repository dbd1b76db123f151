"""Seeded generators for synthetic and semi-synthetic uncertain graphs.

All generators are pure functions of their parameters and seed (numpy
PCG64), so serialized output is byte-identical across runs and platforms.

The draws are batched, and a batch yields the values that the same number
of single draws would, so files match those of earlier versions byte for
byte: a Barabasi-Albert vertex draws its m targets in one sized call, and
single draws with the same bound follow only when repeats leave fewer than
m distinct targets; Erdos-Renyi draws one row of pairs per call.
"""

from __future__ import annotations

import math
from array import array
from itertools import combinations, repeat
from typing import NamedTuple

from .graph import UncertainGraph, number
from .oracle import build_extremal_graph


class DeterministicGraph(NamedTuple):
    """Structure-only intermediate: n vertices and the edges
    (us[i], vs[i]), us[i] < vs[i], in draw order, as array('q')
    endpoints, the format UncertainGraph keeps."""

    n: int
    us: array
    vs: array


def _rng(seed: int):
    # numpy is imported here, not at the top, so that importing umc.cli
    # does not load it for the commands that draw no random number.
    import numpy as np
    return np.random.default_rng(seed)


def gen_barabasi_albert(n: int, m_per_vertex: int, seed: int) -> DeterministicGraph:
    """Preferential-attachment graph: start from a clique on m+1 vertices,
    then attach each new vertex to m distinct existing vertices chosen with
    probability proportional to degree (without replacement).  Edge count
    is C(m+1, 2) + (n - m - 1) * m, i.e. about n * m.  The edges come by
    their higher endpoint, each new vertex's in ascending order."""
    m = m_per_vertex
    if not 1 <= m < n:
        raise ValueError("need 1 <= m_per_vertex < n")
    rng = _rng(seed)
    us, vs = (array("q", e) for e in zip(*combinations(range(m + 1), 2)))
    # One slot per degree unit; sampling a slot uniformly picks a vertex
    # with probability proportional to its degree.
    slots: list[int] = [u for e in zip(us, vs) for u in e]
    for v in range(m + 1, n):
        k = len(slots)
        draws = rng.integers(0, k, size=m).tolist()
        targets = set(map(slots.__getitem__, draws))
        while len(targets) < m:  # a repeat among the m draws
            targets.add(slots[int(rng.integers(0, k))])
        for u in sorted(targets):
            us.append(u)
            vs.append(v)
            slots.append(u)
            slots.append(v)
    return DeterministicGraph(n, us, vs)


def gen_erdos_renyi(n: int, density: float, seed: int) -> DeterministicGraph:
    """Each vertex pair is an edge independently with probability density.
    The edges come in ascending (u, v) order."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    us, vs = array("q"), array("q")
    # Row u holds the pairs (u, u+1) .. (u, n-1), in the order of the pairs
    # of combinations(range(n), 2); only the hits are kept.
    for u in range(n - 1):
        hits = (rng.random(n - 1 - u) < density).nonzero()[0] + (u + 1)
        us.extend(repeat(u, len(hits)))
        vs.extend(hits.tolist())
    return DeterministicGraph(n, us, vs)


def assign_uniform_probabilities(g: DeterministicGraph, seed: int) -> UncertainGraph:
    """Give every edge an independent probability uniform on (0, 1].

    Drawn as 1 - u with u in [0, 1) so the endpoint 0 is excluded and 1 is
    attainable, matching the probability codomain.  g's endpoint arrays
    are handed over to the graph: taken without a copy when they already
    ascend (ER), sorted once into new arrays when not (BA).
    """
    ps = array("d", (1.0 - _rng(seed).random(len(g.us))).tobytes())
    return UncertainGraph.from_arrays(g.n, g.us, g.vs, ps)


def coauthor_probability(c: int) -> float:
    """Edge probability from a co-authored paper count: 1 - e^(-c/10).

    Exactly 1.0 from c = 375 up, and so for a count too large for a float.
    """
    if c != int(c) or c <= 0:
        raise ValueError(f"paper count must be a positive integer, got {c!r}")
    try:
        return 1.0 - math.exp(-c / 10.0)
    except OverflowError:  # c has no float value
        return 1.0


def coauthor_prob_parser(token: str) -> float:
    """prob_parser for graph.load_graph over weighted 'u v c' edge lists.
    Raises ValueError, which load_graph reports with the line number."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"paper count {token!r} is not an integer")
    # int() refuses more than 4300 digits, leading zeros included
    digits = token.removeprefix("-").lstrip("0") or "0"
    if token[0] == "-" and digits != "0":
        raise ValueError(
            f"paper count must be a positive integer, got -{digits}")
    if len(digits) > 3:
        return 1.0  # at least 1000, and exactly 1.0 from 375 up
    return coauthor_probability(int(digits))


class GenSpec(NamedTuple):
    """One generator invocation, parseable from 'family:key=val,...'
    (e.g. 'ba:n=2000,m=10,seed=1' or 'extremal:n=16,alpha=0.5').  Its
    field defaults are the generators' only defaults; alpha has none.

    KEYS names the keys each family reads besides n.  checked() refuses
    any other, and parse() a repeated key too, so no setting is silently
    dropped.  build() raises ValueError for an unknown family, n < 1 or
    an extremal spec without alpha."""

    family: str
    n: int
    m: int = 10
    density: float = 0.5
    alpha: float | None = None
    seed: int = 0

    # The keys each family reads besides n, with their types.
    KEYS = {"ba": {"m": int, "seed": int},
            "er": {"density": float, "seed": int},
            "extremal": {"alpha": float}}

    @classmethod
    def checked(cls, family: str, n: int, /, **fields) -> "GenSpec":
        """GenSpec(family, n, **fields), refused with ValueError when the
        family is unknown or does not read one of fields."""
        if family not in cls.KEYS:
            raise ValueError(f"unknown family {family!r}")
        for key in fields:
            if key not in cls.KEYS[family]:
                raise ValueError(f"family {family!r} takes no {key!r} "
                                 f"(only {', '.join(cls.KEYS[family])})")
        return cls(family, n, **fields)

    @classmethod
    def parse(cls, text: str) -> "GenSpec":
        family, _, rest = text.partition(":")
        types = {"n": int, **cls.KEYS.get(family, {})}
        fields: dict = {}
        for item in filter(None, rest.split(",")):
            key, _, val = item.partition("=")
            if key in fields:
                raise ValueError(f"parameter {key!r} given twice")
            fields[key] = number(val, types[key]) if key in types else val
        if "n" not in fields:
            raise ValueError("generator spec requires n=<count>")
        n = fields.pop("n")
        return cls.checked(family, n, **fields)

    def label(self) -> str:
        """The family and n, then each key the family reads by its initial
        and value: "ba2000-m10-s1", "er12-d0.5-s0", "extremal16-a0.5"."""
        return "-".join([f"{self.family}{self.n}"] + [
            f"{key[0]}{getattr(self, key)}" for key in self.KEYS[self.family]])

    def build(self) -> UncertainGraph:
        if self.family not in self.KEYS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.family == "extremal":
            if self.alpha is None:
                raise ValueError("extremal family requires alpha")
            return build_extremal_graph(self.n, self.alpha)
        if self.family == "ba":
            base = gen_barabasi_albert(self.n, self.m, self.seed)
        else:
            base = gen_erdos_renyi(self.n, self.density, self.seed)
        # distinct stream from the structure draw
        return assign_uniform_probabilities(base, self.seed + 1)
