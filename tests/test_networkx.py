"""Differential tests against networkx: the size filter against
networkx.k_truss, and the enumerators at alpha = 1 against
networkx.find_cliques."""

import random
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from umc.algorithms import (
    dfs_noip,
    large_mule,
    mule,
    shared_neighborhood_filter,
)
from umc.graph import UncertainGraph

nx = pytest.importorskip("networkx")


def random_graph(seed, n, density, probs):
    """A graph on n vertices whose edges come shuffled and in mixed
    orientation, each with a probability drawn from probs."""
    rng = random.Random(seed)
    edges = [(v, u, rng.choice(probs)) if rng.random() < 0.5
             else (u, v, rng.choice(probs))
             for u, v in combinations(range(n), 2) if rng.random() < density]
    rng.shuffle(edges)
    return UncertainGraph(n, edges)


def alpha_subgraph(g, alpha):
    """The networkx graph of g's edges with p >= alpha, every vertex kept."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u, v, p in g.edges() if p >= alpha)
    return h


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 14), st.floats(0.0, 1.0),
       st.sampled_from([0.2, 0.5, 0.8, 1.0]), st.integers(2, 7))
def test_filter_keeps_exactly_the_k_truss(seed, n, density, alpha, t):
    g = random_graph(seed, n, density, (0.1, 0.3, 0.6, 0.9, 1.0))
    kept = {(u, v) for u, v, _ in shared_neighborhood_filter(g, alpha, t).edges()}
    truss = nx.k_truss(alpha_subgraph(g, alpha), t)
    assert kept == {(min(e), max(e)) for e in truss.edges()}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 200), st.floats(0.0, 0.4))
def test_enumerators_at_alpha_one_match_find_cliques(seed, n, density):
    """At alpha = 1 every product is exact, so the alpha-maximal cliques
    are the maximal cliques of the p = 1 subgraph, isolated vertices
    included."""
    g = random_graph(seed, n, density, (0.5, 1.0))
    want = {tuple(sorted(c))
            for c in nx.find_cliques(alpha_subgraph(g, 1.0))}
    for fn, args in ((mule, ()), (dfs_noip, ()), (large_mule, (3,))):
        out = []
        fn(g, 1.0, *args, out.append)
        got = [c.vertices for c in out]
        assert all(c.prob == 1.0 for c in out), fn.__name__
        assert len(got) == len(set(got)), fn.__name__
        size = args[0] if args else 1
        assert set(got) == {c for c in want if len(c) >= size}, fn.__name__
