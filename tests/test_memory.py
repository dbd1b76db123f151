"""Deterministic memory bounds: tracemalloc counts the bytes Python
allocates while a BA n=2000 graph is loaded and size-filtered (the front
end of `umc enumerate`), per input edge, from a file in dump_graph order
and from a header-less copy with shuffled labels; while an ER graph is
generated, against the bytes the result keeps and per edge; while a
BA graph is built, per edge; and while `umc bench` sweeps three graphs,
against its peak for one."""

import gc
import random
import tracemalloc

import pytest

from umc import graph
from umc.cli import main
from umc.algorithms import shared_neighborhood_filter
from umc.generators import GenSpec, gen_erdos_renyi
from umc.graph import dump_graph, load_graph

# Bytes per input edge.  When the constructor built a dict row per vertex
# for every edge, the loaded graph kept 120 and the load peaked at 157;
# the load and the filter together peaked at 189.  Kept as typed arrays,
# with rows built only for the graph the filter returns: 25, 35 and 89.
# The header-less copy with shuffled labels kept 142 and peaked at 206
# in the filter while its rows were built at load; sorted instead, it
# keeps 28 and peaks at 92.
RETAINED_PER_EDGE = 30
LOAD_PEAK_PER_EDGE = 45
FILTER_PEAK_PER_EDGE = 115
# 107 when every pair of C(3000, 2) was listed and masked at once (330 MB
# for 45k edges); 1.09 with one row of draws at a time.
ER_PEAK_BOUND = 1.5
# Bytes per edge at the peak of gen_erdos_renyi(3000, 0.01) and of
# building BA n=2000, m=10 with its probabilities: 107 and 188 when the
# generators listed their edges as (u, v) tuples; 17 and 121 drawn into
# the typed endpoint arrays the graph keeps.  Most of BA's peak is the
# sort of its edges into the graph's order.
ER_PEAK_PER_EDGE = 24
BA_BUILD_PEAK_PER_EDGE = 140
# `umc bench` over three BA n=2000 specs against one: 2.85 when it held
# every graph to the end; 1.0 with one graph at a time.
BENCH_THREE_GRAPHS_PEAK_RATIO = 1.2


def load(path):
    with open(path) as fh:
        return load_graph(fh)


@pytest.fixture(scope="module")
def ba2000(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "ba2000.txt"
    with open(path, "w") as out:
        dump_graph(GenSpec("ba", n=2000, m=10, seed=1).build(), out)
    return path


@pytest.fixture(scope="module")
def ba2000_shuffled(ba2000):
    """ba2000 without its header, its labels shuffled by a seeded
    permutation, so that they first appear out of order."""
    path = ba2000.with_name("ba2000-shuffled.txt")
    with open(ba2000) as fh:
        edges = [ln.split() for ln in fh if not ln.startswith("n ")]
    labels = sorted({int(x) for u, v, _ in edges for x in (u, v)})
    perm = labels[:]
    random.Random(1).shuffle(perm)
    new = dict(zip(labels, perm))
    with open(path, "w") as out:
        out.writelines(f"{new[int(u)]} {new[int(v)]} {p}\n"
                       for u, v, p in edges)
    return path


def load_and_filter(path):
    """The graph loaded from path, the bytes it keeps, and the peaks of
    the load and of its t-truss at (0.1, 4), which drops some edges."""
    gc.collect()
    tracemalloc.start()
    try:
        g = load(path)
        retained, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kept = shared_neighborhood_filter(g, 0.1, 4)
        _, filter_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < kept.num_edges < g.num_edges
    return g, retained, load_peak, filter_peak


def test_load_and_filter_peaks(ba2000):
    g, retained, load_peak, filter_peak = load_and_filter(ba2000)
    m = g.num_edges
    assert retained <= RETAINED_PER_EDGE * m, retained / m
    assert load_peak <= LOAD_PEAK_PER_EDGE * m, load_peak / m
    assert filter_peak <= FILTER_PEAK_PER_EDGE * m, filter_peak / m


def test_shuffled_headerless_load_builds_no_rows(ba2000_shuffled,
                                                 monkeypatch):
    # Its edges do not ascend once the labels are ranked; the graph sorts
    # them and leaves its rows to the first search, as in dump order.
    built = []
    real = graph._build_rows

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(graph, "_build_rows", spy)
    g, retained, _, filter_peak = load_and_filter(ba2000_shuffled)
    m = g.num_edges
    assert built == []
    assert retained <= RETAINED_PER_EDGE * m, retained / m
    assert filter_peak <= FILTER_PEAK_PER_EDGE * m, filter_peak / m


def traced(build):
    """build()'s result, the bytes it keeps and the peak while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def test_erdos_renyi_peak():
    gen_erdos_renyi(10, 0.5, seed=0)  # numpy's import is not the generator's
    g, retained, peak = traced(lambda: gen_erdos_renyi(3000, 0.01, seed=1))
    m = len(g.us)
    assert 40_000 < m < 50_000
    assert peak <= ER_PEAK_BOUND * retained, peak / retained
    assert peak <= ER_PEAK_PER_EDGE * m, peak / m


def test_barabasi_albert_build_peak():
    GenSpec("ba", n=20, m=2, seed=0).build()  # nor is it the graph's
    g, _, peak = traced(GenSpec("ba", n=2000, m=10, seed=1).build)
    m = g.num_edges
    assert peak <= BA_BUILD_PEAK_PER_EDGE * m, peak / m


def test_bench_holds_one_graph_at_a_time(tmp_path):
    def bench(*specs):
        gens = [arg for spec in specs for arg in ("--gen", spec)]
        assert main(["bench", *gens, "--alphas", "0.9",
                     "--csv", str(tmp_path / "b.csv")]) == 0

    bench("ba:n=20,m=2")  # the imports are not the graphs'
    _, _, one = traced(lambda: bench("ba:n=2000,m=10,seed=1"))
    _, _, three = traced(lambda: bench(*(f"ba:n=2000,m=10,seed={seed}"
                                         for seed in (1, 2, 3))))
    assert three <= BENCH_THREE_GRAPHS_PEAK_RATIO * one, three / one
