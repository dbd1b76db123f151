"""Deterministic memory bounds: tracemalloc counts the bytes Python
allocates while a BA n=2000 graph is loaded and size-filtered (the front
end of `umc enumerate`), per input edge, and while an ER graph is
generated, against the bytes the result keeps."""

import gc
import tracemalloc

import pytest

from umc.algorithms import shared_neighborhood_filter
from umc.generators import GenSpec, gen_erdos_renyi
from umc.graph import dump_graph, load_graph

# Bytes per input edge.  When the constructor built a dict row per vertex
# for every edge, the loaded graph kept 120 and the load peaked at 157;
# the load and the filter together peaked at 189.  Kept as typed arrays,
# with rows built only for the graph the filter returns: 25, 35 and 89.
RETAINED_PER_EDGE = 30
LOAD_PEAK_PER_EDGE = 45
FILTER_PEAK_PER_EDGE = 115
# 107 when every pair of C(3000, 2) was listed and masked at once (330 MB
# for 45k edges); 1.09 with one row of draws at a time.
ER_PEAK_BOUND = 1.5


def load(path):
    with open(path) as fh:
        return load_graph(fh)


@pytest.fixture(scope="module")
def ba2000(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "ba2000.txt"
    with open(path, "w") as out:
        dump_graph(GenSpec("ba", n=2000, m=10, seed=1).build(), out)
    return path


def test_load_and_filter_peaks(ba2000):
    gc.collect()
    tracemalloc.start()
    try:
        g = load(ba2000)
        retained, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kept = shared_neighborhood_filter(g, 0.1, 4)
        _, filter_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = g.num_edges
    assert 0 < kept.num_edges < m
    assert retained <= RETAINED_PER_EDGE * m, retained / m
    assert load_peak <= LOAD_PEAK_PER_EDGE * m, load_peak / m
    assert filter_peak <= FILTER_PEAK_PER_EDGE * m, filter_peak / m


def test_erdos_renyi_peak():
    gen_erdos_renyi(10, 0.5, seed=0)  # numpy's import is not the generator's
    gc.collect()
    tracemalloc.start()
    try:
        g = gen_erdos_renyi(3000, 0.01, seed=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 40_000 < len(g.edges) < 50_000
    assert peak <= ER_PEAK_BOUND * retained, peak / retained
