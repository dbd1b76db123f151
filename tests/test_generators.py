"""Generator tests: statistical shape, determinism, validation, and the
batched draws against one-value-per-call references."""

import hashlib
import io
import math
from itertools import combinations

import numpy as np
import pytest

from umc.generators import (
    GenSpec,
    assign_uniform_probabilities,
    coauthor_prob_parser,
    coauthor_probability,
    gen_barabasi_albert,
    gen_erdos_renyi,
)
from umc.graph import UncertainGraph, dump_graph


def reference_barabasi_albert(n, m, seed):
    """The generator with one scalar draw per call.  Returns the edges and
    the number of vertices whose first m draws held a repeat."""
    rng = np.random.default_rng(seed)
    edges = list(combinations(range(m + 1), 2))
    slots = [u for e in edges for u in e]
    repeats = 0
    for v in range(m + 1, n):
        targets = set()
        draws = 0
        while len(targets) < m:
            targets.add(slots[int(rng.integers(0, len(slots)))])
            draws += 1
        repeats += draws > m
        for u in sorted(targets):
            edges.append((u, v))
            slots.append(u)
            slots.append(v)
    return tuple(edges), repeats


def reference_erdos_renyi(n, density, seed):
    """The generator over the list of all pairs, with one draw for all."""
    pairs = list(combinations(range(n), 2))
    mask = np.random.default_rng(seed).random(len(pairs)) < density
    return tuple(p for p, keep in zip(pairs, mask) if keep)


def pairs(g):
    """A DeterministicGraph's edges as (u, v) tuples, in draw order."""
    return tuple(zip(g.us, g.vs))


def reference_dump(g, out):
    """dump_graph with one write and two label lookups per edge."""
    if all(g.label(u) == u + 1 for u in range(g.n)):
        out.write(f"n {g.n}\n")
    for u, v, p in g.edges():
        out.write(f"{g.label(u)} {g.label(v)} {p:.17g}\n")


class TestBarabasiAlbert:
    def test_edge_count(self):
        g = gen_barabasi_albert(5000, 10, seed=0)
        assert g.n == 5000
        # seed clique C(11,2) plus 10 per later vertex
        assert len(g.us) == 55 + (5000 - 11) * 10

    def test_m1_gives_tree(self):
        g = gen_barabasi_albert(3, 1, seed=0)
        assert len(g.us) == 2

    def test_seed_determinism(self):
        assert pairs(gen_barabasi_albert(200, 5, seed=9)) == \
            pairs(gen_barabasi_albert(200, 5, seed=9))

    def test_simple_graph(self):
        g = gen_barabasi_albert(300, 7, seed=4)
        assert len(set(pairs(g))) == len(g.us) == len(g.vs)
        assert all(u < v < g.n for u, v in pairs(g))
        assert g.us.typecode == g.vs.typecode == "q"

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 5, seed=0)
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 0, seed=0)

    # (12, 10) draws 10 targets among 11 vertices; m = 1 cannot repeat
    @pytest.mark.parametrize("n, m", [(12, 10), (40, 1), (2000, 10)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_sized_draws_match_scalar_draws(self, n, m, seed):
        expected, repeats = reference_barabasi_albert(n, m, seed)
        assert pairs(gen_barabasi_albert(n, m, seed)) == expected
        assert (repeats > 0) == (m > 1)


class TestErdosRenyi:
    def test_density_one_is_complete(self):
        g = gen_erdos_renyi(8, 1.0, seed=0)
        assert len(g.us) == 28

    def test_density_zero_is_edgeless(self):
        assert pairs(gen_erdos_renyi(8, 0.0, seed=0)) == ()

    def test_expected_edge_count(self):
        counts = [len(gen_erdos_renyi(12, 0.5, seed=s).us) for s in range(50)]
        # binomial(66, 0.5): mean 33, sd ~4; the mean of 50 draws stays close
        assert abs(np.mean(counts) - 33) < 3

    def test_seed_determinism(self):
        assert pairs(gen_erdos_renyi(30, 0.4, seed=2)) == \
            pairs(gen_erdos_renyi(30, 0.4, seed=2))

    @pytest.mark.parametrize("n, density, message", [
        (5, -0.1, r"density must lie in \[0, 1\]"),
        (5, 1.5, r"density must lie in \[0, 1\]"),
        (0, 0.5, "n must be >= 1"),
    ])
    def test_rejects_bad_arguments(self, n, density, message):
        with pytest.raises(ValueError, match=message):
            gen_erdos_renyi(n, density, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 40, 300])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_row_draws_match_all_pairs_draw(self, n, density, seed):
        assert pairs(gen_erdos_renyi(n, density, seed)) == \
            reference_erdos_renyi(n, density, seed)


class TestDumpGraph:
    @pytest.mark.parametrize("g", [
        GenSpec("ba", 300, m=5, seed=2).build(),
        UncertainGraph(5, [(0, 4, 0.25), (1, 2, 1.0), (0, 1, 0.1 + 0.2),
                           (3, 4, 1e-300)], labels=(2, 3, 7, 40, 1000)),
        # vertices 1, 4, 5, 6 and 8 have no edge
        UncertainGraph(8, [(1, 2, 0.5), (2, 6, 0.75), (1, 6, 1 / 3)]),
    ], ids=["header", "labels-not-1-to-n", "isolated-vertices"])
    def test_bytes_match_per_edge_writer(self, g):
        new, old = io.StringIO(), io.StringIO()
        dump_graph(g, new)
        reference_dump(g, old)
        assert new.getvalue() == old.getvalue()


# The bytes `umc generate` writes for these specs; ba:n=10000,m=10,seed=7
# is the input of the ba-large benchmark workload.
GENERATED_SHA256 = {
    "ba:n=2000,m=10,seed=1":
        "a9985875aab6c108b1251f411eb9765277e6673dca86ba8093fe967a70c0f49b",
    "er:n=400,density=0.01,seed=3":
        "3956043da93866dc7f70cf50327abac397d893e6f5a78ed126365828a2e9d0c5",
    "extremal:n=16,alpha=0.5":
        "c3eee381af16db06e96f0cd81ad024b272ba9bc177ef0e947b1bf03f609faa24",
    "ba:n=10000,m=10,seed=7":
        "248edcf4fa5db89ecb98f032e35cd5923971a65d8ef5afd25f74f053691162a7",
}


@pytest.mark.parametrize("spec", GENERATED_SHA256)
def test_generated_bytes_are_pinned(spec):
    out = io.StringIO()
    dump_graph(GenSpec.parse(spec).build(), out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GENERATED_SHA256[spec]


class TestProbabilityAssignment:
    def test_uniform_range_and_mean(self):
        g = gen_erdos_renyi(500, 0.8, seed=1)
        assert len(g.us) > 90_000
        ug = assign_uniform_probabilities(g, seed=2)
        probs = [p for _, _, p in ug.edges()]
        assert all(0.0 < p <= 1.0 for p in probs)
        assert abs(np.mean(probs) - 0.5) < 0.01

    def test_seed_determinism(self):
        g = gen_erdos_renyi(20, 0.5, seed=3)
        a = assign_uniform_probabilities(g, seed=4)
        b = assign_uniform_probabilities(g, seed=4)
        assert list(a.edges()) == list(b.edges())

    def test_endpoint_arrays_are_handed_to_the_graph(self):
        er = gen_erdos_renyi(40, 0.3, seed=1)
        us, vs, _ = assign_uniform_probabilities(er, seed=2).edge_arrays()
        assert us is er.us and vs is er.vs
        ba = gen_barabasi_albert(40, 3, seed=1)
        us, vs, _ = assign_uniform_probabilities(ba, seed=2).edge_arrays()
        assert list(zip(us, vs)) == sorted(pairs(ba))

    @pytest.mark.parametrize("spec", ["ba:n=300,m=5,seed=3",
                                      "er:n=30,density=0.5,seed=3"])
    def test_graph_holds_python_floats(self, spec):
        g = GenSpec.parse(spec).build()
        assert g.num_edges > 0
        assert all(type(p) is float for _, _, p in g.edges())


class TestCoauthorProbability:
    def test_ten_papers(self):
        assert coauthor_probability(10) == pytest.approx(1 - math.exp(-1))

    def test_one_paper(self):
        assert coauthor_probability(1) == pytest.approx(0.09516258196404048)

    def test_many_papers_approach_one(self):
        assert coauthor_probability(10_000) == pytest.approx(1.0)
        assert coauthor_probability(10_000) <= 1.0

    def test_count_beyond_float_range_is_one(self):
        # every count from 375 up gives exactly 1.0
        assert coauthor_probability(375) == 1.0
        assert coauthor_probability(10**400) == 1.0
        assert coauthor_prob_parser("1" + "0" * 400) == 1.0

    def test_count_beyond_int_range_is_one(self):
        # int() refuses these; every count from 375 up gives 1.0
        assert coauthor_prob_parser("9" * 5000) == 1.0
        assert coauthor_prob_parser("0" * 5000 + "375") == 1.0
        assert coauthor_prob_parser("0" * 5000 + "1") == coauthor_probability(1)

    @pytest.mark.parametrize("c", [0, -3])
    def test_rejects_non_positive(self, c):
        with pytest.raises(ValueError):
            coauthor_probability(c)

    # Python literal syntax that int() accepts
    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
    def test_parser_refuses_non_decimal_counts(self, token):
        with pytest.raises(ValueError, match="is not an integer"):
            coauthor_prob_parser(token)


class TestGenSpec:
    def test_parse(self):
        spec = GenSpec.parse("ba:n=2000,m=10,seed=7")
        assert (spec.family, spec.n, spec.m, spec.seed) == ("ba", 2000, 10, 7)

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            GenSpec.parse("ba:n=10,foo=1")
        with pytest.raises(ValueError):
            GenSpec.parse("ba:m=3")

    @pytest.mark.parametrize("text, message", [
        ("ba:n=10,n=20,m=2", "parameter 'n' given twice"),
        ("er:n=10,seed=1,seed=2", "parameter 'seed' given twice"),
        ("ba:n=10,m=2,alpha=0.3",
         "family 'ba' takes no 'alpha' (only m, seed)"),
        ("er:n=10,m=2", "family 'er' takes no 'm' (only density, seed)"),
        ("extremal:n=8,alpha=0.5,seed=1",
         "family 'extremal' takes no 'seed' (only alpha)"),
        ("xx:n=5", "unknown family 'xx'"),
    ])
    def test_parse_drops_no_setting(self, text, message):
        with pytest.raises(ValueError) as info:
            GenSpec.parse(text)
        assert str(info.value) == message

    def test_checked_reads_the_same_table(self):
        assert GenSpec.checked("ba", 10, m=2) == GenSpec.parse("ba:n=10,m=2")
        with pytest.raises(ValueError, match="takes no 'density'"):
            GenSpec.checked("ba", 10, density=0.9)
        for keys in GenSpec.KEYS.values():
            assert set(keys) <= set(GenSpec._fields[2:])

    def test_extremal_requires_alpha(self):
        spec = GenSpec.parse("extremal:n=8")
        with pytest.raises(ValueError, match="extremal family requires alpha"):
            spec.build()

    def test_a_spec_without_seed_is_labelled_s0(self):
        assert GenSpec.parse("ba:n=10,m=2").label() == "ba10-m2-s0"
        assert GenSpec.parse("er:n=12").label() == "er12-d0.5-s0"
        assert (GenSpec.parse("extremal:n=16,alpha=0.5").label()
                == "extremal16-a0.5")

    def test_build_round_trip(self):
        g = GenSpec.parse("er:n=12,density=0.5,seed=1").build()
        assert g.n == 12
        assert all(0.0 < p <= 1.0 for _, _, p in g.edges())

    def test_extremal_build(self):
        g = GenSpec.parse("extremal:n=8,alpha=0.5").build()
        assert g.num_edges == 28

    @pytest.mark.parametrize("spec, message", [
        (GenSpec("xx", 5), "unknown family 'xx'"),
        (GenSpec("ba", 0), "n must be >= 1"),
        (GenSpec("er", -3), "n must be >= 1"),
    ])
    def test_build_rejects_bad_spec(self, spec, message):
        with pytest.raises(ValueError, match=message):
            spec.build()
