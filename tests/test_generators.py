"""Generator tests: statistical shape, determinism, validation."""

import math

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


class TestBarabasiAlbert:
    def test_edge_count(self):
        g = gen_barabasi_albert(5000, 10, seed=0)
        assert g.n == 5000
        # seed clique C(11,2) plus 10 per later vertex
        assert len(g.edges) == 55 + (5000 - 11) * 10

    def test_m1_gives_tree(self):
        g = gen_barabasi_albert(3, 1, seed=0)
        assert len(g.edges) == 2

    def test_seed_determinism(self):
        assert gen_barabasi_albert(200, 5, seed=9).edges == \
            gen_barabasi_albert(200, 5, seed=9).edges

    def test_simple_graph(self):
        g = gen_barabasi_albert(300, 7, seed=4)
        assert len(set(g.edges)) == len(g.edges)
        assert all(u < v < g.n for u, v in g.edges)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 5, seed=0)
        with pytest.raises(ValueError):
            gen_barabasi_albert(5, 0, seed=0)


class TestErdosRenyi:
    def test_density_one_is_complete(self):
        g = gen_erdos_renyi(8, 1.0, seed=0)
        assert len(g.edges) == 28

    def test_density_zero_is_edgeless(self):
        assert gen_erdos_renyi(8, 0.0, seed=0).edges == ()

    def test_expected_edge_count(self):
        counts = [len(gen_erdos_renyi(12, 0.5, seed=s).edges) for s in range(50)]
        # binomial(66, 0.5): mean 33, sd ~4; the mean of 50 draws stays close
        assert abs(np.mean(counts) - 33) < 3

    def test_seed_determinism(self):
        assert gen_erdos_renyi(30, 0.4, seed=2).edges == \
            gen_erdos_renyi(30, 0.4, seed=2).edges


class TestProbabilityAssignment:
    def test_uniform_range_and_mean(self):
        g = gen_erdos_renyi(500, 0.8, seed=1)
        assert len(g.edges) > 90_000
        ug = assign_uniform_probabilities(g, seed=2)
        probs = [p for _, _, p in ug.edges()]
        assert all(0.0 < p <= 1.0 for p in probs)
        assert abs(np.mean(probs) - 0.5) < 0.01

    def test_seed_determinism(self):
        g = gen_erdos_renyi(20, 0.5, seed=3)
        a = assign_uniform_probabilities(g, seed=4)
        b = assign_uniform_probabilities(g, seed=4)
        assert list(a.edges()) == list(b.edges())

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

    def test_build_round_trip(self):
        g = GenSpec.parse("er:n=12,density=0.5,seed=1").build()
        assert g.n == 12
        assert all(0.0 < p <= 1.0 for _, _, p in g.edges())

    def test_extremal_build(self):
        g = GenSpec.parse("extremal:n=8,alpha=0.5").build()
        assert g.num_edges == 28
