"""Tests for the exact reference enumerator, the output-count ceiling, the
extremal construction, and the Monte-Carlo estimator."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from montecarlo import estimate_clique_probability
from umc import oracle
from umc.graph import UncertainGraph, load_graph
from umc.oracle import (
    build_extremal_graph,
    exact_enumerate,
    max_clique_count_bound,
)


def parse(text):
    return load_graph(io.StringIO(text))


class TestBruteForce:
    def test_path_graph(self):
        res = exact_enumerate(parse("1 2 0.9\n2 3 0.8\n"), 0.75)
        assert res == {(0, 1), (1, 2)}

    def test_extremal_k4(self):
        res = exact_enumerate(build_extremal_graph(4, 0.5), 0.5)
        assert len(res) == 6
        assert all(len(v) == 2 for v in res)

    def test_single_vertex(self):
        res = exact_enumerate(UncertainGraph(1, []), 0.5)
        assert res == {(0,)}

    def test_refuses_past_visit_bound(self, monkeypatch):
        # n does not matter: 26 isolated vertices are 26 alpha-cliques.
        # K8 at alpha = 0.5 has C(8,1) + ... + C(8,4) = 162.
        assert len(exact_enumerate(UncertainGraph(26, []), 0.5)) == 26
        g = build_extremal_graph(8, 0.5)
        monkeypatch.setattr(oracle, "MAX_VISITS", 162)
        assert len(exact_enumerate(g, 0.5)) == math.comb(8, 4)
        monkeypatch.setattr(oracle, "MAX_VISITS", 161)
        with pytest.raises(ValueError, match="more than 161 alpha-cliques"):
            exact_enumerate(g, 0.5)

    def test_triangle_decided_on_the_exact_product(self):
        # 0.6 * 0.2 * 0.7 lies 9.0e-18 below 0.084 in exact arithmetic
        # over the binary64 inputs, so each edge is alpha-maximal.
        res = exact_enumerate(parse("1 2 0.6\n1 3 0.2\n2 3 0.7\n"), 0.084)
        assert res == {(0, 1), (0, 2), (1, 2)}

    def test_output_is_non_redundant(self):
        g = parse("1 2 0.9\n2 3 0.9\n1 3 0.9\n3 4 0.9\n")
        sets = [frozenset(v) for v in exact_enumerate(g, 0.5)]
        for a in sets:
            for b in sets:
                assert a == b or not a < b

    def test_extremal_n18_in_a_minute(self):
        # 48,620 maximal cliques among 155,381 alpha-cliques: a
        # maximality test quadratic in the clique count takes minutes.
        # The subprocess lets the timeout stop it.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        script = ("from umc import oracle\n"
                  "g = oracle.build_extremal_graph(18, 0.5)\n"
                  "print(len(oracle.exact_enumerate(g, 0.5)))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.split() == [str(math.comb(18, 9))]


class TestCountBound:
    @pytest.mark.parametrize("n,expected", [(2, 2), (4, 6), (10, 252)])
    def test_values(self, n, expected):
        assert max_clique_count_bound(n) == expected

    def test_exact_integer_for_large_n(self):
        assert max_clique_count_bound(100) == math.comb(100, 50)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            max_clique_count_bound(1)


class TestExtremalGraph:
    def test_k4_single_edge_factor(self):
        g = build_extremal_graph(4, 0.5)
        assert g.num_edges == 6
        # kappa = C(2, 2) = 1 and n/4 = 1, so q = alpha**(1/2)
        assert g.row(0)[1] == 0.5 ** (1 / 2)

    def test_k6_cube_root(self):
        g = build_extremal_graph(6, 0.5)
        # 3-subsets have kappa = C(3,2) = 3 internal edges and n/4 = 1.5,
        # so each edge carries alpha**(1/4.5)
        assert g.row(0)[1] == 0.5 ** (1 / 4.5)

    def test_half_size_subsets_clear_threshold(self):
        # A float product of k factors lies within k * 2**-53 of the exact
        # one in relative terms: both margins stay well outside that band.
        for n in (4, 6, 8, 10, 12, 14, 16, 18, 20):
            kappa = math.comb(n // 2, 2)
            band = (kappa + n // 2) * 2.0 ** -53
            for alpha in (0.3, 0.5, 0.9):
                q = build_extremal_graph(n, alpha).row(0)[1]
                assert q == alpha ** (1 / (kappa + n / 4))
                assert q ** kappa / alpha - 1 > 4 * band, (n, alpha)
                assert 1 - q ** (kappa + n // 2) / alpha > 4 * band, (n, alpha)

    # the last two leave a margin to alpha inside the rounding band
    @pytest.mark.parametrize("n,alpha", [(3, 0.5), (5, 0.5), (4, 1.0), (4, 0.0),
                                         (6, 1 - 2 ** -52),
                                         (18, 0.99999999999999)])
    def test_rejects_bad_parameters(self, n, alpha):
        with pytest.raises(ValueError):
            build_extremal_graph(n, alpha)


class TestMonteCarlo:
    def test_certain_edges(self):
        g = parse("1 2 1\n2 3 1\n1 3 1\n")
        est, err = estimate_clique_probability(g, (0, 1, 2), 1000, seed=1)
        assert est == 1.0
        assert err == 0.0

    def test_triangle_within_three_sigma(self):
        g = parse("1 2 0.9\n2 3 0.9\n1 3 0.9\n")
        est, err = estimate_clique_probability(g, (0, 1, 2), 100_000, seed=7)
        assert err > 0
        assert abs(est - 0.729) <= 3 * max(err, 1e-6)

    def test_single_edge_bernoulli(self):
        g = parse("1 2 0.5\n")
        est, err = estimate_clique_probability(g, (0, 1), 10_000, seed=3)
        assert abs(est - 0.5) <= 3 * 0.005
        assert err == pytest.approx(math.sqrt(est * (1 - est) / 10_000))

    def test_singleton_is_certain(self):
        g = parse("1 2 0.5\n")
        assert estimate_clique_probability(g, (0,), 10, seed=0) == (1.0, 0.0)

    def test_seed_determinism(self):
        g = parse("1 2 0.5\n2 3 0.5\n1 3 0.5\n")
        a = estimate_clique_probability(g, (0, 1, 2), 5000, seed=11)
        b = estimate_clique_probability(g, (0, 1, 2), 5000, seed=11)
        assert a == b

    def test_rejects_non_clique(self):
        g = parse("1 2 0.9\n2 3 0.8\n")
        with pytest.raises(ValueError, match=r"\[0, 2\] is not a clique"):
            estimate_clique_probability(g, (0, 2), 10, seed=0)

    def test_rejects_zero_samples(self):
        g = parse("1 2 0.9\n")
        with pytest.raises(ValueError):
            estimate_clique_probability(g, (0, 1), 0, seed=0)
