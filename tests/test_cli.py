"""End-to-end CLI tests driven through umc.cli.main."""

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

import umc
import umc.algorithms
import umc.cli
import umc.graph
import umc.oracle
from umc.algorithms import search_graph
from umc.cli import main
from umc.generators import GenSpec
from umc.graph import dump_graph, load_graph, prune_by_alpha

PATH_3 = "1 2 0.9\n2 3 0.8\n"


@pytest.fixture
def path_graph(tmp_path):
    f = tmp_path / "path3.txt"
    f.write_text(PATH_3)
    return str(f)


def read_cliques(path):
    out = set()
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            out.add(tuple(int(x) for x in parts[1:]))
    return out


class TestEnumerate:
    def test_path_fixture(self, path_graph, tmp_path, capsys):
        out = tmp_path / "cliques.txt"
        rc = main(["enumerate", "--input", path_graph, "--alpha", "0.75",
                   "--out", str(out)])
        assert rc == 0
        assert read_cliques(str(out)) == {(1, 2), (2, 3)}
        summary = capsys.readouterr().err
        assert "cliques=2" in summary

    @pytest.mark.parametrize("min_size", ["1", "3"])
    # capsys's stdout has no descriptor, so mule writes it serially
    @pytest.mark.parametrize("target", ["--out", "stdout"],
                             ids=["streaming", "stdout"])
    @pytest.mark.parametrize("algo", ["mule", "dfs-noip"])
    def test_summary_matches_line_count(self, tmp_path, capsys,
                                        algo, target, min_size):
        # a triangle {1, 2, 3} with a pendant edge {3, 4}: one maximal
        # clique on each side of --min-size 3
        f = tmp_path / "paw.txt"
        f.write_text("1 2 0.9\n2 3 0.9\n1 3 0.9\n3 4 0.9\n")
        out = tmp_path / "c.txt"
        where = ["--out", str(out)] if target == "--out" else []
        rc = main(["enumerate", "--input", str(f), "--alpha", "0.5",
                   "--algo", algo, "--min-size", min_size, *where])
        assert rc == 0
        captured = capsys.readouterr()
        n_lines = len((out.read_text() if where else captured.out)
                      .splitlines())
        assert n_lines == (2 if min_size == "1" else 1)
        assert f"cliques={n_lines} " in captured.err

    # capsys's stdout has no descriptor, so mule writes it serially
    @pytest.mark.parametrize("target", ["--out", "stdout"],
                             ids=["claim-loop", "serial-sink"])
    def test_time_ms_covers_the_search_graph(self, path_graph, tmp_path,
                                             capsys, monkeypatch, target):
        real = umc.algorithms.prune_by_alpha

        def slow(g, alpha):
            time.sleep(0.2)
            return real(g, alpha)
        monkeypatch.setattr(umc.algorithms, "prune_by_alpha", slow)
        where = ["--out", str(tmp_path / "c.txt")] if target == "--out" else []
        rc = main(["enumerate", "--input", path_graph, "--alpha", "0.75",
                   *where])
        assert rc == 0
        err = capsys.readouterr().err
        assert float(err.split("time_ms=")[1]) >= 200

    @pytest.mark.parametrize("algo, min_size", [
        ("mule", "1"), ("mule", "3"), ("dfs-noip", "1")])
    def test_rows_are_built_for_the_search_graph_only(
            self, tmp_path, monkeypatch, algo, min_size):
        # Every algorithm searches search_graph(g, alpha, t): rows are
        # built once, for its edges, never for the loaded graph's.
        f = tmp_path / "ba.txt"
        with open(f, "w") as fh:
            dump_graph(GenSpec("ba", n=500, m=5, seed=1).build(), fh)
        with open(f) as fh:
            loaded = load_graph(fh)
        t = int(min_size)
        kept = search_graph(loaded, 0.5, t)
        assert 0 < kept.num_edges < loaded.num_edges
        built = []
        real = umc.graph._build_rows

        def spy(n, us, vs, ps):
            built.append((list(us), list(vs), list(ps)))
            return real(n, us, vs, ps)
        monkeypatch.setattr(umc.graph, "_build_rows", spy)
        rc = main(["enumerate", "--input", str(f), "--alpha", "0.5",
                   "--algo", algo, "--min-size", min_size,
                   "--out", str(tmp_path / "c.txt")])
        assert rc == 0
        assert built == [tuple(map(list, kept.edge_arrays()))]

    @pytest.mark.parametrize("via, flags", [
        ("path", []), ("symlink", []), ("path", ["--algo", "dfs-noip"])],
        ids=["path", "symlink", "dfs-noip"])
    def test_an_input_named_as_the_out_is_kept(self, path_graph, tmp_path,
                                               capsys, via, flags):
        # the run would overwrite the graph with its own cliques
        out = path_graph
        if via == "symlink":
            out = str(tmp_path / "link.txt")
            os.symlink(path_graph, out)
        data = Path(path_graph).read_bytes()
        assert main(["enumerate", "--input", path_graph, "--alpha", "0.5",
                     *flags, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} is also an --input\n")
        assert Path(path_graph).read_bytes() == data

    def test_min_size_filters(self, path_graph, tmp_path):
        out = tmp_path / "c.txt"
        rc = main(["enumerate", "--input", path_graph, "--alpha", "0.75",
                   "--min-size", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_alpha_out_of_range_is_usage_error(self, path_graph):
        assert main(["enumerate", "--input", path_graph, "--alpha", "1.5"]) == 2

    def test_bad_input_reports_line(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1 1 0.5\n")
        assert main(["enumerate", "--input", str(f), "--alpha", "0.5"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_canonical_order_sorted(self, tmp_path):
        # an ER graph written headerless under shuffled labels: the
        # default stream of either algorithm is sorted by label tuple
        g = GenSpec("er", 24, density=0.4, seed=3).build()
        perm = list(range(1, g.n + 1))
        random.Random(5).shuffle(perm)
        f = tmp_path / "g.txt"
        f.write_text("".join(f"{perm[u]} {perm[v]} {p!r}\n"
                             for u, v, p in g.edges()))
        streams = []
        for algo in ("mule", "dfs-noip"):
            out = tmp_path / f"{algo}.txt"
            assert main(["enumerate", "--input", str(f), "--alpha", "0.05",
                         "--algo", algo, "--out", str(out)]) == 0
            lines = [tuple(int(x) for x in ln.split()[1:])
                     for ln in out.read_text().splitlines()]
            assert len(lines) > 1 and lines == sorted(lines)
            streams.append(lines)
        assert streams[0] == streams[1]

    def test_dfs_noip_agrees(self, path_graph, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["enumerate", "--input", path_graph, "--alpha", "0.75",
              "--out", str(a)])
        main(["enumerate", "--input", path_graph, "--alpha", "0.75",
              "--algo", "dfs-noip", "--out", str(b)])
        assert read_cliques(str(a)) == read_cliques(str(b))

    def test_coauthor_prob_model(self, tmp_path, capsys):
        f = tmp_path / "dblp.txt"
        f.write_text("1 2 10\n2 3 1\n")
        out = tmp_path / "c.txt"
        rc = main(["enumerate", "--input", str(f), "--prob-model", "coauthor",
                   "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        # only the 10-paper edge (p ~ 0.632) clears alpha; vertex 3 is
        # isolated after pruning
        assert read_cliques(str(out)) == {(1, 2), (3,)}

    def test_coauthor_count_beyond_float_range(self, tmp_path, capsys):
        f = tmp_path / "dblp.txt"
        f.write_text("1 2 1" + "0" * 400 + "\n")
        assert main(["enumerate", "--input", str(f), "--prob-model",
                     "coauthor", "--alpha", "1"]) == 0
        assert capsys.readouterr().out == "1 1 2\n"

    def test_coauthor_count_beyond_int_range(self, tmp_path, capsys):
        f = tmp_path / "dblp.txt"
        f.write_text("1 2 " + "9" * 5000 + "\n2 3 " + "0" * 5000 + "7\n")
        assert main(["enumerate", "--input", str(f), "--prob-model",
                     "coauthor", "--alpha", "1"]) == 0
        assert capsys.readouterr().out == "1 1 2\n1 3\n"


class TestVerify:
    def test_round_trip(self, path_graph, tmp_path):
        out = tmp_path / "c.txt"
        main(["enumerate", "--input", path_graph, "--alpha", "0.75",
              "--out", str(out)])
        rc = main(["verify", "--input", path_graph, "--cliques", str(out),
                   "--alpha", "0.75", "--complete"])
        assert rc == 0

    def test_non_maximal_subset_flagged(self, path_graph, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0 2\n")
        rc = main(["verify", "--input", path_graph, "--cliques", str(bad),
                   "--alpha", "0.75"])
        assert rc == 1
        assert "NOT ALPHA-MAXIMAL" in capsys.readouterr().out

    def test_missing_clique_flagged(self, path_graph, tmp_path, capsys):
        partial = tmp_path / "partial.txt"
        partial.write_text("0.9 1 2\n")
        rc = main(["verify", "--input", path_graph, "--cliques", str(partial),
                   "--alpha", "0.75", "--complete"])
        assert rc == 1
        assert "MISSING" in capsys.readouterr().out

    def test_wrong_probability_flagged(self, path_graph, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 1 2\n0.8 2 3\n")
        rc = main(["verify", "--input", path_graph, "--cliques", str(bad),
                   "--alpha", "0.75"])
        assert rc == 1
        assert "PROBABILITY MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("complete", [[], ["--complete"]])
    def test_verdicts_on_the_alpha_subgraph(self, path_graph, tmp_path,
                                            capsys, monkeypatch, complete):
        # 2-3 at 0.8 lies below alpha: checked on the graph without it,
        # {2, 3} and the triangle, no clique at all, are refused as on the
        # loaded graph, and {1, 2} and {3} pass
        lines = tmp_path / "c.txt"
        lines.write_text("0.9 1 2\n1 3\n0.8 2 3\n0.72 1 2 3\n")
        pruned = []

        def spy(g, alpha):
            pruned.append(g.num_edges)
            return prune_by_alpha(g, alpha)
        monkeypatch.setattr(umc.cli, "prune_by_alpha", spy)
        rc = main(["verify", "--input", path_graph, "--cliques", str(lines),
                   "--alpha", "0.85", *complete])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            "NOT ALPHA-MAXIMAL line 3: [2, 3]",
            "NOT ALPHA-MAXIMAL line 4: [1, 2, 3]"]
        assert pruned == [2]

    @pytest.mark.parametrize("complete", [[], ["--complete"]])
    def test_one_product_per_line(self, tmp_path, capsys, monkeypatch,
                                  complete):
        # is_alpha_maximal takes its product through
        # umc.graph.clique_probability and --complete calls it through
        # umc.cli's binding; the exact reference takes none
        graph, cliques = tmp_path / "er30.txt", tmp_path / "c.txt"
        main(["generate", "--family", "er", "--n", "30", "--density", "0.5",
              "--seed", "1", "--out", str(graph)])
        main(["enumerate", "--input", str(graph), "--alpha", "0.1",
              "--out", str(cliques)])
        lines = len(cliques.read_text().splitlines())
        products = []
        real = umc.graph.clique_probability

        def spy(g, c):
            products.append(c)
            return real(g, c)
        monkeypatch.setattr(umc.graph, "clique_probability", spy)
        monkeypatch.setattr(umc.cli, "clique_probability", spy)
        capsys.readouterr()
        assert main(["verify", "--input", str(graph), "--cliques",
                     str(cliques), "--alpha", "0.1", *complete]) == 0
        assert capsys.readouterr().err == "verification ok\n"
        assert len(products) == lines > 1

    def test_nan_probability_flagged(self, path_graph, tmp_path, capsys):
        bad = tmp_path / "nan.txt"
        bad.write_text("nan 1 2\nnan 2 3\n")
        rc = main(["verify", "--input", path_graph, "--cliques", str(bad),
                   "--alpha", "0.75", "--complete"])
        assert rc == 1
        assert capsys.readouterr().out.count("PROBABILITY MISMATCH") == 2

    @pytest.fixture
    def er30(self, tmp_path, capsys):
        g = tmp_path / "er30.txt"
        main(["generate", "--family", "er", "--n", "30", "--density", "0.5",
              "--seed", "1", "--out", str(g)])
        singleton = tmp_path / "c.txt"
        singleton.write_text("1 1\n")  # not maximal: 1 has neighbours
        capsys.readouterr()
        return ["verify", "--input", str(g), "--cliques", str(singleton),
                "--alpha", "0.5", "--complete"]

    def test_complete_checks_a_graph_beyond_25_vertices(self, er30, capsys):
        assert main(er30) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "NOT ALPHA-MAXIMAL line 1: [1]"
        assert out[1].startswith("MISSING: ")
        assert len(out) > 2

    def test_complete_refusal_precedes_any_verdict(self, er30, monkeypatch,
                                                  capsys):
        monkeypatch.setattr(umc.oracle, "MAX_VISITS", 30)
        assert main(er30) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --complete: more than 30 alpha-cliques "
                       "to visit\n")

    def test_clique_line_bound_follows_from_the_graph(self, tmp_path,
                                                     capsys):
        """Twenty labels of 4,000 digits make a clique line longer than a
        graph file's line bound; a clique file's bound leaves room for
        every label of the graph."""
        labels = [10**3999 + i for i in range(20)]
        graph = tmp_path / "k20.txt"
        graph.write_text("".join(f"{u} {v} 1\n" for i, u in enumerate(labels)
                                 for v in labels[i + 1:]))
        line = "1 " + " ".join(map(str, labels))
        assert len(line) > umc.graph.MAX_LINE
        cliques = tmp_path / "c.txt"
        cliques.write_text(line + "\n")
        assert main(["verify", "--input", str(graph), "--cliques",
                     str(cliques), "--alpha", "0.5"]) == 0
        assert capsys.readouterr().err == "verification ok\n"

    @pytest.fixture
    def triangle(self, tmp_path):
        """0.6 * (0.2 * 0.7) rounds below 0.084 and 0.2 * (0.6 * 0.7)
        does not; in exact arithmetic {1, 2, 3} lies below alpha, so the
        exact reference expects the three edges."""
        g = tmp_path / "tri.txt"
        g.write_text("n 3\n1 2 0.6\n1 3 0.2\n2 3 0.7\n")
        cliques = tmp_path / "c.txt"

        def verify_args(text):
            cliques.write_text(text)
            return ["verify", "--input", str(g), "--cliques", str(cliques),
                    "--alpha", "0.084", "--complete"]
        return verify_args

    def test_complete_judges_maximality_by_the_exact_reference(
            self, triangle, tmp_path, capsys):
        assert main(["enumerate", "--input", str(tmp_path / "tri.txt"),
                     "--alpha", "0.084", "--out", str(tmp_path / "m.txt")]) == 0
        mule = (tmp_path / "m.txt").read_text()
        assert [ln.split()[1:] for ln in mule.splitlines()] == [["1", "2"],
                                                              ["2", "3"]]
        capsys.readouterr()
        assert main(triangle(mule)) == 1
        out, err = capsys.readouterr()
        assert out == "MISSING: [1, 3]\n"
        assert err == "verification failed: 1 violation(s)\n"

    def test_complete_reports_an_extra_line_once(self, triangle, capsys):
        assert main(triangle("1 1 2 3\n")) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == ["NOT ALPHA-MAXIMAL line 1: [1, 2, 3]",
                                    "MISSING: [1, 2]", "MISSING: [1, 3]",
                                    "MISSING: [2, 3]"]
        assert err == "verification failed: 4 violation(s)\n"

    def test_malformed_later_line_stops_before_any_verdict(
            self, path_graph, tmp_path, capsys):
        # line 1 alone would be reported NOT ALPHA-MAXIMAL
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0 2\n1 3 3\n")
        rc = main(["verify", "--input", path_graph, "--cliques", str(bad),
                   "--alpha", "0.75"])
        assert rc == 2
        assert capsys.readouterr().out == ""


class TestGenerate:
    def test_extremal_k8(self, tmp_path):
        out = tmp_path / "k8.txt"
        rc = main(["generate", "--family", "extremal", "--n", "8",
                   "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            g = load_graph(fh)
        assert (g.n, g.num_edges) == (8, 28)

    def test_ba_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (a, b):
            main(["generate", "--family", "ba", "--n", "100", "--m", "5",
                  "--seed", "7", "--out", str(f)])
        assert a.read_text() == b.read_text()

    def test_er_round_trips(self, tmp_path):
        out = tmp_path / "er.txt"
        rc = main(["generate", "--family", "er", "--n", "12", "--density",
                   "0.5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            g = load_graph(fh)
        assert g.n == 12

    def test_usage_error_on_bad_spec(self, tmp_path):
        rc = main(["generate", "--family", "extremal", "--n", "7",
                   "--alpha", "0.5", "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    def test_thin_extremal_margin_exits_2_and_writes_nothing(self, tmp_path,
                                                             capsys):
        # alpha = 1 - 2**-52 puts every edge at p = 1: one clique, not 20
        out = tmp_path / "k6.txt"
        rc = main(["generate", "--family", "extremal", "--n", "6",
                   "--alpha", "0.9999999999999998", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "rounding band" in err[0]
        assert not out.exists()

    # Each flag set and the spec string `bench --gen` takes for it write
    # the same bytes; a flag left out takes GenSpec's default, as a key
    # left out of a spec does.
    @pytest.mark.parametrize("argv, spec", [
        (["--family", "ba", "--n", "60", "--m", "4", "--seed", "3"],
         GenSpec.parse("ba:n=60,m=4,seed=3")),
        (["--family", "er", "--n", "30", "--density", "0.3", "--seed", "2"],
         GenSpec.parse("er:n=30,density=0.3,seed=2")),
        (["--family", "extremal", "--n", "10", "--alpha", "0.4"],
         GenSpec.parse("extremal:n=10,alpha=0.4")),
        (["--family", "ba", "--n", "60"], GenSpec.parse("ba:n=60")),
        (["--family", "er", "--n", "30"], GenSpec.parse("er:n=30")),
    ])
    def test_writes_what_genspec_builds(self, tmp_path, argv, spec):
        out = tmp_path / "g.txt"
        assert main(["generate", *argv, "--out", str(out)]) == 0
        expected = io.StringIO()
        dump_graph(spec.build(), expected)
        assert out.read_text() == expected.getvalue()

    def test_help_names_genspec_defaults(self, capsys):
        assert main(["generate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for key in ("m", "density", "seed"):
            default = GenSpec._field_defaults[key]
            assert f"--{key} {key.upper()} " in text
            assert f"default {default})" in text, key
        assert GenSpec._field_defaults["alpha"] is None
        assert "extremal (required)" in text

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--gen", "extremal:n=8", "--alphas", "0.5", "--csv",
          "{tmp}/b.csv"], "bad generator spec 'extremal:n=8': extremal "
         "family requires alpha"),
        (["generate", "--family", "extremal", "--n", "8", "--out",
          "{tmp}/g.txt"], "extremal family requires alpha"),
    ], ids=["bench", "generate"])
    def test_extremal_without_alpha_exits_2(self, tmp_path, capsys, argv,
                                            message):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "g.txt").exists()


class TestBench:
    def test_csv_rows_and_equivalence(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--gen", "er:n=12,density=0.5,seed=3",
                   "--alphas", "0.5,0.8", "--algos", "mule,dfs-noip",
                   "--csv", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        by_key = {(r["algo"], r["alpha"]): int(r["count"]) for r in rows}
        for alpha in ("0.5", "0.8"):
            assert by_key[("mule", alpha)] == by_key[("dfs-noip", alpha)]

    def test_min_size_sweep_counts_non_increasing(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--gen", "er:n=12,density=0.8,seed=5",
              "--alphas", "0.2", "--algos", "mule",
              "--min-sizes", "2,3,4,5", "--csv", str(out)])
        with open(out) as fh:
            counts = [int(r["count"]) for r in csv.DictReader(fh)]
        assert counts == sorted(counts, reverse=True)

    def test_requires_some_input(self, tmp_path):
        rc = main(["bench", "--alphas", "0.5",
                   "--csv", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_spec_without_seed_is_labelled_s0(self, tmp_path):
        rows = {}
        for name, spec in (("given", "er:n=14,density=0.6,seed=0"),
                           ("default", "er:n=14,density=0.6")):
            out = tmp_path / f"{name}.csv"
            assert main(["bench", "--gen", spec, "--alphas", "0.3,0.6",
                         "--csv", str(out)]) == 0
            with open(out) as fh:
                assert next(csv.reader(fh)) == umc.cli.CSV_COLUMNS
                fh.seek(0)
                rows[name] = [{k: v for k, v in r.items() if k != "ms"}
                              for r in csv.DictReader(fh)]
        assert rows["default"] == rows["given"]
        assert [r["graph"] for r in rows["given"]] == ["er14-d0.6-s0"] * 2
        assert "seed" not in umc.cli.CSV_COLUMNS

    @pytest.mark.parametrize("later, message", [
        (["--gen", "ba:n=0"], "bad generator spec 'ba:n=0': n must be >= 1"),
        (["--input", "{tmp}/missing.txt"], "cannot read {tmp}/missing.txt: "),
        (["--input", "{tmp}/bad.txt"], "{tmp}/bad.txt: line 1: "
         "expected 'u v p'"),
    ], ids=["spec", "missing-file", "malformed-file"])
    def test_a_graph_that_fails_later_keeps_the_rows_before_it(
            self, path_graph, tmp_path, capsys, later, message):
        """Each graph is made when its rows are due, so one that fails
        exits 2 after the earlier graphs' rows are written."""
        (tmp_path / "bad.txt").write_text("1 2\n")
        out = tmp_path / "b.csv"
        later = [a.format(tmp=tmp_path) for a in later]
        assert main(["bench", "--input", path_graph, *later,
                     "--alphas", "0.5,0.8", "--csv", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(tmp=tmp_path)}")
        assert err.count("\n") == 1
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["graph"], r["alpha"]) for r in rows] == [
            ("path3.txt", "0.5"), ("path3.txt", "0.8")]

    @pytest.mark.parametrize("argv", [
        ["--gen", "xx:n=5"], ["--gen", "ba:n=5,m=1", "--algos", "x"],
        ["--input", "{tmp}/missing.txt", "--alphas", "2"],
    ], ids=["spec", "algos", "alphas"])
    def test_a_refusal_that_needs_no_graph_opens_no_csv(self, tmp_path,
                                                        argv):
        out = tmp_path / "b.csv"
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--alphas" not in argv:
            argv += ["--alphas", "0.5"]
        assert main(["bench", *argv, "--csv", str(out)]) == 2
        assert not out.exists()

    def test_an_input_named_as_the_csv_is_kept(self, path_graph, tmp_path,
                                               capsys):
        # opening the CSV would truncate the graph, here under another name
        (tmp_path / "sub").mkdir()
        other = tmp_path / "sub" / ".." / os.path.basename(path_graph)
        data = Path(path_graph).read_bytes()
        assert main(["bench", "--input", path_graph, "--alphas", "0.5",
                     "--csv", str(other)]) == 2
        assert capsys.readouterr().err == (
            f"error: --csv {other} is also an --input\n")
        assert Path(path_graph).read_bytes() == data


@pytest.mark.parametrize("argv, message", [
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/missing.txt",
      "--alpha", "0.5"], "cannot read"),
    (["enumerate", "--input", "{graph}", "--alpha", "0.5",
      "--out", "{tmp}/no_such_dir/x"], "cannot write"),
    (["generate", "--family", "ba", "--n", "20", "--m", "2",
      "--out", "{tmp}/no_such_dir/x"], "cannot write"),
    (["bench", "--input", "{graph}", "--alphas", "0.5",
      "--csv", "{tmp}/no_such_dir/x"], "cannot write"),
    (["bench", "--input", "{graph}", "--alphas", "x",
      "--csv", "{tmp}/b.csv"], "--alphas: malformed list 'x'"),
    (["bench", "--input", "{graph}", "--alphas", "0.5",
      "--min-sizes", "a", "--csv", "{tmp}/b.csv"],
     "--min-sizes: malformed list 'a'"),
    (["bench", "--input", "{graph}", "--alphas", "0.5",
      "--algos", "large-mule", "--csv", "{tmp}/b.csv"],
     "unknown algorithm 'large-mule'"),
    (["bench", "--gen", "extremal:n=7,alpha=0.5", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"], "bad generator spec"),
    (["bench", "--gen", "xx:n=5", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"],
     "bad generator spec 'xx:n=5': unknown family 'xx'"),
    (["bench", "--gen", "ba:n=0", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"],
     "bad generator spec 'ba:n=0': n must be >= 1"),
    (["generate", "--family", "er", "--n", "0", "--out", "{tmp}/g.txt"],
     "error: n must be >= 1"),
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/repeat.txt",
      "--alpha", "0.5"], "repeat.txt: line 1: malformed clique line"),
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/unknown.txt",
      "--alpha", "0.5"], "unknown.txt: line 1: unknown vertex 9"),
    (["enumerate", "--input", "{tmp}/co.txt", "--prob-model", "coauthor",
      "--alpha", "0.5"],
     "co.txt: line 2: paper count 'x' is not an integer"),
    # Python literal syntax that int() and float() accept
    (["enumerate", "--input", "{tmp}/literal.txt", "--alpha", "0.01"],
     "literal.txt: line 1: '_' or non-ASCII character"),
    (["enumerate", "--input", "{tmp}/plus.txt", "--alpha", "0.01"],
     "plus.txt: line 1: vertex ids must not carry a '+'"),
    (["enumerate", "--input", "{tmp}/co-plus.txt", "--prob-model",
      "coauthor", "--alpha", "0.5"],
     "co-plus.txt: line 1: paper count '+3' is not an integer"),
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/c-under.txt",
      "--alpha", "0.5"], "c-under.txt: line 1: malformed clique line"),
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/c-plus.txt",
      "--alpha", "0.5"], "c-plus.txt: line 2: malformed clique line"),
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/c-digit.txt",
      "--alpha", "0.5"], "c-digit.txt: line 1: malformed clique line"),
    # ... and the same syntax in an option
    (["enumerate", "--input", "{graph}", "--alpha", "0.5_0"],
     "argument --alpha: invalid number value: '0.5_0'"),
    (["enumerate", "--input", "{graph}", "--alpha", "0.5",
      "--min-size", "+1_0"],
     "argument --min-size: invalid integer value: '+1_0'"),
    (["enumerate", "--input", "{graph}", "--alpha", "0.5",
      "--min-size", "+2"],
     "argument --min-size: invalid integer value: '+2'"),
    (["enumerate", "--input", "{graph}", "--alpha", "\u0660.5"],
     "argument --alpha: invalid number value"),
    (["bench", "--input", "{graph}", "--alphas", "0.5_0",
      "--csv", "{tmp}/b.csv"], "--alphas: malformed list '0.5_0'"),
    (["bench", "--input", "{graph}", "--alphas", "0.5",
      "--min-sizes", "1,+2", "--csv", "{tmp}/b.csv"],
     "--min-sizes: malformed list '1,+2'"),
    (["bench", "--gen", "ba:n=2_0,m=2", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"], "bad generator spec 'ba:n=2_0,m=2'"),
    (["enumerate", "--input", "{tmp}/huge.txt", "--alpha", "0.5"],
     f"huge.txt: line 1: vertex count exceeds {sys.maxsize}"),
    # more digits than int() converts
    (["enumerate", "--input", "{tmp}/long-id.txt", "--alpha", "0.5"],
     "long-id.txt: line 1: vertex id of 5000 digits exceeds the "
     f"{sys.get_int_max_str_digits()}-digit limit"),
    (["enumerate", "--input", "{tmp}/co-negative.txt", "--prob-model",
      "coauthor", "--alpha", "0.5"],
     "co-negative.txt: line 1: paper count must be a positive integer, "
     "got -999"),
    # a generator setting is never silently dropped
    (["bench", "--gen", "ba:n=10,n=20,m=2", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"],
     "bad generator spec 'ba:n=10,n=20,m=2': parameter 'n' given twice"),
    (["bench", "--gen", "ba:n=10,m=2,alpha=0.3", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"], "bad generator spec 'ba:n=10,m=2,alpha=0.3': "
     "family 'ba' takes no 'alpha' (only m, seed)"),
    (["generate", "--family", "ba", "--n", "50", "--m", "3", "--density",
      "0.9", "--alpha", "0.2", "--out", "{tmp}/g.txt"],
     "family 'ba' takes no 'density' (only m, seed)"),
    (["generate", "--family", "extremal", "--n", "8", "--alpha", "0.5",
      "--seed", "1", "--out", "{tmp}/g.txt"],
     "family 'extremal' takes no 'seed' (only alpha)"),
    (["bench", "--gen", "er:n=12", "--seed", "4", "--alphas", "0.5",
      "--csv", "{tmp}/b.csv"], "unrecognized arguments: --seed 4"),
    # a line longer than its bound, comments included
    (["enumerate", "--input", "{tmp}/long-line.txt", "--alpha", "0.5"],
     "long-line.txt: line 2: line longer than 65536 characters"),
    (["verify", "--input", "{graph}", "--cliques", "{tmp}/c-long.txt",
      "--alpha", "0.5"], "c-long.txt: line 2: line longer than 65536 "
     "characters"),
    (["enumerate", "--input", "{graph}", "--alpha", "0.5", "--min-size",
      "0"], "--min-size must be >= 1"),
    (["bench", "--input", "{graph}", "--alphas", "0.5", "--min-sizes",
      "1,0", "--csv", "{tmp}/b.csv"], "--min-sizes entries must be >= 1"),
    # an empty path is a file that cannot be written, not stdout
    (["enumerate", "--input", "{graph}", "--alpha", "0.5", "--out", ""],
     "cannot write : "),
], ids=["verify-missing-cliques", "enumerate-out-dir", "generate-out-dir",
        "bench-csv-dir", "bench-alphas", "bench-min-sizes", "bench-large-mule",
        "bench-gen-odd-extremal", "bench-gen-unknown-family", "bench-gen-n-0",
        "generate-n-0",
        "verify-repeated-vertex", "verify-unknown-vertex",
        "enumerate-coauthor-count", "enumerate-underscore", "enumerate-plus",
        "enumerate-coauthor-plus", "verify-underscore", "verify-plus",
        "verify-non-ascii-digit", "option-underscore", "option-plus-underscore",
        "option-plus", "option-non-ascii-digit",
        "bench-alphas-underscore", "bench-min-sizes-plus",
        "bench-gen-underscore", "enumerate-count-beyond-maxsize",
        "enumerate-id-5000-digits", "enumerate-coauthor-negative-5000-digits",
        "bench-gen-repeated-key", "bench-gen-key-not-read",
        "generate-flag-not-read", "generate-extremal-seed", "bench-seed",
        "enumerate-long-line", "verify-long-line", "enumerate-min-size-0",
        "bench-min-sizes-0", "enumerate-out-empty"])
def test_bad_user_input_exits_2(path_graph, tmp_path, capsys, argv, message):
    # a clique line that repeats vertex 3 must not pass as the pair {3, 3}
    (tmp_path / "repeat.txt").write_text("1 3 3\n")
    (tmp_path / "unknown.txt").write_text("1.0 9\n")
    (tmp_path / "co.txt").write_text("1 2 3\n2 3 x\n")
    (tmp_path / "literal.txt").write_text("1_0 2 0.5\n+3 2 0.1_1\n")
    (tmp_path / "plus.txt").write_text("+3 2 0.1\n")
    (tmp_path / "co-plus.txt").write_text("1 2 +3\n")
    (tmp_path / "huge.txt").write_text("n 1" + "0" * 400 + "\n1 2 0.5\n")
    (tmp_path / "long-id.txt").write_text("9" * 5000 + " 2 0.5\n")
    (tmp_path / "co-negative.txt").write_text("1 2 -" + "9" * 5000 + "\n")
    # each line would read as a maximal clique of the path graph
    (tmp_path / "c-under.txt").write_text("0.9_0 1 2\n")
    (tmp_path / "c-plus.txt").write_text("0.9 1 2\n0.8 +2 3\n")
    (tmp_path / "c-digit.txt").write_text("0.8 \u0662 3\n")
    (tmp_path / "long-line.txt").write_text("1 2 0.5\n#" + "x" * 65536)
    (tmp_path / "c-long.txt").write_text("0.9 1 2\n#" + "x" * 65536 + "\n")
    argv = [a.format(graph=path_graph, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


def test_a_comment_may_hold_any_byte(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"# caf\xe9\n1 2 0.5\n")
    assert main(["enumerate", "--input", str(f), "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out == "0.5 1 2\n"


@pytest.mark.parametrize("name, data, message", [
    ("g.txt", b"1 2 0.9\n2 3 0.\xe98\n",
     "g.txt: line 2: '_' or non-ASCII character"),
    ("c.txt", b"0.9 1 2\n0.8 2 \xe93\n", "c.txt: line 2: malformed clique line"),
], ids=["graph", "cliques"])
def test_a_non_ascii_byte_outside_a_comment_exits_2(path_graph, tmp_path,
                                                   capsys, name, data,
                                                   message):
    f = tmp_path / name
    f.write_bytes(data)
    files = {"g.txt": (f, path_graph), "c.txt": (path_graph, f)}[name]
    assert main(["verify", "--input", str(files[0]), "--cliques",
                 str(files[1]), "--alpha", "0.75"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {tmp_path / message}\n"


@pytest.mark.parametrize("flag", ["--input", "--cliques"])
def test_random_bytes_exit_2_without_traceback(path_graph, tmp_path, capsys,
                                               flag):
    noise = tmp_path / "noise.bin"
    noise.write_bytes(random.Random(2000).randbytes(2000))
    files = {"--input": path_graph, "--cliques": path_graph, flag: noise}
    assert main(["verify", "--input", str(files["--input"]), "--cliques",
                 str(files["--cliques"]), "--alpha", "0.5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {noise}")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def byte_files(tmp_path_factory):
    """The path graph, and a file each example overwrites."""
    folder = tmp_path_factory.mktemp("bytes")
    (folder / "path3.txt").write_text(PATH_3)
    return folder / "path3.txt", folder / "data.bin"


# Arbitrary bytes, and text made of the tokens of the two file formats so
# that some examples parse and reach the search or the verdicts.  The only
# header is "n 3": a larger declared count would need a row per vertex.
TOKENS = [b"1", b"2", b"3", b"7", b"0", b"0.5", b".", b"e", b"-", b"+",
          b"_", b"inf", b"nan", b"9" * 30, b" ", b"\t", b"\n", b"\r", b"#",
          b"\x00", b"\xe9", b"n 3\n", b"1 2 0.9\n", b"0.9 1 2\n",
          b"2 3 0.8\n", b"0.8 2 3\n"]
file_bytes = st.binary(max_size=400) | st.lists(
    st.sampled_from(TOKENS), max_size=80).map(b"".join)


@pytest.mark.parametrize("flag", ["--input", "--cliques"])
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=file_bytes)
@example(data=b"# caf\xe9\n1 2 0.5\n")
@example(data=b"1 2 0.5\n\x00\n")
@example(data=random.Random(2000).randbytes(2000))
def test_any_bytes_exit_without_traceback(byte_files, flag, data):
    """Any bytes as the enumerate --input file, or as the verify --cliques
    file against the path graph, end with one stderr line: exit 0, exit 2
    with an error line, or (verify only) exit 1 with the failed verdict.
    stdout is a buffer without a descriptor, so enumerate searches in this
    process."""
    graph, f = byte_files
    f.write_bytes(data)
    if flag == "--input":
        argv = ["enumerate", "--input", str(f), "--alpha", "0.5"]
    else:
        argv = ["verify", "--input", str(graph), "--cliques", str(f),
                "--alpha", "0.5"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    assert err.count("\n") == 1, err
    if rc == 2:
        assert err.startswith("error: ") and out.getvalue() == ""
    elif rc == 1:
        assert flag == "--cliques"
        assert err.startswith("verification failed: ")
    else:
        assert rc == 0, (rc, err)


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    """A header of ten million vertices needs a row per vertex for the
    search.  The child caps its own address space (256 MB, and so its
    memory use), so building them runs it out of memory quickly."""
    graph = tmp_path / "n1e7.txt"
    graph.write_text("n 10000000\n1 2 0.5\n")
    code = ("import resource, sys; from umc.cli import main; "
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20)); "
            f"sys.exit(main(['enumerate', '--input', {str(graph)!r}, "
            "'--alpha', '0.5']))")
    src = str(Path(umc.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_line_is_refused_at_once():
    """/dev/zero is one endless line.  With no resource limit set, the
    reader refuses it after its first 64 KiB, not when memory runs out."""
    code = ("import sys; from umc.cli import main; "
            "sys.exit(main(['enumerate', '--input', '/dev/zero', "
            "'--alpha', '0.5']))")
    src = str(Path(umc.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (
        2, "error: /dev/zero: line 1: line longer than 65536 characters\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_clique_line_is_refused_at_once(tmp_path):
    """Ten million declared vertices and one edge: a clique has at most two
    vertices, so the clique stream's line bound is a graph file's and
    /dev/zero is refused after its first 64 KiB."""
    graph = tmp_path / "wide.txt"
    graph.write_text("n 10000000\n1 2 0.5\n")
    code = ("import sys; from umc.cli import main; "
            f"sys.exit(main(['verify', '--input', {str(graph)!r}, "
            "'--cliques', '/dev/zero', '--alpha', '0.5']))")
    src = str(Path(umc.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (
        2, "error: /dev/zero: line 1: line longer than 65536 characters\n")


def test_commands_without_random_draws_run_without_numpy(tmp_path):
    """enumerate, verify and the extremal generator draw no random number,
    so they run in an interpreter where importing numpy fails."""
    graph = tmp_path / "path3.txt"
    graph.write_text(PATH_3)
    cliques = str(tmp_path / "cliques.txt")
    runs = [
        ["enumerate", "--input", str(graph), "--alpha", "0.5",
         "--out", cliques],
        ["verify", "--input", str(graph), "--cliques", cliques,
         "--alpha", "0.5", "--complete"],
        ["generate", "--family", "extremal", "--n", "8", "--alpha", "0.5",
         "--out", str(tmp_path / "k8.txt")],
    ]
    code = ("import sys; sys.modules['numpy'] = None; "
            "from umc.cli import main; "
            f"print([main(argv) for argv in {runs!r}])")
    src = str(Path(umc.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[0, 0, 0]", out.stderr


def test_enumerate_import_leaves_out_generate_verify_and_bench_modules():
    """umc.generators, umc.oracle and csv serve only generate, bench,
    verify and --prob-model coauthor, which import them; importing umc.cli
    adds none of them, nor dataclasses.  Only the modules the import adds
    count, so one that interpreter start-up loads cannot fail the test."""
    code = ("import sys; before = set(sys.modules); import umc.cli; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(umc.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    added = out.stdout.split()
    assert "umc.cli" in added
    for name in ("umc.generators", "umc.oracle", "dataclasses", "csv"):
        assert name not in added, added


def test_extremal_generate_imports_neither_numpy_nor_dataclasses(tmp_path):
    """The extremal family draws no random number, and no generator type is
    a dataclass, so `umc generate --family extremal` loads neither numpy nor
    dataclasses (which loads inspect).  As above, only the modules the
    command adds count."""
    argv = ["generate", "--family", "extremal", "--n", "8", "--alpha", "0.5",
            "--out", str(tmp_path / "k8.txt")]
    code = ("import sys; before = set(sys.modules); from umc.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, *sorted(set(sys.modules) - before))")
    src = str(Path(umc.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    rc, *added = out.stdout.split()
    assert rc == "0" and "umc.generators" in added, out.stdout
    for name in ("numpy", "dataclasses"):
        assert name not in added, added


REPO = Path(__file__).resolve().parent.parent


def run_in_repo(*argv):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=60)


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/trace_child.py replaces names on umc.cli, umc.algorithms
    and UncertainGraph with timing wrappers.  Installing it must find every
    one of them, so a rename that would break the traced benchmark runs
    fails here first."""
    proc = run_in_repo(
        "-c", "import sys; sys.path.insert(0, 'perfbench'); "
        "import trace_child; trace_child.install(trace_child.Tracer(), True)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("algo, min_size, expected", [
    pytest.param("mule", 3, (1, 3), id="mule"),
    pytest.param("dfs-noip", 3, (1, 3), id="dfs-noip"),
    pytest.param("mule", 1, (2, 3), id="mule-min-size-1"),
])
def test_traced_run_makes_one_search_call(tmp_path, algo, min_size,
                                          expected):
    """A traced run reaches its enumerator through one call, which the
    tracer sees and which counts only the cliques of at least --min-size
    vertices.  At --min-size 1, mule's call of large_mule inside
    umc.algorithms is not a second traced call."""
    paw = tmp_path / "paw.txt"
    paw.write_text("1 2 0.9\n2 3 0.9\n1 3 0.9\n3 4 0.9\n")
    spans = tmp_path / "spans.json"
    proc = run_in_repo("perfbench/trace_child.py", str(spans),
                       "--input", str(paw), "--alpha", "0.5", "--algo", algo,
                       "--min-size", str(min_size),
                       "--out", str(tmp_path / "c.txt"))
    assert proc.returncode == 0, proc.stderr
    searches = [s for s in json.loads(spans.read_text())["spans"]
                if s["name"] == "algorithms.search"]
    assert [(s["cliques"], s["max_size"]) for s in searches] == [expected]
