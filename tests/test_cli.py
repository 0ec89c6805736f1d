import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from colorblocks import cli
from colorblocks import closed_forms as cf
from colorblocks import graphs
from colorblocks import polytext
from colorblocks import transfer

from colorblocks.algebra import LaurentPoly2, RationalGF, series_expand
from colorblocks.cli import main
from colorblocks.fixtures import fixture_gf
from colorblocks.graphs import grid
from colorblocks.oracle import distribution_bruteforce, proper_coloring_count
from colorblocks.verify import ALL_CHECKS, CHECK_PARTS, Check, _expect_poly_equal, run_suite


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "cli_corpus.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def corpus_requests():
    return json.loads(CORPUS.read_text())["requests"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestDist:
    def test_brute_k4(self, capsys):
        doc = run_json(capsys, "dist", "--graph", "complete:4", "--k", "2")
        assert doc["distribution"] == {"1": "2", "2": "14"}
        assert doc["total"] == "16"
        assert doc["expected"] == "15/8"
        assert doc["vertices"] == 4

    def test_round_trip_total(self, capsys):
        doc = run_json(capsys, "dist", "--graph", "grid:2,3", "--k", "2")
        total = sum(int(c) for c in doc["distribution"].values())
        assert total == int(doc["total"]) == 2**6

    def test_transfer_matches_brute_byte_identical(self, capsys):
        brute = run_json(
            capsys, "dist", "--graph", "product(complete:3,path:3)", "--k", "2",
            "--method", "brute",
        )
        transfer = run_json(
            capsys, "dist", "--graph", "product(complete:3,path:3)", "--k", "2",
            "--method", "transfer",
        )
        assert brute["distribution"] == transfer["distribution"]
        assert brute["expected"] == transfer["expected"]

    def test_transfer_needs_prism_or_n(self, capsys):
        code, _, err = run(
            capsys, "dist", "--graph", "complete:3", "--k", "2",
            "--method", "transfer",
        )
        assert code == 2
        assert "product(G,path:n)" in err

    def test_transfer_state_cap(self, capsys):
        code, _, err = run(
            capsys, "dist", "--graph", "product(complete:3,path:3)", "--k", "2",
            "--method", "transfer", "--cap", "4",
        )
        assert code == 3
        assert "cap" in err.lower()

    @pytest.mark.parametrize("argv, message", [
        (["--graph", "grid:2000,2000", "--k", "2"],
         "2^4000000 colorings exceed the enumeration cap 16777216"),
        (["--graph", "product(path:3000000,path:2)", "--k", "2", "--method", "transfer"],
         "slice has 3000000 vertices, cap is 8"),
        (["--graph", "pbt:100000000000", "--k", "2"],
         "pbt at position 0 has more than 9223372036854775807 vertices"),
    ], ids=["brute grid", "transfer long slice", "brute huge pbt"])
    def test_caps_fire_before_any_graph_is_built(self, capsys, monkeypatch, argv, message):
        def no_build(spec):
            raise AssertionError("a graph was built before the cap check")

        monkeypatch.setattr(cli, "build_graph", no_build)
        monkeypatch.setattr(graphs, "build_graph", no_build)
        code, out, err = run(capsys, "dist", *argv)
        assert code == 3 and out == ""
        assert message in err

    def test_closed_methods(self, capsys):
        for spec in ["path:5", "cycle:5", "complete:5", "star:3", "pbt:2"]:
            closed = run_json(
                capsys, "dist", "--graph", spec, "--k", "2", "--method", "closed"
            )
            brute = run_json(capsys, "dist", "--graph", spec, "--k", "2")
            assert closed["distribution"] == brute["distribution"], spec

    def test_closed_prism(self, capsys):
        closed = run_json(
            capsys, "dist", "--graph", "product(complete:3,path:3)", "--k", "2",
            "--method", "closed",
        )
        brute = run_json(
            capsys, "dist", "--graph", "product(complete:3,path:3)", "--k", "2"
        )
        assert closed["distribution"] == brute["distribution"]

    @pytest.mark.parametrize("spec,k,message", [
        ("complete:3", "0", "k must be >= 1"),
        ("complete:3", "-2", "k must be >= 1"),
    ])
    def test_closed_rejects_empty_graphs_and_no_colors(self, capsys, spec, k, message):
        code, out, err = run(capsys, "dist", "--graph", spec, "--k", k, "--method", "closed")
        assert code == 2 and out == ""
        assert message in err

    def test_closed_unknown_family(self, capsys):
        code, _, err = run(
            capsys, "dist", "--graph", "edges:2:[0-1]", "--k", "2", "--method", "closed"
        )
        assert code == 2
        assert "closed" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "dist", "--graph", "cycle:2", "--k", "2")
        assert code == 2 and "cycle" in err

    def test_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "dist", "--graph", "path:30", "--k", "2", "--cap", "1000"
        )
        assert code == 3 and "cap" in err.lower()

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--graph", "complete:4", "--k", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x_exp", "y_exp", "coefficient"]
        assert ["0", "1", "2"] in rows and ["0", "2", "14"] in rows

    def test_decimals(self, capsys):
        doc = run_json(
            capsys, "dist", "--graph", "complete:4", "--k", "2", "--decimals", "6"
        )
        assert doc["expected_decimal"] == "1.875000"
        assert doc["decimal_places"] == 6

    def test_decimals_beyond_the_default_exponent_range(self, capsys):
        places = 1000100
        doc = run_json(
            capsys, "expect", "--graph", "complete:4", "--k", "3", "--decimals", str(places)
        )
        assert doc["expected"] == "65/27"
        whole, _, fraction = doc["expected_decimal"].partition(".")
        assert doc["decimal_places"] == places == len(fraction)
        # 65/27 = 2.407407...: the last place shown is a 0 followed by 7, so it rounds to 1
        assert whole == "2"
        assert fraction[:-1] == ("407" * (places // 3 + 1))[: places - 1]
        assert fraction[-1] == "1"

    def test_decimals_above_the_limit_exit_3_before_any_work(self, capsys, monkeypatch):
        class Reached(Exception):
            pass

        def reached(args):
            raise Reached

        monkeypatch.setattr(cli, "_compute", reached)
        asked = cli.MAX_DECIMALS + 1
        for command in ("dist", "expect"):
            code, out, err = run(
                capsys, command, "--graph", "complete:4", "--k", "2", "--decimals", str(asked)
            )
            assert code == 3 and out == ""
            assert f"--decimals {asked} exceeds the limit {cli.MAX_DECIMALS}" in err
            # the limit itself is allowed through to the computation
            with pytest.raises(Reached):
                main([command, "--graph", "complete:4", "--k", "2",
                      "--decimals", str(cli.MAX_DECIMALS)])


class TestOptionValidation:
    @pytest.mark.parametrize(
        "option, value",
        [
            ("--threads", "0"),
            ("--threads", "-2"),
            ("--threads", "two"),
            ("--decimals", "-3"),
            ("--cap", "-5"),
            ("--cap", "0"),
            ("--cap", str(2**63)),
            ("--cap", str(2**70)),
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, monkeypatch, option, value):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started despite a bad option")

        monkeypatch.setattr(cli, "distribution_bruteforce", no_enumeration)
        for command in ("dist", "expect"):
            code, out, err = run(
                capsys, command, "--graph", "complete:3", "--k", "2",
                "--method", "brute", option, value,
            )
            assert code == 2, (command, option, value)
            assert option in err and out == ""

    def test_largest_cap_is_accepted(self, capsys):
        doc = run_json(capsys, "dist", "--graph", "complete:3", "--k", "2", "--cap", str(2**63 - 1))
        assert doc["total"] == "8"


class TestExpect:
    def test_closed_bipartite(self, capsys):
        doc = run_json(
            capsys, "expect", "--graph", "bipartite:1,3", "--k", "2"
        )
        assert doc["expected"] == "5/2"

    def test_closed_prism(self, capsys):
        doc = run_json(
            capsys, "expect", "--graph", "product(complete:3,path:4)", "--k", "2"
        )
        assert doc["expected"] == "113/32"

    def test_brute_equals_closed(self, capsys):
        closed = run_json(capsys, "expect", "--graph", "cycle:6", "--k", "2")
        brute = run_json(
            capsys, "expect", "--graph", "cycle:6", "--k", "2", "--method", "brute"
        )
        assert closed["expected"] == brute["expected"]

    def test_number_beyond_the_int_str_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        doc = run_json(capsys, "expect", "--graph", "complete:1000", "--k", "1000000")
        assert sys.get_int_max_str_digits() == limit
        num, den = doc["expected"].split("/")
        assert len(num) > 4300
        want = cf.complete_expected(1000, 1000000)
        # Decimal parses and converts digits without the int/str limit
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == want

    def test_vertex_count_beyond_the_int_str_limit(self, capsys):
        # pbt:20000 has 2^20001 - 1 vertices, about 6000 digits
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "expect", "--graph", "pbt:20000", "--k", "2", "--method", "closed")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        doc = json.loads(out, parse_int=polytext._decimal_int)
        assert doc["vertices"] == 2**20001 - 1
        assert Fraction(*map(polytext._decimal_int, doc["expected"].split("/"))) == Fraction(
            2**20001, 2
        )
        code, out, err = run(
            capsys, "expect", "--graph", "pbt:20000", "--k", "2", "--method", "closed", "--format", "csv"
        )
        assert code == 0, err
        rows = dict(csv.reader(io.StringIO(out)))
        assert polytext._decimal_int(rows["vertices"]) == 2**20001 - 1

    def test_unknown_closed_form(self, capsys):
        code, _, err = run(capsys, "expect", "--graph", "product(star:3,path:3)", "--k", "2")
        assert code == 2
        assert "closed-form" in err


@pytest.mark.parametrize("spec, k, methods, message", [
    ("star:0", "2", ("brute", "closed"), None),
    ("grid:0,3", "2", ("brute",), "grid needs m, n >= 1"),
    ("grid:3,0", "2", ("brute",), "grid needs m, n >= 1"),
    ("complete:0", "2", ("brute", "closed"), "complete graph needs n >= 1 (at position 0)"),
    ("product(complete:3,path:0)", "2", ("brute", "transfer", "closed"),
     "path needs n >= 1 (at position 19)"),
    ("product(complete:0,path:2)", "2", ("brute", "transfer", "closed"),
     "complete graph needs n >= 1 (at position 8)"),
    ("product(complete:3,path:2)", "0", ("closed",), "k must be >= 1"),
    ("product(complete:x,path:2)", "2", ("brute", "transfer", "closed"),
     "expected an integer (at position 17)"),
    ("product(cycle:2,path:2)", "2", ("brute", "transfer"), "cycle needs n >= 3 (at position 8)"),
], ids=["star:0", "grid:0,3", "grid:3,0", "complete:0", "product(complete:3,path:0)",
        "product(complete:0,path:2)", "k=0 prism",
        "product(complete:x,path:2)", "product(cycle:2,path:2)"])
def test_routes_agree_at_the_edge_of_a_family(capsys, spec, k, methods, message):
    """`dist` and `expect` by every route give one answer, or exit 2 with one message."""
    answers = set()
    for command in ("dist", "expect"):
        for method in methods:
            code, out, err = run(capsys, command, "--graph", spec, "--k", k, "--method", method)
            if message is None:
                assert code == 0, err
                doc = json.loads(out)
                answers.add((command, json.dumps(doc.get("distribution")), doc["expected"]))
            else:
                assert code == 2 and out == ""
                answers.add(err)
    if message is None:
        assert answers == {("dist", '{"1": "2"}', "1"), ("expect", "null", "1")}
    else:
        (err,) = answers
        assert message in err


def run_fresh(source: str):
    """The JSON that ``source`` prints as its last line, run in a fresh
    interpreter that imports colorblocks from this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdImports:
    def test_requests_off_the_brute_route_load_no_numpy_or_verify(self):
        loaded = run_fresh("""
            import contextlib, io, json, sys
            import colorblocks, colorblocks.cli
            for argv in (
                ["dist", "--graph", "product(cycle:4,path:3)", "--k", "3", "--method", "transfer"],
                ["expect", "--graph", "complete:5", "--k", "3", "--method", "closed"],
                ["gf", "--m", "4", "--k", "2"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert colorblocks.cli.main(argv) == 0, argv
            print(json.dumps([name for name in ("numpy", "colorblocks.verify") if name in sys.modules]))
        """)
        assert loaded == []

    @pytest.mark.parametrize("first", ["threads=2", "proper"])
    def test_brute_force_leaves_numpy_unloaded(self, first):
        # the bit-sliced kernel works on Python ints, in whichever order the calls come
        order = [first, *(name for name in ("threads=2", "threads=1", "proper") if name != first)]
        results = run_fresh(f"""
            import json, sys
            from colorblocks import distribution_bruteforce, grid, proper_coloring_count
            calls = {{
                "threads=2": lambda: distribution_bruteforce(grid(3, 3), 2, threads=2).coefficients(),
                "threads=1": lambda: distribution_bruteforce(grid(3, 3), 2, threads=1).coefficients(),
                "proper": lambda: proper_coloring_count(grid(3, 3), 3),
            }}
            results = {{name: calls[name]() for name in {order!r}}}
            results["numpy loaded"] = "numpy" in sys.modules
            print(json.dumps(results))
        """)
        assert results.pop("numpy loaded") is False
        assert results["threads=2"] == results["threads=1"]
        want = distribution_bruteforce(grid(3, 3), 2).coefficients()
        assert results["threads=1"] == {str(j): c for j, c in want.items()}
        assert results["proper"] == proper_coloring_count(grid(3, 3), 3) == 246


class TestSeries:
    def test_k4_first_coefficient(self, capsys):
        doc = run_json(capsys, "series", "--fixture", "K4_k2", "--N", "1")
        assert doc["series"]["1"] == {"1": "2", "2": "14"}

    def test_star_first_coefficient(self, capsys):
        doc = run_json(capsys, "series", "--fixture", "STAR13_k2", "--N", "1")
        assert doc["series"]["1"] == {"1": "2", "2": "6", "3": "6", "4": "2"}

    def test_star_matrix_fixture_has_the_star_series(self, capsys):
        # its [x^0] denominator coefficient is y^3, which series_expand divides out
        matrix = run_json(capsys, "series", "--fixture", "STAR13_matrix", "--N", "6")
        closed = run_json(capsys, "series", "--fixture", "STAR13_k2", "--N", "6")
        assert matrix["series"] == closed["series"]

    def test_generic_triangle_constant_term(self, capsys):
        doc = run_json(
            capsys, "series", "--fixture", "K3_generic_k", "--k", "2", "--N", "0"
        )
        assert doc["series"]["0"] == {}

    def test_cap_on_n(self, capsys):
        code, _, _ = run(capsys, "series", "--fixture", "K4_k2", "--N", "65")
        assert code == 2

    @pytest.mark.parametrize("value", ["65", "-1"])
    def test_n_out_of_range_names_the_option_and_the_value(self, capsys, value):
        code, out, err = run(capsys, "series", "--fixture", "K4_k2", "--N", value)
        assert code == 2 and out == ""
        assert f"argument --N: must be in 0..64, got {value}" in err

    def test_unknown_fixture_rejected_by_argparse(self, capsys):
        code, _, _ = run(capsys, "series", "--fixture", "K9", "--N", "1")
        assert code == 2

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "series", "--fixture", "K4_k2", "--N", "1", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x_exp", "y_exp", "coefficient"]
        assert ["1", "2", "14"] in rows


class TestGf:
    def test_fixture_text(self, capsys):
        from colorblocks.polytext import parse_poly, poly_from_json

        doc = run_json(capsys, "gf", "--fixture", "K4_k2")
        gf = fixture_gf("K4_k2")
        assert parse_poly(doc["num"].replace(" ", "")) == gf.num
        assert parse_poly(doc["den"].replace(" ", "")) == gf.den
        assert poly_from_json(doc["num_terms"]) == gf.num
        assert poly_from_json(doc["den_terms"]) == gf.den

    def test_km(self, capsys):
        doc = run_json(capsys, "gf", "--m", "3", "--k", "2")
        from colorblocks.polytext import parse_poly
        from colorblocks.algebra import gf_equal
        from colorblocks import closed_forms as cf

        got = RationalGF(
            parse_poly(doc["num"].replace(" ", "")),
            parse_poly(doc["den"].replace(" ", "")),
        )
        assert gf_equal(got, cf.k3_prism_gf(2))

    def test_needs_target(self, capsys):
        code, _, _ = run(capsys, "gf", "--k", "2")
        assert code == 2

    def test_dimension_limit_exits_3(self, capsys):
        code, out, err = run(capsys, "gf", "--m", "9", "--k", "9")
        assert code == 3 and out == ""
        assert "system dimension 30 exceeds limit 16" in err

    def test_dimension_limit_precedes_enumeration(self, capsys, monkeypatch):
        def no_enumeration(m, k):
            raise AssertionError("colorings enumerated despite the dimension limit")

        monkeypatch.setattr(transfer, "km_transfer_system", no_enumeration)
        for argv in (
            ["gf", "--m", "9", "--k", "9"],
            ["dist", "--graph", "product(complete:9,path:2)", "--k", "9", "--method", "closed"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 3 and "exceeds limit 16" in err, argv

    def test_large_slice_rejected_before_listing_classes(self, capsys, monkeypatch):
        def no_listing(m, k):
            raise AssertionError("color classes listed for a slice past the bound")

        monkeypatch.setattr(transfer, "color_classes", no_listing)
        code, _, err = run(capsys, "gf", "--m", "200", "--k", "200")
        assert code == 3 and "at least 200" in err

    def test_coloring_count_capped_before_enumeration(self, capsys, monkeypatch):
        def no_enumeration(m, k):
            raise AssertionError("colorings enumerated past the state cap")

        monkeypatch.setattr(transfer, "km_transfer_system", no_enumeration)
        code, out, err = run(capsys, "gf", "--m", "6", "--k", "100")
        assert code == 3 and out == ""
        assert "100^6" in err and str(transfer.DEFAULT_STATE_CAP) in err

    def test_large_k_rejected_before_listing_classes(self, capsys, monkeypatch):
        def no_listing(m, k):
            raise AssertionError("color classes listed past the state cap")

        monkeypatch.setattr(transfer, "color_classes", no_listing)
        code, out, err = run(capsys, "gf", "--m", "1", "--k", "1000000000")
        assert code == 3 and out == ""
        assert "1000000000^1" in err

    @pytest.mark.parametrize("m,k", [("0", "2"), ("2", "0"), ("-3", "5")])
    def test_nonpositive_m_or_k_is_usage_error(self, capsys, m, k):
        code, out, err = run(capsys, "gf", "--m", m, "--k", k)
        assert code == 2 and out == ""
        assert "m and k must be >= 1" in err

    @pytest.mark.parametrize("m", ["17", "100000000", "1000000000000"])
    def test_slice_size_capped_before_listing_classes(self, capsys, monkeypatch, m):
        def no_listing(m, k):
            raise AssertionError("color classes listed past the slice-size cap")

        monkeypatch.setattr(transfer, "color_classes", no_listing)
        code, out, err = run(capsys, "gf", "--m", m, "--k", "1")
        assert code == 3 and out == ""
        assert m in err and "16" in err and str(transfer.DEFAULT_STATE_CAP) in err

    def test_slice_size_cap_is_inclusive(self, capsys):
        doc = run_json(capsys, "gf", "--m", "16", "--k", "1")
        assert doc["num"] == "x*y" and doc["den"] == "-x + 1"


class TestClasses:
    def test_example(self, capsys):
        doc = run_json(capsys, "classes", "--m", "4", "--k", "2")
        assert doc["count"] == 3
        assert [c["size"] for c in doc["classes"]] == ["2", "8", "6"]
        assert sum(int(c["size"]) for c in doc["classes"]) == int(doc["total"])

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "classes", "--m", "4", "--k", "2", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["parts", "size", "support"]
        assert ["3+1", "8", "2"] in rows


    @pytest.mark.parametrize(
        "m,k", [("1000000000", "1"), ("1000000000", "2"), ("1000000000", "3"), ("1", "100000")]
    )
    def test_listing_rejected_from_lower_bound(self, capsys, monkeypatch, m, k):
        def no_count(m, k):
            raise AssertionError("classes counted past the lower bound")

        def no_listing(m, k):
            raise AssertionError("classes listed past the state cap")

        monkeypatch.setattr(cli, "partition_count_at_most_k_parts", no_count)
        monkeypatch.setattr(cli, "color_classes", no_listing)
        code, out, err = run(capsys, "classes", "--m", m, "--k", k)
        assert code == 3 and out == ""
        assert "at least" in err and str(transfer.DEFAULT_STATE_CAP) in err

    def test_listing_rejected_from_exact_count(self, capsys, monkeypatch):
        def no_listing(m, k):
            raise AssertionError("classes listed past the state cap")

        monkeypatch.setattr(cli, "color_classes", no_listing)
        code, out, err = run(capsys, "classes", "--m", "40", "--k", "40")
        # p(40) = 37338 classes of 40 + 40 entries
        assert code == 3 and out == ""
        assert "2987040 entries" in err and str(transfer.DEFAULT_STATE_CAP) in err

    def test_listing_at_the_cap_is_accepted(self, capsys):
        # one class of 1 + 65535 entries
        doc = run_json(capsys, "classes", "--m", "1", "--k", "65535")
        assert doc["count"] == 1 and doc["classes"][0]["size"] == "65535"

    @pytest.mark.parametrize("m,k", [("0", "2"), ("2", "0"), ("-3", "5")])
    def test_nonpositive_m_or_k_is_usage_error(self, capsys, m, k):
        code, out, err = run(capsys, "classes", "--m", m, "--k", k)
        assert code == 2 and out == ""
        assert "m and k must be >= 1" in err


# options that dist and verify no longer take
REMOVED_FLAG_ARGVS = [
    ["dist", "--graph", "complete:3", "--k", "2", "--method", "transfer", "--n", "4"],
    ["verify", "--suite", "quick"],
    ["dist", "--graph", "complete:3", "--k", "2", "--threads", "2"],
]
EDGE_ARGVS = [
    *REMOVED_FLAG_ARGVS,
    [],
    ["-h"],
    *([command, "-h"] for command in ("dist", "expect", "series", "gf", "classes", "verify")),
    ["bogus"],
    ["dist", "--graph", "complete:4", "--k", "2", "--bogus"],
    ["dist", "--k", "2"],
    ["dist", "--graph", "complete:4", "--k", "2", "--threads", "0"],
]


class TestParser:
    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["colorblocks", "classes", "--m", "4", "--k", "2"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    @pytest.mark.parametrize("argv", REMOVED_FLAG_ARGVS, ids=" ".join)
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_corpus_outputs_match_stored(capsys):
    mismatched = []
    for request in corpus_requests():
        argv = request["argv"]
        code, out, _ = run(capsys, *argv)
        if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
            output = [row for row in csv.reader(io.StringIO(out)) if row[:1] != ["elapsed_ms"]]
        else:
            output = json.loads(out)
            output.pop("elapsed_ms", None)
        if (code, output) != (request["exit_code"], request["output"]):
            mismatched.append(argv)
    assert not mismatched


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == len(ALL_CHECKS) == 33
        assert "FAIL" not in out

    def test_induced_failure_reports_coefficient(self):
        # negative control: a corrupted fixture coefficient must fail loudly
        def corrupted_check():
            gf = fixture_gf("K4_k2")
            bad = RationalGF(gf.num + LaurentPoly2.monomial(1, 2, 1), gf.den)
            _expect_poly_equal(
                series_expand(bad, 1)[1],
                series_expand(gf, 1)[1],
                "corrupted fixture",
            )

        lines = []
        code = run_suite(checks=[Check("corrupted fixture", corrupted_check)], out=lines.append)
        assert code == 1
        report = "\n".join(lines)
        assert "FAIL corrupted fixture" in report
        assert "coefficient" in report and "15" in report and "14" in report

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2

    @pytest.mark.parametrize("check", ALL_CHECKS + CHECK_PARTS, ids=lambda check: check.name)
    def test_check(self, check):
        started = time.perf_counter()
        check.fn()
        assert time.perf_counter() - started < 20  # the tightest acceptance runtime cap


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


class TestUsageConflicts:
    @pytest.mark.parametrize("command", ["gf", "series"])
    def test_fixed_k_fixture_rejects_k(self, capsys, command):
        extra = ("--N", "2") if command == "series" else ()
        code, out, err = run(capsys, command, "--fixture", "K4_k2", "--k", "5", *extra)
        assert code == 2 and out == ""
        assert "does not take a k" in err

    def test_gf_generic_fixture_still_takes_k(self, capsys):
        doc = run_json(capsys, "gf", "--fixture", "K3_generic_k", "--k", "3")
        assert doc["fixture"] == "K3_generic_k" and doc["k"] == 3

    @pytest.mark.parametrize("fixture", ["K4_k2", "K3_generic_k"])
    def test_gf_fixture_and_m_conflict(self, capsys, monkeypatch, fixture):
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite --fixture with --m")

        monkeypatch.setattr(cli, "km_prism_gf", no_work)
        monkeypatch.setattr(cli, "fixture_gf", no_work)
        code, out, err = run(capsys, "gf", "--fixture", fixture, "--m", "3", "--k", "2")
        assert code == 2 and out == ""
        assert "--fixture" in err and "--m" in err


_FLAGS = sorted({option[0] for _, _, options in cli._COMMANDS.values() for option in options})
# values each flag accepts, for well-formed argv
_GOOD = {
    "--graph": ["complete:3", "path:2", "product(complete:2,path:2)", "bogus", ""],
    "--k": ["1", "2", "3", " 2", "+2"],
    "--method": ["brute", "transfer", "closed"],
    "--cap": ["1", "100", str(2**63 - 1)],
    "--decimals": ["0", "3"],
    "--format": ["json", "csv"],
    "--fixture": ["K4_k2", "K3_generic_k"],
    "--N": ["0", "2"],
    "--m": ["1", "3"],
}
_MALFORMED = ["--gra", "--g", "--for", "--graph=complete:3", "--k=2", "-h", "--help", "--",
              "-k", "--bogus", "-", "-1", "-2", "x", "2.5", "", "xml", str(2**63)]
_TOKENS = _FLAGS + _MALFORMED + sorted({value for values in _GOOD.values() for value in values})


@st.composite
def cli_argvs(draw, commands=tuple(cli._COMMANDS)):
    """A well-formed request (a subcommand, then its required options and
    some optional ones, in any order), then up to three edits: a token
    inserted, deleted or replaced, or a flag repeated."""
    command = draw(st.sampled_from(commands))
    pairs = [
        [flag, draw(st.sampled_from(_GOOD[flag]))]
        for flag, _, required, *_ in cli._COMMANDS[command][2]
        if required or draw(st.booleans())
    ]
    argv = [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("insert", "delete", "replace", "repeat")))
        position = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(_TOKENS))
        if edit == "insert":
            argv.insert(position, token)
        elif edit == "delete" and position < len(argv):
            del argv[position]
        elif edit == "replace" and position < len(argv):
            argv[position] = token
        elif edit == "repeat" and pairs:
            argv += draw(st.sampled_from(pairs))[:1] + [token]
    return argv


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    masked = re.sub(r'("elapsed_ms": |elapsed_ms,)\d+', r"\1_", out.getvalue())
    return code, masked, err.getvalue()


class TestPlainParser:
    @settings(max_examples=300, deadline=None)
    @given(cli_argvs())
    def test_plain_namespace_equals_argparse(self, argv):
        plain = cli._parse_plain(argv)
        if plain is not None:
            with contextlib.redirect_stderr(io.StringIO()):
                assert plain == cli._build_parser().parse_args(argv), argv

    # verify is left out: a well-formed verify request runs the whole suite
    @settings(max_examples=150, deadline=None)
    @given(cli_argvs(commands=("dist", "expect", "series", "gf", "classes")))
    def test_main_output_is_the_same_without_the_plain_path(self, argv):
        plain = _main_output(argv)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_parse_plain", lambda argv: None)
            assert _main_output(argv) == plain, argv

    def test_corpus_takes_the_plain_path(self):
        for request in corpus_requests():
            argv = request["argv"]
            plain = cli._parse_plain(argv)
            assert plain is not None, argv
            assert plain == cli._build_parser().parse_args(argv), argv

    @pytest.mark.parametrize("argv", EDGE_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
    def test_edge_argv_goes_to_argparse(self, argv):
        assert cli._parse_plain(argv) is None
