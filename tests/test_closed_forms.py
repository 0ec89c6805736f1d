"""Closed forms: worked values, preconditions and the spec table.

Every cross-check of a formula against brute force, the transfer engine or a
stored fixture is a check of ``colorblocks.verify.ALL_CHECKS``, which
``tests/test_cli.py::TestVerify::test_check`` runs once each.
"""

from fractions import Fraction

import pytest

from colorblocks import closed_forms as cf
from colorblocks.algebra import LaurentPoly2
from colorblocks.combinatorics import binomial
from colorblocks.errors import GraphSpecError
from colorblocks.graphs import (
    complete,
    cycle,
    parse_graph_spec,
    path,
    perfect_binary_tree,
    random_tree,
    star,
)
from colorblocks.oracle import distribution_bruteforce
from colorblocks.polytext import parse_poly


class TestTrees:
    def test_single_vertex(self):
        assert cf.tree_distribution(1, 3).poly == parse_poly("3*y")

    def test_three_vertices(self):
        want = parse_poly("2*y^3+4*y^2+2*y")
        assert cf.tree_distribution(3, 2).poly == want
        assert distribution_bruteforce(path(3), 2).poly == want
        assert distribution_bruteforce(star(2), 2).poly == want

    def test_binomial_terms_match_repeated_squaring(self):
        y = LaurentPoly2.y()
        for k in (1, 2, 3, 7):
            for n in (1, 2, 3, 10, 33, 64):
                got = cf.tree_distribution(n, k).poly
                assert got.terms == ((k * y) * ((k - 1) * y + 1) ** (n - 1)).terms
        assert cf.tree_distribution(50, 1).poly.terms == {(0, 1): 1}

    def test_expected(self):
        assert cf.tree_expected(1, 5) == 1
        assert cf.tree_expected(3, 2) == 2
        assert cf.tree_expected(10, 4) == Fraction(31, 4)
        got = distribution_bruteforce(random_tree(10, 123), 4).expected()
        assert got == Fraction(31, 4)


class TestPerfectBinaryTrees:
    def test_base(self):
        assert cf.pbt_distribution(0, 2).poly == parse_poly("2*y")

    def test_displayed_polynomial(self):
        assert cf.pbt_distribution(2, 2).poly == parse_poly(
            "2*y+12*y^2+30*y^3+40*y^4+30*y^5+12*y^6+2*y^7"
        )

    def test_three_vertices_three_colors(self):
        want = parse_poly("3*y*(2*y+1)^2")
        assert cf.pbt_distribution(1, 3).poly == want
        assert distribution_bruteforce(perfect_binary_tree(1), 3).poly == want

    def test_matches_tree_formula(self):
        for k in (2, 3):
            for h in range(7):
                assert (
                    cf.pbt_distribution(h, k).poly
                    == cf.tree_distribution(2 ** (h + 1) - 1, k).poly
                )
        for h in range(11):  # pure formula identity, no enumeration
            assert (
                cf.pbt_distribution(h, 2).poly
                == cf.tree_distribution(2 ** (h + 1) - 1, 2).poly
            )

    def test_expected(self):
        assert cf.pbt_expected(0, 4) == 1
        assert cf.pbt_expected(1, 2) == cf.tree_expected(3, 2) == 2
        assert cf.pbt_expected(3, 2) == cf.tree_expected(15, 2) == 8


class TestCycles:
    def test_counts(self):
        assert cf.cycle_block_count(5, 4, 2) == 10
        for n in (3, 5, 8):
            for k in (1, 2, 4):
                assert cf.cycle_block_count(n, 1, k) == k
        assert cf.cycle_block_count(6, 3, 2) == 0

    def test_triangle_equals_complete(self):
        for k in (2, 3, 4):
            assert cf.cycle_distribution(3, k).poly == cf.complete_distribution(3, k).poly

    def test_normalization(self):
        for n in (3, 6, 9):
            for k in (2, 3):
                assert cf.cycle_distribution(n, k).total() == k**n

    def test_expected_values(self):
        assert cf.cycle_expected(3, 2) == Fraction(7, 4)
        assert cf.cycle_expected(4, 2) == Fraction(17, 8)
        assert cf.cycle_expected(4, 2) == distribution_bruteforce(cycle(4), 2).expected()
        assert cf.cycle_expected(5, 1) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cf.cycle_distribution(2, 2)
        with pytest.raises(ValueError):
            cf.cycle_block_count(5, 0, 2)


class TestWalkCounts:
    def test_closed(self):
        assert cf.closed_walks_complete(2, 2) == 1
        assert cf.closed_walks_complete(5, 0) == 1
        assert cf.closed_walks_complete(3, 3) == 2

    def test_open(self):
        assert cf.open_walks_complete(2, 1) == 1
        assert cf.open_walks_complete(3, 2) == 1
        assert cf.open_walks_complete(2, 2) == 0

    def test_counts_are_ints_checked_without_assert(self):
        for m in range(1, 6):
            for length in range(1, 6):
                assert type(cf.closed_walks_complete(m, length)) is int
                assert type(cf.open_walks_complete(m, length)) is int
        # the exactness check is a raise, which python -O keeps
        with pytest.raises(ArithmeticError):
            cf._walk_count(7, 2)

    def test_walks_count_actual_walks(self):
        # length-3 closed walks in the 4-clique, counted by brute force
        import itertools

        m, length = 4, 3
        closed = sum(
            1
            for w in itertools.product(range(m), repeat=length + 1)
            if w[0] == w[-1] and all(a != b for a, b in zip(w, w[1:]))
        )
        assert cf.closed_walks_complete(m, length) * m == closed

    def test_recombination_identity(self):
        # block i of the cycle colorings splits by whether vertex 0 shares a
        # block with its neighbour; checked against enumeration
        for n in range(3, 8):
            for k in (2, 3):
                d = distribution_bruteforce(cycle(n), k)
                for i in range(2, n + 1):
                    split = 2 * binomial(n - 1, i - 1) * binomial(k, 2) * cf.open_walks_complete(
                        k, i - 1
                    ) + binomial(n - 1, i) * k * cf.closed_walks_complete(k, i)
                    assert split == d.coefficient(i)


class TestComplete:
    def test_counts(self):
        assert cf.complete_block_count(4, 2, 2) == 14
        assert cf.complete_block_count(3, 3, 3) == 6
        for n in (1, 4, 7):
            for k in (2, 5):
                assert cf.complete_block_count(n, 1, k) == k
        assert cf.complete_block_count(3, 4, 9) == 0
        assert cf.complete_block_count(3, 2, 1) == 0

    def test_distribution_examples(self):
        assert cf.complete_distribution(4, 2).poly == parse_poly("2*y+14*y^2")
        assert cf.complete_distribution(1, 7).poly == parse_poly("7*y")
        assert (
            cf.complete_distribution(5, 3).poly
            == distribution_bruteforce(complete(5), 3).poly
        )

    def test_expected_values(self):
        assert cf.complete_expected(1, 9) == 1
        assert cf.complete_expected(4, 2) == Fraction(15, 8)
        assert cf.complete_expected(3, 3) == Fraction(19, 9)


class TestBipartite:
    def test_edge_case_is_tree(self):
        assert cf.bipartite_expected(1, 1, 2) == Fraction(3, 2)

    def test_star_value(self):
        assert cf.bipartite_expected(1, 3, 2) == Fraction(5, 2)
        assert distribution_bruteforce(star(3), 2).expected() == Fraction(5, 2)

    def test_symmetry(self):
        for n in range(1, 8):
            for m in range(1, 8):
                for k in range(1, 6):
                    assert cf.bipartite_expected(n, m, k) == cf.bipartite_expected(m, n, k)


class TestCompletePrism:
    def test_reduces_to_complete_at_one_slice(self):
        for m in range(1, 7):
            for k in range(1, 6):
                assert cf.complete_prism_expected(m, 1, k) == cf.complete_expected(m, k)


class TestStarProfileCount:
    def test_values(self):
        assert [cf.star_profile_count(m) for m in range(7)] == [1, 2, 4, 7, 12, 19, 30]


class TestSpecTable:
    @pytest.mark.parametrize("spec", [
        "path:5", "cycle:5", "complete:4", "star:3", "pbt:2", "bipartite:2,3",
        "product(complete:3,path:3)",
    ])
    def test_every_form_matches_bruteforce(self, spec):
        g = parse_graph_spec(spec)
        brute = distribution_bruteforce(g, 2)
        assert cf.closed_form(spec, 2, "expectation") == (brute.expected(), g.n)
        found = cf.closed_form(spec, 2, "distribution")
        if spec.startswith("bipartite"):
            assert found is None
        else:
            dist, vertices = found
            assert dist.poly == brute.poly and vertices == dist.vertex_count == g.n

    @pytest.mark.parametrize("spec", [
        "edges:2:[0-1]", "product(star:3,path:3)", "grid:2,3", "product(complete:3,cycle:3)",
    ])
    def test_unrecognized_specs(self, spec):
        assert cf.closed_form(spec, 2, "expectation") is None
        assert cf.closed_form(spec, 2, "distribution") is None

    @pytest.mark.parametrize("spec", ["path:x", "path:", "bipartite:1,2,3", "bipartite:1,"])
    def test_malformed_specs_get_the_parser_error(self, spec):
        with pytest.raises(GraphSpecError) as parsed:
            parse_graph_spec(spec)
        for kind in ("expectation", "distribution"):
            with pytest.raises(GraphSpecError) as exc:
                cf.closed_form(spec, 2, kind)
            assert str(exc.value) == str(parsed.value)
            assert exc.value.position == parsed.value.position

    def test_formulas_are_looked_up_when_called(self, monkeypatch):
        # tracers rebind module attributes; the table must reach the rebound one
        calls = []
        original = cf.tree_distribution

        def recorded(n, k):
            calls.append((n, k))
            return original(n, k)

        monkeypatch.setattr(cf, "tree_distribution", recorded)
        cf.closed_form("star:3", 2, "distribution")
        assert calls == [(4, 2)]
