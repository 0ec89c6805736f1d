"""The package's checks of the paper's results, one registry for the CLI and
the tests.

Each check is a small function that raises CheckFailure with the exact
mismatch detail (down to the offending coefficient).  ``ALL_CHECKS`` is the
one home of every check that sets two routes (brute force, closed forms, the
transfer engine, stored fixtures) against each other; ``colorblocks verify``
runs it, about a second in all.  The test suite runs each check as its own
case, and each entry of ``CHECK_PARTS`` too.  Nothing is built at import time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import closed_forms as cf
from . import fixtures as fx
from . import transfer
from .algebra import LaurentPoly2, RationalGF, bareiss_solve, gf_equal, series_expand
from .algebra import solution_defect
from .combinatorics import (
    binomial,
    partition_count,
    partitions_at_most_k_parts,
    stirling2,
)
from .errors import CheckFailure
from .graphs import (
    Graph,
    SplitMix64,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    grid,
    is_connected,
    parse_graph_spec,
    path,
    perfect_binary_tree,
    random_tree,
    star,
)
from .oracle import (
    _chunk_block_counts,
    _sum_chunks,
    block_count,
    distribution_bruteforce,
    proper_coloring_count,
)
from .polytext import format_poly, parse_poly
from .transfer import (
    color_classes,
    initial_states,
    km_prism_gf,
    prism_distribution,
    prism_expected,
    step,
)


@dataclass(frozen=True)
class Check:
    name: str
    fn: Callable[[], None]


def _expect_equal(got, want, label: str):
    if got != want:
        raise CheckFailure(f"{label}: got {got}, want {want}")


def _expect_poly_equal(got: LaurentPoly2, want: LaurentPoly2, label: str):
    if got == want:
        return
    keys = sorted(set(got.terms) | set(want.terms))
    for key in keys:
        a, b = got.coefficient(*key), want.coefficient(*key)
        if a != b:
            raise CheckFailure(
                f"{label}: coefficient of x^{key[0]}*y^{key[1]} is {a}, want {b}"
            )
    raise CheckFailure(f"{label}: polynomials differ")


def _expect_gf_equal(got: RationalGF, want: RationalGF, label: str):
    if not gf_equal(got, want):
        raise CheckFailure(f"{label}: generating functions differ (cross-multiplication)")


# -- algebra -------------------------------------------------------------------


def check_poly_ring_identities():
    a = parse_poly("2*x*y^2-3*y+1")
    b = parse_poly("x^2-5*y^3+7")
    c = parse_poly("4*y-x*y")
    _expect_poly_equal((a + b) + c, a + (b + c), "associativity")
    _expect_poly_equal(a * (b + c), a * b + a * c, "distributivity")
    _expect_poly_equal(a * b, b * a, "commutativity")
    _expect_poly_equal(parse_poly("(y+1)*(y-1)"), parse_poly("y^2-1"), "product")


def check_series_geometric():
    one = LaurentPoly2.one()
    gf = RationalGF(LaurentPoly2.x(), one - LaurentPoly2.x())
    coeffs = series_expand(gf, 3)
    _expect_equal(
        [format_poly(c) for c in coeffs], ["0", "1", "1", "1"], "series of x/(1-x)"
    )


def check_series_consistency():
    gf = fx.fixture_gf("K4_k2")
    coeffs = series_expand(gf, 8)
    partial = LaurentPoly2.zero()
    for n, c in enumerate(coeffs):
        partial = partial + LaurentPoly2.monomial(n, 0) * c
    residue = gf.den * partial - gf.num
    low = [key for key in residue.terms if key[0] <= 8]
    if low:
        raise CheckFailure(f"den*series - num has low-order terms {sorted(low)[:3]}")
    # two num/den pairs of one series: the matrix form's [x^0] den is y^3,
    # divided out first, and N = 40 crosses several digit widths
    matrix = series_expand(fx.fixture_gf("STAR13_matrix"), 40)
    closed = series_expand(fx.fixture_gf("STAR13_k2"), 40)
    for n, (a, b) in enumerate(zip(matrix, closed)):
        _expect_poly_equal(a, b, f"[x^{n}] of STAR13_matrix vs STAR13_k2")


def check_stirling_and_bell():
    _expect_equal(stirling2(4, 2), 7, "stirling2(4,2)")
    _expect_equal(stirling2(0, 0), 1, "stirling2(0,0)")
    bell = [1]
    for n in range(10):  # independent Bell recurrence
        bell.append(sum(binomial(n, j) * bell[j] for j in range(n + 1)))
    for n in range(11):
        _expect_equal(
            sum(stirling2(n, i) for i in range(n + 1)), bell[n], f"Bell({n})"
        )


def check_partitions():
    _expect_equal([partition_count(i) for i in range(11)],
                  [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42], "partition counts")
    _expect_equal(
        partitions_at_most_k_parts(4, 2), [(4,), (3, 1), (2, 2)], "partitions of 4 into <=2 parts"
    )
    for m in range(21):
        _expect_equal(
            len(partitions_at_most_k_parts(m, max(m, 1))),
            partition_count(m),
            f"unrestricted partitions of {m}",
        )


# -- families vs enumeration ---------------------------------------------------


def _expect_tree_theorem(trees, ks):
    y = LaurentPoly2.y()
    for g, n in trees:
        for k in ks:
            got = distribution_bruteforce(g, k).poly
            label = f"tree n={n} k={k}"
            _expect_poly_equal(got, cf.tree_distribution(n, k).poly, label)
            # the closed form's own product, independent of its binomial terms
            _expect_poly_equal(got, (k * y) * ((k - 1) * y + 1) ** (n - 1), f"{label} power form")


def check_tree_theorem():
    check_tree_theorem_small()
    check_tree_theorem_random()


def check_tree_theorem_small():
    trees = [(path(3), 3), (star(3), 4), (random_tree(7, 11), 7)]
    trees += [(random_tree(n, seed), n) for seed in range(3) for n in (5, 7)]
    _expect_tree_theorem(trees, (2, 3))


def check_tree_theorem_random():
    _expect_tree_theorem([(random_tree(1 + s % 9, s), 1 + s % 9) for s in range(50)], (2, 3, 4))


def check_pbt_lemma():
    displayed = parse_poly("2*y+12*y^2+30*y^3+40*y^4+30*y^5+12*y^6+2*y^7")
    _expect_poly_equal(cf.pbt_distribution(2, 2).poly, displayed, "pbt h=2 closed form")
    check_pbt_lemma_larger([(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (3, 2), (2, 3)])


def check_pbt_lemma_larger(cases=((3, 2), (2, 3))):
    for h, k in cases:
        got = distribution_bruteforce(perfect_binary_tree(h), k).poly
        _expect_poly_equal(got, cf.pbt_distribution(h, k).poly, f"pbt h={h} k={k}")


def check_cycle_theorem():
    _expect_equal(cf.cycle_block_count(5, 4, 2), 10, "cycle count n=5 i=4 k=2")
    for n in range(3, 11):
        for k in (2, 3):
            d = distribution_bruteforce(cycle(n), k)
            _expect_poly_equal(d.poly, cf.cycle_distribution(n, k).poly, f"cycle n={n} k={k}")
            _expect_equal(d.expected(), cf.cycle_expected(n, k), f"cycle mean n={n} k={k}")


def check_walk_counts():
    _expect_equal(cf.closed_walks_complete(3, 3), Fraction(2), "closed walks K_3 len 3")
    _expect_equal(cf.open_walks_complete(3, 2), Fraction(1), "open walks K_3 len 2")
    _expect_equal(cf.open_walks_complete(2, 2), Fraction(0), "open walks K_2 len 2")
    for n in range(3, 13):
        for k in range(1, 6):
            for i in range(2, n + 1):
                recombined = 2 * binomial(n - 1, i - 1) * binomial(k, 2) * cf.open_walks_complete(
                    k, i - 1
                ) + binomial(n - 1, i) * k * cf.closed_walks_complete(k, i)
                _expect_equal(
                    recombined, Fraction(cf.cycle_block_count(n, i, k)), f"walk split n={n} i={i} k={k}"
                )


def check_complete_theorem():
    _expect_equal(cf.complete_block_count(4, 2, 2), 14, "complete count n=4 i=2 k=2")
    for n in range(1, 9):
        for k in (2, 3):
            d = distribution_bruteforce(complete(n), k)
            _expect_poly_equal(d.poly, cf.complete_distribution(n, k).poly, f"complete n={n} k={k}")
            want = k - Fraction((k - 1) ** n, k ** (n - 1))
            _expect_equal(cf.complete_expected(n, k), want, f"complete mean formula n={n} k={k}")
            _expect_equal(d.expected(), want, f"complete mean n={n} k={k}")


def check_bipartite_expectation():
    for n in range(1, 5):
        for m in range(1, 5):
            for k in (2, 3):
                got = distribution_bruteforce(complete_bipartite(n, m), k).expected()
                _expect_equal(got, cf.bipartite_expected(n, m, k), f"bipartite {n},{m} k={k}")
                _expect_equal(
                    cf.bipartite_expected(n, m, k),
                    cf.bipartite_expected(m, n, k),
                    f"bipartite symmetry {n},{m} k={k}",
                )


# -- transfer engine ------------------------------------------------------------


def _expect_series_is_engine(gf: RationalGF, g: Graph, k: int, nmax: int, label: str):
    """The x^n coefficients of gf, n = 0..nmax, are the profile DP's
    distributions of g x path(n) (none at n = 0)."""
    coeffs = series_expand(gf, nmax)
    _expect_poly_equal(coeffs[0], LaurentPoly2.zero(), f"{label} n=0")
    for n in range(1, nmax + 1):
        _expect_poly_equal(coeffs[n], prism_distribution(g, k, n).poly, f"{label} n={n}")
    return coeffs


def _expect_engine_is_bruteforce(cases):
    for g, k, n in cases:
        eng = prism_distribution(g, k, n).poly
        bf = distribution_bruteforce(cartesian_product(g, path(n)), k).poly
        _expect_poly_equal(eng, bf, f"engine vs brute |slice|={g.n} k={k} n={n}")


def check_engine_against_bruteforce():
    # the larger list covers the triangle and star cases this one had
    _expect_engine_is_bruteforce([(path(2), 2, 2), (path(3), 2, 3)])
    check_engine_against_bruteforce_larger()


def check_engine_against_bruteforce_larger():
    _expect_engine_is_bruteforce(
        [(complete(3), 2, n) for n in range(1, 7)]
        + [(g, k, n) for g, k in [(complete(3), 3), (star(3), 2)] for n in range(1, 5)]
    )


def check_engine_mass_conservation():
    for g, k in [(complete(3), 2), (star(3), 2), (cycle(4), 2), (path(3), 3)]:
        states = initial_states(g, k)
        for t in range(4):
            mass = sum((w.evaluate(1, 1) for w in states.values()), Fraction(0))
            _expect_equal(mass, Fraction(k ** ((t + 1) * g.n)), f"mass |slice|={g.n} k={k} t={t}")
            states = step(g, k, states)


def check_complete_slice_states():
    for m, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        states = initial_states(complete(m), k)
        for t in range(1, 4):
            states = step(complete(m), k, states)
            _expect_equal(len(states), k**m, f"reachable profiles K_{m} k={k} step {t}")


def check_lumped_step():
    """The orbit-lumped step equals the general path on symmetric input."""
    # two slices of two components: the first has no merge rows (an old
    # class never spans two components), the second has them in its path
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    path_and_edge = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for g, k in [(star(3), 2), (cycle(4), 3), (path(4), 2), (two_edges, 3), (path_and_edge, 2)]:
        table = transfer._slice_table(g, k)
        op = transfer._operator(g, k)
        states = initial_states(g, k)
        for t in range(1, 4):
            lumped = transfer._lumped_step(op, table, states)
            if lumped is None:
                raise CheckFailure(f"step {t} on {g.n}-vertex slice k={k}: fast path not taken")
            states = transfer._general_step(g.n, table, states)
            differing = sum(1 for p in lumped.keys() | states.keys() if lumped.get(p) != states.get(p))
            _expect_equal(differing, 0, f"profiles where the paths differ, step {t}, {g.n}-vertex slice k={k}")


def check_color_classes():
    classes = color_classes(4, 2)
    _expect_equal([c.size for c in classes], [2, 8, 6], "class sizes (4,2)")
    _expect_equal(len(classes), 3, "class count (4,2)")
    for m in range(1, 7):
        for k in range(1, 5):
            sizes = sum(c.size for c in color_classes(m, k))
            _expect_equal(sizes, k**m, f"class sizes sum m={m} k={k}")


def check_km_system_small():
    one = LaurentPoly2.one()
    x, y = LaurentPoly2.x(), LaurentPoly2.y()
    for k in (2, 3, 5):
        got = km_prism_gf(1, k)
        want = RationalGF(k * x * y, one - x * (1 + (k - 1) * y))
        _expect_gf_equal(got, want, f"single-vertex slice k={k} is the path closed form")
    for k in (2, 3, 4):
        _expect_gf_equal(km_prism_gf(3, k), cf.k3_prism_gf(k), f"reduced system m=3 k={k}")
    for fid in ("K4_k2", "K5_k2", "K4_k3"):
        m, k = fx.fixture_slice_size(fid), fx.fixture_k(fid, None)
        _expect_gf_equal(km_prism_gf(m, k), fx.fixture_gf(fid), f"reduced system vs {fid}")
    for m, k in [(3, 2), (4, 2), (3, 3)]:
        matrix, rhs, weights = transfer.km_transfer_system(m, k)
        for i, row in enumerate(matrix):
            total = sum(cell.evaluate(1, 1) for cell in row)
            _expect_equal(total, k**m, f"row {i} mass m={m} k={k}")
        _expect_equal(sum(weights), k**m, f"class weights m={m} k={k}")
        _expect_equal(len(rhs), len(matrix), f"base vector length m={m} k={k}")
    for m, k in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        den = km_prism_gf(m, k).den
        _expect_poly_equal(den.x_coefficient(0), one, f"denominator constant m={m} k={k}")


def check_km_series_vs_engine():
    for m, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
        label = f"reduced system m={m} k={k}"
        _expect_series_is_engine(km_prism_gf(m, k), complete(m), k, 5, label)


def check_triangle_prism_expectation():
    _expect_equal(prism_expected(complete(3), 2, 4), Fraction(113, 32), "triangle prism mean n=4")
    coeffs = series_expand(cf.k3_prism_gf(2), 10)
    for n in range(1, 11):
        want = Fraction(2) ** (3 * n - 5) * (37 + 19 * n) / Fraction(2) ** (3 * n)
        _expect_equal(prism_expected(complete(3), 2, n), want, f"triangle prism mean n={n}")
        _expect_equal(cf.complete_prism_expected(3, n, 2), want, f"triangle formula mean n={n}")
        from_series = coeffs[n].derivative_y().evaluate(1, 1) / Fraction(2 ** (3 * n))
        _expect_equal(from_series, want, f"triangle series mean n={n}")


def check_k4_prism_expectation():
    _expect_equal(prism_expected(complete(4), 2, 3), Fraction(185, 64), "K4 prism mean n=3")
    for n in range(1, 11):
        want = Fraction(2) ** (4 * n - 7) * (175 + 65 * n) / Fraction(2) ** (4 * n)
        _expect_equal(prism_expected(complete(4), 2, n), want, f"K4 prism mean n={n}")
        _expect_equal(cf.complete_prism_expected(4, n, 2), want, f"K4 formula mean n={n}")


def check_general_prism_expectation():
    for ell in range(1, 9):
        for k in range(1, 6):
            _expect_equal(
                cf.complete_prism_expected(ell, 1, k),
                cf.complete_expected(ell, k),
                f"prism formula at n=1, ell={ell} k={k}",
            )
    check_general_prism_expectation_k4(range(1, 5))
    for ell in range(1, 4):
        for n in (1, 2):
            bf = distribution_bruteforce(cartesian_product(complete(ell), path(n)), 2).expected()
            _expect_equal(
                cf.complete_prism_expected(ell, n, 2), bf, f"prism formula vs brute ell={ell} n={n}"
            )


def check_general_prism_expectation_k4(ells=(4,)):
    for ell in ells:
        for k in (2, 3):
            for n in range(1, 5):
                _expect_equal(
                    cf.complete_prism_expected(ell, n, k),
                    prism_expected(complete(ell), k, n),
                    f"prism formula vs engine ell={ell} k={k} n={n}",
                )


# -- fixtures --------------------------------------------------------------------


def check_fixture_first_coefficients():
    c1 = series_expand(fx.fixture_gf("K4_k2"), 1)[1]
    _expect_poly_equal(c1, parse_poly("2*y+14*y^2"), "4-clique slice x^1")
    c1 = series_expand(fx.fixture_gf("STAR13_k2"), 1)[1]
    _expect_poly_equal(c1, parse_poly("2*y+6*y^2+6*y^3+2*y^4"), "star slice x^1")
    c0 = series_expand(fx.fixture_gf("K3_generic_k", 2), 0)[0]
    _expect_poly_equal(c0, LaurentPoly2.zero(), "x^0 term")


def check_k3_generic_against_display():
    display = RationalGF(
        parse_poly("2*x*y*(1+3*y-x*(3-7*y+4*y^2))"),
        parse_poly("1-x*(4+3*y+y^2)+x^2*(3-7*y+3*y^2+y^3)"),
    )
    _expect_gf_equal(cf.k3_prism_gf(2), display, "triangle slice k=2 display")
    _expect_gf_equal(fx.fixture_gf("K3_generic_k", 2), display, "triangle fixture k=2 display")


def check_fixture_normalization():
    for fid, k in [("K3_generic_k", 2), ("K3_generic_k", 3), ("K4_k2", None), ("STAR13_k2", None)]:
        gf = fx.fixture_gf(fid, k)
        size = fx.fixture_slice_size(fid)
        kk = fx.fixture_k(fid, k)
        coeffs = series_expand(gf, 4)
        for n in range(1, 5):
            _expect_equal(
                coeffs[n].evaluate(1, 1), Fraction(kk ** (size * n)), f"{fid} mass at n={n}"
            )


def check_fixture_series_vs_engine():
    for k in (2, 3):
        _expect_series_is_engine(cf.k3_prism_gf(k), complete(3), k, 4, f"triangle fixture k={k}")
    _expect_series_is_engine(fx.fixture_gf("STAR13_k2"), star(3), 2, 6, "star fixture")
    check_fixture_series_vs_engine_large()


def check_fixture_series_vs_engine_large():
    for fid in ("K4_k2", "K5_k2", "K6_k2", "K4_k3"):
        m, k = fx.fixture_slice_size(fid), fx.fixture_k(fid, None)
        _expect_series_is_engine(fx.fixture_gf(fid), complete(m), k, 5, f"{fid} series")
    for k in (2, 3, 4):
        coeffs = _expect_series_is_engine(
            fx.fixture_gf("K3_generic_k", k), complete(3), k, 8, f"K3_generic_k k={k} series"
        )
        for n in range(1, 9):
            _expect_equal(coeffs[n].evaluate(1, 1), k ** (3 * n), f"K3_generic_k k={k} mass n={n}")
    # the circulated display under the K4_k3 label is the 3-vertex function,
    # so its first coefficient is not the 4-vertex slice's
    display = fx.k4_k3_source_display()
    _expect_gf_equal(display, cf.k3_prism_gf(3), "K4_k3 display erratum")
    c1 = series_expand(display, 1)[1]
    _expect_poly_equal(c1, parse_poly("3*y+18*y^2+6*y^3"), "K4_k3 display x^1")
    if c1 == prism_distribution(complete(4), 3, 1).poly:
        raise CheckFailure("K4_k3 display x^1 equals the 4-vertex slice's")


def check_star_matrix_entries():
    matrix, rhs, combo = fx.star_system()
    _expect_poly_equal(
        matrix[5][3], parse_poly("(3*y^2+2*y+1)/y"), "matrix entry (6,4)"
    )
    _expect_poly_equal(matrix[1][0], LaurentPoly2.zero(), "matrix entry (2,1)")
    _expect_equal(len(matrix), 7, "matrix size")
    _expect_equal([format_poly(b) for b in rhs], ["y^4", "0", "0", "y^3", "0", "y^2", "y"], "base vector")
    _expect_equal(combo, [2, 6, 2, 6, 6, 6, 2], "combination weights")


def check_solve_satisfies_its_system():
    for label, (matrix, rhs, _) in (
        ("star 7x7 system", fx.star_system()),
        ("reduced system m=5 k=3", transfer.km_transfer_system(5, 3)),
    ):
        defect = solution_defect(matrix, rhs, bareiss_solve(matrix, rhs))
        if defect is not None:
            raise CheckFailure(f"{label}: {defect}")


def check_star_system_solution():
    solved = fx.fixture_gf("STAR13_matrix")
    _expect_gf_equal(solved, fx.fixture_gf("STAR13_k2"), "7x7 system vs closed form")


def check_star_expectation():
    for n in range(1, 9):
        formula = (
            Fraction(2254219, 1411200)
            + Fraction(6, 49) * Fraction(1, 2 ** (3 * n))
            - Fraction(2, 225) * Fraction(1, 2 ** (4 * n))
            + Fraction(11933, 13440) * n
        )
        _expect_equal(prism_expected(star(3), 2, n), formula, f"star prism mean n={n}")
    _expect_equal(prism_expected(star(3), 2, 1), Fraction(5, 2), "star prism mean n=1")


def check_star_profile_count():
    _expect_equal(cf.star_profile_count(3), 7, "boundary configurations, 3 leaves")
    _expect_equal(cf.star_profile_count(0), 1, "boundary configurations, 0 leaves")
    _expect_equal(cf.star_profile_count(5), 19, "boundary configurations, 5 leaves")


# -- graphs and properties --------------------------------------------------------


def check_graph_builders():
    _expect_equal(parse_graph_spec("complete:4").edge_count, 6, "complete:4 edges")
    _expect_equal(parse_graph_spec("product(star:3,path:4)").n, 16, "star prism vertices")
    _expect_equal(parse_graph_spec("edges:3:[0-1,1-2]").edges(), [(0, 1), (1, 2)], "edge list")
    g = grid(2, 3)
    _expect_equal((g.n, g.edge_count), (6, 7), "grid(2,3) shape")
    for n in range(1, 30):
        t = random_tree(n, n * 977)
        _expect_equal(t.edge_count, n - 1, f"tree edges n={n}")


def check_distribution_properties():
    pool = [
        (path(5), 2), (path(8), 2), (cycle(6), 2), (cycle(5), 3),
        (complete(4), 2), (complete(4), 3), (complete_bipartite(2, 3), 2),
        (grid(2, 3), 2), (random_tree(9, 5), 2), (star(4), 3),
        (path(6), 2), (path(4), 3), (cycle(5), 2), (cycle(4), 3),
        (complete(3), 3), (star(4), 2), (random_tree(8, 7), 2), (perfect_binary_tree(2), 2),
        (Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]), 2),
        (Graph.from_edges(5, [(0, 1), (2, 3)]), 2),
    ]
    _check_properties(pool, SplitMix64(2024))
    check_distribution_properties_large()


def check_distribution_properties_large():
    pool = []
    for seed in range(40):
        n = 4 + seed % 9
        pool.append((random_tree(n, seed), 2 if n > 11 else 2 + seed % 2))
    pool.append((random_tree(18, 99), 2))  # saturates k^|V| = 2^18
    pool += [(cycle(n), k) for n in range(3, 11) for k in (2, 3)]
    pool += [(complete(n), 2) for n in range(1, 9)] + [(complete(n), 3) for n in range(1, 6)]
    pool += [(complete_bipartite(n, m), 2) for n in range(1, 4) for m in range(1, 4)]
    pool += [(complete_bipartite(n, m), 3) for n, m in [(1, 1), (2, 2), (2, 3)]]
    pool += [(grid(2, m), 2) for m in range(2, 8)] + [(grid(3, 3), 2), (grid(2, 2), 3)]
    pool += [(perfect_binary_tree(h), 2) for h in (1, 2, 3)] + [(perfect_binary_tree(1), 3)]
    pool += [(star(m), 2) for m in range(2, 7)]
    rng = SplitMix64(7)
    for i in range(12):  # connected non-trees: a random tree plus up to three chords
        n = 6 + i % 6
        edges = set(random_tree(n, 1000 + i).edges())
        for _ in range(3):
            u, v = rng.next_below(n), rng.next_below(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        pool.append((Graph.from_edges(n, edges), 2))
    for g, n in [(complete(2), 4), (path(3), 3), (complete(3), 3)]:
        pool.append((cartesian_product(g, path(n)), 2))
    if len(pool) < 100 or max(k**g.n for g, k in pool) != 1 << 18:
        raise CheckFailure(f"pool of {len(pool)} is under 100 instances or not capped at 2^18")
    _check_properties(pool, SplitMix64(2718))


def _check_properties(pool, shuffler: SplitMix64):
    for g, k in pool:
        d = distribution_bruteforce(g, k)
        _expect_equal(d.total(), Fraction(k**g.n), f"mass |V|={g.n} k={k}")
        # both routes weight one first-use prefix per color class by (k)_u
        _expect_equal(
            d.coefficient(g.n), Fraction(proper_coloring_count(g, k)),
            f"top coefficient |V|={g.n} k={k}",
        )
        # one block only when every vertex shares one color and g is connected
        _expect_equal(
            d.coefficient(1), Fraction(k if is_connected(g) else 0),
            f"monochromatic coefficient |V|={g.n} k={k}",
        )
        if k == 2:
            odd = [j for j, c in d.coefficients().items() if c % 2]
            if odd:
                raise CheckFailure(f"odd coefficients at exponents {odd} for |V|={g.n} k=2")
        perm = list(range(g.n))
        shuffler.shuffle(perm)
        relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        _expect_poly_equal(
            distribution_bruteforce(relabeled, k).poly, d.poly, f"relabeled |V|={g.n} k={k}"
        )


def check_bruteforce_kernel():
    pool = [
        (cycle(5), 3), (grid(3, 3), 2), (complete(5), 2),
        # vertex 3 joins two blocks, then reads a neighbour they relabelled
        (Graph.from_edges(5, [(1, 2), (0, 3), (1, 3), (2, 3), (3, 4)]), 3),
        (Graph.from_edges(4, []), 3),
        (Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6)]), 2),
        (path(6), 1),
    ]
    for g, k in pool:
        want: dict[int, int] = {}
        for coloring in itertools.product(range(k), repeat=g.n):
            blocks = block_count(g, coloring)
            want[blocks] = want.get(blocks, 0) + 1
        # the plain tally, the prefix () of weight 1 (all k^n rows in one chunk),
        # against the one modulo color permutations
        plain = {b: c for b, c in enumerate(_sum_chunks(g, k, [((), 1)], _chunk_block_counts)) if c}
        _expect_equal(plain, want, f"plain tally vs union-find |V|={g.n} k={k}")
        for threads in (1, 2):
            got = distribution_bruteforce(g, k, threads=threads).coefficients()
            _expect_equal(got, want, f"brute force vs union-find |V|={g.n} k={k} threads={threads}")


ALL_CHECKS: list[Check] = [
    Check("poly ring identities", check_poly_ring_identities),
    Check("series of x/(1-x)", check_series_geometric),
    Check("series self-consistency", check_series_consistency),
    Check("stirling row sums vs Bell", check_stirling_and_bell),
    Check("partition counts", check_partitions),
    Check("tree closed form", check_tree_theorem),
    Check("binary-tree closed form", check_pbt_lemma),
    Check("cycle closed form", check_cycle_theorem),
    Check("walk-count split", check_walk_counts),
    Check("complete-graph closed form", check_complete_theorem),
    Check("bipartite expectation", check_bipartite_expectation),
    Check("engine vs brute force", check_engine_against_bruteforce),
    Check("engine mass conservation", check_engine_mass_conservation),
    Check("complete-slice state count", check_complete_slice_states),
    Check("orbit-lumped step vs general path", check_lumped_step),
    Check("color classes", check_color_classes),
    Check("reduced system, small slices", check_km_system_small),
    Check("reduced-system series vs engine", check_km_series_vs_engine),
    Check("triangle prism expectation", check_triangle_prism_expectation),
    Check("4-clique prism expectation", check_k4_prism_expectation),
    Check("general prism expectation", check_general_prism_expectation),
    Check("fixture first coefficients", check_fixture_first_coefficients),
    Check("triangle fixture k=2 display", check_k3_generic_against_display),
    Check("fixture normalization", check_fixture_normalization),
    Check("fixture series vs engine", check_fixture_series_vs_engine),
    Check("star matrix entries", check_star_matrix_entries),
    Check("solve satisfies its system", check_solve_satisfies_its_system),
    Check("star 7x7 system solution", check_star_system_solution),
    Check("star prism expectation", check_star_expectation),
    Check("star boundary-state count", check_star_profile_count),
    Check("graph builders and spec parser", check_graph_builders),
    Check("distribution properties", check_distribution_properties),
    Check("brute-force kernel vs union-find", check_bruteforce_kernel),
]

# the case lists that six checks above run one after another; the test suite
# also runs each on its own, so that a failing or slow list shows by name
CHECK_PARTS: list[Check] = [
    Check("tree closed form, small cases", check_tree_theorem_small),
    Check("tree closed form, 50 random trees", check_tree_theorem_random),
    Check("binary-tree closed form, larger", check_pbt_lemma_larger),
    Check("engine vs brute force, larger", check_engine_against_bruteforce_larger),
    Check("general prism expectation, 4-clique", check_general_prism_expectation_k4),
    Check("large-slice fixture series vs engine", check_fixture_series_vs_engine_large),
    Check("distribution properties, 100+ instances", check_distribution_properties_large),
]


def run_suite(checks: list[Check] | None = None, out=print) -> int:
    """Run every check (all of ``ALL_CHECKS`` by default); print one
    PASS/FAIL line each.

    Returns 0 when everything passed, 1 otherwise.
    """
    selected = ALL_CHECKS if checks is None else checks
    failures = 0
    started = time.perf_counter()
    for check in selected:
        t0 = time.perf_counter()
        try:
            check.fn()
        except CheckFailure as exc:
            failures += 1
            out(f"FAIL {check.name}: {exc}")
        else:
            out(f"PASS {check.name} ({(time.perf_counter() - t0) * 1000:.0f} ms)")
    elapsed = time.perf_counter() - started
    out(f"{len(selected) - failures}/{len(selected)} checks passed in {elapsed:.1f} s")
    return 1 if failures else 0
