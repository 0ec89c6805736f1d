import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from colorblocks.algebra import (
    LaurentPoly2,
    RationalGF,
    bareiss_solve,
    gf_equal,
    series_expand,
    weighted_solution_gf,
)
from colorblocks import algebra
from colorblocks.algebra import _bareiss_det, _div_exact, solution_defect
from colorblocks.algebra import _SHIFT_SUM_BITS, _pack, _unpack
from colorblocks.errors import DimensionLimitError
from colorblocks.fixtures import fixture_gf, star_system
from colorblocks.polytext import parse_poly
from colorblocks.transfer import km_prism_gf, km_transfer_system

ONE = LaurentPoly2.one()
X = LaurentPoly2.x()
Y = LaurentPoly2.y()


def P(text: str) -> LaurentPoly2:
    return parse_poly(text)


class TestPolyArithmetic:
    def test_add_inverse(self):
        assert Y + (-Y) == LaurentPoly2.zero()
        assert not (Y + (-Y))

    def test_add_identity(self):
        p = P("2*y+2*y^2")
        assert p + LaurentPoly2.zero() == p

    def test_add_merges_terms(self):
        # k*y plus (k-1)*n*y at k=2, n=3
        assert 2 * Y + 3 * Y == P("5*y")

    def test_mul_difference_of_squares(self):
        assert (Y + 1) * (Y - 1) == P("y^2-1")

    def test_mul_laurent(self):
        assert LaurentPoly2.monomial(0, -2) * P("y^2+1") == P("1+y^-2")

    def test_mul_tree_shape(self):
        assert 2 * Y * (Y + 1) ** 2 == P("2*y^3+4*y^2+2*y")

    def test_pow_zero(self):
        assert (Y + 1) ** 0 == ONE

    def test_pow_square(self):
        assert (Y + 1) ** 2 == P("y^2+2*y+1")

    def test_pow_binomial_row(self):
        p = (Y + 1) ** 6
        assert [p.coefficient(0, j) for j in range(7)] == [1, 6, 15, 20, 15, 6, 1]

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            (Y + 1) ** -1

    def test_derivative(self):
        assert P("2*y+14*y^2").derivative_y() == P("2+28*y")
        assert LaurentPoly2.const(5).derivative_y() == LaurentPoly2.zero()
        assert LaurentPoly2.monomial(0, -1).derivative_y() == P("-y^-2")

    def test_evaluate(self):
        assert P("2*y+14*y^2").evaluate(1, 1) == 16
        assert LaurentPoly2.zero().evaluate(3, 7) == 0
        with pytest.raises(ZeroDivisionError):
            LaurentPoly2.monomial(0, -1).evaluate(1, 0)

    def test_evaluate_fractions(self):
        assert P("x*y^-1").evaluate(Fraction(1, 2), Fraction(3)) == Fraction(1, 6)

    def test_x_exponent_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            LaurentPoly2({(-1, 0): 1})

    def test_shape_queries(self):
        p = P("x^3*y-2*y^-2+1")
        assert p.x_degree() == 3
        assert p.min_y_exponent() == -2
        assert p.max_y_exponent() == 1
        assert p.x_coefficient(0) == P("-2*y^-2+1")


coefficients = st.integers(min_value=-4, max_value=4)
exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=-2, max_value=3)
)
polys = st.dictionaries(exponents, coefficients, max_size=6).map(LaurentPoly2)


class TestRingProperties:
    @settings(max_examples=80, deadline=None)
    @given(polys, polys, polys)
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=80, deadline=None)
    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a


def _reference_series(gf: RationalGF, n_max: int) -> list[LaurentPoly2]:
    """c_n = p_n - sum_{i>=1} q_i * c_(n-i) on term dicts, one multiply per
    pair of terms, after dividing num and den by the unit [x^0] den."""
    num, den = gf.num, gf.den
    ((_, j), sign), = den.x_coefficient(0).terms.items()
    assert sign in (1, -1)
    num, den = num.shift_y(-j) * sign, den.shift_y(-j) * sign

    def y_terms(p: LaurentPoly2) -> dict[int, int]:
        return {jj: c for (_, jj), c in p.terms.items()}

    neg_q = [{jj: -c for jj, c in y_terms(den.x_coefficient(i)).items()}
             for i in range(1, den.x_degree() + 1)]
    coeffs: list[dict[int, int]] = []
    for n in range(n_max + 1):
        out = y_terms(num.x_coefficient(n))
        for i in range(1, min(n, len(neg_q)) + 1):
            for j1, c1 in neg_q[i - 1].items():
                for j2, c2 in coeffs[n - i].items():
                    out[j1 + j2] = out.get(j1 + j2, 0) + c1 * c2
        coeffs.append({jj: c for jj, c in out.items() if c})
    return [LaurentPoly2({(0, jj): c for jj, c in cn.items()}) for cn in coeffs]


big_coefficients = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def series_gfs(draw):
    """num/den with [x^0] den = +-y^j, j in -3..3, x-degree of den 0..4, and
    signed coefficients up to 2^70 at y exponents -3..3."""
    j = draw(st.integers(min_value=-3, max_value=3))
    den = {(0, j): draw(st.sampled_from([1, -1]))}
    for i in range(1, draw(st.integers(min_value=0, max_value=4)) + 1):
        terms = draw(st.dictionaries(st.integers(min_value=-3, max_value=3), big_coefficients, max_size=3))
        den.update(((i, e), c) for e, c in terms.items())
    num = draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=-3, max_value=3)),
        big_coefficients,
        max_size=6,
    ))
    return RationalGF(LaurentPoly2(num), LaurentPoly2(den))


class TestSeries:
    # n_max up to 40 crosses the digit-width segments 0..7, 8..15, 16..31, 32..63
    @settings(max_examples=40, deadline=None)
    @given(series_gfs(), st.integers(min_value=0, max_value=40))
    @example(RationalGF(LaurentPoly2.zero(), P("1-x*y+x^2")), 12)
    @example(RationalGF(ONE, ONE - 2**62 * Y * X), 40)
    @example(fixture_gf("STAR13_matrix"), 40)
    def test_matches_the_term_recurrence(self, gf, n_max):
        assert series_expand(gf, n_max) == _reference_series(gf, n_max)

    # past n = 64 the segments grow by n//8 (64..71, 72..80, ...), and at
    # each wider segment the values packed so far are written out again
    @pytest.mark.parametrize(
        "make",
        [
            lambda: km_prism_gf(2, 2),
            lambda: RationalGF(P("1-y^-1*x"), ONE - 2**62 * Y * X - P("y^2-3") * X**2),
        ],
        ids=["km_2_2", "wide-digits"],
    )
    def test_matches_the_term_recurrence_past_64(self, make):
        gf = make()
        assert series_expand(gf, 150) == _reference_series(gf, 150)

    def test_geometric(self):
        assert series_expand(RationalGF(X, ONE - X), 6) == [LaurentPoly2.zero()] + [ONE] * 6
        assert series_expand(RationalGF(ONE, ONE - 2 * X), 5) == [2**n * ONE for n in range(6)]

    @pytest.mark.parametrize("unit", ["y^3", "-1", "-y^-2"])
    def test_unit_constant_is_divided_out(self, unit):
        gf = RationalGF(P("x*y+3*x^2"), P("1-x*(y^2+2)+x^3*(y-1)"))
        scaled = RationalGF(gf.num * P(unit), gf.den * P(unit))
        assert series_expand(scaled, 8) == series_expand(gf, 8)

    def test_unit_constant_required(self):
        gf = RationalGF(X, 2 * ONE - X)
        with pytest.raises(ValueError):
            series_expand(gf, 2)

    def test_partial_series_residue(self):
        # den * (partial series) - num has no monomials of x-degree <= N
        n_max = 20
        gf = RationalGF(P("x*y+3*x^2"), P("1-x*(y^2+2)+x^3*(y-1)"))
        coeffs = series_expand(gf, n_max)
        partial = LaurentPoly2.zero()
        for n, c in enumerate(coeffs):
            partial = partial + LaurentPoly2.monomial(n, 0) * c
        residue = gf.den * partial - gf.num
        assert all(i > n_max for i, _ in residue.terms)


class TestGfEqual:
    def test_common_scalar(self):
        p, q = P("x*y+1"), P("1-x")
        assert gf_equal(RationalGF(p, q), RationalGF(2 * p, 2 * q))

    def test_common_factor(self):
        a = RationalGF(X, ONE - X)
        b = RationalGF(X + X**2, (ONE - X) * (ONE + X))
        assert gf_equal(a, b)

    def test_not_equal(self):
        assert not gf_equal(RationalGF(X, ONE), RationalGF(Y, ONE))

    def test_equivalence_relation(self):
        base_num, base_den = P("x*y^2-x"), P("1-x*y")
        pool = [
            RationalGF(base_num * m, base_den * m)
            for m in [ONE, 3 * ONE, Y, P("y+2"), P("x+y^-1"), P("2*x*y-5")]
        ]
        for a in pool:
            assert gf_equal(a, a)
            for b in pool:
                assert gf_equal(a, b) == gf_equal(b, a)
                for c in pool:
                    if gf_equal(a, b) and gf_equal(b, c):
                        assert gf_equal(a, c)


class TestBareissSolve:
    def test_trivial_system(self):
        (sol,) = bareiss_solve([[LaurentPoly2.zero()]], [Y])
        assert gf_equal(sol, RationalGF(Y, ONE))

    def test_geometric_system(self):
        (sol,) = bareiss_solve([[ONE]], [Y])
        assert gf_equal(sol, RationalGF(Y, ONE - X))

    def test_dimension_limit(self):
        m = [[ONE] * 17 for _ in range(17)]
        with pytest.raises(DimensionLimitError, match="dimension 17 exceeds limit 16"):
            bareiss_solve(m, [Y] * 17)

    def test_solves_at_the_limit(self):
        # a dense system of the largest dimension, Laurent entries with signed
        # coefficients, checked by substitution and integer determinants
        n = algebra.MAX_SYSTEM_DIM
        assert n == 16
        m = [
            [
                LaurentPoly2({(0, (i * j) % 6 - 2): (i + 2 * j) % 7 - 3, (0, (i + j) % 3): 1 + i % 2})
                for j in range(n)
            ]
            for i in range(n)
        ]
        b = [LaurentPoly2({(0, i % 4 - 1): i - 8}) for i in range(n)]
        assert solution_defect(m, b, bareiss_solve(m, b)) is None

    def test_rejects_x_entries(self):
        with pytest.raises(ValueError):
            bareiss_solve([[X]], [Y])

    def test_rejects_x_in_the_rhs(self):
        # the numerators keep only x^0 .. x^(n-1) of adj(I - x*M) b
        with pytest.raises(ValueError):
            bareiss_solve([[ONE]], [X])

    def test_solution_satisfies_system(self):
        # (I - x*M) num = den * b, and den is the row-shifted det(I - x*M)
        m = [
            [P("y+1"), P("2"), P("y^-1")],
            [P("0"), P("y^2-2*y"), P("3*y")],
            [P("1"), P("y"), P("y^-2+4")],
        ]
        b = [P("y^3"), P("0"), P("2*y")]
        assert solution_defect(m, b, bareiss_solve(m, b)) is None

    def test_mixed_sizes_share_denominator(self):
        m = [[Y, ONE], [ONE, Y]]
        sols = bareiss_solve(m, [Y, LaurentPoly2.zero()])
        assert sols[0].den == sols[1].den


def _assert_matches_cramer(matrix, rhs):
    # solution_defect pins den to the row-shifted det(I - x*M) and then every
    # num by substitution: the Cramer determinants, term for term
    assert solution_defect(matrix, rhs, bareiss_solve(matrix, rhs)) is None


y_polys = st.dictionaries(
    st.tuples(st.just(0), st.integers(min_value=-2, max_value=3)),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
).map(LaurentPoly2)


@st.composite
def y_systems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    matrix = [[draw(y_polys) for _ in range(n)] for _ in range(n)]
    rhs = [draw(y_polys) for _ in range(n)]
    return matrix, rhs


class TestSingleEliminationSolve:
    @settings(max_examples=60, deadline=None)
    @given(y_systems())
    def test_matches_cramer_term_for_term(self, system):
        _assert_matches_cramer(*system)


sparse_y_polys = st.dictionaries(
    st.tuples(st.just(0), st.integers(min_value=-2, max_value=2)),
    st.integers(min_value=-3, max_value=3),
    max_size=2,
).map(LaurentPoly2)


@st.composite
def larger_y_systems(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    matrix = [[draw(sparse_y_polys) for _ in range(n)] for _ in range(n)]
    rhs = [draw(sparse_y_polys) for _ in range(n)]
    return matrix, rhs


row_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**100, -(2**100), 2**100 - 1, -(2**100) + 7]),
)


@st.composite
def functional_systems(draw):
    """A larger_y_systems system and 1-3 functional rows with zero, negative
    and 2^100-sized entries."""
    matrix, rhs = draw(larger_y_systems())
    n = len(matrix)
    rows = draw(st.lists(st.lists(row_entries, min_size=n, max_size=n), min_size=1, max_size=3))
    return matrix, rhs, rows


def _reference_weighted_gf(matrix, rhs, weights) -> RationalGF:
    """x * sum(w_i * t_i) summed as polynomials over the unit-row solve."""
    solutions = bareiss_solve(matrix, rhs)
    num = LaurentPoly2.zero()
    for weight, sol in zip(weights, solutions):
        num = num + weight * sol.num
    return RationalGF(X * num, solutions[0].den)


class TestFunctionalRows:
    """bareiss_solve(m, b, rows) against sums of the unit-row solutions."""

    @settings(max_examples=60, deadline=None)
    @given(functional_systems())
    @example(([[P("-y^-2")]], [P("3*y^-1")], [[0], [-(2**100)], [2**100 - 1]]))
    def test_rows_are_sums_of_the_unit_solutions(self, system):
        matrix, rhs, rows = system
        solutions = bareiss_solve(matrix, rhs)
        got = bareiss_solve(matrix, rhs, rows)
        assert len(got) == len(rows)
        for row, gf in zip(rows, got):
            want = LaurentPoly2.zero()
            for r, sol in zip(row, solutions):
                want = want + r * sol.num
            assert gf.num.terms == want.terms
            assert gf.den.terms == solutions[0].den.terms

    def test_unit_rows_are_the_default(self):
        matrix, rhs, _ = star_system()
        n = len(matrix)
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        for a, b in zip(bareiss_solve(matrix, rhs), bareiss_solve(matrix, rhs, unit)):
            assert a.num.terms == b.num.terms and a.den.terms == b.den.terms


class TestWeightedSolutionGf:
    def test_geometric_system(self):
        gf = weighted_solution_gf([[ONE]], [Y], [3])
        assert gf_equal(gf, RationalGF(3 * X * Y, ONE - X))

    def test_combines_the_solutions_term_for_term(self):
        m = [[Y, ONE], [ONE, P("y^2+1")]]
        b, weights = [Y, P("2*y")], [2, 5]
        sols = bareiss_solve(m, b)
        gf = weighted_solution_gf(m, b, weights)
        assert gf.den.terms == sols[0].den.terms
        assert gf.num == X * (2 * sols[0].num + 5 * sols[1].num)

    @settings(max_examples=40, deadline=None)
    @given(functional_systems())
    def test_is_the_polynomial_sum(self, system):
        matrix, rhs, rows = system
        gf = weighted_solution_gf(matrix, rhs, rows[0])
        want = _reference_weighted_gf(matrix, rhs, rows[0])
        assert gf.num.terms == want.num.terms and gf.den.terms == want.den.terms

    def test_weights_near_2_200_widen_the_digits(self):
        # the outputs are about 2^200 times those of the class-size weights:
        # a width without the ||w||_1 factor (18 bits here) misreads them
        matrix, rhs, _ = km_transfer_system(4, 2)
        weights = [2**200 - 1, -(2**200) + 3, 2**199 + 5]
        gf = weighted_solution_gf(matrix, rhs, weights)
        want = _reference_weighted_gf(matrix, rhs, weights)
        assert gf.num.terms == want.num.terms and gf.den.terms == want.den.terms
        assert max(map(abs, gf.num.terms.values())) > 2**200

    def test_weight_count_must_match_the_system(self):
        # zip would silently drop the third class of K4 x path at k = 2
        matrix, rhs, weights = km_transfer_system(4, 2)
        assert len(weights) == 3
        with pytest.raises(ValueError, match="3 entries"):
            weighted_solution_gf(matrix, rhs, weights[:2])
        with pytest.raises(ValueError, match="3 entries"):
            bareiss_solve(matrix, rhs, [weights, weights + [1]])

    def test_empty_system_is_zero(self):
        gf = weighted_solution_gf([], [], [])
        assert gf.num.terms == {} and gf.den.terms == {(0, 0): 1}
        assert bareiss_solve([], []) == []

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), 0.5, ONE], ids=str)
    def test_non_int_entries_are_a_type_error_before_packing(self, monkeypatch, bad):
        def no_packing(*args):
            raise AssertionError("packed before the rows were checked")

        monkeypatch.setattr(algebra, "_pack", no_packing)
        m, b = [[Y, ONE], [ONE, Y]], [Y, ONE]
        with pytest.raises(TypeError):
            weighted_solution_gf(m, b, [1, bad])
        with pytest.raises(TypeError):
            bareiss_solve(m, b, [[1, 0], [bad, 2]])


def _gf_digest(gf: RationalGF) -> str:
    text = repr((sorted(gf.num.terms.items()), sorted(gf.den.terms.items())))
    return hashlib.sha256(text.encode()).hexdigest()


class TestDivisionFreeSolve:
    @settings(max_examples=40, deadline=None)
    @given(larger_y_systems())
    def test_matches_cramer_term_for_term(self, system):
        _assert_matches_cramer(*system)

    # sha256 of the sorted num and den terms, as a fraction-free elimination of
    # the Cramer determinants gave them
    @pytest.mark.parametrize(
        "m, k, digest",
        [
            (6, 3, "3757f7ce6ecc19ea182860a93e57f2d7b0a016e0ea5e893e2c0ebc0de0232584"),
            (7, 3, "e50c3b0ec3fccc355ef910ae7808717b886846f97a03fb3565c8524b390544bd"),
            (8, 3, "523088471ac34185640667c81319f8f582721a135dbe93b2ce3373ec1da2a5a8"),
            (6, 4, "0e52e26ac91fd05b22558c20cf077d6a8922665fc02c6a58ba6a952ff2ecfd42"),
            (9, 2, "365c0d8e184651d0eb92ae0c2e9266caf1d6d929a1dae475733a9989fcf5a01b"),
            (10, 2, "96ec90d454bd71b095b3ece445e658c64afcc779ea146e5cc27b3940a94351e9"),
        ],
    )
    def test_km_prism_gf_terms_are_pinned(self, m, k, digest):
        assert _gf_digest(km_prism_gf(m, k)) == digest


class TestCoefficientTypes:
    def test_parsed_division_by_a_constant_is_exact(self):
        p = P("(4*y+2)/2")
        assert p == P("2*y+1")
        assert all(type(c) is int for c in p.terms.values())

    def test_evaluate_at_negative_y_exponent_is_a_fraction(self):
        value = P("3*y^-2+x").evaluate(1, 2)
        assert value == Fraction(7, 4)
        assert type(value) is Fraction
        with pytest.raises(TypeError):
            P("y").evaluate(1, 0.5)

    def test_integer_arithmetic_stays_int(self):
        p = (P("2*y-y^-1+3*x") ** 3) * 4 + P("x*y")
        assert p.coefficient(5, 5) == 0
        assert all(type(c) is int for c in p.terms.values())

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LaurentPoly2({(0, 0): Fraction(1, 2)}),
            lambda: LaurentPoly2({(0, 0): Fraction(2, 1)}),
            lambda: LaurentPoly2.monomial(0, 0, Fraction(1, 2)),
            lambda: P("x+y") * Fraction(1, 2),
            lambda: P("x+y") + Fraction(1, 2),
            lambda: LaurentPoly2({(0, 0): 0.5}),
        ],
        ids=[
            "fraction", "integral-fraction", "monomial", "scalar-product", "scalar-sum", "float"
        ],
    )
    def test_non_int_coefficients_are_a_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    # rejected, not truncated by int() nor stored as float keys
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LaurentPoly2({(1.5, 0.7): 3}),
            lambda: LaurentPoly2({(1, Fraction(2, 1)): 3}),
            lambda: LaurentPoly2.monomial(0, 0.5),
            lambda: LaurentPoly2.monomial(1.0, 0),
            lambda: Y.shift_y(0.5),
        ],
        ids=["init", "init-fraction", "monomial", "monomial-x", "shift-y"],
    )
    def test_non_int_exponents_are_a_type_error(self, make):
        with pytest.raises(TypeError, match="int exponent"):
            make()

    def test_int_subclass_exponents_become_int(self):
        p = LaurentPoly2({(True, False): 3})
        assert p == 3 * X and all(type(e) is int for key in p.terms for e in key)
        assert type(next(iter(LaurentPoly2.monomial(True, 2).terms))[0]) is int


big_y_polys = st.dictionaries(
    st.tuples(st.just(0), st.integers(min_value=-3, max_value=5)),
    st.integers(min_value=-(2**200), max_value=2**200),
    max_size=3,
).map(LaurentPoly2)


@st.composite
def big_y_systems(draw):
    # empty dictionaries give zero entries; the digit width of the packed
    # solve grows with the 200-bit coefficients and the dimension
    n = draw(st.integers(min_value=1, max_value=8))
    matrix = [[draw(big_y_polys) for _ in range(n)] for _ in range(n)]
    rhs = [draw(big_y_polys) for _ in range(n)]
    return matrix, rhs


class TestPackedKernels:
    """The packed-integer solve and gf_equal against their definitions."""

    @settings(max_examples=25, deadline=None)
    @given(big_y_systems())
    @example(([[LaurentPoly2.zero()]], [LaurentPoly2.zero()]))
    @example(([[P("-y^-3")] * 2, [P("y^5"), P("0")]], [P("0"), P("-(2^200)*y^-3")]))
    def test_solve_satisfies_its_system(self, system):
        assert solution_defect(*system, bareiss_solve(*system)) is None

    def test_negative_leading_digits_unpack(self):
        # every output coefficient negative at its top digit: a negative packed int
        m, b = [[P("-3*y^2-y")]], [P("-5*y^4-2")]
        (sol,) = bareiss_solve(m, b)
        assert sol.num == P("-5*y^4-2")
        assert sol.den == P("1+x*(3*y^2+y)")

    @settings(max_examples=100, deadline=None)
    @given(
        polys.filter(bool),
        polys.filter(bool),
        polys.filter(bool),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([1, -1, 2, -2, 2**64, -(2**300)]),
        st.data(),
    )
    def test_gf_equal_is_cross_multiplication(self, num, den, factor, lift, delta, data):
        # a pair scaled by a common factor is equal; one coefficient moved by
        # +-1 or +-2^j in the scaled numerator or denominator changes the
        # cross product by delta * y^j * x^i times the other nonzero part
        factor = factor.shift_y(-lift)
        a = RationalGF(num, den)
        scaled = RationalGF(num * factor, den * factor)
        assert gf_equal(a, scaled) and gf_equal(scaled, a)
        part = data.draw(st.sampled_from(["num", "den"]))
        poly = getattr(scaled, part)
        key = data.draw(st.sampled_from(sorted(poly.terms)))
        moved = poly + LaurentPoly2.monomial(*key, delta)
        if part == "den" and not moved:
            return
        b = RationalGF(moved, scaled.den) if part == "num" else RationalGF(scaled.num, moved)
        assert a.num * b.den != b.num * a.den
        assert not gf_equal(a, b) and not gf_equal(b, a)

    @settings(max_examples=100, deadline=None)
    @given(polys, polys.filter(bool), polys, polys.filter(bool))
    def test_gf_equal_matches_the_definition(self, n1, d1, n2, d2):
        a, b = RationalGF(n1, d1), RationalGF(n2, d2)
        assert gf_equal(a, b) == (n1 * d2 == n2 * d1)

    def test_gf_equal_separates_what_a_narrow_packing_would_merge(self):
        # y - 2^w vanishes at y = 2^w and x - y^t at x = y^t: a digit width or
        # an x stride below the proven one would call these pairs equal
        for w in range(300):
            for lift in (0, -3):
                low = Y**3 if lift else ONE
                a = RationalGF(Y.shift_y(lift), low)
                assert not gf_equal(a, RationalGF((2**w * ONE).shift_y(lift), low))
                assert not gf_equal(RationalGF(X, ONE), RationalGF(2**w * ONE, ONE))
        for t in range(-3, 6):
            assert not gf_equal(RationalGF(X, ONE), RationalGF(Y.shift_y(t - 1), ONE))
            assert not gf_equal(RationalGF(X, Y), RationalGF(ONE, Y.shift_y(-t)))

    def test_gf_equal_with_zero_numerators(self):
        zero = LaurentPoly2.zero()
        assert gf_equal(RationalGF(zero, X), RationalGF(zero, Y))
        assert not gf_equal(RationalGF(zero, X), RationalGF(Y, X))
        assert not gf_equal(RationalGF(Y, X), RationalGF(zero, X))


def _alternating(length: int, size: int) -> dict[int, int]:
    return {e: -size if e % 2 else size for e in range(length)}


def _shift_sum(terms, width, low, stride=0) -> int:
    """The packed value by its definition, one shifted term at a time."""
    return sum(c << width * (stride * i + j - low) for (i, j), c in terms.items())


@st.composite
def packed_term_maps(draw):
    # x and y exponents on a stride of at least the y span, from a negative
    # low; up to 54 terms and 71 digits, so both the shift loops (below 16
    # digits, below _SHIFT_SUM_BITS bits) and the byte images are reached
    width = draw(st.sampled_from([8, 64, 1024, 2048]))
    low = draw(st.integers(min_value=-4, max_value=0))
    span = draw(st.integers(min_value=1, max_value=6))
    x_degree = draw(st.sampled_from([0, 8]))
    stride = 0 if not x_degree and draw(st.booleans()) else span + draw(st.integers(0, 2))
    half = 1 << (width - 1)
    coefficients = st.one_of(
        st.integers(min_value=1 - half, max_value=half - 1),
        st.sampled_from([1 - half, half - 1, 1, -1]),
    ).filter(bool)
    keys = st.tuples(
        st.integers(min_value=0, max_value=x_degree),
        st.integers(min_value=low, max_value=low + span - 1),
    )
    return draw(st.dictionaries(keys, coefficients, max_size=54)), width, low, stride


class TestDigitReader:
    """_pack and _unpack against the shift sum of their definition: short
    values go through the shift loops, values of 16 digits (_unpack) or of
    _SHIFT_SUM_BITS bits (_pack) or more through byte images."""

    @pytest.mark.parametrize("width", [8, 64, 200, 2048])
    @pytest.mark.parametrize(
        "make",
        [
            lambda half: {},
            lambda half: {0: 5, 1: -1},
            lambda half: {0: 5, 7: 3, 19: -1},
            lambda half: _alternating(3, half - 1),
            lambda half: _alternating(20, half - 1),
            lambda half: {e: -(half - 1) for e in range(17)},
            lambda half: {e: half - 1 for e in range(17)},
            lambda half: {17: 3, 18: -(half - 1)},
            lambda half: {2: 1, 30: 1},
        ],
        ids=[
            "zero", "negative-top-short", "negative-top-long", "extremes-short",
            "extremes-long", "all-most-negative", "all-most-positive",
            "low-zero-digits", "zero-digits-inside",
        ],
    )
    def test_reads_what_pack_wrote(self, width, make):
        # digit e holds y^(e-2), or x^(e//5) y^(e%5-2) on a stride of 5
        digits = make(1 << (width - 1))
        value = _shift_sum({(0, e - 2): c for e, c in digits.items()}, width, -2)
        for stride in (0, 5):
            terms = {
                (e // stride, e % stride - 2) if stride else (0, e - 2): c
                for e, c in digits.items()
            }
            assert _pack(terms, width, -2, stride) == value
            assert _unpack(value, width, -2, stride) == terms

    @settings(max_examples=150, deadline=None)
    @given(packed_term_maps())
    # byte images on both sides: 17 * 2048 and 600 * 64 bits >= _SHIFT_SUM_BITS
    @example(({(0, e - 3): (-1) ** e << 2046 for e in range(17)}, 2048, -3, 0))
    @example(({(e // 4, e % 4 - 1): 1 - (1 << 63) for e in range(600)}, 64, -1, 4))
    def test_round_trip(self, drawn):
        terms, width, low, stride = drawn
        value = _pack(terms, width, low, stride)
        assert value == _shift_sum(terms, width, low, stride)
        assert _unpack(value, width, low, stride) == terms

    def test_gf_equal_with_long_factors(self):
        # 600 terms of digits of at least 64 bits pack through byte images
        num = LaurentPoly2({(i % 3, i // 3 - 50): (-1) ** i * (i + 1) ** 9 for i in range(600)})
        assert len(num) * 64 >= _SHIFT_SUM_BITS
        den = P("1-x*y^-1+3*x^2*y^2")
        factor = P("2*y^-2-x*y+5")
        a, b = RationalGF(num, den), RationalGF(num * factor, den * factor)
        assert gf_equal(a, b) and gf_equal(b, a)
        for key in ((1, 0), (0, -50), (2, 149)):
            moved = RationalGF(num + LaurentPoly2.monomial(*key, 1), den)
            assert not gf_equal(a, moved)
            assert gf_equal(moved, b) == (moved.num * b.den == b.num * moved.den)

    def test_solve_with_long_entries(self):
        # a dim-2 system whose right-hand side packs, and whose numerators
        # unpack, through byte images, checked by substitution and integer
        # determinants (long entries of M would make the determinant grid slow)
        long = LaurentPoly2({(0, j - 5): (-1) ** j * (j % 7 + 1) for j in range(600)})
        assert len(long) * 64 >= _SHIFT_SUM_BITS
        m, b = [[P("2*y-3"), Y], [P("y^-1-2"), ONE]], [long, -long.shift_y(3)]
        solutions = bareiss_solve(m, b)
        assert max(len(sol.num) for sol in solutions) >= 16
        assert solution_defect(m, b, solutions) is None

    @pytest.mark.parametrize("digits", [1, 20])
    def test_a_width_one_byte_narrower_misreads_a_series_at_its_bound(self, monkeypatch, digits):
        # 1/(1 - 2^65*y*x) times num has c_n = 2^(65n) * y^n * num: with
        # coefficients +-1 in num, every coefficient of c_7 is at the bound
        # A_7 = 2^455, whose bit length 456 is a multiple of 8, so the
        # proven width is 464 bits and one byte less holds no +2^455
        num = LaurentPoly2({(0, e): c for e, c in _alternating(digits, 1).items()})
        gf = RationalGF(num, ONE - 2**65 * Y * X)
        want = _reference_series(gf, 7)
        assert want[7] == 2**455 * num.shift_y(7)
        assert algebra._digit_width(2**455) == 464
        assert series_expand(gf, 7) == want
        width = algebra._digit_width
        monkeypatch.setattr(algebra, "_digit_width", lambda bound: width(bound) - 8)
        try:
            narrow = series_expand(gf, 7)
        except OverflowError:  # a digit past the byte image of the value
            narrow = None
        assert narrow != want


def leibniz_det(matrix) -> int:
    """The determinant as a signed sum over all permutations."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


@st.composite
def int_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    m = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a multiple of another row: singular
        factor = draw(st.integers(min_value=-2, max_value=2))
        m[-1] = [factor * c for c in m[0]]
    return m


class TestIntegerDeterminant:
    @settings(max_examples=150, deadline=None)
    @given(int_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    @example([[1, 2], [2, 4]])
    def test_equals_the_permutation_expansion(self, matrix):
        assert _bareiss_det(matrix) == leibniz_det(matrix)

    def test_div_exact(self):
        assert _div_exact(-12, 4) == -3
        with pytest.raises(ArithmeticError):
            _div_exact(7, 2)
        with pytest.raises(ArithmeticError):
            _div_exact(-3, 6)


def _mutants(solutions):
    """Wrong outputs of a solve, by name."""
    n = len(solutions)
    den = solutions[0].den
    one_plus_x = ONE + X
    num0 = LaurentPoly2({key: c for key, c in solutions[0].num.terms.items() if key[0] != n - 1})
    return {
        "num and den times y": [RationalGF(s.num * Y, den * Y) for s in solutions],
        "den times 1+x": [RationalGF(s.num, den * one_plus_x) for s in solutions],
        "num and den times 1+x": [
            RationalGF(s.num * one_plus_x, den * one_plus_x) for s in solutions
        ],
        "x^(n-1) part of num_0 dropped": [RationalGF(num0, den), *solutions[1:]],
    }


class TestSolutionDefect:
    @pytest.mark.parametrize(
        "name",
        ["num and den times y", "den times 1+x", "num and den times 1+x", "x^(n-1) part of num_0 dropped"],
    )
    def test_star_system_mutant_is_caught(self, name):
        matrix, rhs, _ = star_system()
        assert solution_defect(matrix, rhs, _mutants(bareiss_solve(matrix, rhs))[name]) is not None

    @settings(max_examples=40, deadline=None)
    @given(larger_y_systems())
    def test_every_changed_mutant_is_caught(self, system):
        solutions = bareiss_solve(*system)
        for name, mutant in _mutants(solutions).items():
            if any(a.num != b.num or a.den != b.den for a, b in zip(mutant, solutions)):
                assert solution_defect(*system, mutant) is not None, name

    def test_shape_mismatches(self):
        m, b = [[Y, ONE], [ONE, Y]], [Y, ONE]
        sols = bareiss_solve(m, b)
        assert solution_defect(m, b, sols[:1]) is not None
        scaled = RationalGF(2 * sols[1].num, 2 * sols[1].den)
        assert "denominator" in solution_defect(m, b, [sols[0], scaled])
        assert solution_defect([], [], []) is None
