"""Guard transcriptions: every stored fixture is re-transcribed here through
the text parser and compared.  The cross-validations against the engine are
checks of ``colorblocks.verify.ALL_CHECKS``."""

import pytest

from colorblocks.algebra import LaurentPoly2, RationalGF, series_expand
from colorblocks.fixtures import (
    FIXTURE_IDS,
    fixture_gf,
    fixture_k,
    fixture_slice_size,
    star_system,
)
from colorblocks.polytext import parse_poly

GUARD_STRINGS = {
    "K4_k2": (
        "2*x*y*(1+7*y-x*(y-1)*(7*y^2+y-9)+x^2*(y-1)^2*(8*y^2-17*y+8))",
        "1-2*x*(y^2+2*y+5)+x^2*(y-1)*(y^3+6*y^2+8*y-17)"
        "-x^3*(y-1)^2*(y^3+6*y^2-17*y+8)",
    ),
    "K5_k2": (
        "2*x*y*(1+15*y-x*(y-1)*(15*y^2-13*y-21)+x^2*(y-1)^2*(16*y^2-51*y+30))",
        "1-2*x*(y^2+4*y+11)+x^2*(y-1)*(y^3+10*y^2+2*y-51)"
        "-x^3*(y-1)^2*(y^3+10*y^2-51*y+30)",
    ),
    "K6_k2": (
        "2*x*y*(1+31*y-x*(y-1)*(62*y^2-103*y-48)"
        "+x^2*(y-1)^2*(31*y^3-72*y^2-125*y+155)"
        "-x^3*(y-1)^3*(32*y^3-185*y^2+263*y-108))",
        "1-x*(3*y^2+12*y+49)+x^2*(y-1)*(3*y^3+28*y^2-6*y-203)"
        "-x^3*(y-1)^2*(y^4+16*y^3-40*y^2-262*y+263)"
        "+x^4*(y-1)^3*(y^4+15*y^3-167*y^2+263*y-108)",
    ),
}

STAR_P_GUARD = (
    "(2*y^4+6*y^3+6*y^2+2*y)*x"
    "+(-8*y^7+4*y^6-28*y^5+40*y^4-44*y^3+4*y^2-16*y)*x^2"
    "+(14*y^9-22*y^8-4*y^7+104*y^6-106*y^5-32*y^4+90*y^3-52*y^2+40*y)*x^3"
    "+(-8*y^10-8*y^9+124*y^8-204*y^7+52*y^6+64*y^5+16*y^4-80*y^3+92*y^2-48*y)*x^4"
    "+(-10*y^11+4*y^10+110*y^9-268*y^8+112*y^7+384*y^6-662*y^5+468*y^4"
    "-120*y^3-48*y^2+30*y)*x^5"
    "+(16*y^11-28*y^10-156*y^9+656*y^8-1028*y^7+708*y^6-316*y^4+168*y^3"
    "-12*y^2-8*y)*x^6"
    "+(8*y^11-58*y^10+228*y^9-562*y^8+852*y^7-756*y^6+340*y^5-26*y^4"
    "-36*y^3+10*y^2)*x^7"
)
STAR_Q_GUARD = (
    "1+(-y^4-y^3-y^2-7*y-9)*x"
    "+(y^7+y^6+5*y^5+11*y^4-4*y^3-6*y^2+14*y+28)*x^2"
    "+(-y^9-3*y^8+y^7+5*y^6-22*y^5-11*y^4+7*y^3+54*y^2-18*y-44)*x^3"
    "+(7*y^9-17*y^8+2*y^7+20*y^6-32*y^5+45*y^4+42*y^3-105*y^2-y+39)*x^4"
    "+(y^11+4*y^10-24*y^9+47*y^8-28*y^7-62*y^6+167*y^5-125*y^4-50*y^3"
    "+83*y^2+6*y-19)*x^5"
    "+(y^11-24*y^10+94*y^9-122*y^8-61*y^7+365*y^6-409*y^5+116*y^4+116*y^3"
    "-91*y^2+11*y+4)*x^6"
    "+(-3*y^11+23*y^10-74*y^9+95*y^8+45*y^7-289*y^6+355*y^5-183*y^4+18*y^3"
    "+18*y^2-5*y)*x^7"
)

STAR_MATRIX_GUARD = [
    ["y^4+1", "3*y^4", "y^4", "3*y^3+3*y", "3*y^3", "3*y^2", "y^3"],
    ["0", "1", "0", "0", "y", "y^2", "0"],
    ["0", "0", "1", "0", "0", "0", "y"],
    ["y^2+1", "3*y^2+2", "y^2", "y^3+4*y+1", "y^3+4*y", "3*y^2+2*y", "y^2"],
    ["0", "1", "1", "0", "1", "1", "y"],
    ["2", "y+5", "y+1", "(3*y^2+2*y+1)/y", "3*y+3", "y^2+2*y+3", "2*y"],
    ["(y^2+1)/y^2", "(3*y+3)/y", "2", "(3*y+3)/y", "6", "6", "y+1"],
]


class TestGuardTranscriptions:
    @pytest.mark.parametrize("fid", sorted(GUARD_STRINGS))
    def test_complete_slice_fixtures(self, fid):
        num_text, den_text = GUARD_STRINGS[fid]
        gf = fixture_gf(fid)
        assert gf.num == parse_poly(num_text)
        assert gf.den == parse_poly(den_text)

    def test_star_fixture(self):
        gf = fixture_gf("STAR13_k2")
        assert gf.num == parse_poly(STAR_P_GUARD)
        assert gf.den == parse_poly(STAR_Q_GUARD)

    def test_star_matrix(self):
        matrix, rhs, combo = star_system()
        for i in range(7):
            for j in range(7):
                assert matrix[i][j] == parse_poly(STAR_MATRIX_GUARD[i][j]), (i, j)
        assert [str(b) for b in rhs] == [
            "LaurentPoly2[y^4]", "LaurentPoly2[0]", "LaurentPoly2[0]",
            "LaurentPoly2[y^3]", "LaurentPoly2[0]", "LaurentPoly2[y^2]",
            "LaurentPoly2[y]",
        ]
        assert combo == [2, 6, 2, 6, 6, 6, 2]


class TestFixtureLookup:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            fixture_gf("K9_k9")

    def test_generic_requires_k(self):
        with pytest.raises(ValueError):
            fixture_gf("K3_generic_k")

    def test_concrete_rejects_k(self):
        with pytest.raises(ValueError):
            fixture_gf("K4_k2", 2)

    def test_all_ids_resolve(self):
        for fid in FIXTURE_IDS:
            gf = fixture_gf(fid, 2 if fid == "K3_generic_k" else None)
            assert isinstance(gf, RationalGF)


class TestFixtureInvariants:
    @pytest.mark.parametrize("fid", [f for f in FIXTURE_IDS if f != "STAR13_matrix"])
    def test_denominator_unit_constant(self, fid):
        gf = fixture_gf(fid, 2 if fid == "K3_generic_k" else None)
        assert gf.den.x_coefficient(0) == LaurentPoly2.one()

    @pytest.mark.parametrize("fid", FIXTURE_IDS)
    def test_series_are_counting_polynomials(self, fid):
        k_arg = 3 if fid == "K3_generic_k" else None
        gf = fixture_gf(fid, k_arg)
        k = fixture_k(fid, k_arg)
        size = fixture_slice_size(fid)
        coeffs = series_expand(gf, 6)
        assert coeffs[0] == LaurentPoly2.zero()
        for n in range(1, 7):
            for (_, j), c in coeffs[n].terms.items():
                assert type(c) is int and c > 0
                assert 1 <= j <= size * n
            assert coeffs[n].evaluate(1, 1) == k ** (size * n)


class TestStarSystem:
    def test_entry_row6_col4(self):
        matrix, _, _ = star_system()
        assert matrix[5][3] == parse_poly("(3*y^2+2*y+1)/y")

    def test_entry_row2_col1(self):
        matrix, _, _ = star_system()
        assert matrix[1][0] == LaurentPoly2.zero()
