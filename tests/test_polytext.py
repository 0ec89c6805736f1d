import sys

import pytest

from colorblocks.algebra import LaurentPoly2
from colorblocks.errors import PolyParseError
from colorblocks.polytext import (
    format_poly,
    parse_poly,
    poly_from_json,
    poly_to_json,
)


def test_format_basics():
    assert format_poly(LaurentPoly2.zero()) == "0"
    assert format_poly(LaurentPoly2.one()) == "1"
    assert format_poly(parse_poly("2*x*y-3")) == "2*x*y - 3"
    assert format_poly(parse_poly("y^-2-y")) == "-y + y^-2"


def test_parse_examples():
    assert parse_poly("(y+1)*(y-1)") == parse_poly("y^2-1")
    assert parse_poly("(3*y^2+2*y+1)/y") == LaurentPoly2({(0, 1): 3, (0, 0): 2, (0, -1): 1})
    assert parse_poly("-x^2*y+4") == LaurentPoly2({(2, 1): -1, (0, 0): 4})
    assert parse_poly("6/2") == LaurentPoly2.const(3)
    assert parse_poly("(4*y+2)/2") == parse_poly("2*y+1")
    assert parse_poly("(6*y^2-4)/(-2*y)") == parse_poly("-3*y+2*y^-1")


def test_inexact_division_is_an_error_at_the_divisor():
    # the position is just past the divisor, as for every divisor error
    for text, position in [("(3*y)/2", 7), ("(4*y+2) / 4", 11), ("y/0", 3)]:
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text)
        assert exc.value.position == position


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("2*y+")
    assert exc.value.position == 4
    with pytest.raises(PolyParseError):
        parse_poly("(y+1")
    with pytest.raises(PolyParseError):
        parse_poly("y yy")
    with pytest.raises(PolyParseError):
        parse_poly("(y+1)/(y+2)")  # divisor must be a monomial
    with pytest.raises(PolyParseError):
        parse_poly("x^-1")  # negative exponents only on y
    # only ASCII 0-9 are digits: a superscript or fullwidth digit is no integer
    for bad in ["x^\u00b2", "x^\uff13"]:
        with pytest.raises(PolyParseError, match="expected an integer") as exc:
            parse_poly(bad)
        assert exc.value.position == 2


def test_format_parse_round_trip():
    samples = [
        "2*x^3*y^-2 - x*y + 7",
        "y^11 - 24*y^10 + 94*y^9",
        "-5",
        "x^2 + x + 1",
    ]
    for text in samples:
        p = parse_poly(text.replace(" ", ""))
        assert parse_poly(format_poly(p).replace(" ", "")) == p


def test_parse_reads_format_output_with_spaces():
    samples = [
        LaurentPoly2({(2, 0): -5, (1, 1): 1, (0, 1): 3}),
        LaurentPoly2({(3, -2): 2, (1, 1): -1, (0, 0): 7}),
        LaurentPoly2({(0, 1): 7**6000, (2, 0): -(5**7000), (0, 0): 3}),
        LaurentPoly2.const(-5),
    ]
    for p in samples:
        assert parse_poly(format_poly(p)) == p
    assert format_poly(samples[0]) == "-5*x^2 + x*y + 3*y"
    assert parse_poly(" ( y + 1 ) * ( y - 1 ) ") == parse_poly("y^2-1")


def test_whitespace_is_no_multiplication():
    for text in ("2 3", "x y", "2 y", "y^2 3", "12 34"):
        with pytest.raises(PolyParseError):
            parse_poly(text)


def test_json_round_trip():
    p = LaurentPoly2({(0, -2): 12, (3, 4): -7, (1, 0): 5})
    data = poly_to_json(p)
    assert data == {"0,-2": "12", "1,0": "5", "3,4": "-7"}
    assert poly_from_json(data) == p


def test_json_rejects_bad_keys():
    with pytest.raises(ValueError):
        poly_from_json({"nope": "1"})


def test_json_rejects_fraction_coefficients():
    with pytest.raises(ValueError):
        poly_from_json({"0,0": "1/2"})


def test_round_trip_beyond_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    p = LaurentPoly2({(0, 1): 7**6000, (2, -1): -(3**9100), (1, 0): 5})
    assert poly_from_json(poly_to_json(p)) == p
    q = LaurentPoly2({(0, 1): 7**6000, (2, 0): -(5**7000), (0, 0): 3})
    assert parse_poly(format_poly(q).replace(" ", "")) == q
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        poly_from_json({"0,0": "1" * 5000 + "x"})
