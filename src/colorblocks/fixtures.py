"""Reference generating functions, stored as structured term data.

Each fixture is an exact transcription of a known closed form for the block
distribution of a (slice graph) x path product, kept as coefficient tables or
composed polynomial expressions rather than runtime-parsed strings.  The test
suite re-transcribes every one of them through the text parser and checks the
two transcriptions agree, then cross-validates the series against the
transfer engine and brute-force enumeration.

Available ids:

* ``K3_generic_k``  -- triangle x path, any k (pass k)
* ``K4_k2``, ``K5_k2``, ``K6_k2`` -- complete slices of 4..6 vertices, k=2
* ``K4_k3``         -- 4-vertex complete slice, k=3
* ``STAR13_k2``     -- 3-leaf star slice, k=2
* ``STAR13_matrix`` -- same model, solving the engine's lumped 7x7 system
"""

from __future__ import annotations

from .algebra import LaurentPoly2, RationalGF, weighted_solution_gf
from .closed_forms import k3_prism_gf
from .graphs import star
from .transfer import Profile, orbit_system

_X = LaurentPoly2.x()
_Y = LaurentPoly2.y()


def _xypoly(table: dict[int, dict[int, int]]) -> LaurentPoly2:
    return LaurentPoly2(
        {(i, j): c for i, row in table.items() for j, c in row.items()}
    )


def _k4_k2() -> RationalGF:
    x, y = _X, _Y
    num = (
        2
        * x
        * y
        * (
            1
            + 7 * y
            - x * (y - 1) * (7 * y**2 + y - 9)
            + x**2 * (y - 1) ** 2 * (8 * y**2 - 17 * y + 8)
        )
    )
    den = (
        1
        - 2 * x * (y**2 + 2 * y + 5)
        + x**2 * (y - 1) * (y**3 + 6 * y**2 + 8 * y - 17)
        - x**3 * (y - 1) ** 2 * (y**3 + 6 * y**2 - 17 * y + 8)
    )
    return RationalGF(num, den)


def _k5_k2() -> RationalGF:
    x, y = _X, _Y
    num = (
        2
        * x
        * y
        * (
            1
            + 15 * y
            - x * (y - 1) * (15 * y**2 - 13 * y - 21)
            + x**2 * (y - 1) ** 2 * (16 * y**2 - 51 * y + 30)
        )
    )
    den = (
        1
        - 2 * x * (y**2 + 4 * y + 11)
        + x**2 * (y - 1) * (y**3 + 10 * y**2 + 2 * y - 51)
        - x**3 * (y - 1) ** 2 * (y**3 + 10 * y**2 - 51 * y + 30)
    )
    return RationalGF(num, den)


def _k6_k2() -> RationalGF:
    x, y = _X, _Y
    num = (
        2
        * x
        * y
        * (
            1
            + 31 * y
            - x * (y - 1) * (62 * y**2 - 103 * y - 48)
            + x**2 * (y - 1) ** 2 * (31 * y**3 - 72 * y**2 - 125 * y + 155)
            - x**3 * (y - 1) ** 3 * (32 * y**3 - 185 * y**2 + 263 * y - 108)
        )
    )
    den = (
        1
        - x * (3 * y**2 + 12 * y + 49)
        + x**2 * (y - 1) * (3 * y**3 + 28 * y**2 - 6 * y - 203)
        - x**3 * (y - 1) ** 2 * (y**4 + 16 * y**3 - 40 * y**2 - 262 * y + 263)
        + x**4 * (y - 1) ** 3 * (y**4 + 15 * y**3 - 167 * y**2 + 263 * y - 108)
    )
    return RationalGF(num, den)


def k4_k3_source_display() -> RationalGF:
    """Verbatim transcription of the reference display labeled for the
    4-vertex slice at k=3.  Its x^1 coefficient is 3y(1+6y+2y^2) =
    3y+18y^2+6y^3 -- the 3-vertex slice distribution -- and the whole
    function cross-equals the 3-vertex closed form at k=3, so the display is
    mislabeled.  Kept for the erratum regression test; ``fixture_gf("K4_k3")``
    returns the corrected table below instead."""
    x, y = _X, _Y
    num = (
        3
        * x
        * y
        * (
            1
            + 6 * y
            + 2 * y**2
            + 2 * x * (y - 1) * (y**3 - 9 * y**2 + y + 2)
            - x**2 * (2 * y - 1) * (y - 1) ** 2 * (9 * y**2 - 8 * y + 3)
        )
    )
    den = (
        1
        - x * (2 * y**3 + 8 * y**2 + 12 * y + 5)
        - x**2 * (y - 1) * (2 * y**4 - 13 * y**3 - 25 * y**2 - y + 7)
        + x**3 * (y - 1) ** 2 * (16 * y**4 + 6 * y**3 - 21 * y**2 + 14 * y - 3)
    )
    return RationalGF(num, den)


# Corrected 4-vertex slice, k=3: frozen output of the class-reduced system
# (km_prism_gf(4, 3)); the tests re-derive it and check the series against
# the profile engine and brute-force enumeration.
_K4_K3_NUM = {
    1: {1: 3, 2: 42, 3: 36},
    2: {1: -42, 2: -228, 3: 684, 4: -330, 5: -84},
    3: {1: 159, 2: -588, 3: 714, 4: -264, 5: -177, 6: 276, 7: -120},
    4: {1: -120, 2: 990, 3: -3558, 4: 7308, 5: -9324, 6: 7374, 7: -3318, 8: 648},
}
_K4_K3_DEN = {
    0: {0: 1},
    1: {0: -15, 1: -34, 2: -24, 3: -8},
    2: {0: 67, 1: -14, 2: -218, 3: 40, 4: 109, 5: 16},
    3: {0: -93, 1: 346, 2: -376, 3: 84, 4: 95, 5: -86, 6: 6, 7: 24},
    4: {0: 40, 1: -330, 2: 1146, 3: -2196, 4: 2468, 5: -1450, 6: 122, 7: 328, 8: -128},
}


def _k4_k3() -> RationalGF:
    return RationalGF(_xypoly(_K4_K3_NUM), _xypoly(_K4_K3_DEN))


# 3-leaf star slice, k=2: numerator and denominator coefficient tables,
# x power -> { y power -> coefficient }.
_STAR_P = {
    1: {4: 2, 3: 6, 2: 6, 1: 2},
    2: {7: -8, 6: 4, 5: -28, 4: 40, 3: -44, 2: 4, 1: -16},
    3: {9: 14, 8: -22, 7: -4, 6: 104, 5: -106, 4: -32, 3: 90, 2: -52, 1: 40},
    4: {10: -8, 9: -8, 8: 124, 7: -204, 6: 52, 5: 64, 4: 16, 3: -80, 2: 92, 1: -48},
    5: {
        11: -10,
        10: 4,
        9: 110,
        8: -268,
        7: 112,
        6: 384,
        5: -662,
        4: 468,
        3: -120,
        2: -48,
        1: 30,
    },
    6: {
        11: 16,
        10: -28,
        9: -156,
        8: 656,
        7: -1028,
        6: 708,
        4: -316,
        3: 168,
        2: -12,
        1: -8,
    },
    7: {
        11: 8,
        10: -58,
        9: 228,
        8: -562,
        7: 852,
        6: -756,
        5: 340,
        4: -26,
        3: -36,
        2: 10,
    },
}
_STAR_Q = {
    0: {0: 1},
    1: {4: -1, 3: -1, 2: -1, 1: -7, 0: -9},
    2: {7: 1, 6: 1, 5: 5, 4: 11, 3: -4, 2: -6, 1: 14, 0: 28},
    3: {9: -1, 8: -3, 7: 1, 6: 5, 5: -22, 4: -11, 3: 7, 2: 54, 1: -18, 0: -44},
    4: {9: 7, 8: -17, 7: 2, 6: 20, 5: -32, 4: 45, 3: 42, 2: -105, 1: -1, 0: 39},
    5: {
        11: 1,
        10: 4,
        9: -24,
        8: 47,
        7: -28,
        6: -62,
        5: 167,
        4: -125,
        3: -50,
        2: 83,
        1: 6,
        0: -19,
    },
    6: {
        11: 1,
        10: -24,
        9: 94,
        8: -122,
        7: -61,
        6: 365,
        5: -409,
        4: 116,
        3: 116,
        2: -91,
        1: 11,
        0: 4,
    },
    7: {
        11: -3,
        10: 23,
        9: -74,
        8: 95,
        7: 45,
        6: -289,
        5: 355,
        4: -183,
        3: 18,
        2: 18,
        1: -5,
    },
}


def _star13_k2() -> RationalGF:
    return RationalGF(_xypoly(_STAR_P), _xypoly(_STAR_Q))


def star_system() -> tuple[list[list[LaurentPoly2]], list[LaurentPoly2], list[int]]:
    """The 7x7 boundary-configuration system for the 3-leaf star slice, k=2.

    Returns (R, b, combo) with the slice-recursion reading t = b + x*R*t;
    row = new configuration, column = previous configuration.  The x factor
    of the base cases is stripped into the solver convention, and the model's
    generating function is x * sum(combo[i] * t[i]).
    """
    configurations = [  # published (colors, linkage), center vertex 0
        ((0, 1, 1, 1), (0, 1, 2, 3)),
        ((0, 1, 1, 1), (0, 1, 1, 2)),
        ((0, 1, 1, 1), (0, 1, 1, 1)),
        ((0, 0, 1, 1), (0, 0, 1, 2)),
        ((0, 1, 1, 0), (0, 1, 1, 0)),
        ((0, 0, 0, 1), (0, 0, 0, 1)),
        ((0, 0, 0, 0), (0, 0, 0, 0)),
    ]
    return orbit_system(star(3), 2, [Profile(*c) for c in configurations])


def _star13_from_matrix() -> RationalGF:
    return weighted_solution_gf(*star_system())


# id -> (builder, vertices per slice, k); k None means the builder takes the
# caller's k (only K3_generic_k)
_FIXTURES = {
    "K3_generic_k": (k3_prism_gf, 3, None),
    "K4_k2": (_k4_k2, 4, 2),
    "K5_k2": (_k5_k2, 5, 2),
    "K6_k2": (_k6_k2, 6, 2),
    "K4_k3": (_k4_k3, 4, 3),
    "STAR13_k2": (_star13_k2, 4, 2),
    "STAR13_matrix": (_star13_from_matrix, 4, 2),
}

FIXTURE_IDS = tuple(_FIXTURES)


def _fixture(fixture_id: str) -> tuple:
    try:
        return _FIXTURES[fixture_id]
    except KeyError:
        raise ValueError(f"unknown fixture {fixture_id!r}") from None


def fixture_gf(fixture_id: str, k: int | None = None) -> RationalGF:
    """Look up a fixture; k is required (and only used) for K3_generic_k."""
    builder, _, fixed_k = _fixture(fixture_id)
    if fixed_k is not None and k is not None:
        raise ValueError(f"fixture {fixture_id!r} does not take a k")
    gf = builder() if fixed_k is not None else builder(fixture_k(fixture_id, k))
    if fixture_id != "STAR13_matrix":
        # series expansion needs a unit constant term; the solved-system
        # variant carries a y-scaled determinant and is compared by gf_equal
        if gf.den.x_coefficient(0) != LaurentPoly2.one():
            raise ArithmeticError(f"fixture {fixture_id!r} has no unit constant term")
    return gf


def fixture_slice_size(fixture_id: str) -> int:
    """Vertices per slice, for normalization checks (value at y=1 is k^(size*n))."""
    return _fixture(fixture_id)[1]


def fixture_k(fixture_id: str, k: int | None = None) -> int:
    fixed_k = _fixture(fixture_id)[2]
    if fixed_k is not None:
        return fixed_k
    if k is None:
        raise ValueError(f"{fixture_id} needs a concrete k")
    return k
