"""Closed-form block distributions and expectations for the classic families.

Each function constructs the exact polynomial or rational value directly from
the family formula; the test suite cross-checks every one of them against
brute-force enumeration and the transfer engine.  ``CLOSED_FORMS`` maps each
graph-spec form these formulas cover to its formulas and their arguments, and
``closed_form`` looks a spec up in it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import LaurentPoly2, RationalGF, series_expand
from .combinatorics import binomial, partition_count, stirling2, stirling_row
from .graphs import GraphSpec, parse_spec_tree, prism_factors, vertex_count
from .oracle import BlockDistribution
from .transfer import km_prism_gf

_Y = LaurentPoly2.y()
_X = LaurentPoly2.x()


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


# -- trees --------------------------------------------------------------------


def _tree_poly(n: int, k: int) -> LaurentPoly2:
    """k*y*((k-1)*y + 1)^(n-1), term by term: [y^j] = k*C(n-1, j-1)*(k-1)^(j-1)."""
    terms = {}
    c = k
    for j in range(1, n + 1):
        if not c:
            break
        terms[(0, j)] = c
        # C(n-1, j) = C(n-1, j-1) * (n-j) / j, so the division is exact
        c = c * (n - j) * (k - 1) // j
    return LaurentPoly2(terms)


def tree_distribution(n: int, k: int) -> BlockDistribution:
    """k*y*((k-1)*y + 1)^(n-1); the same for every tree on n vertices."""
    _require(n >= 1, "n must be >= 1")
    _require(k >= 1, "k must be >= 1")
    return BlockDistribution(_tree_poly(n, k), n, k)


def tree_expected(n: int, k: int) -> Fraction:
    _require(n >= 1, "n must be >= 1")
    _require(k >= 1, "k must be >= 1")
    return Fraction((k - 1) * n + 1, k)


def pbt_distribution(h: int, k: int) -> BlockDistribution:
    """Perfect binary tree of height h: k*y*((k-1)*y + 1)^(2^(h+1) - 2)."""
    _require(h >= 0, "height must be >= 0")
    _require(k >= 1, "k must be >= 1")
    n = 2 ** (h + 1) - 1
    return BlockDistribution(_tree_poly(n, k), n, k)


def pbt_expected(h: int, k: int) -> Fraction:
    _require(h >= 0, "height must be >= 0")
    _require(k >= 1, "k must be >= 1")
    return Fraction(k + 2 * (k - 1) * (2**h - 1), k)


# -- cycles -------------------------------------------------------------------


def cycle_block_count(n: int, i: int, k: int) -> int:
    """Number of k-colored partitions of the n-cycle with exactly i blocks."""
    _require(n >= 3, "cycle needs n >= 3")
    _require(1 <= i <= n, "block count i must satisfy 1 <= i <= n")
    _require(k >= 1, "k must be >= 1")
    if i == 1:
        return k
    return binomial(n, i) * ((k - 1) ** i + (k - 1) * (-1) ** i)


def cycle_distribution(n: int, k: int) -> BlockDistribution:
    _require(n >= 3, "cycle needs n >= 3")
    _require(k >= 1, "k must be >= 1")
    poly = LaurentPoly2({(0, i): cycle_block_count(n, i, k) for i in range(1, n + 1)})
    return BlockDistribution(poly, n, k)


def cycle_expected(n: int, k: int) -> Fraction:
    _require(n >= 3, "cycle needs n >= 3")
    _require(k >= 1, "k must be >= 1")
    return Fraction(k + n * (k**n - k ** (n - 1)), k**n)


def _walk_count(numerator: int, m: int) -> int:
    """numerator / m, which a walk count makes exact; a remainder is an error."""
    q, r = divmod(numerator, m)
    if r:
        raise ArithmeticError(f"walk count {numerator}/{m} is not an integer")
    return q


def closed_walks_complete(m: int, length: int) -> int:
    """Closed walks of the given length in the complete graph on m vertices,
    from a fixed start: ((m-1)^L + (m-1)(-1)^L) / m."""
    _require(m >= 1, "m must be >= 1")
    _require(length >= 0, "length must be >= 0")
    return _walk_count((m - 1) ** length + (m - 1) * (-1) ** length, m)


def open_walks_complete(m: int, length: int) -> int:
    """Walks between one ordered pair of distinct vertices:
    ((m-1)^L - (-1)^L) / m."""
    _require(m >= 1, "m must be >= 1")
    _require(length >= 1, "length must be >= 1")
    return _walk_count((m - 1) ** length - (-1) ** length, m)


# -- complete and complete bipartite graphs -----------------------------------


def complete_block_count(n: int, i: int, k: int) -> int:
    """Partitions of K_n with exactly i blocks: S(n,i) * C(k,i) * i!.

    Returns 0 outside 1 <= i <= min(n, k); that keeps summations simple.
    """
    _require(n >= 1, "n must be >= 1")
    _require(k >= 1, "k must be >= 1")
    if i < 1 or i > min(n, k):
        return 0
    return stirling2(n, i) * binomial(k, i) * math.factorial(i)


def complete_distribution(n: int, k: int) -> BlockDistribution:
    _require(n >= 1, "n must be >= 1")
    _require(k >= 1, "k must be >= 1")
    row = stirling_row(n, min(n, k))
    poly = LaurentPoly2({(0, i): row[i] * math.perm(k, i) for i in range(1, len(row))})
    return BlockDistribution(poly, n, k)


def complete_expected(n: int, k: int) -> Fraction:
    _require(n >= 1, "n must be >= 1")
    _require(k >= 1, "k must be >= 1")
    return k - Fraction((k - 1) ** n, k ** (n - 1))


def bipartite_expected(n: int, m: int, k: int) -> Fraction:
    """Expected blocks of the complete bipartite graph on n + m vertices."""
    _require(n >= 1 and m >= 1, "n and m must be >= 1")
    _require(k >= 1, "k must be >= 1")
    numerator = (
        n * k**n * (k - 1) ** m
        + m * k**m * (k - 1) ** n
        + k * (k**n - (k - 1) ** n) * (k**m - (k - 1) ** m)
    )
    return Fraction(numerator, k ** (n + m))


# -- complete-graph prisms ------------------------------------------------------


def complete_prism_expected(num_levels: int, n: int, k: int) -> Fraction:
    """Expected blocks of (complete graph on `num_levels` vertices) x path(n)."""
    ell = num_levels
    _require(ell >= 1, "the complete factor needs >= 1 vertices")
    _require(n >= 1, "the path factor needs >= 1 vertices")
    _require(k >= 1, "k must be >= 1")
    numerator = (k ** (2 * ell) - (k**2 - 1) ** ell) + (k - 1) ** ell * (
        (k + 1) ** ell - k**ell
    ) * n
    return Fraction(numerator, k ** (2 * ell - 1))


def complete_prism_distribution(num_levels: int, n: int, k: int) -> BlockDistribution:
    """Block distribution of (complete graph on `num_levels` vertices) x path(n):
    the x^n coefficient of the symbolic generating function."""
    _require(num_levels >= 1, "the complete factor needs >= 1 vertices")
    _require(n >= 1, "the path factor needs >= 1 vertices")
    _require(k >= 1, "k must be >= 1")
    coeff = series_expand(km_prism_gf(num_levels, k), n)[n]
    return BlockDistribution(coeff, num_levels * n, k)


def k3_prism_gf(k: int) -> RationalGF:
    """The published generating function for (triangle x path) at a concrete k."""
    _require(k >= 1, "k must be >= 1")
    x, y = _X, _Y
    p = (k * x * y) * (
        1
        - (1 - k) * y * (3 - (2 - k) * y)
        - x
        * (1 - y)
        * (
            4
            - (13 - 5 * k) * y
            + (3 + k) * (3 - 2 * k) * y**2
            - (1 - k) * (1 + (3 - k) * k) * y**3
        )
        + x**2
        * (1 - y) ** 2
        * (3 - (2 + 4 * k) * y + (1 - k + 3 * k**2) * y**2 + k**2 * (1 - k) * y**3)
    )
    q = 1 - x * (
        5
        - 12 * (2 - k) * y
        + x**2
        * (1 - y) ** 2
        * (
            3
            - (2 + 4 * k) * y
            + k * (1 + 2 * k) * y**2
            + k * (1 - k) * y**3
            - (k - 1) ** 4 * y**4
        )
        - x
        * (1 - y)
        * (
            7
            - (25 - 8 * k) * y
            + (20 - 3 * k - 4 * k**2) * y**2
            + (5 - 24 * k + 21 * k**2 - 5 * k**3) * y**3
            - (7 - 18 * k + 17 * k**2 - 7 * k**3 + k**4) * y**4
        )
        + y**2 * (32 - 26 * k + 6 * k**2 - (13 - 14 * k + 6 * k**2 - k**3) * y)
    )
    return RationalGF(p, q)


# -- star-product state count ---------------------------------------------------


def star_profile_count(m: int) -> int:
    """Reduced boundary-state count for (star with m leaves) x path:
    sum of p(0) .. p(m).

    This counts the orbits, under color swaps and leaf permutations, of every
    valid k=2 boundary state: center color fixed, i leaves of the other color
    partitioned in any way into linked groups.  The profile DP reaches only
    1 + m(m+1)/2 of them (7, 11, 16 for m = 3, 4, 5 against 7, 12, 19): two
    linked groups of the other color would have merged at the later of the
    center slices that linked them, so at most one group has several leaves.
    """
    _require(m >= 0, "m must be >= 0")
    return sum(partition_count(i) for i in range(m + 1))


# -- graph-spec lookup ------------------------------------------------------------


class ClosedForm(NamedTuple):
    """One spec form: ``arguments`` maps its integers to the arguments of the
    formulas, named here, which take those arguments and then k."""

    arguments: Callable[..., tuple[int, ...]]
    distribution: str | None
    expectation: str


# Formulas are named, not stored, and looked up when called: a formula rebound
# on this module (say, wrapped by a tracer) is then the one that runs.
CLOSED_FORMS = {
    "path:<n>": ClosedForm(lambda n: (n,), "tree_distribution", "tree_expected"),
    "cycle:<n>": ClosedForm(lambda n: (n,), "cycle_distribution", "cycle_expected"),
    "complete:<n>": ClosedForm(lambda n: (n,), "complete_distribution", "complete_expected"),
    "star:<n>": ClosedForm(lambda n: (n + 1,), "tree_distribution", "tree_expected"),
    "pbt:<n>": ClosedForm(lambda h: (h,), "pbt_distribution", "pbt_expected"),
    "bipartite:<n>,<m>": ClosedForm(lambda n, m: (n, m), None, "bipartite_expected"),
    "product(complete:<m>,path:<n>)": ClosedForm(
        lambda m, n: (m, n), "complete_prism_distribution", "complete_prism_expected"
    ),
}


def _spec_form(spec: GraphSpec) -> tuple[str, tuple[int, ...]] | None:
    """The CLOSED_FORMS key a parsed graph spec has, with its integers."""
    prism = prism_factors(spec)
    if prism is not None and prism[0].family == "complete":
        return "product(complete:<m>,path:<n>)", (*prism[0].args, prism[1])
    form = "bipartite:<n>,<m>" if spec.family == "bipartite" else f"{spec.family}:<n>"
    return (form, spec.args) if form in CLOSED_FORMS else None


def closed_form(spec: str, k: int, kind: str) -> tuple[BlockDistribution | Fraction, int] | None:
    """(value, vertex count) of a graph spec by its closed form, or None when no
    closed form covers it.  ``kind`` is ``"distribution"`` (the value is a
    BlockDistribution) or ``"expectation"`` (the expected block count).  A
    malformed spec raises GraphSpecError; no graph is built."""
    tree = parse_spec_tree(spec)
    found = _spec_form(tree)
    if found is None:
        return None
    form, numbers = found
    entry = CLOSED_FORMS[form]
    name = getattr(entry, kind)
    if name is None:
        return None
    return globals()[name](*entry.arguments(*numbers), k), vertex_count(tree)
