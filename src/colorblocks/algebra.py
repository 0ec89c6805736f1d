"""Exact sparse arithmetic in two variables over the integers.

A polynomial is a dict mapping exponent pairs ``(i, j)`` -- the powers of
``x`` and ``y`` -- to nonzero coefficients.  Every block count is an integer,
so the coefficient ring is Z[x, y, 1/y]: coefficients are plain Python
``int``s, and any other coefficient (a ``Fraction``, even an integral one, or
a float) is a ``TypeError``.  Only ``evaluate`` leaves the ring: it takes
``int`` or ``Fraction`` points and returns an exact ``Fraction``.
``x`` exponents are always >= 0; ``y`` exponents may be negative
(several transfer-matrix entries need ``1/y`` and ``1/y**2``).  The zero
polynomial is the empty dict.  No floating point is used anywhere.

On top of that the module provides rational generating functions (numerator /
denominator pairs), power-series coefficient extraction, cross-multiplication
equality, and a division-free solver for systems ``t = b + x*M*t`` whose
entries are polynomials in y: Berkowitz's characteristic polynomial gives the
denominator and Krylov vectors the numerators, so ``x`` never enters the
arithmetic.  The solver, ``gf_equal`` and ``series_expand`` run on packed
integers (Kronecker substitution): each polynomial in y is one ``int``, its
value at y = 2**W (and x = 2**(W*S) in ``gf_equal``), so a polynomial product
is one big-integer product, and ``series_expand``'s product with a
denominator coefficient is a few shifted small multiples; W comes from a
proven bound on the coefficients, and only the outputs are unpacked.
``solution_defect`` checks a solve exactly, by substitution into its system
and by comparing the denominator with integer (Bareiss) determinants on a
grid of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .errors import DimensionLimitError

Key = tuple[int, int]

# largest system bareiss_solve takes: Berkowitz's algorithm costs O(n^4)
# products of polynomials in y whose degrees grow with n
MAX_SYSTEM_DIM = 12


def _coerce(value: int) -> int:
    """The coefficient as a plain ``int``; any non-``int`` is a TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an int coefficient, got {type(value).__name__}")


class LaurentPoly2:
    """Sparse polynomial in x (exponent >= 0) and y (any integer exponent)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, int] | None = None):
        clean: dict[Key, int] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0:
                    raise ValueError(f"x exponent must be >= 0, got {i}")
                c = _coerce(c)
                if c:
                    clean[(int(i), int(j))] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Key, int]) -> "LaurentPoly2":
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return _ONE

    @classmethod
    def const(cls, c: int) -> "LaurentPoly2":
        c = _coerce(c)
        return cls._raw({(0, 0): c}) if c else _ZERO

    @classmethod
    def x(cls) -> "LaurentPoly2":
        return _X

    @classmethod
    def y(cls) -> "LaurentPoly2":
        return _Y

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "LaurentPoly2":
        if i < 0:
            raise ValueError(f"x exponent must be >= 0, got {i}")
        c = _coerce(c)
        return cls._raw({(i, j): c}) if c else _ZERO

    @property
    def terms(self) -> dict[Key, int]:
        """Copy of the term map."""
        return dict(self._terms)

    def coefficient(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly2):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == LaurentPoly2.const(other)._terms
        return NotImplemented

    __hash__ = None  # mutable-looking container; equality is by term map

    def __repr__(self) -> str:
        from .polytext import format_poly

        return f"LaurentPoly2[{format_poly(self)}]"

    __str__ = __repr__

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        elif not isinstance(other, LaurentPoly2):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly2._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        elif not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly2":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, int):
            c = _coerce(other)
            if not c:
                return _ZERO
            return LaurentPoly2._raw({k: v * c for k, v in self._terms.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Key, int] = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LaurentPoly2._raw(out)

    __rmul__ = __mul__

    def _square(self) -> "LaurentPoly2":
        return self * self

    def __pow__(self, e: int) -> "LaurentPoly2":
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be an integer >= 0, got {e!r}")
        result = _ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base._square()
        return result

    def shift_y(self, d: int) -> "LaurentPoly2":
        """Multiply by y**d (d may be negative)."""
        if d == 0:
            return self
        return LaurentPoly2._raw({(i, j + d): c for (i, j), c in self._terms.items()})

    def derivative_y(self) -> "LaurentPoly2":
        return LaurentPoly2._raw({(i, j - 1): c * j for (i, j), c in self._terms.items() if j})

    def evaluate(self, x_value: int | Fraction, y_value: int | Fraction) -> Fraction:
        """Exact evaluation at int or Fraction points; rejects y=0 when negative
        y exponents are present."""
        for value in (x_value, y_value):
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"expected an int or Fraction point, got {type(value).__name__}")
        x0, y0 = Fraction(x_value), Fraction(y_value)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            if j < 0 and y0 == 0:
                raise ZeroDivisionError("evaluation at y=0 with a negative y exponent")
            total += c * x0**i * y0**j
        return total

    # -- shape queries -----------------------------------------------------

    def x_degree(self) -> int:
        """Largest x exponent, or -1 for the zero polynomial."""
        return max((i for i, _ in self._terms), default=-1)

    def x_coefficient(self, i: int) -> "LaurentPoly2":
        """The coefficient of x**i, as a polynomial in y alone."""
        return LaurentPoly2._raw(
            {(0, j): c for (ii, j), c in self._terms.items() if ii == i}
        )

    def min_y_exponent(self) -> int | None:
        return min((j for _, j in self._terms), default=None)

    def max_y_exponent(self) -> int | None:
        return max((j for _, j in self._terms), default=None)

    def has_x(self) -> bool:
        return any(i for i, _ in self._terms)


_ZERO = LaurentPoly2._raw({})
_ONE = LaurentPoly2._raw({(0, 0): 1})
_X = LaurentPoly2._raw({(1, 0): 1})
_Y = LaurentPoly2._raw({(0, 1): 1})


@dataclass(frozen=True, eq=False)
class RationalGF:
    """A generating function num/den.  Never reduced; compare with gf_equal."""

    num: LaurentPoly2
    den: LaurentPoly2

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator in RationalGF")

    def __repr__(self) -> str:
        return f"RationalGF(({self.num!r}) / ({self.den!r}))"


# -- packed integers (Kronecker substitution) ---------------------------------


def _l1(p: LaurentPoly2) -> int:
    """The sum of the absolute values of p's coefficients."""
    return sum(map(abs, p._terms.values()))


def _pack(p: LaurentPoly2, row: int, width: int, low: int) -> int:
    """p at x = 2**row, y = 2**width, with its y exponents counted from low
    (y**(-low) * p must be a polynomial)."""
    return sum(c << row * i + width * (j - low) for (i, j), c in p._terms.items())


def _unpack(value: int, width: int, offset: int) -> dict[int, int]:
    """The polynomial whose value at y = 2**width is ``value``, read as signed
    digits of ``width`` bits, each coefficient of absolute value below
    2**(width - 1); the exponent of digit e is e + offset.

    Each step copies the rest of the value, so the time is quadratic in the
    digit count.  ``bareiss_solve`` reads its outputs here: they are a few
    hundred bits, where this loop is faster than building the byte image
    that ``_read_digits`` reads in linear time.  ``series_expand`` reads its
    long outputs there."""
    mask, half, base = (1 << width) - 1, 1 << (width - 1), 1 << width
    out = {}
    e = offset
    while value:
        digit = value & mask
        if digit >= half:
            digit -= base
        if digit:
            out[e] = digit
            value -= digit
        value >>= width
        e += 1
    return out


def gf_equal(a: RationalGF, b: RationalGF) -> bool:
    """Equality by cross-multiplication: a.num*b.den == b.num*a.den.

    Both products are compared as packed integers: each factor is taken at
    x = 2**(W*S), y = 2**W (Kronecker substitution), its y exponents counted
    from its own least one, and each product is shifted to the least y
    exponent of the two.  S is the y span of both products, so every term of
    either product, and of their difference, has a digit of its own; the
    difference's coefficients are below
    ||a.num||_1 ||b.den||_1 + ||b.num||_1 ||a.den||_1 < 2**(W-2) in
    absolute value, so its packed value is 0 only when every digit is.
    """
    if not a.num or not b.num:
        return not a.num and not b.num
    products = ((a.num, b.den), (b.num, a.den))
    lows = [p.min_y_exponent() + q.min_y_exponent() for p, q in products]
    top = max(p.max_y_exponent() + q.max_y_exponent() for p, q in products)
    low = min(lows)
    width = (_l1(a.num) * _l1(b.den) + _l1(b.num) * _l1(a.den)).bit_length() + 2
    row = width * (top - low + 1)
    packed = []
    for (p, q), first in zip(products, lows):
        pq = _pack(p, row, width, p.min_y_exponent()) * _pack(q, row, width, q.min_y_exponent())
        packed.append(pq << width * (first - low))
    return packed[0] == packed[1]


# -- power series on packed integers --------------------------------------------


def _digit_width(bound: int) -> int:
    """The least W, a whole number of bytes and at least 64 bits, with
    2**(W - 1) > bound: signed digits of W bits hold every |c| <= bound."""
    return max(64, 8 * ((bound.bit_length() + 8) // 8))


def _read_digits(value: int, width: int, offset: int) -> dict[int, int]:
    """``_unpack(value, width, offset)`` in time linear in the size of
    ``value``, for a width that is a whole number of bytes.

    ``_unpack``'s shift loop copies the rest of the value at every digit, so
    it is quadratic in the digit count; it is the faster of the two below 16
    digits, where it is used.  Here ``value`` is written out once in two's
    complement, and each field of ``width`` bits is read as a signed integer.
    With b_e = 1 when the digits below e sum to a negative number, else 0,
    field e holds d_e - b_e, which lies in -2**(width-1) .. 2**(width-1) - 1
    and so reads back exactly; b_(e+1) = b_e when d_e = 0, and otherwise
    whether d_e < 0.  With E digits up to the last nonzero one,
    |value| < 2**(width*E - 1), and |value| > 2**(width*(E-1) - 1), so
    ``count`` below is at least E and the fields past E read 0.
    """
    count = abs(value).bit_length() // width + 1
    if count < 16:
        return _unpack(value, width, offset)
    size = width // 8
    data = value.to_bytes(size * count, "little", signed=True)
    from_bytes = int.from_bytes
    out = {}
    borrow = 0
    for e, k in enumerate(range(0, len(data), size), offset):
        digit = from_bytes(data[k : k + size], "little", signed=True) + borrow
        if digit:
            out[e] = digit
            borrow = digit < 0
    return out


# below this many bits of digits a sum of shifts packs faster than byte images
# (measured at widths of 64 to 1024 bits)
_SHIFT_SUM_BITS = 1 << 15


def _write_digits(digits: Mapping[int, int], width: int, offset: int) -> int:
    """The value at y = 2**width of sum c * y**(e - offset) over the digits
    e: c, each e >= offset and |c| < 2**(width - 1), in time linear in the
    size of the result, for a width that is a whole number of bytes: the
    inverse of ``_read_digits``.  The positive and the negative digits are
    each written into one byte image, where no field carries into the next,
    and the two images are subtracted.  A sum of shifts copies the partial
    sum at every digit, so its time grows with the digit count times the
    size of the result; it is the faster below ``_SHIFT_SUM_BITS``."""
    if len(digits) * width < _SHIFT_SUM_BITS:
        value = 0
        for e, c in digits.items():
            value += c << width * (e - offset)
        return value
    size = width // 8
    length = size * (max(digits) - offset + 1)
    plus, minus = bytearray(length), bytearray(length)
    for e, c in digits.items():
        at = size * (e - offset)
        if c > 0:
            plus[at : at + size] = c.to_bytes(size, "little")
        else:
            minus[at : at + size] = (-c).to_bytes(size, "little")
    return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


def series_expand(gf: RationalGF, n_max: int) -> list[LaurentPoly2]:
    """Coefficients of x**0 .. x**n_max of num/den, each a polynomial in y.

    The x**0 coefficient of the denominator must be a unit of Z[y, 1/y],
    +-y**j; num and den are first divided by it exactly, which leaves the
    constant 1 there.  With p_n and q_i the x**n and x**i coefficients of num
    and den, and d the x-degree of den, the coefficients then satisfy
    c_n = p_n - sum_{1<=i<=min(n,d)} q_i * c_(n-i).

    The recurrence runs on packed integers (Kronecker substitution): c_n is
    one ``int``, the value of y**(-o_n) * c_n at y = 2**W.  o_n bounds c_n's
    y exponents from below: o_n = min(low(p_n), o_(n-i) + low(q_i)) over the
    nonzero p_n, q_i and c_(n-i), low the least y exponent.  So
    y**(-o_n) * p_n and y**(-o_n) * q_i * c_(n-i) are polynomials, and each
    product q_i * c_(n-i) is a sum over q_i's few terms c * y**j: c times the
    packed c_(n-i), shifted by W * (o_(n-i) + j - o_n) >= 0 bits.  q_i itself
    is not packed, which would pad it to the width of c_(n-i).  Evaluation at
    y = 2**W is a ring map, so the packed recurrence is exact whatever the
    carries between digits; only reading the outputs back needs a bound.

    The bound: with ||.||_inf the largest and ||.||_1 the sum of the absolute
    values of a polynomial's coefficients, let
    A_n = ||p_n||_inf + sum_{1<=i<=min(n,d)} ||q_i||_1 * A_(n-i).  Each
    coefficient of q_i * c_(n-i) is at most ||q_i||_1 * ||c_(n-i)||_inf, so
    by induction on n every coefficient of c_n is at most A_n in absolute
    value.  The bounds are computed before any packing.  Output digits are
    read as signed digits of W bits, exact while 2**(W-1) > A_n; W is a
    whole number of bytes, for ``_read_digits``, and at least 64 bits.

    A_n grows with n, and a width fit for the last n would pad every earlier
    product, so W is chosen once per segment of n from the largest A_m up to
    the segment's end: 0..7, then doubling (8..15, 16..31, 32..63), then from
    n = 64 on each segment n .. n + n//8 - 1.  Past 64 a doubling segment
    would pad its packed values to about 1.4 times the width they need on
    average, and below it the boundaries of shorter segments cost more than
    the padding.  Where W grows, the values packed so far are read back, and
    only the d that the next segment multiplies are packed again at the new
    width, in linear time by ``_write_digits``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    num, den = gf.num, gf.den
    unit = den.x_coefficient(0)
    if unit != _ONE:
        (_, j), sign = next(iter(unit._terms.items()), ((0, 0), 0))
        if len(unit) != 1 or sign not in (1, -1):
            raise ValueError("series_expand requires [x^0] den = +-y^j, a unit of Z[y, 1/y]")
        num, den = num.shift_y(-j) * sign, den.shift_y(-j) * sign
    d = min(den.x_degree(), n_max)
    neg_q: dict[int, dict[int, int]] = {}
    for (i, j), c in den._terms.items():
        if 0 < i <= d:
            neg_q.setdefault(i, {})[j] = -c
    # (i, ||q_i||_1, low(q_i), -q_i) for each nonzero q_i, i ascending
    qs = [(i, sum(map(abs, t.values())), min(t), t) for i, t in sorted(neg_q.items())]
    p: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for (i, j), c in num._terms.items():
        if i <= n_max:
            p[i][j] = c
    bounds: list[int] = []
    lows: list[int] = []
    for n, pn in enumerate(p):
        if pn:
            bound, low = max(map(abs, pn.values())), min(pn)
        else:
            bound, low = 0, None
        for i, norm, q_low, _ in qs:
            if i > n:
                break
            if bounds[n - i]:
                bound += norm * bounds[n - i]
                e = lows[n - i] + q_low
                if low is None or e < low:
                    low = e
        bounds.append(bound)
        lows.append(low or 0)
    coeffs: list[LaurentPoly2] = []
    digits: list[dict[int, int]] = []
    packed: list[int] = []

    def read(width: int) -> None:
        """Read back the values packed since the last read."""
        for n in range(len(coeffs), len(packed)):
            row = _read_digits(packed[n], width, lows[n])
            digits.append(row)
            coeffs.append(LaurentPoly2._raw({(0, j): c for j, c in row.items()}))

    width = top = end = 0
    for n, pn in enumerate(p):
        if n == end:  # a segment n .. end - 1 starts: 0..7, 8..15, ..., 64..71, 72..80, ...
            end = max(8, 2 * n) if n < 64 else n + n // 8
            top = max(top, *bounds[n:end])
            new_width = _digit_width(top)
            if new_width > width:
                read(width)
                width = new_width
                for m in range(max(0, n - d), n):
                    packed[m] = _write_digits(digits[m], width, lows[m])
                terms = [(i, [(c, width * j) for j, c in t.items()]) for i, _, _, t in qs]
        o = lows[n]
        v = sum(c << width * (j - o) for j, c in pn.items()) if pn else 0
        for i, q in terms:
            if i > n:
                break
            prev = packed[n - i]
            if prev:
                s = width * (lows[n - i] - o)
                for c, wj in q:
                    v += (c * prev) << (s + wj)
        packed.append(v)
    read(width)
    return coeffs


# -- solving t = b + x*M*t in packed integers ----------------------------------


def _charpoly(m: list[list[int]]) -> list[int]:
    """[c_0 = 1, c_1, ..., c_n] with det(I - x*m) = sum c_k x^k, for an n x n
    matrix over any commutative ring whose elements support ``*``, ``+`` and
    ``-`` (here: packed integers).

    Berkowitz's division-free algorithm (Inf. Process. Lett. 18, 1984): the
    leading (r+1) x (r+1) block [[A, C], [R, a]] has the coefficient vector
    T p, where p is the vector of the leading r x r block A and T is the
    lower-triangular Toeplitz matrix with first column
    1, -a, -R C, -R A C, ..., -R A^(r-1) C.
    """
    p = [1]
    for r in range(len(m)):
        row = m[r][:r]
        block = [line[:r] for line in m[:r]]
        t = [1, -m[r][r]]
        v = [line[r] for line in m[:r]]  # A^k C
        for k in range(r):
            if k:
                v = [sum(map(mul, line, v)) for line in block]
            t.append(-sum(map(mul, row, v)))
        p = [sum(t[i - j] * p[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return p


def bareiss_solve(
    matrix: Sequence[Sequence[LaurentPoly2]],
    rhs: Sequence[LaurentPoly2],
) -> list[RationalGF]:
    """Solve t = b + x*M*t exactly, i.e. (I - x*M) t = b.

    M's entries and b must be polynomials in y alone.  Row i of [I - x*M | b]
    is first cleared of negative y exponents by y**s_i, as a fraction-free
    elimination would; with shift = sum s_i, every Cramer determinant is
    y**shift times the unshifted one.  The result is exactly those
    determinants: each t_i is num_i / den with the common denominator
    den = y**shift * det(I - x*M).

    No division is needed, and the arithmetic runs in y alone.
    det(I - x*M) = sum_k c_k x^k is the reversed characteristic polynomial of
    M (``_charpoly``, Berkowitz), whose c_0 = 1 makes the system never
    singular.  With the Krylov vectors v_0 = b, v_k = M v_(k-1), the adjugate
    gives num_i = y**shift * sum_{k<n} x^k sum_{j<=k} c_j (v_(k-j))_i.

    Every polynomial in y is one packed ``int`` (Kronecker substitution).
    With h and g the largest negative y exponents of M and of b, y**h * M and
    y**g * b are polynomials; c_k is homogeneous of degree k in M's entries
    and (v_t)_i of degree t in them and 1 in b's, so the products run on their
    values at y = 2**W, and only the outputs are unpacked, the x**k
    coefficients of den shifted by y**(-h*k) and those of num by
    y**(-h*k-g).  Unpacking reads signed digits of W bits, exact while every
    output coefficient has absolute value below 2**(W-1).  With L the
    largest L1 norm of an entry of M (at least 1) and L_b that of b:
    c_k sums the C(n, k) principal k x k minors, each at most k! products of
    k entries, so ||c_k||_1 <= C(n, k) k! L^k <= (nL)^k; each entry of M^t b
    sums n^t products of t entries of M and one of b, so
    ||(M^t b)_i||_1 <= (nL)^t L_b; and the x**k coefficient of num_i sums
    k + 1 <= n products c_j (v_(k-j))_i, each of L1 norm at most
    (nL)^k L_b.  Every output coefficient is therefore at most
    bound = n * (nL)^n * max(1, L_b), and W = bound.bit_length() + 2 leaves
    2**(W-1) >= 2 * bound.  ``solution_defect`` checks the output exactly.
    The name is kept for API compatibility and because profilers and tracers
    hook it.
    """
    n = len(matrix)
    if n == 0:
        return []
    if n > MAX_SYSTEM_DIM:
        raise DimensionLimitError(f"system dimension {n} exceeds limit {MAX_SYSTEM_DIM}")
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and match the rhs length")
    if any(entry.has_x() for row in (*matrix, rhs) for entry in row):
        raise ValueError("matrix and rhs entries must be polynomials in y alone")
    shift = 0
    for row, b in zip(matrix, rhs):
        low = min((p.min_y_exponent() for p in (*row, b) if p), default=0)
        shift += max(0, -low)
    entries = [p for row in matrix for p in row if p]
    h = max(0, -min((p.min_y_exponent() for p in entries), default=0))
    g = max(0, -min((p.min_y_exponent() for p in rhs if p), default=0))
    norm = max(1, max(map(_l1, entries), default=0))
    bound = n * (n * norm) ** n * max(1, max(map(_l1, rhs)))
    width = bound.bit_length() + 2
    m = [[_pack(p, 0, width, -h) for p in row] for row in matrix]
    c = _charpoly(m)
    krylov = [[_pack(p, 0, width, -g) for p in rhs]]
    for _ in range(n - 1):
        v = krylov[-1]
        krylov.append([sum(map(mul, line, v)) for line in m])
    den = LaurentPoly2._raw(
        {(k, j): cj for k, ck in enumerate(c) for j, cj in _unpack(ck, width, shift - h * k).items()}
    )
    solutions = []
    for i in range(n):
        num: dict[Key, int] = {}
        for k in range(n):
            packed = sum(c[j] * krylov[k - j][i] for j in range(k + 1))
            for j, cj in _unpack(packed, width, shift - h * k - g).items():
                num[(k, j)] = cj
        solutions.append(RationalGF(LaurentPoly2._raw(num), den))
    return solutions


def weighted_solution_gf(matrix, rhs, weights: Sequence[int]) -> RationalGF:
    """x * sum(w_i * t_i) for the solution t of bareiss_solve(matrix, rhs): the
    generating function of a transfer system whose unknowns start with weights
    w_i.  All t_i share one denominator, so only the numerators are summed."""
    solutions = bareiss_solve(matrix, rhs)
    num = _ZERO
    for weight, sol in zip(weights, solutions):
        num = num + weight * sol.num
    return RationalGF(_X * num, solutions[0].den)


# -- checking a solve exactly ---------------------------------------------------


def _div_exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return q


def _bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination with row pivoting; every division is exact."""
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
    for col in range(len(m) - 1):
        pivot_row = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row], sign = m[pivot_row], m[col], -sign
        top, pivot = m[col], m[col][col]
        for row in m[col + 1 :]:
            pairs = zip(row[col + 1 :], top[col + 1 :])
            row[col + 1 :] = [_div_exact(pivot * a - row[col] * b, prev) for a, b in pairs]
        prev = pivot
    return sign * m[-1][-1] if m else 1


def solution_defect(matrix, rhs, solutions: Sequence[RationalGF]) -> str | None:
    """None when ``solutions`` is exactly what bareiss_solve(matrix, rhs) must
    return, else the first mismatch.  Every t_i must share one den and satisfy
    num_i - x * sum_j M_ij num_j = den * b_i; as I - x*M is invertible, that
    fixes each num once den is right.  Row i of I - x*M is shifted by y**s_i,
    s_i = max(0, -min y exponent of row i of [M | b]), and top is the sum of
    the shifted rows' largest y exponents.  den must have x-degree <= n and
    y exponents in 0..top, and equal the shifted det(I - x*M) on the grid
    x0 in 0..n, y0 in 1..top+1, which pins a polynomial within those bounds."""
    n = len(matrix)
    if len(solutions) != n:
        return f"{len(solutions)} solutions for {n} unknowns"
    den = solutions[0].den if n else _ONE
    if any(sol.den != den for sol in solutions):
        return "the solutions do not share one denominator"
    nums = [sol.num for sol in solutions]
    for i, (row, b) in enumerate(zip(matrix, rhs)):
        if nums[i] - _X * sum((p * num for p, num in zip(row, nums)), _ZERO) != den * b:
            return f"row {i}: num_{i} - x * sum_j M_{i}j num_j != den * b_{i}"
    shifts = [max([0] + [-p.min_y_exponent() for p in (*r, b) if p]) for r, b in zip(matrix, rhs)]
    top = sum(s + max([0] + [p.max_y_exponent() for p in r if p]) for s, r in zip(shifts, matrix))
    if any(i > n or not 0 <= j <= top for i, j in den._terms):
        return f"den has a term outside x^0..x^{n}, y^0..y^{top}"
    for y0 in range(1, top + 2):
        at_y = [
            [sum(c * y0 ** (e + s) for (_, e), c in p._terms.items()) for p in row]
            for s, row in zip(shifts, matrix)
        ]
        for x0 in range(n + 1):
            rows = [
                [(i == j) * y0**s - x0 * v for j, v in enumerate(line)]
                for i, (s, line) in enumerate(zip(shifts, at_y))
            ]
            value = sum(c * x0**i * y0**j for (i, j), c in den._terms.items())
            if value != _bareiss_det(rows):
                return f"den at x={x0}, y={y0} is not the shifted det(I - x*M) there"
    return None
