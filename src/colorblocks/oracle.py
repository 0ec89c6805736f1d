"""Ground truth by exhaustive enumeration.

Every one of the k^n colorings of a graph corresponds to exactly one colored
partition: its blocks are the maximal monochromatic connected components.
``distribution_bruteforce`` tallies y^(number of blocks) over all colorings.

Colorings are enumerated as mixed-radix counters over a fixed vertex order,
range-partitioned into chunks.  Each chunk is bit-sliced (as in Biham's
bitslice DES, FSE 1997): one Python ``int`` per vertex and color bit, whose
bit r - lo stands for coloring r, so one big-integer ``&``, ``|`` or ``^``
acts on every coloring of the chunk at once.  The blocks of every row are
counted in one union pass in vertex order (incremental set union, as in
Tarjan, J. ACM 22, 1975): vertices are added one at a time, each
monochromatic edge to an earlier vertex merges two labels, and only the
frontier, the added vertices that still have a neighbour to come, keeps its
labels up to date.  The per-chunk tallies are merged by addition, so chunking
never affects the result.

Only the colorings that use their colors in first-use order are enumerated.
The blocks of a coloring depend on its partition of V into color classes
alone, so a permutation of the k colors keeps every block count.  Fix a
prefix of vertices 0..r-1; each coloring's prefix has one first-use
(restricted-growth) pattern p, the prefix relabelled so that colors appear in
the order 0, 1, 2, ... .  If p uses u(p) colors, exactly (k)_u(p) =
k(k-1)...(k-u(p)+1) prefixes share it, one per injective choice of its
colors, and a color permutation that takes one of them to p maps its
colorings one to one onto the colorings whose prefix is p itself, block
counts kept.  Vertex 0 is the most significant digit, so those are one
contiguous range [idx(p)*k^(n-r), (idx(p)+1)*k^(n-r)), idx(p) being p read
in base k.  Hence

    sum over colorings of y^blocks = sum over p of (k)_u(p) * (p's range),

and the same holds for any count closed under color permutation, such as the
proper colorings.  The rows tallied fall from k^n to
(sum over u <= k of S(r, u)) * k^(n-r), S the Stirling numbers of the second
kind: at most k^n / k, and about k^n / k! once r passes k.  The prefix grows
from r = 1 while the next tail k^(n-r-1) still fills a chunk
(``_CHUNK_ROWS`` rows), so past r = 1 each range holds at least one whole
chunk and there are at most k^n / ``_CHUNK_ROWS`` ranges.
``_tally_range(g, k, 0, k**n)`` is the plain enumeration, the tests'
reference.

No array library is involved: big-integer bit operations run in C, so a
brute-force call, cold or warm, pays no import or first-call set-up beyond
the standard library.  They hold the interpreter lock, so ``threads=2``
splits the work between two threads that do not run in parallel.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly2
from .errors import CapExceededError
from .graphs import Graph, union_roots

DEFAULT_ENUMERATION_CAP = 1 << 24
_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class BlockDistribution:
    """The polynomial sum of y^blocks over all k^n colorings of a graph."""

    poly: LaurentPoly2
    vertex_count: int
    k: int

    def __post_init__(self):
        if self.poly.x_degree() > 0:
            raise ValueError("distribution polynomials live in y alone")

    def coefficients(self) -> dict[int, int]:
        """Map y-exponent -> coefficient."""
        return {j: c for (_, j), c in sorted(self.poly.terms.items())}

    def coefficient(self, blocks: int) -> int:
        return self.poly.coefficient(0, blocks)

    def total(self) -> Fraction:
        """Value at y=1, the coefficient sum; equals k^vertex_count for genuine
        distributions."""
        return Fraction(sum(self.poly.terms.values()))

    def expected(self) -> Fraction:
        return expected_blocks(self)


def expected_blocks(dist: BlockDistribution) -> Fraction:
    """Mean block count under the uniform random coloring, exactly: the value
    at x = y = 1 of d/dy, which is the sum of j*c over the terms c*x^i*y^j."""
    weighted = sum(j * c for (_, j), c in dist.poly.terms.items())
    return Fraction(weighted, dist.k**dist.vertex_count)


def block_count(g: Graph, coloring) -> int:
    """Number of maximal monochromatic connected components: the distinct
    roots after merging the ends of every same-colored edge."""
    if len(coloring) != g.n:
        raise ValueError(f"coloring length {len(coloring)} != vertex count {g.n}")
    same = [(u, v) for u, v in g.edges() if coloring[u] == coloring[v]]
    return len(set(union_roots(g.n, same)))


def check_enumeration_cap(vertices: int, k: int, cap: int) -> int:
    """k^vertices, the number of colorings to enumerate, when it is within the
    cap; CapExceededError otherwise."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # 2^vertices > cap once vertices reaches the bit length of cap, so a huge
    # k^vertices is never formed
    total = k**vertices if k == 1 or vertices < cap.bit_length() else cap + 1
    if total > cap:
        raise CapExceededError(
            f"{k}^{vertices} colorings exceed the enumeration cap {cap}; "
            "for graph-path products use the transfer engine instead"
        )
    return total


def _ones(start: int, stop: int) -> int:
    """Bits start..stop-1."""
    return ((1 << (stop - start)) - 1) << start


def _tile(unit: int, period: int, phase: int, length: int) -> int:
    """Bits phase..phase+length-1 of ``unit`` repeated every ``period`` bits,
    by shift-or doublings."""
    span = period
    while span < phase + length:
        unit |= unit << span
        span <<= 1
    return (unit >> phase) & ((1 << length) - 1)


def _upper_halves(half: int, period: int, start: int, length: int) -> int:
    """Bit t - start, for t in start..start+length-1, set where t mod period >= half."""
    phase = start % period
    if period <= length:
        return _tile(_ones(half, period), period, phase, length)
    # the window meets at most two periods, each with one run of ones
    plane = 0
    for top in (start - phase + period, start - phase + 2 * period):
        a, e = max(top - period + half, start), min(top, start + length)
        if a < e:
            plane |= _ones(a - start, e - start)
    return plane


def _digit_plane(lo: int, rows: int, place: int, k: int, j: int) -> int:
    """Bit r - lo set where bit j of the digit (r // place) % k is set.

    Within a period of k*place rows the digit c fills place rows, and bit j of
    c is set exactly on the upper half of each 2^(j+1)-digit stretch; so the
    plane is an inner pattern (period place*2^(j+1)) restarted every k*place
    rows.  Each level is tiled by doublings, never one run per color, and a
    period longer than the window is clipped to the window.
    """
    period = k * place
    half = place << j
    phase = lo % period
    if period <= rows:
        return _tile(_upper_halves(half, 2 * half, 0, period), period, phase, rows)
    first = min(rows, period - phase)
    plane = _upper_halves(half, 2 * half, phase, first)
    if first < rows:
        plane |= _upper_halves(half, 2 * half, 0, rows - first) << first
    return plane


@dataclass(frozen=True)
class ColorPlanes:
    """Rows lo..hi-1 of the coloring table, bit-sliced: bit ``r - lo`` of
    ``planes[v][j]`` is bit j of vertex v's color in coloring r."""

    planes: list[list[int]]
    rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, len(self.planes))

    @property
    def nbytes(self) -> int:
        """Bytes of the bit planes, one bit per row."""
        return sum(map(len, self.planes)) * ((self.rows + 7) // 8)


def _color_chunk(lo: int, hi: int, n: int, k: int) -> ColorPlanes:
    """Rows lo..hi-1 of the mixed-radix coloring table (vertex 0 most
    significant), as (k-1).bit_length() bit planes per vertex."""
    width = (k - 1).bit_length()
    planes = []
    for v in range(n):
        place = k ** (n - 1 - v)
        planes.append([_digit_plane(lo, hi - lo, place, k, j) for j in range(width)])
    return ColorPlanes(planes, hi - lo)


def _differ(a: list[int], b: list[int]) -> int:
    """The rows where two bit-sliced values differ."""
    out = 0
    for x, y in zip(a, b):
        out |= x ^ y
    return out


def _chunk_block_counts(colors: ColorPlanes, edges: list[tuple[int, int]]) -> list[int]:
    """Histogram of the monochromatic subgraph's component counts over the
    chunk's rows: ``counts[b]`` rows have b blocks.

    One union pass in vertex order, bit-sliced over all rows at once.  Every
    row starts with n blocks and each vertex labelled by its own index, held
    in (n-1).bit_length() planes.  Edges are taken by (later endpoint,
    earlier endpoint); where an edge is monochromatic and joins two different
    labels, every label equal to v's takes u's, and the row counts one merge.
    Labels stay exact only on the frontier: vertices added so far that still
    have a neighbour at the current vertex or later, the only ones a later
    edge reads.  The frontier changes once per vertex.  At the first edge into
    a vertex, that vertex is alone in its block, so only its own label
    changes.  A new vertex's index is larger than every label in use, so
    labels name blocks one to one.  The merges per row are a bit-sliced
    counter; a row with m merges has n - m blocks.
    """
    rows, n = colors.shape
    planes = colors.planes
    full = (1 << rows) - 1
    width = (n - 1).bit_length()
    edges = sorted(((min(e), max(e)) for e in edges), key=lambda e: (e[1], e[0]))
    last = [-1] * n  # a vertex's latest later neighbour
    for u, v in edges:
        last[u] = v
    labels: list[list[int]] = [[]] * n
    merges: list[int] = []  # counter planes, least significant first
    frontier: list[int] = []
    added = 0
    current = -1
    for u, v in edges:
        same = full ^ _differ(planes[u], planes[v])
        if v != current:
            current = v
            frontier = [w for w in frontier if last[w] >= v]
            for w in range(added, v):
                if last[w] >= v:
                    labels[w] = [full if w >> i & 1 else 0 for i in range(width)]
                    frontier.append(w)
            added = v + 1
            frontier.append(v)
            apart = full ^ same
            labels[v] = [a & same | (apart if v >> i & 1 else 0) for i, a in enumerate(labels[u])]
            hit = same
            if not hit:
                continue
        else:
            lu, lv = labels[u], labels[v]
            delta = [a ^ b for a, b in zip(lu, lv)]
            hit = 0
            for d in delta:
                hit |= d
            hit &= same
            if not hit:
                continue
            # every frontier label equal to v's takes u's, which differs from
            # it by delta; a ^ b below is set where a equals v's label
            unlv = [full ^ b for b in lv]
            for w in frontier:
                lw = labels[w]
                match = hit
                for a, b in zip(lw, unlv):
                    match &= a ^ b
                    if not match:
                        break
                else:
                    for i, d in enumerate(delta):
                        lw[i] ^= d & match
        carry = hit
        for i, c in enumerate(merges):
            merges[i] = c ^ carry
            carry &= c
            if not carry:
                break
        else:
            merges.append(carry)
    # split the rows by the counter, top plane first
    groups = [(full, 0)]
    for i in range(len(merges) - 1, -1, -1):
        plane, split = merges[i], []
        for rows_in, value in groups:
            one = rows_in & plane
            if one:
                split.append((one, value | 1 << i))
            if one != rows_in:
                split.append((rows_in ^ one, value))
        groups = split
    counts = [0] * (n + 1)
    for rows_in, value in groups:
        counts[n - value] = rows_in.bit_count()
    return counts


def _prefix_ranges(n: int, k: int) -> list[tuple[int, int, int]]:
    """(lo, hi, weight) for each first-use coloring p of vertices 0..r-1, in
    increasing lo: rows lo..hi-1 of the coloring table are the colorings whose
    prefix is p, and weight is (k)_u(p), the number of prefixes that a color
    permutation takes to p.  The weighted row counts sum to k^n."""
    r = min(1, n)
    while r < n and k ** (n - r - 1) >= _CHUNK_ROWS:
        r += 1
    prefixes = [(0, 0)]  # (p read in base k, colors p uses)
    for _ in range(r):
        prefixes = [
            (idx * k + c, max(used, c + 1)) for idx, used in prefixes for c in range(min(used + 1, k))
        ]
    tail = k ** (n - r)
    return [(idx * tail, (idx + 1) * tail, math.perm(k, used)) for idx, used in prefixes]


def _tally_range(g: Graph, k: int, lo: int, hi: int) -> list[int]:
    edges = g.edges()
    counts = [0] * (g.n + 1)
    for start in range(lo, hi, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, hi)
        chunk = _chunk_block_counts(_color_chunk(start, stop, g.n, k), edges)
        counts = [a + b for a, b in zip(counts, chunk)]
    return counts


def _tally_threads(g: Graph, k: int, lo: int, hi: int, threads: int) -> list[int]:
    """``_tally_range(g, k, lo, hi)`` split into equal ranges, one thread each."""
    bounds = [lo + (hi - lo) * i // threads for i in range(threads + 1)]
    ranges = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    partials: list = [None] * len(ranges)

    def work(i: int, lo: int, hi: int):
        try:
            partials[i] = _tally_range(g, k, lo, hi)
        except BaseException as exc:  # re-raised on the calling thread
            partials[i] = exc

    workers = [threading.Thread(target=work, args=(i, *r)) for i, r in enumerate(ranges)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for partial in partials:
        if isinstance(partial, BaseException):
            raise partial
    return [sum(column) for column in zip(*partials)]


def distribution_bruteforce(
    g: Graph,
    k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> BlockDistribution:
    """Exact block distribution of (g, k), enumerated modulo color permutations.

    A color permutation keeps every block count, so the colorings whose
    first r vertices follow one first-use pattern p, which use u(p) colors,
    have the same histogram as p's own range of the table, (k)_u(p) times
    over.  Each range of ``_prefix_ranges`` is tallied (split between
    ``threads`` threads when more than one) and weighted by (k)_u(p); the sum
    is the histogram over all k^n colorings.  ``cap`` bounds k^n.
    """
    check_enumeration_cap(g.n, k, cap)
    counts = [0] * (g.n + 1)
    for lo, hi, weight in _prefix_ranges(g.n, k):
        if threads > 1:
            part = _tally_threads(g, k, lo, hi, threads)
        else:
            part = _tally_range(g, k, lo, hi)
        counts = [a + weight * b for a, b in zip(counts, part)]
    poly = LaurentPoly2({(0, b): counts[b] for b in range(1, g.n + 1)})
    return BlockDistribution(poly, g.n, k)


def _proper_range(g: Graph, k: int, lo: int, hi: int) -> int:
    """Rows lo..hi-1 of the coloring table with every edge bichromatic."""
    edges = g.edges()
    count = 0
    for start in range(lo, hi, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, hi)
        planes = _color_chunk(start, stop, g.n, k).planes
        proper = (1 << (stop - start)) - 1
        for u, v in edges:
            proper &= _differ(planes[u], planes[v])
        count += proper.bit_count()
    return count


def proper_coloring_count(g: Graph, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Colorings with every edge bichromatic, by filtering the ranges of
    ``_prefix_ranges``, each weighted by (k)_u(p): a color permutation keeps a
    coloring proper.  ``cap`` bounds k^n."""
    check_enumeration_cap(g.n, k, cap)
    return sum(weight * _proper_range(g, k, lo, hi) for lo, hi, weight in _prefix_ranges(g.n, k))
