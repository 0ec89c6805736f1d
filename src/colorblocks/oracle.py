"""Ground truth by exhaustive enumeration.

Every one of the k^n colorings of a graph corresponds to exactly one colored
partition: its blocks are the maximal monochromatic connected components.
``distribution_bruteforce`` tallies y^(number of blocks) over all colorings.

Colorings are enumerated as mixed-radix counters over a fixed vertex order,
vertex 0 most significant, in chunks.  Each chunk is bit-sliced (as in Biham's
bitslice DES, FSE 1997): one Python ``int`` per vertex and color bit, whose
bit t stands for the chunk's coloring t, so one big-integer ``&``, ``|`` or
``^`` acts on every coloring of the chunk at once.  The blocks of every row
are counted in one union pass in vertex order (incremental set union, as in
Tarjan, J. ACM 22, 1975): vertices are added one at a time, each
monochromatic edge to an earlier vertex merges two labels, and only the
frontier, the added vertices that still have a neighbour to come, keeps its
labels up to date.  The per-chunk tallies are merged by addition.

Only the colorings that use their colors in first-use order are enumerated.
The blocks of a coloring depend on its partition of V into color classes
alone, so a permutation of the k colors keeps every block count.  Fix a
prefix of vertices 0..r-1; each coloring's prefix has one first-use
(restricted-growth) pattern p, the prefix relabelled so that colors appear in
the order 0, 1, 2, ... .  If p uses u(p) colors, exactly (k)_u(p) =
k(k-1)...(k-u(p)+1) prefixes share it, one per injective choice of its
colors, and a color permutation that takes one of them to p maps its
colorings one to one onto the colorings that start with p itself, block
counts kept.  Hence

    sum over colorings of y^blocks = sum over p of (k)_u(p) * (p's chunk),

p's chunk being p followed by each of the k^(n-r) colorings of vertices
r..n-1, and the same holds for any count closed under color permutation,
such as the proper colorings.  The rows tallied fall from k^n to
(sum over u <= k of S(r, u)) * k^(n-r), S the Stirling numbers of the second
kind: at most k^n / k, and about k^n / k! once r passes k.  The prefix grows
from r = 1 while the tail k^(n-r) holds more than ``_CHUNK_ROWS`` rows, so
each prefix is exactly one chunk.  The bit planes of the tail colorings are
built once per call and shared by every chunk, which only puts one constant
plane per prefix color bit in front.  The prefix () of weight 1 is the plain
enumeration of all k^n rows, the tests' reference.

No array library is involved: big-integer bit operations run in C, so a
brute-force call, cold or warm, pays no import or first-call set-up beyond
the standard library.  They hold the interpreter lock, so no thread is
started: every chunk is tallied in turn on the calling thread.  The
``threads`` argument of ``distribution_bruteforce`` only grows the prefix
while it has fewer first-use patterns than ``threads``.
"""

from __future__ import annotations

import math
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


def _tile(unit: int, period: int, length: int) -> int:
    """Bits 0..length-1 of ``unit`` repeated every ``period`` bits, by shift-or
    doublings."""
    while period < length:
        unit |= unit << period
        period <<= 1
    return unit & ((1 << length) - 1)


def _table_planes(m: int, k: int) -> list[list[int]]:
    """All k^m colorings of m vertices in mixed radix (vertex 0 most
    significant), bit-sliced: bit t of ``planes[v][j]`` is bit j of vertex v's
    color in coloring t.

    Vertex v's digit is c on rows c*place..(c+1)*place-1 of each period of
    k*place rows, place = k^(m-1-v); bit j of c is set exactly on the upper
    half of each 2^(j+1)-digit stretch.  So each plane is one run of ones,
    tiled over a digit period, and that period tiled over the table.
    """
    rows = k**m
    width = (k - 1).bit_length()
    planes = []
    for v in range(m):
        place = k ** (m - 1 - v)
        bits = []
        for j in range(width):
            half = place << j
            digit = _tile(((1 << half) - 1) << half, 2 * half, k * place)
            bits.append(_tile(digit, k * place, rows))
        planes.append(bits)
    return planes


@dataclass(frozen=True)
class ColorPlanes:
    """A chunk of colorings, bit-sliced: bit t of ``planes[v][j]`` is bit j of
    vertex v's color in the chunk's coloring t."""

    planes: list[list[int]]
    rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, len(self.planes))

    @property
    def nbytes(self) -> int:
        """Bytes of the bit planes, one bit per row."""
        return sum(map(len, self.planes)) * ((self.rows + 7) // 8)


def _color_chunk(prefix: tuple[int, ...], table: list[list[int]], rows: int, k: int) -> ColorPlanes:
    """The colorings that give vertices 0..r-1 the colors ``prefix`` and the
    rest each row of ``table`` (``rows`` rows): one constant plane, no rows or
    all of them, per bit of each prefix color, then the table's planes."""
    full = (1 << rows) - 1
    width = (k - 1).bit_length()
    head = [[full if c >> j & 1 else 0 for j in range(width)] for c in prefix]
    return ColorPlanes(head + table, rows)


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
        _count_rows(merges, hit)
    counts = [0] * (n + 1)
    for rows_in, value in _counter_groups(merges, full):
        counts[n - value] = rows_in.bit_count()
    return counts


def _count_rows(counter: list[int], plane: int):
    """Add one to a bit-sliced counter (planes least significant first) on
    the rows of ``plane``, by ripple carry."""
    carry = plane
    for i, c in enumerate(counter):
        counter[i] = c ^ carry
        carry &= c
        if not carry:
            return
    counter.append(carry)


def _counter_groups(counter: list[int], rows: int) -> list[tuple[int, int]]:
    """(rows, value): the rows of ``rows`` split by their counter value, top
    plane first."""
    groups = [(rows, 0)]
    for i in range(len(counter) - 1, -1, -1):
        plane, split = counter[i], []
        for rows_in, value in groups:
            one = rows_in & plane
            if one:
                split.append((one, value | 1 << i))
            if one != rows_in:
                split.append((rows_in ^ one, value))
        groups = split
    return groups


def _prefixes(n: int, k: int, threads: int = 1) -> list[tuple[tuple[int, ...], int]]:
    """(p, (k)_u(p)) for each first-use coloring p of vertices 0..r-1, u(p)
    the colors p uses: (k)_u(p) is the number of prefixes that a color
    permutation takes to p.  r grows from 1 while the tail k^(n-r) holds more
    than ``_CHUNK_ROWS`` rows, or while there are fewer prefixes than
    ``threads`` (at k = 1 there is only ever one).  The prefixes are all
    tallied on the calling thread; ``threads`` only sets how many there are
    at least."""
    found = [((), 0)]  # (p, colors p uses)
    r = 0
    while r < n and (r == 0 or k ** (n - r) > _CHUNK_ROWS or k > 1 and len(found) < threads):
        found = [(p + (c,), max(used, c + 1)) for p, used in found for c in range(min(used + 1, k))]
        r += 1
    return [(p, math.perm(k, used)) for p, used in found]


def _proper_rows(colors: ColorPlanes, edges: list[tuple[int, int]]) -> list[int]:
    """The number of the chunk's rows with every edge bichromatic, as a
    one-term list for ``_sum_chunks``."""
    planes = colors.planes
    proper = (1 << colors.rows) - 1
    for u, v in edges:
        proper &= _differ(planes[u], planes[v])
    return [proper.bit_count()]


def _sum_chunks(g: Graph, k: int, prefixes, count) -> list[int]:
    """The sum of weight * count(chunk, edges), term by term (at most n + 1
    terms), over (p, weight) in ``prefixes`` (all of one length r), p's chunk
    being p followed by every coloring of vertices r..n-1.  The table of those
    colorings is built once, and the chunks are tallied one after another on
    the calling thread.  ``[((), 1)]`` is the plain enumeration of all k^n
    rows."""
    edges = g.edges()
    table = _table_planes(g.n - len(prefixes[0][0]), k)
    rows = k ** len(table)
    sums = [0] * (g.n + 1)
    for p, weight in prefixes:
        part = count(_color_chunk(p, table, rows, k), edges)
        sums = [a + weight * b for a, b in zip(sums, part)]
    return sums


def distribution_bruteforce(
    g: Graph,
    k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> BlockDistribution:
    """Exact block distribution of (g, k), enumerated modulo color permutations.

    A color permutation keeps every block count, so the colorings whose
    first r vertices follow one first-use pattern p, which use u(p) colors,
    have the same histogram as the colorings that start with p itself,
    (k)_u(p) times over.  Each prefix of ``_prefixes`` is tallied as one
    chunk on the calling thread and weighted by (k)_u(p); the sum is the
    histogram over all k^n colorings.  ``cap`` bounds k^n.  No thread is
    started: ``threads`` (at least 1) only asks for at least that many
    prefixes.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    check_enumeration_cap(g.n, k, cap)
    counts = _sum_chunks(g, k, _prefixes(g.n, k, threads), _chunk_block_counts)
    poly = LaurentPoly2({(0, b): counts[b] for b in range(1, g.n + 1)})
    return BlockDistribution(poly, g.n, k)


def proper_coloring_count(g: Graph, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Colorings with every edge bichromatic, by filtering the chunk of each
    prefix of ``_prefixes``, weighted by (k)_u(p): a color permutation keeps a
    coloring proper.  ``cap`` bounds k^n."""
    check_enumeration_cap(g.n, k, cap)
    return _sum_chunks(g, k, _prefixes(g.n, k), _proper_rows)[0]
