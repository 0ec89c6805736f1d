"""Ground truth by exhaustive enumeration.

Every one of the k^n colorings of a graph corresponds to exactly one colored
partition: its blocks are the maximal monochromatic connected components.
``distribution_bruteforce`` tallies y^(number of blocks) over all colorings.

Colorings are enumerated as mixed-radix counters over a fixed vertex order,
range-partitioned into chunks; each chunk is a column-major numpy table (one
row per coloring, one column per vertex).  The blocks of every row are counted
in one union pass in vertex order (incremental set union, as in Tarjan, J.
ACM 22, 1975): vertices are added one at a time, each monochromatic edge to an
earlier vertex merges two labels, and only the frontier, the added vertices
that still have a neighbour to come, keeps its labels up to date.  The
per-chunk tallies are merged by addition, so chunking never affects the
result.

numpy is imported by the kernel functions themselves, at the first
brute-force call, so that importing the package (and every route that never
enumerates: the transfer engine, the closed forms, the symbolic solves) does
not load it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LaurentPoly2
from .errors import CapExceededError
from .graphs import Graph, union_roots

DEFAULT_ENUMERATION_CAP = 1 << 24
_CHUNK_ROWS = 1 << 15


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


def _narrowest_int(top: int) -> type:
    """The narrowest signed numpy integer dtype that holds 0..top."""
    import numpy as np

    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _color_chunk(lo: int, hi: int, n: int, k: int) -> np.ndarray:
    """Rows lo..hi-1 of the mixed-radix coloring table (vertex 0 most significant).

    Column-major in the narrowest dtype that holds k-1, so each vertex's
    colors are one contiguous column.  The digits come from a running
    quotient, least significant digit first; numpy divides an integer array
    by a scalar several times faster with ``//`` than with ``divmod``/``%``.
    """
    import numpy as np

    colors = np.empty((hi - lo, n), dtype=_narrowest_int(k - 1), order="F")
    q = np.arange(lo, hi, dtype=np.int32 if max(hi, k) < 1 << 31 else np.int64)
    for v in range(n - 1, -1, -1):
        quotient = q // k
        colors[:, v] = q - quotient * k
        q = quotient
    return colors


def _chunk_block_counts(colors: np.ndarray, edges: list[tuple[int, int]]) -> np.ndarray:
    """Per-row component counts of the monochromatic subgraph.

    One union pass in vertex order, over all rows at once.  Every row starts
    with n blocks and each vertex labelled by its own index.  Edges are taken
    by (later endpoint, earlier endpoint); where an edge is monochromatic and
    joins two different labels, the larger label becomes the smaller one and
    the row loses a block.  Labels stay exact only on the frontier: vertices
    added so far that still have a neighbour at the current vertex or later,
    the only ones a later edge reads.  The frontier changes once per vertex.
    At the first edge into a vertex, that vertex is alone in its block and
    holds the largest label, so only its own label changes.
    """
    import numpy as np

    rows, n = colors.shape
    edges = sorted(((min(e), max(e)) for e in edges), key=lambda e: (e[1], e[0]))
    last = [-1] * n  # a vertex's latest later neighbour
    for u, v in edges:
        last[u] = v
    blocks = np.full(rows, n, dtype=_narrowest_int(n))
    labels = np.empty((rows, n), dtype=_narrowest_int(n - 1), order="F")
    same = np.empty(rows, dtype=bool)
    hit = np.empty(rows, dtype=bool)
    frontier: list[int] = []
    added = 0
    current = -1
    for u, v in edges:
        lu, lv = labels[:, u], labels[:, v]
        np.equal(colors[:, u], colors[:, v], out=same)
        if v != current:
            current = v
            frontier = [w for w in frontier if last[w] >= v]
            for w in range(added, v + 1):
                if last[w] >= v or w == v:
                    labels[:, w] = w
                    frontier.append(w)
            added = v + 1
            blocks -= same
            lv -= (v - lu) * same
            continue
        high = np.maximum(lu, lv)
        drop = high - np.minimum(lu, lv)
        drop *= same  # 0 where nothing merges
        np.not_equal(drop, 0, out=hit)
        if not hit.any():
            continue
        blocks -= hit
        for w in frontier:
            lw = labels[:, w]
            np.equal(lw, high, out=hit)
            lw -= hit * drop
    return blocks


def _tally_range(g: Graph, k: int, lo: int, hi: int) -> np.ndarray:
    import numpy as np

    edges = g.edges()
    counts = np.zeros(g.n + 1, dtype=np.int64)
    for start in range(lo, hi, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, hi)
        colors = _color_chunk(start, stop, g.n, k)
        blocks = _chunk_block_counts(colors, edges)
        counts += np.bincount(blocks, minlength=g.n + 1)
    return counts


def _tally_threads(g: Graph, k: int, total: int, threads: int) -> np.ndarray:
    """``_tally_range(g, k, 0, total)`` split into equal ranges, one thread each.

    numpy is imported here, on the calling thread, before any worker starts."""
    import numpy as np

    bounds = [total * i // threads for i in range(threads + 1)]
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
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
    return sum(partials, np.zeros(g.n + 1, dtype=np.int64))


def distribution_bruteforce(
    g: Graph,
    k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> BlockDistribution:
    """Exact block distribution of (g, k) by full enumeration."""
    total = check_enumeration_cap(g.n, k, cap)
    if threads > 1:
        counts = _tally_threads(g, k, total, threads)
    else:
        counts = _tally_range(g, k, 0, total)
    poly = LaurentPoly2({(0, b): int(counts[b]) for b in range(1, g.n + 1)})
    return BlockDistribution(poly, g.n, k)


def proper_coloring_count(g: Graph, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Colorings with every edge bichromatic, by direct filtering."""
    import numpy as np

    total = check_enumeration_cap(g.n, k, cap)
    edges = g.edges()
    count = 0
    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        colors = _color_chunk(start, stop, g.n, k)
        ok = np.ones(stop - start, dtype=bool)
        for u, v in edges:
            ok &= colors[:, u] != colors[:, v]
        count += int(ok.sum())
    return count
