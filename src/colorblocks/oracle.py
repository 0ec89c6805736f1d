"""Ground truth by exhaustive enumeration.

Every one of the k^n colorings of a graph corresponds to exactly one colored
partition: its blocks are the maximal monochromatic connected components.
``distribution_bruteforce`` tallies y^(number of blocks) over all colorings.

Colorings are enumerated as mixed-radix counters over a fixed vertex order,
range-partitioned into chunks; each chunk is processed as a numpy array
(one row per coloring) with min-label propagation doing the per-coloring
component count.  The per-chunk tallies are merged by addition, so chunking
never affects the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import LaurentPoly2
from .errors import CapExceededError
from .graphs import Graph

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
        """Value at y=1; equals k^vertex_count for genuine distributions."""
        return self.poly.evaluate(1, 1)

    def expected(self) -> Fraction:
        return expected_blocks(self)


def expected_blocks(dist: BlockDistribution) -> Fraction:
    """Mean block count under the uniform random coloring, exactly."""
    weighted = dist.poly.derivative_y().evaluate(1, 1)
    return weighted / Fraction(dist.k**dist.vertex_count)


def block_count(g: Graph, coloring) -> int:
    """Number of maximal monochromatic connected components (union-find)."""
    if len(coloring) != g.n:
        raise ValueError(f"coloring length {len(coloring)} != vertex count {g.n}")
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = g.n
    for u, v in g.edges():
        if coloring[u] == coloring[v]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                count -= 1
    return count


def _check_cap(g: Graph, k: int, cap: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    total = k**g.n
    if total > cap:
        raise CapExceededError(
            f"{k}^{g.n} colorings exceed the enumeration cap {cap}; "
            "for graph-path products use the transfer engine instead"
        )
    return total


def _color_chunk(lo: int, hi: int, n: int, k: int) -> np.ndarray:
    """Rows lo..hi-1 of the mixed-radix coloring table (vertex 0 most significant)."""
    idx = np.arange(lo, hi, dtype=np.int64)
    colors = np.empty((hi - lo, n), dtype=np.int32)
    for v in range(n):
        colors[:, v] = (idx // k ** (n - 1 - v)) % k
    return colors


def _chunk_block_counts(colors: np.ndarray, edges: list[tuple[int, int]]) -> np.ndarray:
    """Per-row component counts of the monochromatic subgraph.

    Min-label propagation: labels start as vertex indices and flow along
    monochromatic edges until a fixpoint; each component then holds its
    minimum vertex index exactly once.
    """
    rows, n = colors.shape
    dtype = np.int16 if n > 127 else np.int8
    labels = np.tile(np.arange(n, dtype=dtype), (rows, 1))
    mono = [(u, v, colors[:, u] == colors[:, v]) for u, v in edges]
    mono = [(u, v, mask) for u, v, mask in mono if mask.any()]
    changed = True
    while changed:
        changed = False
        for u, v, mask in mono:
            lu = labels[:, u]
            lv = labels[:, v]
            mn = np.where(lu < lv, lu, lv)
            um = mask & (lu > mn)
            vm = mask & (lv > mn)
            if um.any():
                labels[um, u] = mn[um]
                changed = True
            if vm.any():
                labels[vm, v] = mn[vm]
                changed = True
    return (labels == np.arange(n, dtype=dtype)).sum(axis=1)


def _tally_range(g: Graph, k: int, lo: int, hi: int) -> np.ndarray:
    edges = g.edges()
    counts = np.zeros(g.n + 1, dtype=np.int64)
    for start in range(lo, hi, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, hi)
        colors = _color_chunk(start, stop, g.n, k)
        blocks = _chunk_block_counts(colors, edges)
        counts += np.bincount(blocks, minlength=g.n + 1)
    return counts


def distribution_bruteforce(
    g: Graph,
    k: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
) -> BlockDistribution:
    """Exact block distribution of (g, k) by full enumeration."""
    total = _check_cap(g, k, cap)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        bounds = np.linspace(0, total, threads + 1, dtype=np.int64)
        ranges = [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(threads)
            if bounds[i] < bounds[i + 1]
        ]
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            partials = pool.map(lambda r: _tally_range(g, k, *r), ranges)
            counts = sum(partials, np.zeros(g.n + 1, dtype=np.int64))
    else:
        counts = _tally_range(g, k, 0, total)
    poly = LaurentPoly2({(0, b): int(counts[b]) for b in range(1, g.n + 1)})
    return BlockDistribution(poly, g.n, k)


def proper_coloring_count(g: Graph, k: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Colorings with every edge bichromatic, by direct filtering."""
    total = _check_cap(g, k, cap)
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
