"""Combinatorial number helpers: binomials, Stirling numbers, partitions."""

from __future__ import annotations

import math
from functools import lru_cache


def binomial(n: int, r: int) -> int:
    """C(n, r), zero outside 0 <= r <= n."""
    if n < 0 or r < 0 or r > n:
        return 0
    return math.comb(n, r)


@lru_cache(maxsize=None)
def _stirling_rows(n: int) -> tuple[tuple[int, ...], ...]:
    rows: list[tuple[int, ...]] = [(1,)]  # row 0: S(0,0) = 1
    for m in range(1, n + 1):
        prev = rows[m - 1]
        row = [0] * (m + 1)
        for i in range(1, m + 1):
            row[i] = i * (prev[i] if i < m else 0) + prev[i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def stirling2(n: int, i: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into i blocks."""
    if n < 0 or i < 0:
        raise ValueError("arguments must be >= 0")
    if i > n:
        return 0
    return _stirling_rows(n)[n][i]


def _partition_counts(n: int, largest: int) -> list[int]:
    """Partitions of 0..n with every part at most ``largest``."""
    # classic bounded DP: add parts 1..largest one at a time
    p = [0] * (n + 1)
    p[0] = 1
    for part in range(1, largest + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p


@lru_cache(maxsize=None)
def _partition_counts_upto(n: int) -> tuple[int, ...]:
    return tuple(_partition_counts(n, n))


def partition_count(n: int) -> int:
    """p(n), the number of integer partitions of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partition_counts_upto(n)[n]


def partition_count_at_most_k_parts(m: int, k: int) -> int:
    """len(partitions_at_most_k_parts(m, k)) without listing them: by
    conjugation, the partitions of m with every part at most k."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    return _partition_counts(m, min(k, m))[m]


def partitions_at_most_k_parts(m: int, k: int) -> list[tuple[int, ...]]:
    """All weakly decreasing tuples of positive parts, length <= k, summing to m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    out: list[tuple[int, ...]] = []
    parts: list[int] = []

    def rec(remaining: int, max_part: int):
        if remaining == 0:
            out.append(tuple(parts))
            return
        if len(parts) == k:
            return
        for part in range(min(max_part, remaining), 0, -1):
            parts.append(part)
            rec(remaining - part, part)
            parts.pop()

    rec(m, m)
    return out
