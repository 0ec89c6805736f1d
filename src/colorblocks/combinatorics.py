"""Combinatorial number helpers: binomials, Stirling numbers, partitions."""

from __future__ import annotations

import math


def binomial(n: int, r: int) -> int:
    """C(n, r), zero outside 0 <= r <= n."""
    if n < 0 or r < 0 or r > n:
        return 0
    return math.comb(n, r)


def stirling_row(n: int, width: int) -> list[int]:
    """S(n, 0), ..., S(n, width): one row of Stirling numbers of the second
    kind, cut at column ``width``.  It is built in place by
    S(m, i) = i*S(m-1, i) + S(m-1, i-1) for m = 1..n, in O(n*width) time and
    O(width) memory, and nothing is kept between calls."""
    if n < 0 or width < 0:
        raise ValueError("arguments must be >= 0")
    row = [1] + [0] * width  # row 0: S(0, 0) = 1
    for m in range(1, n + 1):
        # right to left, so row[i - 1] is still S(m-1, i-1); S(m, i) = 0 for i > m
        for i in range(min(m, width), 0, -1):
            row[i] = i * row[i] + row[i - 1]
        row[0] = 0
    return row


def stirling2(n: int, i: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into i blocks."""
    if i > n >= 0:  # zero, without a row of width i
        return 0
    return stirling_row(n, i)[i]


def _partition_counts(n: int, largest: int) -> list[int]:
    """Partitions of 0..n with every part at most ``largest``."""
    # classic bounded DP: add parts 1..largest one at a time
    p = [0] * (n + 1)
    p[0] = 1
    for part in range(1, largest + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p


def partition_count(n: int) -> int:
    """p(n), the number of integer partitions of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partition_counts(n, n)[n]


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
