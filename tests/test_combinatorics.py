"""Combinatorics helpers against enumeration and tabulated values."""

import itertools
import tracemalloc

import pytest

from colorblocks.closed_forms import complete_distribution
from colorblocks.combinatorics import (
    binomial,
    partition_count,
    partition_count_at_most_k_parts,
    partitions_at_most_k_parts,
    stirling2,
    stirling_row,
)


def set_partitions_into(n, blocks):
    """Brute-force count of partitions of {0..n-1} into exactly `blocks` parts."""
    if n == 0:
        return 1 if blocks == 0 else 0
    count = 0
    # assign each element a block label; count canonical labelings only
    for labels in itertools.product(range(blocks), repeat=n):
        if max(labels) != blocks - 1:
            continue
        seen = {}
        ok = True
        for lab in labels:
            if lab not in seen:
                if lab != len(seen):  # labels must first appear in order
                    ok = False
                    break
                seen[lab] = True
        if ok:
            count += 1
    return count


def test_stirling_examples():
    assert stirling2(4, 2) == 7
    assert stirling2(4, 2) == set_partitions_into(4, 2)
    assert stirling2(0, 0) == 1
    assert stirling2(5, 5) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(2, 5) == 0


def test_stirling_against_enumeration():
    for n in range(6):
        for i in range(n + 1):
            assert stirling2(n, i) == set_partitions_into(n, i)


def test_stirling_row_sums_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]
    assert [sum(stirling2(n, i) for i in range(n + 1)) for n in range(12)] == bell


def test_stirling_row_matches_triangle():
    # the full triangle, row by row, built here independently of stirling_row
    triangle = [[1]]
    for n in range(1, 41):
        prev = triangle[-1] + [0]
        triangle.append([0] + [i * prev[i] + prev[i - 1] for i in range(1, n + 1)])
    for n, full in enumerate(triangle):
        for width in range(n + 3):
            want = (full + [0] * 3)[: width + 1]
            assert stirling_row(n, width) == want, (n, width)


@pytest.mark.parametrize("n, width", [(-1, 0), (0, -1), (-3, -3), (5, -1)])
def test_stirling_row_rejects_negative_arguments(n, width):
    with pytest.raises(ValueError):
        stirling_row(n, width)


@pytest.mark.parametrize("n, i", [(-1, 0), (0, -1), (-1, 2)])
def test_stirling2_rejects_negative_arguments(n, i):
    with pytest.raises(ValueError):
        stirling2(n, i)


def test_complete_distribution_keeps_no_triangle():
    # two coefficients of K_2000 need one row of width 2, not the triangle
    tracemalloc.start()
    try:
        coefficients = complete_distribution(2000, 2).coefficients()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coefficients == {1: 2, 2: 2**2000 - 2}
    assert peak < 1 << 20, peak


def test_binomial_symmetry():
    for n in range(12):
        for r in range(n + 1):
            assert binomial(n, r) == binomial(n, n - r)
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_partition_count_small():
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    assert [partition_count(m) for m in range(16)] == want


def test_partitions_at_most_k_parts_examples():
    assert partitions_at_most_k_parts(4, 2) == [(4,), (3, 1), (2, 2)]
    assert partitions_at_most_k_parts(0, 3) == [()]
    assert sorted(partitions_at_most_k_parts(3, 3)) == [(1, 1, 1), (2, 1), (3,)]


def test_partitions_shape():
    for m in range(8):
        for k in range(1, 6):
            for parts in partitions_at_most_k_parts(m, k):
                assert sum(parts) == m
                assert len(parts) <= k
                assert all(p >= 1 for p in parts)
                assert list(parts) == sorted(parts, reverse=True)


def test_unrestricted_partitions_match_partition_count():
    for m in range(1, 40):
        assert partition_count_at_most_k_parts(m, m) == partition_count(m)


def test_partition_count_at_most_k_parts_matches_listing():
    for m in range(21):
        for k in range(1, 23):
            assert partition_count_at_most_k_parts(m, k) == len(partitions_at_most_k_parts(m, k))


def test_partition_count_small_k_closed_forms():
    # the bounds `colorblocks classes` rejects from before any exact count
    for m in range(200):
        assert partition_count_at_most_k_parts(m, 1) == 1
        assert partition_count_at_most_k_parts(m, 2) == m // 2 + 1
        assert partition_count_at_most_k_parts(m, 3) == ((m + 3) ** 2 + 6) // 12


def test_gaussian_binomial_counts_classes():
    # coefficient of q^m in the q-binomial (m+k choose k)_q equals the number
    # of partitions of m into at most k parts
    def q_binomial(n, k):
        # DP on the recurrence [n,k]_q = [n-1,k-1]_q + q^k [n-1,k]_q
        table = {}
        for nn in range(n + 1):
            for kk in range(min(nn, k) + 1):
                if kk == 0 or kk == nn:
                    table[(nn, kk)] = [1]
                    continue
                a = table[(nn - 1, kk - 1)]
                b = table.get((nn - 1, kk), [0])
                out = [0] * max(len(a), len(b) + kk)
                for i, c in enumerate(a):
                    out[i] += c
                for i, c in enumerate(b):
                    out[i + kk] += c
                table[(nn, kk)] = out
        return table[(n, k)]

    for m in range(9):
        for k in range(1, 5):
            coeffs = q_binomial(m + k, k)
            want = coeffs[m] if m < len(coeffs) else 0
            assert len(partitions_at_most_k_parts(m, k)) == want
