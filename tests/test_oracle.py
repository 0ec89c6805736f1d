import itertools
import math
import threading
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from colorblocks import oracle
from colorblocks.algebra import LaurentPoly2
from colorblocks.combinatorics import stirling2
from colorblocks.errors import CapExceededError
from colorblocks.graphs import Graph, complete, cycle, grid, path, perfect_binary_tree
from colorblocks.oracle import (
    BlockDistribution,
    block_count,
    distribution_bruteforce,
    expected_blocks,
    proper_coloring_count,
)
from colorblocks.polytext import parse_poly


class TestBlockCount:
    def test_monochromatic(self):
        assert block_count(complete(4), [0, 0, 0, 0]) == 1

    def test_two_cliques(self):
        assert block_count(complete(4), [0, 0, 1, 1]) == 2

    def test_proper_coloring_gives_singletons(self):
        assert block_count(path(3), [0, 1, 0]) == 3

    def test_disconnected_same_color(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert block_count(g, [0, 0, 0, 0]) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_count(path(3), [0, 1])


class TestDistribution:
    def test_edge_two_colors(self):
        d = distribution_bruteforce(path(2), 2)
        assert d.poly == parse_poly("2*y+2*y^2")
        assert d.total() == 4

    def test_k4(self):
        d = distribution_bruteforce(complete(4), 2)
        assert d.poly == parse_poly("2*y+14*y^2")

    def test_seven_vertex_binary_tree(self):
        d = distribution_bruteforce(perfect_binary_tree(2), 2)
        assert d.poly == parse_poly(
            "2*y+12*y^2+30*y^3+40*y^4+30*y^5+12*y^6+2*y^7"
        )

    def test_k1_coloring_budget(self):
        # one color: a single coloring whose blocks are the components
        assert distribution_bruteforce(path(4), 1).poly == parse_poly("y")
        two = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert distribution_bruteforce(two, 1).poly == parse_poly("y^2")

    def test_cap(self):
        with pytest.raises(CapExceededError) as exc:
            distribution_bruteforce(path(30), 2, cap=1 << 20)
        assert "transfer" in str(exc.value)

    def test_cap_on_a_vertex_count_forms_no_huge_power(self):
        # 2^(10^30) would not fit in memory; the bit length of the cap decides
        with pytest.raises(CapExceededError, match=r"2\^10{30} colorings exceed"):
            oracle.check_enumeration_cap(10**30, 2, 1 << 24)
        assert oracle.check_enumeration_cap(10**30, 1, 1 << 24) == 1
        assert oracle.check_enumeration_cap(24, 2, 1 << 24) == 1 << 24
        with pytest.raises(CapExceededError):
            oracle.check_enumeration_cap(25, 2, 1 << 24)
        with pytest.raises(CapExceededError):
            oracle.check_enumeration_cap(2, 5000, 1 << 24)

    def test_threads_agree(self):
        g = grid(2, 4)
        assert (
            distribution_bruteforce(g, 2).poly
            == distribution_bruteforce(g, 2, threads=4).poly
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            distribution_bruteforce(path(2), 0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_threads_below_one(self, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            distribution_bruteforce(path(3), 2, threads=threads)


class TestExpectedBlocks:
    def test_edge(self):
        d = distribution_bruteforce(path(2), 2)
        assert expected_blocks(d) == Fraction(3, 2)

    def test_k4(self):
        d = distribution_bruteforce(complete(4), 2)
        assert expected_blocks(d) == Fraction(15, 8)

    def test_single_vertex(self):
        for k in (1, 2, 5):
            d = distribution_bruteforce(path(1), k)
            assert expected_blocks(d) == 1


    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(-3, 8)),
            st.integers(-(10**30), 10**30),
            max_size=12,
        ),
        st.integers(1, 5),
        st.integers(0, 6),
    )
    def test_coefficient_sums_equal_evaluation_at_one(self, terms, k, n):
        # x > 0 terms and negative coefficients are outside what a distribution
        # holds, so the functions see a stand-in object rather than a
        # BlockDistribution; evaluate(1, 1) is the reference
        poly = LaurentPoly2(terms)
        dist = SimpleNamespace(poly=poly, k=k, vertex_count=n)
        assert BlockDistribution.total(dist) == poly.evaluate(1, 1)
        want = poly.derivative_y().evaluate(1, 1) / Fraction(k**n)
        got = expected_blocks(dist)
        assert got == want and isinstance(got, Fraction)


class TestProperColorings:
    def test_triangle_needs_three_colors(self):
        assert proper_coloring_count(complete(3), 2) == 0

    def test_triangle_three_colors(self):
        assert proper_coloring_count(complete(3), 3) == 6

    def test_path_alternations(self):
        assert proper_coloring_count(path(3), 2) == 2

    def test_cap(self):
        with pytest.raises(CapExceededError):
            proper_coloring_count(path(30), 2, cap=1 << 20)


class TestInvariants:
    GRAPHS = [path(4), cycle(5), complete(4), grid(2, 3), perfect_binary_tree(2),
              Graph.from_edges(5, [(0, 1), (2, 3)])]

    def test_normalization(self):
        for g in self.GRAPHS:
            for k in (1, 2, 3):
                assert distribution_bruteforce(g, k).total() == k**g.n

    def test_two_color_coefficients_even(self):
        # swapping the two colors is a fixed-point-free bijection that keeps blocks
        for g in self.GRAPHS:
            assert all(c % 2 == 0 for c in distribution_bruteforce(g, 2).coefficients().values())


def test_distribution_type_rejects_x_terms():
    with pytest.raises(ValueError):
        BlockDistribution(parse_poly("x*y"), 1, 2)


def _enumerated(g, k):
    """block_count over every coloring: the scalar reference for the kernel."""
    return dict(Counter(block_count(g, c) for c in itertools.product(range(k), repeat=g.n)))


def _digits(r, n, k):
    """Coloring r of the mixed-radix table, vertex 0 most significant."""
    return [(r // k ** (n - 1 - v)) % k for v in range(n)]


def _decoded(colors):
    """The coloring table that a chunk's bit planes hold, one row per coloring."""
    return [
        [sum((plane >> i & 1) << j for j, plane in enumerate(planes)) for planes in colors.planes]
        for i in range(colors.rows)
    ]


def _histogram(g, table):
    """counts[b]: the rows of ``table`` whose coloring has b blocks."""
    counts = [0] * (g.n + 1)
    for coloring in table:
        counts[block_count(g, coloring)] += 1
    return counts


@st.composite
def any_graphs(draw, max_vertices=8):
    """Any simple graph, edgeless and disconnected ones included."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_vertices=17, max_vertices=24):
    """A random tree on the vertices, each vertex joined to an earlier one,
    plus any further edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    return Graph.from_edges(n, sorted(set(tree + extra)))


class TestKernel:
    def test_chunks_split_a_shared_prefix(self, monkeypatch):
        # at 7 rows a chunk, the colorings split over several first-use prefixes
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", 7)
        pool = [
            (cycle(5), 3), (grid(2, 3), 2),
            (Graph.from_edges(6, [(0, 5), (1, 2), (2, 4)]), 2),
        ]
        for g, k in pool:
            assert len(oracle._prefixes(g.n, k, 1)) > 1
            for threads in (1, 2):
                assert distribution_bruteforce(g, k, threads=threads).coefficients() == _enumerated(g, k)

    @settings(max_examples=100, deadline=None)
    @given(any_graphs(), st.integers(1, 3))
    def test_equals_union_find_over_all_colorings(self, g, k):
        want = _enumerated(g, k)
        for threads in (1, 2, 3):
            assert distribution_bruteforce(g, k, threads=threads).coefficients() == want

    @pytest.mark.parametrize("k", [200, 300])
    def test_colors_wider_than_int8(self, k):
        assert distribution_bruteforce(path(2), k).coefficients() == {1: k, 2: k * (k - 1)}

    def test_labels_wider_than_int16(self):
        g = Graph.from_edges(40_000, [(0, 39_999), (39_998, 39_999)])
        assert distribution_bruteforce(g, 1).coefficients() == {39_998: 1}

    def test_long_path_one_color(self):
        # one coloring, 2999 edges: each edge touches a frontier of two vertices
        assert distribution_bruteforce(path(3000), 1).poly == parse_poly("y")

    @pytest.mark.parametrize("m,k", [(0, 3), (1, 1000), (5, 3), (3, 7), (24, 1)])
    def test_table_planes_are_mixed_radix(self, m, k):
        table = oracle._table_planes(m, k)
        rows = k**m
        assert len(table) == m
        assert all(len(planes) == (k - 1).bit_length() for planes in table)
        assert _decoded(oracle.ColorPlanes(table, rows)) == [_digits(t, m, k) for t in range(rows)]
        # a prefix chunk puts one constant plane per bit of each prefix color in front
        prefix = tuple(range(k))[-3:]
        colors = oracle._color_chunk(prefix, table, rows, k)
        assert colors.shape == (rows, len(prefix) + m)
        full = (1 << rows) - 1
        for c, planes in zip(prefix, colors.planes):
            assert planes == [full if c >> j & 1 else 0 for j in range((k - 1).bit_length())]
        assert _decoded(colors) == [list(prefix) + _digits(t, m, k) for t in range(rows)]

    @pytest.mark.parametrize("n,k", [(1, 7), (3, 2), (3, 3), (3, 4), (3, 5), (2, 6), (2, 9)])
    def test_every_window_is_a_slice_of_the_whole_table(self, n, k):
        # the chunk of every prefix p, of every length r, is rows
        # idx(p)*k^(n-r)..(idx(p)+1)*k^(n-r)-1 of the whole table
        total = k**n
        table = [
            [sum(1 << r for r in range(total) if _digits(r, n, k)[v] >> j & 1) for j in range((k - 1).bit_length())]
            for v in range(n)
        ]
        assert oracle._table_planes(n, k) == table
        for r in range(n + 1):
            tail = k ** (n - r)
            rest = oracle._table_planes(n - r, k)
            mask = (1 << tail) - 1
            for idx in range(k**r):
                want = [[plane >> idx * tail & mask for plane in planes] for planes in table]
                prefix = tuple(_digits(idx, r, k))
                assert oracle._color_chunk(prefix, rest, tail, k).planes == want, prefix

    def test_kernel_rows_are_block_counts(self):
        g = Graph.from_edges(5, [(3, 4), (0, 1), (1, 2), (0, 2)])
        # the r = 0 chunk: the prefix () before the table of all 2^5 colorings
        colors = oracle._color_chunk((), oracle._table_planes(g.n, 2), 2**g.n, 2)
        table = list(itertools.product(range(2), repeat=g.n))
        assert _decoded(colors) == [list(c) for c in table]
        assert oracle._chunk_block_counts(colors, g.edges()) == _histogram(g, table)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.integers(1, 5), st.data())
    def test_prefix_chunks_of_large_graphs(self, g, k, data):
        # 17+ vertices: the labels need five or more planes, and so does the
        # merge counter on a row with 16 or more merges (every row at k = 1)
        m = data.draw(st.integers(0, max(m for m in range(6) if k**m <= 400)))
        prefix = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=g.n - m, max_size=g.n - m)))
        table = [list(prefix) + _digits(t, m, k) for t in range(k**m)]
        colors = oracle._color_chunk(prefix, oracle._table_planes(m, k), k**m, k)
        assert _decoded(colors) == table
        assert oracle._chunk_block_counts(colors, g.edges()) == _histogram(g, table)

    def test_threads_run_on_the_calling_thread(self, monkeypatch):
        def refuse(self):
            raise RuntimeError("distribution_bruteforce started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        g = grid(3, 4)
        want = distribution_bruteforce(g, 4)
        calls = []
        kernel = oracle._chunk_block_counts

        def counted(colors, edges):
            calls.append(colors.rows)
            return kernel(colors, edges)

        monkeypatch.setattr(oracle, "_chunk_block_counts", counted)
        assert distribution_bruteforce(g, 4, threads=2) == want
        assert len(calls) >= 2

    def test_worker_errors_reach_the_caller(self, monkeypatch):
        def fail(colors, edges):
            raise MemoryError("kernel")

        monkeypatch.setattr(oracle, "_chunk_block_counts", fail)
        with pytest.raises(MemoryError):
            distribution_bruteforce(path(4), 2, threads=2)


@st.composite
def colored_graphs(draw, max_vertices=12, max_rows=1 << 12):
    """k in 1..6 and any simple graph on at most ``max_vertices`` vertices,
    connected or not, with k^n at most ``max_rows``."""
    k = draw(st.integers(1, 6))
    top = max(n for n in range(1, max_vertices + 1) if k**n <= max_rows)
    g = draw(any_graphs(max_vertices=top))
    return g, k


class TestColorPermutations:
    """The reduced enumeration (one first-use prefix per class of colorings,
    weighted by (k)_u) against the plain one over all k^n rows."""

    @settings(max_examples=100, deadline=None)
    @given(colored_graphs(), st.sampled_from([3, 40, 1 << 16]))
    def test_reduced_equals_plain_enumeration(self, graph_and_k, chunk):
        g, k = graph_and_k
        table = list(itertools.product(range(k), repeat=g.n))
        # the plain route: the prefix () of weight 1, all k^n rows in one chunk
        plain = oracle._sum_chunks(g, k, [((), 1)], oracle._chunk_block_counts)
        proper = oracle._sum_chunks(g, k, [((), 1)], oracle._proper_rows)
        assert plain == _histogram(g, table)
        assert proper == [sum(all(c[u] != c[v] for u, v in g.edges()) for c in table)]
        # small chunks make the prefix longer than one vertex
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_CHUNK_ROWS", chunk)
            for threads in (1, 2):
                reduced = distribution_bruteforce(g, k, threads=threads)
                assert [reduced.coefficient(b) for b in range(g.n + 1)] == plain
            assert [proper_coloring_count(g, k)] == proper

    @pytest.mark.parametrize(
        "n,k,chunk",
        [(1, 5, 1 << 16), (6, 2, 1 << 16), (12, 4, 1 << 16), (24, 2, 1 << 16),
         (9, 6, 1 << 16), (5, 3, 7), (8, 4, 1), (7, 7, 10), (40, 1, 1 << 16)],
    )
    def test_prefix_ranges_count_every_coloring_once(self, monkeypatch, n, k, chunk):
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk)
        for threads in (1, 2, 5):
            prefixes = oracle._prefixes(n, k, threads)
            r = len(prefixes[0][0])
            assert all(len(p) == r for p, _ in prefixes)
            assert sum(weight for _, weight in prefixes) * k ** (n - r) == k**n
            assert k ** (n - r) <= chunk or r == n
            assert len(prefixes) >= threads or r == n or k == 1
            assert len(set(prefixes)) == len(prefixes)
            for p, weight in prefixes:
                # first-use form: each color is at most one past those before it
                assert all(c <= max(p[:i], default=-1) + 1 for i, c in enumerate(p))
                assert weight == math.perm(k, len(set(p)))
            if k > 1:
                assert len(prefixes) == sum(stirling2(r, u) for u in range(1, k + 1))
