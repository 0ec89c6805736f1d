"""Graph representation, family builders, cartesian product, and spec parsing.

Vertices are always 0..n-1.  Builders fix their numbering:

* ``path(n)``: edges {i, i+1}
* ``cycle(n)``: path(n) plus {0, n-1}, n >= 3
* ``complete(n)``, ``complete_bipartite(n, m)``: parts {0..n-1} / {n..n+m-1}
* ``star(m)`` = complete_bipartite(1, m), center 0; ``star(0)`` is one vertex
* ``perfect_binary_tree(h)``: heap order, children of i are 2i+1 and 2i+2
* ``cartesian_product(g, h)``: vertex (a, b) gets index a*|V(h)| + b
* ``random_tree(n, seed)``: decoded from a splitmix64-seeded Pruefer sequence,
  so every run (and every implementation of the same generator) agrees
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceededError, GraphSpecError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted per-vertex neighbor tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graphs must have at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length must equal the vertex count")
        for u, nbrs in enumerate(self.adj):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError("neighbor lists must be sorted and duplicate-free")
            for v in nbrs:
                if v == u:
                    raise ValueError("loops are not allowed")
                if not 0 <= v < self.n:
                    raise ValueError("neighbor index out of range")
                back = self.adj[v]
                at = bisect_left(back, u)
                if at == len(back) or back[at] != u:
                    raise ValueError("adjacency must be symmetric")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            _check_edge(n, u, v)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def _check_edge(n: int, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")


# family -> (the least value of each integer argument, the message for a
# smaller one); the builders and parse_spec_tree check these same bounds
_LEAST = {
    "path": ((1,), "path needs n >= 1"),
    "cycle": ((3,), "cycle needs n >= 3"),
    "complete": ((1,), "complete graph needs n >= 1"),
    "bipartite": ((1, 1), "complete bipartite graph needs n, m >= 1"),
    "star": ((0,), "star needs m >= 0"),
    "pbt": ((0,), "height must be >= 0"),
    "grid": ((1, 1), "grid needs m, n >= 1"),
    "edges": ((1,), "graphs must have at least one vertex"),
}


def _check_least(family: str, *numbers: int) -> None:
    least, message = _LEAST[family]
    if any(number < low for number, low in zip(numbers, least)):
        raise ValueError(message)


def path(n: int) -> Graph:
    _check_least("path", n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _check_least("cycle", n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def complete(n: int) -> Graph:
    _check_least("complete", n)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(n: int, m: int) -> Graph:
    _check_least("bipartite", n, m)
    return Graph.from_edges(n + m, [(u, n + v) for u in range(n) for v in range(m)])


def star(m: int) -> Graph:
    """The star with m leaves, center vertex 0: complete_bipartite(1, m) for
    m >= 1, and one vertex for m = 0."""
    _check_least("star", m)
    return Graph.from_edges(m + 1, [(0, v) for v in range(1, m + 1)])


def perfect_binary_tree(h: int) -> Graph:
    _check_least("pbt", h)
    n = 2 ** (h + 1) - 1
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return Graph.from_edges(n, edges)


class SplitMix64:
    """splitmix64 PRNG; fixed by algorithm so results are reproducible."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def random_tree(n: int, seed: int) -> Graph:
    """Deterministic random tree from a seeded Pruefer sequence."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(1, [])
    rng = SplitMix64(seed)
    seq = [rng.next_below(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; (v1,v2)~(w1,w2) iff they agree in one factor and
    are adjacent in the other.  Vertex (a, b) has index a*|V(h)| + b."""
    n = g.n * h.n
    edges = []
    for a in range(g.n):
        base = a * h.n
        for b, b2 in h.edges():
            edges.append((base + b, base + b2))
    for a, a2 in g.edges():
        for b in range(h.n):
            edges.append((a * h.n + b, a2 * h.n + b))
    return Graph.from_edges(n, edges)


def grid(m: int, n: int) -> Graph:
    _check_least("grid", m, n)
    return cartesian_product(path(m), path(n))


def union_roots(size: int, pairs) -> list[int]:
    """The root of each of 0..size-1 after every pair has been merged.

    Union-find with path halving in the merges and in the final pass, which is
    near-linear without union by rank (Tarjan and van Leeuwen, J. ACM 31, 1984).
    """
    parent = list(range(size))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        parent[a] = b
    roots = []
    for v in range(size):
        root = v
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        roots.append(root)
    return roots


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, ordered by minimum vertex."""
    groups: dict[int, list[int]] = {}
    for v, root in enumerate(union_roots(g.n, g.edges())):
        groups.setdefault(root, []).append(v)
    return list(groups.values())


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


# -- graph spec mini-language -------------------------------------------------
#
#   spec     := family | "product(" spec "," spec ")" | "edges:" INT ":[" edgelist "]"
#   family   := ("path"|"cycle"|"complete"|"star"|"pbt") ":" INT
#             | ("bipartite"|"grid") ":" INT "," INT
#   edgelist := INT "-" INT ("," INT "-" INT)*
#   INT      := [0-9]+
#
# Whitespace-free; vertex indices 0-based.  A spec is parsed once into a tree
# of GraphSpec nodes; build_graph turns a tree, or any subtree, into a Graph.

_BUILDERS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "star": star,
    "pbt": perfect_binary_tree,
    "bipartite": complete_bipartite,
    "grid": grid,
    "edges": Graph.from_edges,
    "product": cartesian_product,
}
_TWO_INTEGERS = ("bipartite", "grid")


class GraphSpec(NamedTuple):
    """One node of a parsed graph spec: the family name, its builder's
    arguments (integers, ``(n, edges)`` for ``edges``, or the two factor
    GraphSpecs for ``product``) and the node's start position in the text."""

    family: str
    args: tuple
    at: int


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> GraphSpecError:
        return GraphSpecError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_name(self) -> str:
        start = self.pos
        while self.peek().isalpha():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a family name")
        return self.text[start : self.pos]

    def parse_spec(self) -> GraphSpec:
        at = self.pos
        name = self.parse_name()
        if name not in _BUILDERS:
            self.pos = at
            raise self.error(f"unknown family {name!r}")
        if name == "product":
            self.expect("(")
            left = self.parse_spec()
            self.expect(",")
            right = self.parse_spec()
            self.expect(")")
            return GraphSpec(name, (left, right), at)
        self.expect(":")
        first = self.parse_int()
        if name == "edges":
            self.expect(":")
            self.expect("[")
            edges = []
            if self.peek() != "]":
                while True:
                    u = self.parse_int()
                    self.expect("-")
                    v = self.parse_int()
                    edges.append((u, v))
                    if self.peek() != ",":
                        break
                    self.pos += 1
            self.expect("]")
            return GraphSpec(name, (first, tuple(edges)), at)
        if name in _TWO_INTEGERS:
            self.expect(",")
            return GraphSpec(name, (first, self.parse_int()), at)
        return GraphSpec(name, (first,), at)


def _check_spec_bounds(spec: GraphSpec) -> None:
    if spec.family == "product":
        for factor in spec.args:
            _check_spec_bounds(factor)
        return
    try:
        if spec.family == "edges":
            n, edges = spec.args
            for u, v in edges:
                _check_edge(n, u, v)
        _check_least(spec.family, *spec.args)
    except ValueError as exc:
        raise GraphSpecError(str(exc), spec.at) from exc


def parse_spec_tree(text: str) -> GraphSpec:
    """The tree of a graph spec; malformed text raises GraphSpecError at the
    position where it goes wrong, and an integer below its family's bound or
    an edge its builder rejects raises the builder's error at the start of its
    node, so every route reports it alike.  Nothing is built."""
    parser = _SpecParser(text)
    spec = parser.parse_spec()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    _check_spec_bounds(spec)
    return spec


def build_graph(spec: GraphSpec) -> Graph:
    """The graph of a spec tree; a builder's ValueError is reported as a
    GraphSpecError at the start of the node it came from."""
    args = spec.args
    if spec.family == "product":
        args = tuple(build_graph(factor) for factor in args)
    try:
        return _BUILDERS[spec.family](*args)
    except ValueError as exc:
        raise GraphSpecError(str(exc), spec.at) from exc


def vertex_count(spec: GraphSpec, limit: int | None = None) -> int:
    """The vertex count of the graph a spec tree builds, found without
    building it.  A count above ``limit`` raises CapExceededError; a
    ``pbt:h`` is measured by its height first, so a huge one never forms
    2^(h+1)."""
    family, args = spec.family, spec.args
    if family == "product":
        count = vertex_count(args[0], limit) * vertex_count(args[1], limit)
    elif family == "pbt":
        h = args[0]
        # 2^(h+1) - 1 > limit once h reaches the bit length of limit
        count = limit + 1 if limit is not None and h >= limit.bit_length() else 2 ** (h + 1) - 1
    elif family == "star":
        count = args[0] + 1
    elif family == "bipartite":
        count = args[0] + args[1]
    elif family == "grid":
        count = args[0] * args[1]
    else:  # path, cycle, complete and edges: the first integer
        count = args[0]
    if limit is not None and count > limit:
        raise CapExceededError(f"{family} at position {spec.at} has more than {limit} vertices")
    return count


def parse_graph_spec(text: str) -> Graph:
    return build_graph(parse_spec_tree(text))


def prism_factors(spec: GraphSpec) -> tuple[GraphSpec, int] | None:
    """(G, n) when the spec is product(G, path:n), else None."""
    if spec.family == "product" and spec.args[1].family == "path":
        return spec.args[0], spec.args[1].args[0]
    return None
