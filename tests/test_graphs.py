import re

import pytest
from hypothesis import given, strategies as st

from colorblocks.errors import CapExceededError, GraphSpecError
from colorblocks.graphs import (
    Graph,
    SplitMix64,
    build_graph,
    cartesian_product,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    grid,
    is_connected,
    parse_graph_spec,
    parse_spec_tree,
    path,
    perfect_binary_tree,
    prism_factors,
    random_tree,
    star,
    union_roots,
    vertex_count,
)
from colorblocks.oracle import block_count


def assert_well_formed(g: Graph):
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(set(g.adj[u]))
        assert u not in g.adj[u]
        for v in g.adj[u]:
            assert u in g.adj[v]


class TestBuilders:
    def test_path(self):
        assert path(1).edge_count == 0
        assert path(2).edges() == [(0, 1)]
        g = path(5)
        assert g.edge_count == 4
        assert max(g.degree(v) for v in range(5)) <= 2
        assert is_connected(g)
        with pytest.raises(ValueError):
            path(0)

    def test_cycle(self):
        assert cycle(3).edges() == complete(3).edges()
        g = cycle(5)
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))
        with pytest.raises(ValueError):
            cycle(2)

    def test_complete(self):
        assert complete(1).edge_count == 0
        assert complete(4).edge_count == 6
        g = complete(5)
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_complete_bipartite(self):
        g = star(3)
        assert g.degree(0) == 3
        assert all(g.degree(v) == 1 for v in range(1, 4))
        c4 = complete_bipartite(2, 2)
        assert c4.edge_count == 4
        assert all(c4.degree(v) == 2 for v in range(4))
        assert complete_bipartite(2, 3).edge_count == 6

    def test_perfect_binary_tree(self):
        assert perfect_binary_tree(0).n == 1
        g1 = perfect_binary_tree(1)
        assert g1.n == 3 and g1.degree(0) == 2
        g2 = perfect_binary_tree(2)
        assert g2.n == 7
        leaves = [v for v in range(7) if g2.degree(v) == 1]
        assert leaves == [3, 4, 5, 6]

    def test_builders_well_formed(self):
        for g in [path(6), cycle(6), complete(5), complete_bipartite(3, 2),
                  perfect_binary_tree(3), grid(3, 4), random_tree(12, 3)]:
            assert_well_formed(g)


class TestRandomTree:
    def test_tiny(self):
        assert random_tree(1, 0).n == 1
        assert random_tree(2, 5).edges() == [(0, 1)]

    def test_tree_shape_many_seeds(self):
        seeds = range(100)
        for seed in seeds:
            n = 2 + seed % 49  # up to 50 vertices
            g = random_tree(n, seed)
            assert g.edge_count == n - 1
            assert is_connected(g)

    def test_deterministic(self):
        assert random_tree(9, 42).edges() == random_tree(9, 42).edges()
        assert random_tree(9, 42).edges() != random_tree(9, 43).edges()

    def test_splitmix_reference_values(self):
        # first outputs for seed 0 of the standard splitmix64 stream
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4


class TestProduct:
    def test_square(self):
        g = cartesian_product(path(2), path(2))
        assert g.n == 4 and g.edge_count == 4
        assert all(g.degree(v) == 2 for v in range(4))  # a 4-cycle

    def test_prism(self):
        g = cartesian_product(complete(3), path(2))
        assert g.n == 6 and g.edge_count == 9

    def test_identity_factor(self):
        g = cartesian_product(path(1), complete(4))
        assert g.n == 4 and g.edge_count == 6

    def test_edge_count_formula(self):
        pairs = [
            (path(3), cycle(4)),
            (complete(3), path(5)),
            (star(3), path(2)),
            (cycle(3), cycle(3)),
        ]
        for a, b in pairs:
            g = cartesian_product(a, b)
            assert g.edge_count == a.n * b.edge_count + b.n * a.edge_count

    def test_grid_shape(self):
        for m in range(1, 5):
            for n in range(1, 5):
                g = grid(m, n)
                assert g.n == m * n
                assert g.edge_count == m * (n - 1) + n * (m - 1)

    def test_numbering(self):
        # vertex (a, b) of g x h gets index a*|V(h)| + b
        g = cartesian_product(path(2), path(3))
        assert (0, 3) in [(u, v) for u in range(6) for v in g.adj[u]]
        assert g.adj[0] == (1, 3)


class TestComponents:
    def test_connected(self):
        assert connected_components(path(5)) == [[0, 1, 2, 3, 4]]

    def test_isolated(self):
        g = Graph.from_edges(3, [])
        assert connected_components(g) == [[0], [1], [2]]

    def test_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_groups_ordered_by_smallest_vertex(self):
        g = Graph.from_edges(6, [(4, 0), (5, 1), (1, 3)])
        assert connected_components(g) == [[0, 4], [1, 3, 5], [2]]

    @pytest.mark.parametrize("build", [path, star])
    def test_large_graph_is_one_component(self, build):
        g = build(200000)
        assert connected_components(g) == [list(range(g.n))]


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    colors = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Graph.from_edges(n, edges), colors


def flood_fill_blocks(g: Graph, colors) -> int:
    """Monochromatic components by depth-first search, without a union-find."""
    seen, count = set(), 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if colors[u] == colors[v] and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


class TestUnionRoots:
    @given(colored_graphs())
    def test_roots_count_blocks(self, case):
        # block_count counts union_roots' roots, so the search is the reference
        g, colors = case
        same = [(u, v) for u, v in g.edges() if colors[u] == colors[v]]
        assert len(set(union_roots(g.n, same))) == flood_fill_blocks(g, colors)
        assert block_count(g, colors) == flood_fill_blocks(g, colors)

    def test_roots_name_the_merged_sets(self):
        roots = union_roots(6, [(0, 5), (2, 3), (5, 3)])
        assert roots[0] == roots[2] == roots[3] == roots[5]
        assert len({roots[0], roots[1], roots[4]}) == 3

    def test_no_pairs(self):
        assert union_roots(3, []) == [0, 1, 2]


class TestGraphValidation:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize(
        "adj", [((1,), ()), ((1,), (0,), (0,)), ((2,), (2,), (1,))]
    )
    def test_rejects_asymmetric_adjacency(self, adj):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(len(adj), adj)

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1


class TestSpecParser:
    def test_families(self):
        assert parse_graph_spec("complete:4").edge_count == 6
        assert parse_graph_spec("path:3").edges() == [(0, 1), (1, 2)]
        assert parse_graph_spec("star:3").n == 4
        assert parse_graph_spec("pbt:2").n == 7
        assert parse_graph_spec("bipartite:2,3").edge_count == 6
        assert parse_graph_spec("grid:2,3").n == 6

    def test_product(self):
        g = parse_graph_spec("product(star:3,path:4)")
        assert g.n == 16
        nested = parse_graph_spec("product(product(path:2,path:2),path:2)")
        assert nested.n == 8

    def test_edge_list(self):
        g = parse_graph_spec("edges:3:[0-1,1-2]")
        assert g.edges() == path(3).edges()
        assert parse_graph_spec("edges:2:[]").edge_count == 0

    def test_arity_error(self):
        with pytest.raises(GraphSpecError):
            parse_graph_spec("cycle:2")

    def test_parse_errors(self):
        for bad in ["", "unknowable:3", "path:", "product(path:2", "path:3garbage",
                    "edges:2:[0-0]", "bipartite:2"]:
            with pytest.raises(GraphSpecError):
                parse_graph_spec(bad)
        # only ASCII 0-9 are digits: a superscript or fullwidth digit is no integer
        for bad in ["path:\u00b2", "path:\uff13"]:
            with pytest.raises(GraphSpecError, match="expected an integer") as exc:
                parse_graph_spec(bad)
            assert exc.value.position == 5

    def test_error_position(self):
        with pytest.raises(GraphSpecError) as exc:
            parse_graph_spec("product(path:2,cycle:2)")
        assert exc.value.position == 15

    def test_rejected_edges_are_found_without_building(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("the edge list was built")

        monkeypatch.setattr(Graph, "from_edges", no_build)
        for text, message in [("edges:3:[0-1,2-2]", "loop at vertex 2"),
                              ("product(path:2,edges:2:[0-2])", "edge (0,2) out of range for n=2"),
                              ("edges:0:[]", "graphs must have at least one vertex")]:
            with pytest.raises(GraphSpecError, match=re.escape(message)):
                parse_spec_tree(text)

    @pytest.mark.parametrize("text", [
        "path:5", "cycle:4", "complete:3", "star:0", "star:3", "pbt:0", "pbt:3", "bipartite:2,3",
        "grid:3,4", "edges:4:[0-1]", "product(star:3,path:4)",
        "product(product(path:2,pbt:1),grid:2,2)",
    ])
    def test_vertex_count_matches_build_graph(self, text):
        spec = parse_spec_tree(text)
        assert vertex_count(spec) == vertex_count(spec, limit=1000) == build_graph(spec).n

    def test_vertex_count_past_the_limit(self):
        assert vertex_count(parse_spec_tree("pbt:100")) == 2**101 - 1
        assert vertex_count(parse_spec_tree("grid:4,4"), limit=16) == 16
        for text, at in [("grid:4,5", 0), ("product(path:3,pbt:3)", 0),
                         ("product(path:2,pbt:10000000000000000)", 15)]:
            with pytest.raises(CapExceededError, match=f"at position {at} has more than 16 vertices"):
                vertex_count(parse_spec_tree(text), limit=16)

    def test_split_prism_spec(self):
        left, n = prism_factors(parse_spec_tree("product(complete:3,path:4)"))
        assert (left.family, left.args, left.at, n) == ("complete", (3,), 8, 4)
        left, n = prism_factors(parse_spec_tree("product(product(path:2,path:2),path:3)"))
        assert build_graph(left) == parse_graph_spec("product(path:2,path:2)") and n == 3
        assert prism_factors(parse_spec_tree("product(path:4,complete:3)")) is None
        assert prism_factors(parse_spec_tree("complete:3")) is None
