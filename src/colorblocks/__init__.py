"""Exact block-count distributions of k-colorings of graphs.

Colorings of a graph correspond one-to-one with partitions into connected,
colored blocks; this package computes the full distribution of the block
count over all k^n colorings, three independent ways: brute-force
enumeration, closed-form family formulas, and a transfer-matrix engine for
graph-path products.  All arithmetic is exact: polynomials have big-integer
coefficients (the ring Z[x, y, 1/y]), and expectations are exact fractions.
"""

from .algebra import (
    LaurentPoly2,
    RationalGF,
    bareiss_solve,
    gf_equal,
    series_expand,
)
from .combinatorics import (
    binomial,
    partition_count,
    partitions_at_most_k_parts,
    stirling2,
)
from .graphs import (
    Graph,
    SplitMix64,
    cartesian_product,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    grid,
    parse_graph_spec,
    path,
    perfect_binary_tree,
    random_tree,
    star,
)
from .oracle import (
    BlockDistribution,
    block_count,
    distribution_bruteforce,
    expected_blocks,
    proper_coloring_count,
)
from .transfer import (
    ColorClass,
    Profile,
    color_classes,
    finalize,
    initial_states,
    km_prism_gf,
    km_transfer_system,
    prism_distribution,
    prism_expected,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BlockDistribution",
    "ColorClass",
    "Graph",
    "LaurentPoly2",
    "Profile",
    "RationalGF",
    "SplitMix64",
    "bareiss_solve",
    "binomial",
    "block_count",
    "cartesian_product",
    "color_classes",
    "complete",
    "complete_bipartite",
    "connected_components",
    "cycle",
    "distribution_bruteforce",
    "expected_blocks",
    "finalize",
    "gf_equal",
    "grid",
    "initial_states",
    "km_prism_gf",
    "km_transfer_system",
    "parse_graph_spec",
    "partition_count",
    "partitions_at_most_k_parts",
    "path",
    "perfect_binary_tree",
    "prism_distribution",
    "prism_expected",
    "proper_coloring_count",
    "random_tree",
    "series_expand",
    "star",
    "step",
    "stirling2",
]
