import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from colorblocks import closed_forms as cf
from colorblocks import transfer
from colorblocks.algebra import (
    MAX_SYSTEM_DIM,
    LaurentPoly2,
    RationalGF,
    gf_equal,
    series_expand,
    weighted_solution_gf,
)
from colorblocks.errors import CapExceededError
from colorblocks.fixtures import fixture_gf
from colorblocks.graphs import (
    Graph,
    cartesian_product,
    complete,
    cycle,
    path,
    star,
    union_roots,
)
from colorblocks.oracle import block_count, distribution_bruteforce, proper_coloring_count
from colorblocks.polytext import parse_poly
from colorblocks.transfer import (
    Profile,
    color_classes,
    finalize,
    initial_states,
    km_prism_gf,
    prism_distribution,
    prism_expected,
    step,
)

ONE = LaurentPoly2.one()


class TestInitialStates:
    def test_single_vertex(self):
        states = initial_states(complete(1), 2)
        assert len(states) == 2
        assert all(w == ONE for w in states.values())

    def test_triangle_linkage(self):
        states = initial_states(complete(3), 2)
        assert len(states) == 8
        for profile in states:
            classes = max(profile.linkage) + 1
            distinct = len(set(profile.colors))
            assert classes == distinct  # complete slice: one class per color used

    def test_star_leaves_stay_separate(self):
        states = initial_states(star(3), 2)
        assert len(states) == 16
        profile = Profile((0, 1, 1, 1), (0, 1, 2, 3))
        assert profile in states  # leaves are pairwise non-adjacent

    def test_caps(self):
        with pytest.raises(CapExceededError):
            initial_states(path(9), 2)  # vertex cap is 8
        with pytest.raises(CapExceededError):
            initial_states(path(8), 17)  # 17^8 states blow the default cap


class TestProfile:
    def test_a_hashable_read_only_tuple(self):
        profile = Profile((0, 1, 1), (0, 1, 1))
        plain = ((0, 1, 1), (0, 1, 1))
        assert profile == plain and hash(profile) == hash(plain)
        assert {plain: 1}[profile] == 1 and {profile: 1}[plain] == 1
        assert Profile(*plain) == profile and profile != Profile((0, 1, 1), (0, 1, 2))
        with pytest.raises(AttributeError):
            profile.colors = (1, 0, 0)
        with pytest.raises(TypeError):
            profile[0] = (1, 0, 0)

    def test_plain_tuple_keys_step_and_finalize_as_profiles(self):
        g, k = path(3), 2
        symmetric = step(g, k, initial_states(g, k))
        asymmetric = dict(symmetric)
        first = next(iter(asymmetric))
        asymmetric[first] = asymmetric[first] * 2
        for states in (symmetric, asymmetric):  # the lumped and the general path
            plain = {tuple(p): w for p, w in states.items()}
            assert {type(p) for p in plain} == {tuple}
            assert step(g, k, plain) == step(g, k, states)
            assert finalize(plain) == finalize(states)


class TestSliceTable:
    @pytest.mark.parametrize(
        "g,k", [(path(4), 3), (cycle(5), 2), (star(3), 3), (complete(4), 2)]
    )
    def test_rows_count_blocks(self, g, k):
        table = transfer._slice_table(g, k)
        assert len(table) == k**g.n
        for colors, comp in table:
            assert max(comp) + 1 == block_count(g, colors)


class TestStep:
    def test_path_slices_reproduce_tree_formula(self):
        states = initial_states(complete(1), 2)
        for n in range(1, 6):
            assert finalize(states) == cf.tree_distribution(n, 2).poly
            states = step(complete(1), 2, states)

    def test_one_step_matches_bruteforce(self):
        states = step(complete(3), 2, initial_states(complete(3), 2))
        got = finalize(states)
        want = distribution_bruteforce(cartesian_product(complete(3), path(2)), 2).poly
        assert got == want

    def test_block_continuation_has_no_y_factor(self):
        mono = Profile((0, 0, 0), (0, 0, 0))
        states = step(complete(3), 2, {mono: ONE})
        assert states[mono] == ONE  # same color on top: block continues, no y

    def test_closure_pays_y(self):
        mono = Profile((0, 0, 0), (0, 0, 0))
        flipped = Profile((1, 1, 1), (0, 0, 0))
        states = step(complete(3), 2, {mono: ONE})
        assert states[flipped] == LaurentPoly2.y()  # old block closed


class TestFinalize:
    def test_first_slice_is_plain_distribution(self):
        assert finalize(initial_states(complete(3), 2)) == parse_poly("2*y+6*y^2")
        assert finalize(initial_states(star(3), 2)) == parse_poly(
            "2*y+6*y^2+6*y^3+2*y^4"
        )

    def test_empty(self):
        assert finalize({}) == LaurentPoly2.zero()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=1, max_size=4),
                st.dictionaries(
                    st.tuples(st.integers(0, 2), st.integers(-3, 3)),
                    st.integers(-4, 4),
                    max_size=4,
                ),
            ),
            max_size=8,
        )
    )
    def test_grouped_sum_equals_per_profile_sum(self, drawn):
        # cancelling coefficients, negative y exponents and x terms, summed
        # per profile as sum of w * y^(open classes)
        states = {}
        for labels, terms in drawn:
            linkage = transfer._canonical_rgs(labels)
            states[Profile(tuple(labels), linkage)] = LaurentPoly2(terms)
        want = LaurentPoly2.zero()
        for profile, weight in states.items():
            want = want + weight.shift_y(max(profile.linkage) + 1)
        assert finalize(states) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 2), st.integers(-3, 3)), st.integers(-4, 4), max_size=4
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=4), st.integers(0, 2)),
            max_size=10,
        ),
    )
    def test_shared_weight_objects_are_counted_per_profile(self, pool, drawn):
        # after a lumped step, profiles share one weight object; each still
        # pays its own y^(open classes)
        weights = [LaurentPoly2(terms) for terms in pool]
        states = {}
        for labels, pick in drawn:
            profile = Profile(tuple(labels), transfer._canonical_rgs(labels))
            states[profile] = weights[pick % len(weights)]
        want = LaurentPoly2.zero()
        for profile, weight in states.items():
            want = want + weight.shift_y(max(profile.linkage) + 1)
        assert finalize(states) == want

    def test_cancelling_weights_leave_no_zero_terms(self):
        w = LaurentPoly2({(1, -2): 3, (0, 0): 2})
        states = {Profile((0, 1), (0, 1)): w, Profile((1, 0), (0, 1)): -w}
        assert finalize(states).terms == {}


class TestPrismDistribution:
    def test_k4_single_slice(self):
        assert prism_distribution(complete(4), 2, 1).poly == parse_poly("2*y+14*y^2")

    def test_square_is_four_cycle(self):
        got = prism_distribution(path(2), 2, 2).poly
        assert got == cf.cycle_distribution(4, 2).poly

    def test_star_value(self):
        assert prism_expected(star(3), 2, 1) == Fraction(5, 2)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            prism_distribution(complete(3), 2, 0)

    @pytest.mark.parametrize("a,b,k", [(2, 8, 2), (3, 7, 2), (5, 6, 2), (3, 5, 3), (4, 5, 3)])
    def test_grid_transposition(self, a, b, k):
        # grid(a, b) sliced either way: products past the enumeration cap
        # checked by the engine against itself
        assert prism_distribution(path(a), k, b).poly == prism_distribution(path(b), k, a).poly


def _engine_vs_bruteforce_cases():
    slices = {
        "K1": complete(1),
        "K2": complete(2),
        "K3": complete(3),
        "K4": complete(4),
        "P3": path(3),
        "star3": star(3),
        "C4": cycle(4),
    }
    cases = []
    for name, g in slices.items():
        for k in (2, 3):
            n = 1
            while k ** (g.n * (n + 1)) <= 1 << 20:
                n += 1
            cases.append(pytest.param(g, k, n, id=f"{name}-k{k}-n{n}"))
    return cases


@pytest.mark.parametrize("g,k,n", _engine_vs_bruteforce_cases())
def test_engine_equals_bruteforce(g, k, n):
    # largest product with k^(|V|*n) <= 2^20 for each slice/k combination
    eng = prism_distribution(g, k, n).poly
    bf = distribution_bruteforce(cartesian_product(g, path(n)), k).poly
    assert eng == bf


class TestEdgeCases:
    def test_disconnected_slice(self):
        # two isolated vertices x path: blocks split over two disjoint paths
        slice_g = Graph.from_edges(2, [])
        eng = prism_distribution(slice_g, 2, 3)
        bf = distribution_bruteforce(cartesian_product(slice_g, path(3)), 2)
        assert eng.poly == bf.poly
        p3 = cf.tree_distribution(3, 2).poly
        assert eng.poly == p3 * p3  # independent factors multiply

    def test_single_color(self):
        assert prism_distribution(complete(3), 1, 4).poly == parse_poly("y")
        coeffs = series_expand(km_prism_gf(4, 1), 5)
        assert all(c == parse_poly("y") for c in coeffs[1:])

    def test_single_slice_matches_plain_distribution(self):
        for g, k in [(cycle(4), 2), (star(3), 3)]:
            assert (
                prism_distribution(g, k, 1).poly
                == distribution_bruteforce(g, k).poly
            )


class TestEngineInvariants:
    def test_mass_conservation(self):
        for g, k in [(path(2), 3), (complete(2), 4), (cycle(3), 2)]:
            states = initial_states(g, k)
            for t in range(1, 5):
                assert sum(w.evaluate(1, 1) for w in states.values()) == k ** (t * g.n)
                states = step(g, k, states)

    def test_support_range(self):
        for g, k, n in [(complete(3), 2, 3), (star(3), 2, 2), (path(2), 3, 2)]:
            d = prism_distribution(g, k, n)
            assert d.poly.min_y_exponent() == 1
            assert d.coefficient(1) == k
            product = cartesian_product(g, path(n))
            top = d.coefficient(g.n * n)
            assert top == proper_coloring_count(product, k)


class TestColorClasses:
    def test_example(self):
        classes = color_classes(4, 2)
        assert [c.parts for c in classes] == [(4,), (3, 1), (2, 2)]
        assert [c.size for c in classes] == [2, 8, 6]
        assert [c.support for c in classes] == [1, 2, 2]
        assert all(c.support == len(c.parts) for c in classes)

    def test_degenerate(self):
        classes = color_classes(1, 1)
        assert len(classes) == 1
        assert classes[0].size == 1

    def test_sizes_sum_to_total(self):
        for m in range(1, 9):
            for k in range(1, 7):
                assert sum(c.size for c in color_classes(m, k)) == k**m

    def test_sizes_match_padded_factorial_formula(self):
        # reference: m! k! over the factorials of the k part sizes padded
        # with zeros, and over the factorial of each size's multiplicity
        for m in range(1, 9):
            for k in range(1, 9):
                for cls in color_classes(m, k):
                    padded = list(cls.parts) + [0] * (k - len(cls.parts))
                    size = math.factorial(m) * math.factorial(k)
                    for part in padded:
                        size //= math.factorial(part)
                    for count in Counter(padded).values():
                        size //= math.factorial(count)
                    assert cls.size == size, (m, k, cls.parts)

    def test_single_vertex_with_many_colors(self):
        (cls,) = color_classes(1, 10**5)
        assert cls.size == 10**5 and cls.support == 1

    def test_single_vertex_system_with_many_colors(self):
        # the largest k the state cap lets through at m = 1: the path closed form
        k = 1 << 16
        x, y = LaurentPoly2.x(), LaurentPoly2.y()
        assert gf_equal(km_prism_gf(1, k), RationalGF(k * x * y, ONE - x * (1 + (k - 1) * y)))


def _enumerated_km_system(m, k):
    """km_transfer_system by listing all k^m target colorings for every class row."""
    classes = color_classes(m, k)
    index_of_parts = {cls.parts: idx for idx, cls in enumerate(classes)}
    # one coloring per class: part i, colored i, is the next parts[i] vertices
    rep_masks = []
    for cls in classes:
        masks, start = [], 0
        for size in cls.parts:
            masks.append(((1 << size) - 1) << start)
            start += size
        rep_masks.append(masks)
    matrix = [[{} for _ in classes] for _ in classes]
    for target in itertools.product(range(k), repeat=m):
        masks = {}
        for v, color in enumerate(target):
            masks[color] = masks.get(color, 0) | 1 << v
        sizes = tuple(sorted((bin(mask).count("1") for mask in masks.values()), reverse=True))
        col = index_of_parts[sizes]
        for row, amasks in enumerate(rep_masks):
            exp = sum(1 for i, amask in enumerate(amasks) if not amask & masks.get(i, 0))
            cell = matrix[row][col]
            cell[exp] = cell.get(exp, 0) + 1
    poly_matrix = [[LaurentPoly2({(0, e): c for e, c in cell.items()}) for cell in row] for row in matrix]
    rhs = [LaurentPoly2.monomial(0, cls.support) for cls in classes]
    return poly_matrix, rhs, [cls.size for cls in classes]


class TestReducedSystem:
    @pytest.mark.parametrize(
        "m, k",
        [(m, k) for m in range(1, 7) for k in range(1, 6)] + [(2, 200), (3, 40)],
    )
    def test_rows_equal_the_enumeration(self, m, k):
        got = transfer.km_transfer_system(m, k)
        want = _enumerated_km_system(m, k)
        assert [[p.terms for p in row] for row in got[0]] == [
            [p.terms for p in row] for row in want[0]
        ]
        assert got[1:] == want[1:]

    def test_single_vertex_recovers_path_formula(self):
        for k in (2, 3, 5):
            coeffs = series_expand(km_prism_gf(1, k), 6)
            assert coeffs[1:] == [cf.tree_distribution(n, k).poly for n in range(1, 7)]

    def test_denominator_has_unit_constant(self):
        for m, k in [(1, 2), (2, 3), (3, 2), (4, 2)]:
            assert km_prism_gf(m, k).den.x_coefficient(0) == ONE


class TestIntegerCoefficients:
    """Every coefficient the engine produces counts colorings: plain ints."""

    @staticmethod
    def _all_int(*polys):
        return all(type(c) is int for p in polys for c in p.terms.values())

    def test_symbolic_solutions(self):
        gf = km_prism_gf(4, 3)
        assert self._all_int(gf.num, gf.den)
        star = fixture_gf("STAR13_matrix")
        assert self._all_int(star.num, star.den)
        assert self._all_int(*series_expand(km_prism_gf(3, 2), 6))

    def test_profile_dp(self):
        assert self._all_int(prism_distribution(path(4), 3, 3).poly)
        assert self._all_int(prism_distribution(cycle(4), 2, 4).poly)

    def test_tree_polynomials(self):
        assert self._all_int(cf.tree_distribution(40, 3).poly)
        assert self._all_int(cf.pbt_distribution(4, 2).poly)
        assert all(type(c) is int for c in cf.tree_distribution(9, 2).coefficients().values())


# -- orbit-lumped step -----------------------------------------------------------------


GENERAL_STEP = transfer._general_step


def _general(g, k, states):
    """The general path on any input: the reference the fast path is checked against."""
    return GENERAL_STEP(g.n, transfer._slice_table(g, k), states)


def _step_and_general_outputs(g, k, states):
    """step's result, and the result of each general-path call it made."""
    outputs = []

    def recorded(*args):
        outputs.append(GENERAL_STEP(*args))
        return outputs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_general_step", recorded)
        return step(g, k, states), outputs


@st.composite
def slices(draw, max_vertices=5):
    """A random graph on 1..max_vertices vertices: with a random spanning tree
    it is connected, without one often disconnected or edgeless (the CLI's
    product specs allow both)."""
    n = draw(st.integers(1, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)} if draw(st.booleans()) else set()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


# orbit weights for the packed step: x terms, negative y exponents, and
# signed coefficients past 2^64
packed_weights = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(-4, 4)), st.integers(-(2**80), 2**80), max_size=5
).map(LaurentPoly2)


# the smallest graphs with no automorphism but the identity have six vertices
ASYMMETRIC6 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 5)])


@st.composite
def slice_cases(draw, max_colorings, min_k=1):
    """(slice, k, n), k in min_k..3, n in 1..4, with k^(|V|*n) <= max_colorings."""
    k = draw(st.integers(min_k, 3))
    max_vertices = 5
    while k**max_vertices > max_colorings:
        max_vertices -= 1
    g = draw(slices(max_vertices))
    n_max = 4
    while k ** (g.n * n_max) > max_colorings:
        n_max -= 1
    return g, k, draw(st.integers(1, n_max))


def _reference_transition(nv, old_colors, old_link, new_colors, new_comp):
    """The transition by one union-find over old classes and new components."""
    p = max(old_link) + 1
    roots = union_roots(
        p + max(new_comp) + 1,
        [(old_link[v], p + new_comp[v]) for v in range(nv) if old_colors[v] == new_colors[v]],
    )
    surviving = set(roots[p:])
    closed = sum(1 for root in roots[:p] if root not in surviving)
    return transfer._canonical_rgs([roots[p + c] for c in new_comp]), closed


@st.composite
def transition_cases(draw):
    """A slice of at most 6 vertices, k in 1..3, an old coloring and linkage
    (RGS or not: step rejects a non-RGS linkage, but the transition itself
    only needs labels below |V| + 1), and a row of the slice table."""
    g = draw(slices(6))
    k = draw(st.integers(1, 3))
    old_colors = tuple(draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n)))
    labels = draw(st.lists(st.integers(0, g.n), min_size=g.n, max_size=g.n))
    old_link = tuple(labels) if draw(st.booleans()) else transfer._canonical_rgs(labels)
    table = transfer._slice_table(g, k)
    new_colors, new_comp = table[draw(st.integers(0, len(table) - 1))]
    return g.n, old_colors, old_link, new_colors, new_comp


def _reference_row(op, source, table):
    """The row by one _transition per slice coloring, as the operator once
    built it: the reference for the bit-sliced pass."""
    colors, linkage = op.reps[source]
    multiplicity = Counter()
    for new_colors, new_comp in table:
        new_link, closed = transfer._transition(op.nv, colors, linkage, new_colors, new_comp)
        multiplicity[op.orbit((new_colors, new_link)), closed] += 1
    row = []
    for (target, closed), m in multiplicity.items():
        count, remainder = divmod(len(op.members[source]) * m, len(op.members[target]))
        assert remainder == 0
        row.append((target, closed, count))
    return row


def _orbit_invariant_weights(states):
    """Weights that are equal on every orbit but differ between them."""
    out = {}
    for profile, weight in states.items():
        used = len(set(profile.colors))
        classes = max(profile.linkage) + 1
        scale = LaurentPoly2.monomial(0, classes, used) + 7
        out[profile] = weight * scale
    return out


class TestTransition:
    @settings(max_examples=300, deadline=None)
    @given(transition_cases())
    def test_equals_reference(self, case):
        assert transfer._transition(*case) == _reference_transition(*case)

    @pytest.mark.parametrize(
        "args,want",
        [
            # edgeless pair: one old class over both vertices merges their components
            ((2, (0, 0), (0, 0), (0, 0), (0, 1)), ((0, 0), 0)),
            # a non-RGS linkage: the empty class 0 closes
            ((2, (0, 0), (1, 1), (0, 0), (0, 0)), ((0, 0), 1)),
        ],
    )
    def test_examples(self, args, want):
        assert transfer._transition(*args) == want == _reference_transition(*args)


class TestLumpedStep:
    def test_automorphism_free_slice(self):
        assert transfer._automorphism_generators(ASYMMETRIC6) == []
        lumped = general = initial_states(ASYMMETRIC6, 2)
        for _ in range(3):
            lumped = step(ASYMMETRIC6, 2, lumped)
            general = _general(ASYMMETRIC6, 2, general)
            assert lumped == general

    @settings(max_examples=50, deadline=None)
    @given(slices())
    def test_generators_generate_the_group(self, g):
        edges = set(g.edges())
        automorphisms = {
            perm
            for perm in itertools.permutations(range(g.n))
            if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges)
        }
        generators = transfer._automorphism_generators(g)
        group = {tuple(range(g.n))}
        frontier = list(group)
        for perm in frontier:
            for gen in generators:
                image = tuple(gen[v] for v in perm)
                if image not in group:
                    group.add(image)
                    frontier.append(image)
        assert group == automorphisms

    @settings(max_examples=40, deadline=None)
    @given(slice_cases(3**8))
    def test_chain_equals_general_path(self, case):
        g, k, n = case
        lumped = general = initial_states(g, k)
        for _ in range(n):
            lumped = step(g, k, lumped)
            general = _general(g, k, general)
            assert lumped == general

    @settings(max_examples=40, deadline=None)
    @given(slice_cases(1 << 14))
    def test_prism_equals_bruteforce(self, case):
        g, k, n = case
        want = distribution_bruteforce(cartesian_product(g, path(n)), k).poly
        assert prism_distribution(g, k, n).poly == want

    @settings(max_examples=30, deadline=None)
    @given(slice_cases(81))
    def test_orbit_invariant_weights_take_the_fast_path(self, case):
        g, k, _ = case
        states = _orbit_invariant_weights(step(g, k, initial_states(g, k)))
        got, general_outputs = _step_and_general_outputs(g, k, states)
        assert general_outputs == []
        assert got == _general(g, k, states)

    @settings(max_examples=40, deadline=None)
    @given(slices(), st.integers(1, 4))
    # a disconnected slice and a path whose old classes span vertices that a
    # new coloring splits, so that merge rows occur
    @example(Graph.from_edges(4, [(0, 1), (1, 2)]), 3)
    @example(path(5), 2)
    def test_rows_equal_the_per_coloring_reference(self, g, k):
        op = transfer._operator(g, k)
        table = transfer._slice_table(g, k)
        for orbit in _reachable_orbits(g, k):
            assert Counter(op.row(orbit, table)) == Counter(_reference_row(op, orbit, table))

    @settings(max_examples=40, deadline=None)
    @given(slices(), st.integers(1, 4))
    def test_slice_masks_match_the_table(self, g, k):
        op = transfer._LumpedOperator(g, k)
        table = transfer._slice_table(g, k)
        full, color, split, profiles = op._slice_masks(table)
        assert full == (1 << len(table)) - 1
        orbit_rows = dict(profiles)
        for r, (colors, comp) in enumerate(table):
            for v in range(g.n):
                for c in range(k):
                    assert color[v * k + c] >> r & 1 == (colors[v] == c)
                for w in range(g.n):
                    assert split[v * g.n + w] >> r & 1 == (comp[v] != comp[w])
            assert orbit_rows[op.orbit((colors, comp))] >> r & 1
        assert sum(mask.bit_count() for mask in orbit_rows.values()) == len(table)

    def test_scaled_input_scales_the_output(self):
        # the orbit-lumped step sums c * count, linear in the weights
        g, k = path(2), 3
        scaled = step(g, k, {p: w * -3 for p, w in initial_states(g, k).items()})
        whole = step(g, k, initial_states(g, k))
        assert scaled == {p: w * -3 for p, w in whole.items()}

    @settings(max_examples=40, deadline=None)
    @given(slice_cases(81, min_k=2), st.integers(0, 10**6))
    def test_asymmetric_input_takes_the_general_path(self, case, pick):
        g, k, _ = case
        symmetric = step(g, k, initial_states(g, k))
        profiles = list(symmetric)
        chosen = profiles[pick % len(profiles)]
        perturbed = dict(symmetric)
        perturbed[chosen] = symmetric[chosen] + LaurentPoly2.monomial(0, 5)
        missing = dict(symmetric)
        del missing[chosen]
        for states in ({chosen: symmetric[chosen]}, perturbed, missing):
            got, general_outputs = _step_and_general_outputs(g, k, states)
            assert len(general_outputs) == 1 and got is general_outputs[0]

    @settings(max_examples=40, deadline=None)
    @given(slices(), st.integers(1, 3), st.sets(st.integers(0, 63)), st.sets(st.integers(0, 10**4)))
    # one whole orbit dropped leaves the rest symmetric; one member dropped does not
    @example(path(3), 2, {0}, set())
    @example(path(3), 2, set(), {0})
    def test_fast_path_needs_whole_orbits(self, g, k, drop_orbits, drop_profiles):
        op = transfer._operator(g, k)
        table = transfer._slice_table(g, k)
        symmetric = step(g, k, initial_states(g, k))
        profiles = list(symmetric)
        orbits = list(dict.fromkeys(op.orbit(p) for p in profiles))
        dropped = {orbits[i % len(orbits)] for i in drop_orbits}
        cut = {profiles[i % len(profiles)] for i in drop_profiles}
        states = {
            p: w
            for p, w in symmetric.items()
            if p not in cut and op.orbit(p) not in dropped
        }
        present = Counter(op.orbit(p) for p in states)
        partial = any(count != len(op.members[o]) for o, count in present.items())
        got = transfer._lumped_step(op, table, states)
        assert (got is None) == partial
        if got is not None:
            assert got == transfer._general_step(g.n, table, states)

    @pytest.mark.parametrize(
        "bad",
        [
            Profile((0,), (0,)),  # one vertex short
            Profile((0, 0), (0, 0, 0)),  # a linkage label too many
            Profile((0, 5), (0, 1)),  # a color outside 0..k-1
            Profile((0, -1), (0, 1)),
            Profile((0, 0), (1, 1)),  # not an RGS: class 0 would be empty and close
            Profile((0, 1), (0, 0)),  # one class over two colors
        ],
        ids=["short", "long", "color-5", "color-minus-1", "non-rgs", "two-color-class"],
    )
    def test_malformed_profiles_raise(self, bad):
        g, k = path(2), 2
        symmetric = initial_states(g, k)
        asymmetric = dict(symmetric)
        asymmetric[next(iter(asymmetric))] = ONE * 2
        for states in ({bad: ONE}, {**symmetric, bad: ONE}, {**asymmetric, bad: ONE}):
            with pytest.raises(ValueError, match="malformed profile"):
                step(g, k, states)
        with pytest.raises(ValueError, match="malformed profile"):
            transfer.orbit_system(g, k, [*symmetric, bad])

    @pytest.mark.parametrize(
        "bad",
        [Profile((1.0, 1), (0, 0)), Profile((True, 1), (0, 0)), Profile((1, 1), (0, 0.0))],
        ids=["float-color", "bool-color", "float-label"],
    )
    def test_equal_profiles_with_non_int_labels_raise_in_either_order(self, bad):
        # each equals, and hashes as, the valid profile ((1, 1), (0, 0))
        g, k = path(2), 2
        transfer._operator.cache_clear()
        with pytest.raises(ValueError, match="malformed profile"):
            step(g, k, {bad: ONE})  # an unknown profile
        symmetric = initial_states(g, k)
        assert step(g, k, symmetric) == _general(g, k, symmetric)
        assert bad in transfer._operator(g, k).orbit_of
        with pytest.raises(ValueError, match="malformed profile"):
            step(g, k, {bad: ONE})  # equal to a registered member
        swapped = {p: w for p, w in symmetric.items() if p != bad}
        swapped[bad] = ONE  # symmetric but for the key object
        with pytest.raises(ValueError, match="malformed profile"):
            step(g, k, swapped)

    @settings(max_examples=40, deadline=None)
    @given(slices(4), st.integers(1, 3), st.booleans(), st.lists(packed_weights, min_size=1, max_size=6))
    # x terms, negative y exponents, negative coefficients and coefficients past 2^64
    @example(
        path(3),
        2,
        True,
        [
            LaurentPoly2({(0, -3): -(2**70), (2, 1): 5, (1, -1): 2**64 + 1}),
            LaurentPoly2({}),
            LaurentPoly2({(3, 4): -1, (0, 0): 2**80}),
        ],
    )
    # long weights, packed through byte images
    @example(path(2), 2, False, [LaurentPoly2({(i % 2, i - 30): (-3) ** i << 900 for i in range(60)})])
    def test_packed_weights_equal_the_general_path(self, g, k, later, pool):
        op = transfer._operator(g, k)
        states = initial_states(g, k)
        if later:
            states = step(g, k, states)
        weights: dict[int, LaurentPoly2] = {}
        drawn = {}
        for profile in states:
            orbit = op.orbit(profile)
            drawn[profile] = weights.setdefault(orbit, pool[len(weights) % len(pool)])
        got, general_outputs = _step_and_general_outputs(g, k, drawn)
        assert general_outputs == []
        assert got == _general(g, k, drawn)

    @pytest.mark.parametrize("digits", [2, 20, 80])  # 80 digits of 464 bits pack through bytes
    def test_a_width_one_byte_narrower_misreads_a_step_at_its_bound(self, monkeypatch, digits):
        # one vertex at k=2 is one orbit whose row is w -> w + y*w; with
        # w = 2^454 * (1 + y + ... + y^(digits-1)) every middle coefficient is
        # the bound 2^454 * (1 + 1) = 2^455, whose bit length 456 is a
        # multiple of 8, so the width is 464 bits and one byte less holds no +2^455
        g, k = path(1), 2
        weight = LaurentPoly2({(0, j): 2**454 for j in range(digits)})
        states = dict.fromkeys(initial_states(g, k), weight)
        want = _general(g, k, states)
        assert max(c for w in want.values() for c in w.terms.values()) == 2**455
        assert transfer._digit_width(2**455) == 464
        got, general_outputs = _step_and_general_outputs(g, k, states)
        assert general_outputs == [] and got == want
        width = transfer._digit_width
        monkeypatch.setattr(transfer, "_digit_width", lambda bound: width(bound) - 8)
        try:
            narrow = step(g, k, states)
        except OverflowError:  # a digit past the byte image of the value
            narrow = None
        assert narrow != want

    def test_output_shares_one_weight_per_orbit(self):
        states = step(star(3), 2, initial_states(star(3), 2))
        assert len({id(w) for w in states.values()}) == 7


def _reachable_orbit_list(g, k):
    """Orbits the DP reaches, in the order they are discovered by expanding
    from the first slice until none is new."""
    op = transfer._operator(g, k)
    table = transfer._slice_table(g, k)
    frontier = list(dict.fromkeys(op.orbit(p) for p in initial_states(g, k)))
    seen = set(frontier)
    for orbit in frontier:
        for target, _, _ in op.row(orbit, table):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return frontier


def _reachable_orbits(g, k):
    return set(_reachable_orbit_list(g, k))


def _valid_profiles(g, k):
    """Every boundary state a coloring allows: linkage classes are unions of
    the slice's monochromatic components, each of one color."""
    partitions = [()]
    for _ in range(g.n):
        partitions = [rgs + (c,) for rgs in partitions for c in range(max(rgs, default=-1) + 2)]
    for colors, comp in transfer._slice_table(g, k):
        for linkage in partitions:
            if all(
                (comp[u] != comp[v] or linkage[u] == linkage[v])
                and (linkage[u] != linkage[v] or colors[u] == colors[v])
                for u in range(g.n)
                for v in range(u)
            ):
                yield colors, linkage


class TestOrbitCounts:
    @pytest.mark.parametrize(
        "g,k,orbits",
        [
            (star(3), 2, 7),
            (complete(4), 2, 3),
            (complete(4), 3, 4),
            (cycle(4), 3, 8),
            (path(6), 2, 59),
            (star(4), 2, 11),
            (star(5), 2, 16),
        ],
    )
    def test_reachable_orbits(self, g, k, orbits):
        assert len(_reachable_orbits(g, k)) == orbits

    def test_complete_slice_orbits_are_color_classes(self):
        for m, k in [(3, 2), (4, 3), (5, 2)]:
            assert len(_reachable_orbits(complete(m), k)) == len(color_classes(m, k))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_star_profile_count_counts_valid_states(self, m):
        g = star(m)
        op = transfer._operator(g, 2)
        valid = {op.orbit((colors, linkage)) for colors, linkage in _valid_profiles(g, 2)}
        assert len(valid) == cf.star_profile_count(m)
        reached = _reachable_orbits(g, 2)
        assert reached <= valid
        assert len(reached) == 1 + m * (m + 1) // 2


# the seven published boundary configurations of the 3-leaf star slice, k=2
STAR_CONFIGURATIONS = [
    Profile(colors, linkage)
    for colors, linkage in [
        ((0, 1, 1, 1), (0, 1, 2, 3)),
        ((0, 1, 1, 1), (0, 1, 1, 2)),
        ((0, 1, 1, 1), (0, 1, 1, 1)),
        ((0, 0, 1, 1), (0, 0, 1, 2)),
        ((0, 1, 1, 0), (0, 1, 1, 0)),
        ((0, 0, 0, 1), (0, 0, 0, 1)),
        ((0, 0, 0, 0), (0, 0, 0, 0)),
    ]
]


class TestOrbitSystem:
    @settings(max_examples=60, deadline=None)
    @given(slices(4), st.integers(1, 3), st.randoms(use_true_random=False))
    @example(star(3), 2, random.Random(0))
    @example(Graph.from_edges(4, [(0, 1), (2, 3)]), 2, random.Random(1))
    def test_series_equals_the_profile_dp(self, g, k, rnd):
        op = transfer._operator(g, k)
        profiles = [Profile(*op.reps[orbit]) for orbit in _reachable_orbit_list(g, k)]
        assume(len(profiles) <= MAX_SYSTEM_DIM)
        gf = weighted_solution_gf(*transfer.orbit_system(g, k, profiles))
        coeffs = series_expand(gf, 4)
        assert coeffs[0] == LaurentPoly2.zero()
        for n in range(1, 5):
            assert coeffs[n] == prism_distribution(g, k, n).poly
        rnd.shuffle(profiles)
        assert gf_equal(gf, weighted_solution_gf(*transfer.orbit_system(g, k, profiles)))

    def test_an_unlisted_orbit_raises(self):
        # configuration 1 is reached from the first-slice orbits
        with pytest.raises(ValueError, match="reached but not listed"):
            transfer.orbit_system(star(3), 2, STAR_CONFIGURATIONS[:1] + STAR_CONFIGURATIONS[2:])

    def test_a_missing_first_slice_orbit_raises(self):
        # configuration 0 is the first slice's coloring (0, 1, 1, 1)
        with pytest.raises(ValueError, match="every first-slice one"):
            transfer.orbit_system(star(3), 2, STAR_CONFIGURATIONS[1:])

    def test_two_profiles_of_one_orbit_raise(self):
        twin = Profile((1, 0, 0, 0), (0, 1, 2, 3))  # configuration 0, colors swapped
        with pytest.raises(ValueError, match="distinct orbits"):
            transfer.orbit_system(star(3), 2, STAR_CONFIGURATIONS + [twin])
