"""Profile dynamic programming for products of a graph with a path.

The product G x P_n is built slice by slice.  A boundary state (profile)
records everything later slices can see: the latest slice's coloring plus a
partition of its vertices saying which of them already belong to a common
block through earlier slices.  Partitions are stored as restricted-growth
strings (class labels first appear in increasing order), so equal states
collide in the state map.

Weights are polynomials in y.  A block contributes its y factor when it is
*closed* (no vertex of the next slice continues it); finalize() then pays one
y per still-open class.  The alternative convention of paying at birth gives
the same distribution for completed products; closure payment keeps the step
operator independent of the total length.

Orbit lumping: permuting the k colors (S_k) or the slice's vertices by an
automorphism maps profiles to profiles, and the step commutes with both
groups (permute an old profile and a new coloring alike, and the result is
permuted alike with the same number of closures).  So when every profile in
an orbit of S_k x Aut(slice) carries the same weight -- as initial_states
gives and as step keeps -- the step is computed on orbits: the chain is
lumpable (Kemeny & Snell, *Finite Markov Chains*, 1960).  One integer row per
orbit the DP reaches is built from a representative the first time it is
needed; its entries |O|*m/|O'| count the (profile, coloring) pairs of the
source orbit O that land on any one profile of the target orbit O'.  The
public step writes the summed weight back to every member profile, so it
returns exactly the keys and values of the general path;
``prism_distribution`` keeps one weight per orbit from the first slice to the
final sum.  Any other input to step (one profile, unequal weights, a partly
present orbit) takes the general path, one transition per (profile,
coloring).  The operator of the last 32 (slice, k) pairs is kept, so later
steps reuse its rows.

A row is one bit-sliced pass over the k^|V| rows of the slice table, bit r of
a Python int standing for table row r (as in Biham's bitslice DES, FSE 1997,
and the oracle's kernel).  Once per operator the table gives masks: the rows
that give vertex v color c, the rows where v and w lie in different
components, and the rows whose own profile (colors, component RGS) lies in
each first-slice orbit.  For a representative, vertex v agrees on the rows
that keep its color; an old class closes on the rows where none of its
vertices agree, and a bit-sliced counter holds each row's closed classes.
Only where two agreeing vertices of one old class lie in different new
components do classes merge; every other row keeps its component RGS as the
new linkage, so it lands on its own first-slice profile, and its entries are
popcounts of (orbit mask & rows with c closed & not merge).  The merge rows
alone go through the transition, which labels components with
``graphs.union_roots`` on the new components.

Orbit weights are added as packed integers (Kronecker substitution; von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 8; ``algebra._pack``'s
docstring gives the bit layout): a weight is one ``int``, its value at
y = 2**W, and a row entry (target, closed, count) adds
``(packed * count) << W * closed`` to its target.  ``_apply_rows`` is that
loop, and both routes run it.  ``prism_distribution`` carries one such
``int`` per orbit (``_Carried``), packed once from the first-slice orbits at
weight 1 each, with y exponents counted from 0; no step unpacks anything or
writes a member profile, and ``finalize`` sums packed_o * |O| per open-class
count and reads each group back once with ``algebra._unpack``.  Its one
width W = _digit_width(k^(|V|*n)) holds for the whole run, because every
digit counts colorings (derived in ``prism_distribution``).  The public dict
route (``initial_states``, ``step``, ``finalize``) takes any weights, x
terms and negative coefficients included, so each of its lumped steps packs
the input with y exponents counted from the least one, x = 2**(W*S) for S
the number of y exponents an output can have, and
W = _digit_width(sum_o ||w_o||_inf * (sum of the counts in o's row)), the
bound ``_lumped_step`` derives; each target is read back once, as signed
digits.

For complete-graph slices the states can be reduced to color classes (colorings
of the slice up to color permutation and same-size part swaps), giving a small
linear system whose symbolic solution is the generating function in x and y.
Each class row is counted by a DP over the vertices of one coloring in the
class, whose states do not grow with k, instead of listing the k^m colorings.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import NamedTuple

from .algebra import (
    MAX_SYSTEM_DIM,
    LaurentPoly2,
    RationalGF,
    _digit_width,
    _pack,
    _unpack,
    weighted_solution_gf,
)
from .combinatorics import partition_count_at_most_k_parts, partitions_at_most_k_parts
from .errors import CapExceededError, DimensionLimitError
from .graphs import Graph, union_roots
from .oracle import BlockDistribution, _count_rows, _counter_groups, expected_blocks

DEFAULT_VERTEX_CAP = 8
DEFAULT_STATE_CAP = 1 << 16
_MAX_COMPLETE_SLICE = DEFAULT_STATE_CAP.bit_length() - 1

_ONE = LaurentPoly2.one()
_COUNT = itemgetter(2)


class Profile(NamedTuple):
    """Boundary state: slice coloring plus cross-slice linkage partition (RGS).

    A tuple: it equals, and hashes as, the plain tuple (colors, linkage)."""

    colors: tuple[int, ...]
    linkage: tuple[int, ...]


StateWeights = dict[Profile, LaurentPoly2]

# Profile((colors, linkage)) without the Python-level __new__ frame
_new_profile = partial(tuple.__new__, Profile)


def _canonical_rgs(labels) -> tuple[int, ...]:
    seen: dict = {}
    return tuple([seen.setdefault(label, len(seen)) for label in labels])


@lru_cache(maxsize=32)
def _slice_table(g: Graph, k: int) -> tuple[Profile, ...]:
    """All k^n slice colorings with their monochromatic-component RGS: the
    first slice's profiles."""
    edges = g.edges()
    table = []
    for colors in itertools.product(range(k), repeat=g.n):
        same = [(u, v) for u, v in edges if colors[u] == colors[v]]
        table.append(_new_profile((colors, _canonical_rgs(union_roots(g.n, same)))))
    return tuple(table)


def check_slice_caps(vertices: int, k: int, state_cap: int):
    """CapExceededError unless a slice of this many vertices is within the
    vertex cap and its k^vertices colorings within the state cap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if vertices > DEFAULT_VERTEX_CAP:
        raise CapExceededError(f"slice has {vertices} vertices, cap is {DEFAULT_VERTEX_CAP}")
    if k**vertices > state_cap:
        raise CapExceededError(f"{k}^{vertices} slice colorings exceed state cap {state_cap}")


def initial_states(g: Graph, k: int, *, state_cap: int = DEFAULT_STATE_CAP) -> StateWeights:
    """One weight-1 state per coloring of the first slice."""
    check_slice_caps(g.n, k, state_cap)
    return dict.fromkeys(_slice_table(g, k), _ONE)


def _transition(
    nv: int,
    old_colors: tuple[int, ...],
    old_link: tuple[int, ...],
    new_colors: tuple[int, ...],
    new_comp: tuple[int, ...],
) -> tuple[tuple[int, ...], int]:
    """One old profile followed by one slice coloring: the new linkage RGS and
    the number of old classes that close.

    Vertical edges at same-colored vertices merge old linkage classes with the
    new slice's components; an old class with no surviving connection closes.
    first[a] is the first new component old class a meets; only an old class
    that meets a second component merges new components, so without such a
    meeting the new linkage is new_comp itself (an RGS from _slice_table).
    """
    first = [-1] * (max(old_link) + 1)
    merges = []
    for v in range(nv):
        if old_colors[v] == new_colors[v]:
            a = old_link[v]
            c = new_comp[v]
            met = first[a]
            if met < 0:
                first[a] = c
            elif met != c:
                merges.append((met, c))
    closed = first.count(-1)
    if not merges:
        return new_comp, closed
    roots = union_roots(max(new_comp) + 1, merges)
    return _canonical_rgs([roots[c] for c in new_comp]), closed


def _general_step(nv: int, table, states: StateWeights) -> StateWeights:
    """The step on arbitrary weights: every (profile, new coloring) pair."""
    out: StateWeights = {}
    for (old_colors, old_link), weight in states.items():
        for new_colors, new_comp in table:
            new_link, closed = _transition(nv, old_colors, old_link, new_colors, new_comp)
            key = _new_profile((new_colors, new_link))
            shifted = weight.shift_y(closed) if closed else weight
            acc = out.get(key)
            out[key] = shifted if acc is None else acc + shifted
    return out


# -- orbit lumping ---------------------------------------------------------------


def _automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), as vertex maps v -> perm[v].

    Walks the stabiliser chain from its deepest level up: at level i the
    automorphisms found so far fix 0..i-1, and for each image c of i outside
    their orbit of i, one automorphism fixing 0..i-1 and sending i to c is
    found by backtracking and added.  The result generates the whole group,
    which is never enumerated.
    """
    n = g.n
    adj = [set(nbrs) for nbrs in g.adj]
    invariant = [
        (len(g.adj[v]), sorted(len(g.adj[u]) for u in g.adj[v])) for v in range(n)
    ]
    image = list(range(n))
    used = [False] * n

    def fits(v: int, w: int) -> bool:
        return invariant[v] == invariant[w] and all(
            (u in adj[v]) == (image[u] in adj[w]) for u in range(v)
        )

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if not used[w] and fits(v, w):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    generators: list[tuple[int, ...]] = []
    for i in reversed(range(n)):
        orbit = {i}
        for c in range(i + 1, n):
            if c in orbit:
                continue
            image[:] = range(n)
            used[:] = [v < i or v == c for v in range(n)]
            image[i] = c
            if fits(i, c) and extend(i + 1):
                generators.append(tuple(image))
                orbit = _point_orbit(i, generators)
    return generators


def _point_orbit(v: int, perms) -> set[int]:
    orbit = {v}
    frontier = [v]
    for u in frontier:
        for perm in perms:
            if perm[u] not in orbit:
                orbit.add(perm[u])
                frontier.append(perm[u])
    return orbit


class _LumpedOperator:
    """The step operator of one (slice, k) on orbits of S_k x Aut(slice).

    Orbits are registered as the DP meets them; a row is built from an
    orbit's representative the first time that orbit carries weight.
    """

    def __init__(self, g: Graph, k: int):
        self.nv = g.n
        self.k = k
        self.edges = g.edges()
        self.generators = _automorphism_generators(g)
        self.orbit_of: dict[Profile, tuple[int, Profile]] = {}  # member -> (orbit, member)
        self.reps: list[tuple] = []
        self.members: list[list[Profile]] = []
        self.table_rows: dict[Profile, Profile] = {}  # kept as members when registered
        self.rows: dict[int, list[tuple[int, int, int]]] = {}
        self.masks: tuple | None = None  # built by the first _slice_masks call

    def orbit(self, profile: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        """Orbit id of a profile, registered on first sight; ValueError if malformed.

        Only the operator's own member objects skip the check.  Tuples compare
        by value, so (1.0, 1) would find the member (1, 1): any other profile
        must hold ``int`` colors and labels, and an unknown one must also be
        well formed."""
        found = self.orbit_of.get(profile)
        if found is not None and found[1] is profile:
            return found[0]
        colors, linkage = profile
        for label in colors + linkage:
            if type(label) is not int:
                break
        else:  # int labels: an equal member's orbit, or a new one if well formed
            if found is not None:
                return found[0]
            if (
                len(colors) == self.nv == len(linkage)
                and all(0 <= c < self.k for c in colors)
                and _canonical_rgs(linkage) == linkage
                and len(set(zip(linkage, colors))) == len(set(linkage))
            ):
                return self._register((_canonical_rgs(colors), linkage))
        raise ValueError(f"malformed profile {colors}, {linkage} at k={self.k}")

    def _register(self, canon: tuple) -> int:
        # closure of one S_k-canonical profile under the automorphism
        # generators (read as v <- perm[v]: the inverses generate the same group)
        canonical = [canon]
        seen = {canon}
        for colors, linkage in canonical:
            for perm in self.generators:
                image = (
                    _canonical_rgs([colors[u] for u in perm]),
                    _canonical_rgs([linkage[u] for u in perm]),
                )
                if image not in seen:
                    seen.add(image)
                    canonical.append(image)
        used = max(canon[0]) + 1
        rows = self.table_rows
        members = []
        for colors, linkage in canonical:
            for relabel in itertools.permutations(range(self.k), used):
                profile = _new_profile((tuple(map(relabel.__getitem__, colors)), linkage))
                members.append(rows.get(profile, profile))
        index = len(self.reps)
        for profile in members:
            self.orbit_of[profile] = (index, profile)
        self.reps.append(canon)
        self.members.append(members)
        return index

    def _slice_masks(self, table):
        """The slice table bit-sliced, bit r standing for row r, as (full,
        color, split, profiles): ``color[v*k + c]`` the rows that give v
        color c, ``split[v*n + w]`` the rows where v and w lie in different
        components, and (orbit, rows) for each first-slice orbit, the rows
        whose own profile (colors, component RGS) lies in it.  Built, and
        the table's rows registered as members, on the first call.

        The table lists the colorings in mixed radix, vertex 0 most
        significant, so vertex v has color c on one run of k^(n-1-v) rows in
        each period of k^(n-v) rows.  Two vertices lie in one component on
        the rows where a path of monochromatic edges joins them: Warshall's
        transitive closure (J. ACM 9, 1962), on every row at once.
        """
        if self.masks is not None:
            return self.masks
        nv, k, rows = self.nv, self.k, len(table)
        full = (1 << rows) - 1
        color = []
        for v in range(nv):
            place = k ** (nv - 1 - v)
            run = ((1 << place) - 1) * (full // ((1 << k * place) - 1))
            for c in range(k):
                color.append(run << c * place)
        same = [0] * (nv * nv)
        for v in range(nv):
            same[v * nv + v] = full
        for u, v in self.edges:
            mono = 0
            for c in range(k):
                mono |= color[u * k + c] & color[v * k + c]
            same[u * nv + v] = same[v * nv + u] = mono
        for m in range(nv):
            for v in range(nv):
                via = same[v * nv + m]
                if via and v != m:
                    for w in range(nv):
                        same[v * nv + w] |= via & same[m * nv + w]
        split = same
        for i in range(nv * nv):
            split[i] ^= full
        self.table_rows = dict(zip(table, table))
        profiles: dict[int, int] = {}
        for r, profile in enumerate(table):
            target = self.orbit(profile)
            profiles[target] = profiles.get(target, 0) | 1 << r
        self.masks = full, color, split, list(profiles.items())
        return self.masks

    def row(self, source: int, table) -> list[tuple[int, int, int]]:
        """(target orbit, y shift, count): the count is the number of
        (profile, coloring) pairs from the source orbit that land on any one
        profile of the target orbit with that shift.

        One bit-sliced pass over the slice table from the representative's
        colors and linkage (see the module docstring): popcounts of the
        first-slice orbit masks for the rows where no old class merges, and
        one _transition per merge row.  The pass and the masks are plain
        loops, without comprehensions: most operators are built in a fresh
        process, where each code object's first run costs more than these
        small loops.
        """
        row = self.rows.get(source)
        if row is not None:
            return row
        full, color, split, profiles = self._slice_masks(table)
        nv, k = self.nv, self.k
        colors, linkage = self.reps[source]
        classes: list[list[int]] = []  # linkage is an RGS
        for v in range(nv):
            a = linkage[v]
            if a == len(classes):
                classes.append([v])
            else:
                classes[a].append(v)
        closed_count: list[int] = []  # counter planes, least significant first
        merge = 0
        for vertices in classes:
            alive = 0
            for i, w in enumerate(vertices):
                at_w = color[w * k + colors[w]]
                for v in vertices[:i]:
                    merge |= color[v * k + colors[v]] & at_w & split[v * nv + w]
                alive |= at_w
            if alive != full:
                _count_rows(closed_count, full ^ alive)
        multiplicity: dict[tuple[int, int], int] = {}
        for rows_in, closed in _counter_groups(closed_count, full ^ merge):
            for target, mask in profiles:
                m = (mask & rows_in).bit_count()
                if m:
                    multiplicity[(target, closed)] = m
        while merge:
            low = merge & -merge
            merge ^= low
            new_colors, new_comp = table[low.bit_length() - 1]
            new_link, closed = _transition(nv, colors, linkage, new_colors, new_comp)
            key = (self.orbit((new_colors, new_link)), closed)
            multiplicity[key] = multiplicity.get(key, 0) + 1
        row = []
        for (target, closed), m in multiplicity.items():
            count, remainder = divmod(len(self.members[source]) * m, len(self.members[target]))
            if remainder:
                raise ArithmeticError("orbit sums are not lumpable")
            row.append((target, closed, count))
        self.rows[source] = row
        return row


@lru_cache(maxsize=32)
def _operator(g: Graph, k: int) -> _LumpedOperator:
    """The operator of (g, k), kept so that later steps reuse its rows."""
    return _LumpedOperator(g, k)


def _apply_rows(op: _LumpedOperator, table, packed: dict[int, int], width: int) -> dict[int, int]:
    """One step on packed orbit weights (y = 2**width): each row entry
    (target, closed, count) of orbit o adds ``(packed[o] * count) << width *
    closed`` to its target.  The caller's width must hold every output
    coefficient."""
    sums: dict[int, int] = {}
    for orbit, value in packed.items():
        for target, closed, count in op.row(orbit, table):
            sums[target] = sums.get(target, 0) + ((value * count) << width * closed)
    return sums


def _lumped_step(op: _LumpedOperator, table, states: StateWeights) -> StateWeights | None:
    """The step computed on orbits, or None unless the input is symmetric:
    one weight per touched orbit, and as many profiles as those orbits have
    members.  Each profile is a distinct member, so then none is missing.

    Each orbit's weight is one ``_pack(terms, W, low, span)``, ``_apply_rows``
    steps them, and one ``_unpack(value, W, low, span)`` reads each target
    back.  The bound: target t's coefficient at x^i y^j is the sum over
    orbits o and entries (t, closed, count) of o's row of count *
    [x^i y^(j-closed)] w_o, at most sum_o ||w_o||_inf * (sum of o's row
    counts) in absolute value.  Packing is a ring map, so the packed sums are
    exact whatever the carries, and signed digits of W = _digit_width(that
    bound) bits read every coefficient back.  The stride: an output's y
    exponents low .. high + |V| (a row entry closes at most |V| classes)
    take ``span`` digits below each power of x, so an output without x terms
    has every digit below ``span`` and reads back with x exponent 0.
    """
    op._slice_masks(table)  # registers the slice table's rows, initial_states' keys
    weights: dict[int, LaurentPoly2] = {}
    size = 0
    symmetric = True
    for profile, weight in states.items():
        orbit = op.orbit(profile)  # ValueError if malformed, on either path
        first = weights.get(orbit)
        if first is None:
            symmetric = symmetric and isinstance(weight, LaurentPoly2)
            weights[orbit] = weight
            size += len(op.members[orbit])
        elif symmetric and first is not weight:
            symmetric = isinstance(weight, LaurentPoly2) and first == weight
    if not symmetric or size != len(states):
        return None
    # the coefficient bound and the least and largest y exponents, before
    # anything is packed
    bound = 0
    low = high = None
    for orbit, weight in weights.items():
        terms = weight._terms
        if not terms:
            continue
        bound += max(map(abs, terms.values())) * sum(map(_COUNT, op.row(orbit, table)))
        least, last = min(terms), max(terms)  # (x, y) exponents, x first
        if last[0]:
            least, last = min(j for _, j in terms), max(j for _, j in terms)
        else:
            least, last = least[1], last[1]
        if low is None or least < low:
            low = least
        if high is None or last > high:
            high = last
    if low is None:
        low = high = 0
    width = _digit_width(bound)
    span = high - low + op.nv + 1
    packed = {orbit: _pack(weight._terms, width, low, span) for orbit, weight in weights.items()}
    out: StateWeights = {}
    for target, value in _apply_rows(op, table, packed, width).items():
        weight = LaurentPoly2._raw(_unpack(value, width, low, span))
        out.update(zip(op.members[target], itertools.repeat(weight)))
    return out


class _Carried:
    """``prism_distribution``'s state: one packed ``int`` per orbit the DP
    has reached, the weight of each one of its member profiles at y = 2**width
    with y exponents counted from 0, at one width for the whole run.

    Its ``len`` is the number of profiles it stands for, sum_o |O|: the
    profile count of the same step on dicts."""

    __slots__ = ("op", "width", "packed")

    def __init__(self, op: _LumpedOperator, width: int, packed: dict[int, int]):
        self.op = op
        self.width = width
        self.packed = packed

    def __len__(self) -> int:
        members = self.op.members
        return sum([len(members[orbit]) for orbit in self.packed])


def step(
    g: Graph, k: int, states: StateWeights, *, state_cap: int = DEFAULT_STATE_CAP
) -> StateWeights:
    """Extend every partial product by one slice.

    For each (old profile, new coloring): vertical edges at same-colored
    vertices merge old linkage classes with the new slice's components; old
    classes with no surviving connection close and pay y each; the new
    profile keeps only what the new slice can see.  Symmetric input (one
    weight per orbit, see the module docstring) is computed on orbits, and
    ``prism_distribution``'s packed state stays packed.
    """
    check_slice_caps(g.n, k, state_cap)
    table = _slice_table(g, k)
    if type(states) is _Carried:
        op, width = states.op, states.width
        return _Carried(op, width, _apply_rows(op, table, states.packed, width))
    out = _lumped_step(_operator(g, k), table, states)
    return _general_step(g.n, table, states) if out is None else out


def orbit_system(
    g: Graph, k: int, profiles
) -> tuple[list[list[LaurentPoly2]], list[LaurentPoly2], list[int]]:
    """The lumped step as t = b + x*M*t over the orbits of ``profiles``, in
    order, for ``weighted_solution_gf``.  With a_i the open classes of orbit
    i and A[i][j] the sum of count*y^closed over the rows from orbit j to i,
    one profile of orbit i weighs (A^(n-1)*u)[i] after n slices (u = 1 on
    first-slice orbits, whose linkage is the coloring's component RGS), and
    B_n(G x P_n) = sum_i |O_i|*y^(a_i)*(A^(n-1)*u)[i].  With D = diag(y^a),
    M = D*A*D^-1 moves each class's y from its closing to its opening, and
    b = D*u, so x*sum_i |O_i|*t_i = sum_n x^n*B_n(G x P_n).  ValueError
    unless the profiles are well formed, lie in distinct orbits, and include
    every first-slice orbit and every orbit their rows reach."""
    check_slice_caps(g.n, k, DEFAULT_STATE_CAP)
    op = _operator(g, k)
    table = _slice_table(g, k)
    first = {orbit for orbit, _ in op._slice_masks(table)[3]}
    index = {op.orbit(p): i for i, p in enumerate(profiles)}
    if len(index) != len(profiles) or not first.issubset(index):
        raise ValueError("the profiles must lie in distinct orbits and list every first-slice one")
    opened = [max(op.reps[orbit][1]) + 1 for orbit in index]
    cells: list[list[dict]] = [[{} for _ in index] for _ in index]
    for j, source in enumerate(index):
        for target, closed, count in op.row(source, table):  # one entry per (target, closed)
            if target not in index:
                raise ValueError(f"orbit of {op.reps[target]} is reached but not listed")
            i = index[target]
            cells[i][j][(0, closed + opened[i] - opened[j])] = count
    matrix = [[LaurentPoly2._raw(cell) for cell in row] for row in cells]
    zero = LaurentPoly2.zero()
    rhs = [LaurentPoly2.monomial(0, a) if o in first else zero for o, a in zip(index, opened)]
    return matrix, rhs, [len(op.members[orbit]) for orbit in index]


def finalize(states: StateWeights) -> LaurentPoly2:
    """Close all still-open classes: sum of weight * y^(open classes).

    The profiles are counted per (weight object, open-class count) -- after
    a lumped step every member of an orbit holds one weight object -- and
    each distinct weight's terms are added once per count, times the number
    of its profiles.  The at most |V| group sums are shifted and added.
    ``prism_distribution``'s packed state sums packed_o * |O| per open-class
    count instead, and reads each group back once.
    """
    if type(states) is _Carried:
        op, width = states.op, states.width
        sums: dict[int, int] = {}  # open-class count -> sum of packed_o * |O|
        for orbit, value in states.packed.items():
            open_classes = max(op.reps[orbit][1]) + 1
            sums[open_classes] = sums.get(open_classes, 0) + value * len(op.members[orbit])
        total = LaurentPoly2.zero()
        for open_classes, value in sums.items():
            total = total + LaurentPoly2._raw(_unpack(value, width, open_classes))
        return total
    members: dict[tuple[int, int], list] = {}
    for (_, linkage), weight in states.items():
        key = (id(weight), max(linkage) + 1)
        entry = members.get(key)
        if entry is None:
            members[key] = [weight, 1]
        else:
            entry[1] += 1
    groups: dict[int, dict] = {}
    for (_, open_classes), (weight, count) in members.items():
        acc = groups.setdefault(open_classes, {})
        for key, c in weight._terms.items():
            acc[key] = acc.get(key, 0) + c * count
    total = LaurentPoly2.zero()
    for open_classes, acc in groups.items():
        group = LaurentPoly2._raw({key: c for key, c in acc.items() if c})
        total = total + group.shift_y(open_classes)
    return total


def prism_distribution(
    g: Graph, k: int, n: int, *, state_cap: int = DEFAULT_STATE_CAP
) -> BlockDistribution:
    """Block distribution of g x path(n) via the profile DP.

    One slice is its table, finalized as dicts; no operator is built.  Past
    it, the state is one packed ``int`` per orbit (``_Carried``), packed once
    from the first-slice orbits, weight 1 each, stepped by ``step`` and read
    back only by ``finalize``, at the one width W = _digit_width(k^(|V|*n)).
    The width holds throughout: after t slices, digit j of orbit o's integer
    counts the colorings of the first t slices that end on one fixed member
    profile of o and have closed j blocks, so it is >= 0 and at most
    k^(|V|*t) <= k^(|V|*n).  A step adds such counts, so every digit it
    writes is again such a count; and digit j of finalize's group of
    open-class count a, sum_o |O| * digit j of o over the orbits with a open
    classes, counts the colorings of the whole prism whose last profile has
    a open classes and that closed j blocks, again at most k^(|V|*n).
    Packing is a ring map, so the sums are exact whatever the carries, and
    ``_unpack`` reads every digit of W bits back, as 2**(W-1) > k^(|V|*n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return BlockDistribution(finalize(initial_states(g, k, state_cap=state_cap)), g.n, k)
    check_slice_caps(g.n, k, state_cap)
    table = _slice_table(g, k)
    op = _operator(g, k)
    first = {orbit: 1 for orbit, _ in op._slice_masks(table)[3]}
    states = _Carried(op, _digit_width(k ** (g.n * n)), first)
    for _ in range(n - 1):
        states = step(g, k, states, state_cap=state_cap)
    return BlockDistribution(finalize(states), g.n * n, k)


def prism_expected(g: Graph, k: int, n: int) -> Fraction:
    return expected_blocks(prism_distribution(g, k, n))


# -- reduced color-class system for complete-graph slices ----------------------


@dataclass(frozen=True)
class ColorClass:
    """An orbit of colorings of the complete graph on m vertices under color
    permutation; identified by its weakly decreasing nonzero part sizes.
    Part i, colored i, is the next ``parts[i]`` vertices in order."""

    parts: tuple[int, ...]
    size: int

    @property
    def support(self) -> int:
        """The number of colors the class uses."""
        return len(self.parts)


def color_classes(m: int, k: int) -> list[ColorClass]:
    """One entry per class; sizes sum to k^m."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    classes = []
    for parts in partitions_at_most_k_parts(m, k):
        # set partitions of shape parts, times injective colorings of the
        # parts, over the reorderings of equal parts
        class_size = math.factorial(m) * math.perm(k, len(parts))
        for size in parts:
            class_size //= math.factorial(size)
        for count in Counter(parts).values():
            class_size //= math.factorial(count)
        classes.append(ColorClass(parts=parts, size=class_size))
    return classes


def _class_row(parts: tuple[int, ...], k: int) -> dict[tuple[tuple[int, ...], int], int]:
    """(target parts, closed parts) -> how many of the k^m target colorings
    have those color-class parts and close that many parts of one coloring
    of the class ``parts``: part i, colored i, is the next parts[i] vertices.

    A DP over that coloring's vertices, part by part.  While part i is
    colored, a state holds the counts on colors i..u-1 (color i decides
    whether part i is met, and each later color j will decide it for part
    j), the weakly decreasing nonzero counts on the pool of all other
    colors, the parts closed so far, and whether part i has met its color.
    The pool is the k - u colors no part owns and the colors of the parts
    done: no later part can meet one of them, so they are interchangeable.
    A vertex takes a color i..u-1, a pool color in use (one choice per
    distinct count, times the number of pool colors with that count), or an
    unused pool color; when part i is done, color i's count joins the pool.
    At the end the pool's counts are the target parts.  The cost does not
    depend on k.
    """
    u = len(parts)
    states = {((0,) * u, (), 0, False): 1}
    for i, size in enumerate(parts):
        free = k - u + i  # pool colors while part i is colored
        for _ in range(size):
            after: dict[tuple, int] = {}
            for (own, pool, closed, met), count in states.items():
                for c in range(len(own)):
                    key = ((*own[:c], own[c] + 1, *own[c + 1 :]), pool, closed, met or not c)
                    after[key] = after.get(key, 0) + count
                for at, x in enumerate(pool):
                    if at and pool[at - 1] == x:
                        continue
                    key = (own, (*pool[:at], x + 1, *pool[at + 1 :]), closed, met)
                    after[key] = after.get(key, 0) + count * pool.count(x)
                fresh = free - len(pool)
                if fresh:
                    key = (own, (*pool, 1), closed, met)
                    after[key] = after.get(key, 0) + count * fresh
            states = after
        closing: dict[tuple, int] = {}
        for (own, pool, closed, met), count in states.items():
            if own[0]:
                pool = tuple(sorted((*pool, own[0]), reverse=True))
            key = (own[1:], pool, closed + (not met), False)
            closing[key] = closing.get(key, 0) + count
        states = closing
    return {(pool, closed): count for (_, pool, closed, _), count in states.items()}


def km_transfer_system(
    m: int, k: int
) -> tuple[list[list[LaurentPoly2]], list[LaurentPoly2], list[int]]:
    """The reduced system t = b + x*M*t over color classes of complete slices.

    M[a][cb] sums y^(closed classes) over every coloring in target class cb:
    an old color part closes exactly when the new slice reuses none of its
    vertices' color -- for complete slices, when part i of one coloring in a
    meets the new color-i vertices nowhere.  Each row is counted by
    ``_class_row``, a DP over that coloring's m vertices, without
    listing the k^m target colorings.  b[a] = y^support(a); the full
    generating function weights each class solution by its class size (and
    one factor x per slice, applied by km_prism_gf).
    """
    classes = color_classes(m, k)
    index_of_parts = {cls.parts: idx for idx, cls in enumerate(classes)}
    matrix = []
    for cls in classes:
        cells: list[dict[tuple[int, int], int]] = [{} for _ in classes]
        for (target, closed), count in _class_row(cls.parts, k).items():
            cells[index_of_parts[target]][(0, closed)] = count
        matrix.append([LaurentPoly2(cell) for cell in cells])
    rhs = [LaurentPoly2.monomial(0, cls.support) for cls in classes]
    weights = [cls.size for cls in classes]
    return matrix, rhs, weights


def km_prism_gf(m: int, k: int) -> RationalGF:
    """Generating function of (complete graph on m vertices) x path, symbolically.

    The system has one unknown per color class.  Its size is checked against
    the solver's limit, and m and k^m against the profile DP's state cap,
    before any class is built.  The class rows are counted without listing
    the k^m colorings, so their cost does not depend on k; the k^m cap is
    the DP's state cap all the same.  The DP's slice vertex cap is not
    applied: m = 9 at k = 1 passes here, and the DP rejects it.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    # (m - j, 1^j) for j < min(m, k) and, if k >= 2, (m - j, j) for j <= m/2
    # are color classes: a lower bound that rejects large m or k before the
    # partitions of m are listed
    bound = max(min(m, k), m // 2 + 1 if k >= 2 else 0)
    if bound > MAX_SYSTEM_DIM:
        raise DimensionLimitError(
            f"system dimension at least {bound} exceeds limit {MAX_SYSTEM_DIM}"
        )
    if m > _MAX_COMPLETE_SLICE:
        raise CapExceededError(
            f"complete slice of {m} vertices exceeds {_MAX_COMPLETE_SLICE}, "
            f"the largest m with 2^m within state cap {DEFAULT_STATE_CAP}"
        )
    dim = partition_count_at_most_k_parts(m, k)  # one color class per partition
    if dim > MAX_SYSTEM_DIM:
        raise DimensionLimitError(f"system dimension {dim} exceeds limit {MAX_SYSTEM_DIM}")
    if k**m > DEFAULT_STATE_CAP:
        raise CapExceededError(f"{k}^{m} slice colorings exceed state cap {DEFAULT_STATE_CAP}")
    return weighted_solution_gf(*km_transfer_system(m, k))
