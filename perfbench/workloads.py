"""The benchmark's workloads: their cases, canonical outputs and checks.

A case is one call into colorblocks.  Its output is turned into a canonical
JSON value by the benchmark's own code (never by the program's formatters),
so a later change to the program's output helpers cannot hide a wrong result.
Each canonical output is compared with the value stored in ``expected/``,
which was generated once from the program as it stood when the benchmark was
added (see ``make_expected.py``).

Functions of the program are always reached through module attributes at call
time (``cb.prism_distribution``, ``oracle.distribution_bruteforce``), so the
tracer can rebind them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

WORKLOADS = ("prism_dp", "symbolic_gf", "bruteforce", "cli_mix")

# Outputs whose canonical text is longer than this are stored as a digest.
DIGEST_OVER_BYTES = 16_384

# bruteforce: the seed picks one of this many stored 9-vertex graphs.  The
# kernel's cost depends on a graph's shape, so the seeded inputs are kept
# small next to the fixed ones.
RANDOM_GRAPH_POOL = 32
RANDOM_GRAPH_N = 9
RANDOM_GRAPH_EDGES = 13
RANDOM_TREE_N = 12


def import_program():
    """Import colorblocks from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import colorblocks  # noqa: F401
    import colorblocks.cli  # noqa: F401

    found = Path(colorblocks.__file__).resolve().parent.parent
    if found != src.resolve():
        raise ImportError(f"colorblocks was imported from {found}, not {src}")


# -- canonical outputs ------------------------------------------------------------


def poly_canon(p) -> list:
    """Sorted [x_exp, y_exp, coefficient] rows of a LaurentPoly2."""
    return [[i, j, str(c)] for (i, j), c in sorted(p.terms.items())]


def dist_canon(d) -> dict:
    return {
        "vertices": d.vertex_count,
        "k": d.k,
        "dist": {str(j): str(c) for (_, j), c in sorted(d.poly.terms.items())},
    }


def gf_canon(gf) -> dict:
    return {"num": poly_canon(gf.num), "den": poly_canon(gf.den)}


def series_canon(coeffs) -> list:
    return [poly_canon(c) for c in coeffs]


def canon_text(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def stored_form(value) -> dict:
    """What ``expected/`` holds for one canonical output."""
    text = canon_text(value)
    if len(text) > DIGEST_OVER_BYTES:
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text)}
    return {"output": value}


def matches(value, stored: dict) -> bool:
    if "output" in stored:
        return canon_text(value) == canon_text(stored["output"])
    return hashlib.sha256(canon_text(value).encode()).hexdigest() == stored["sha256"]


def coeff_bits(coeffs) -> int:
    """Bit length of the largest numerator or denominator among coefficients.

    ``coeffs`` are coefficients as ``str(Fraction)`` writes them ("-7/3").
    """
    return max((int(part).bit_length() for c in coeffs for part in str(c).split("/")), default=0)


def poly_coeffs(rows: list) -> list:
    return [c for _, _, c in rows]


def dist_coeffs(canon: dict) -> list:
    return list(canon["dist"].values())


def gf_coeffs(canon: dict) -> list:
    return poly_coeffs(canon["num"]) + poly_coeffs(canon["den"])


def series_coeffs(canon: list) -> list:
    return [c for rows in canon for c in poly_coeffs(rows)]


def cli_coeffs(canon: dict) -> list:
    """Coefficient fields of a JSON CLI output: distributions, series, gf terms."""
    doc = canon["output"]
    if not isinstance(doc, dict):  # CSV rows
        return []
    coeffs = list(doc.get("distribution", {}).values())
    for key in ("num_terms", "den_terms"):
        coeffs += doc.get(key, {}).values()
    for terms in doc.get("series", {}).values():
        coeffs += terms.values()
    return coeffs


# -- route-independent invariants ----------------------------------------------


def dist_total_problem(canon: dict) -> str | None:
    """B(1) = k^|V|: the coefficients count every coloring exactly once."""
    total = sum(Fraction(c) for c in canon["dist"].values())
    want = canon["k"] ** canon["vertices"]
    return None if total == want else f"B(1) = {total}, expected {want}"


def series_total_problem(series: list, slice_size: int, k: int) -> str | None:
    """[x^n] of a prism generating function sums to k^(slice_size*n)."""
    for n, rows in enumerate(series):
        total = sum(Fraction(c) for _, _, c in rows)
        want = k ** (slice_size * n) if n else 0
        if total != want:
            return f"[x^{n}] sums to {total}, expected {want}"
    return None


# -- cases ---------------------------------------------------------------------------


@dataclass
class Case:
    """One timed call and how to judge its output."""

    id: str
    call: Callable[[], object]
    canon: Callable[[object], object]
    # Checked once per run, on the first output; returns a problem or None.
    invariant: Callable[[object], str | None] | None = None
    # Key of the stored expected output (differs from id for pooled inputs).
    expected_key: str = ""
    # Coefficients of a canonical output, for ``algebra.max_coeff_bits``.
    coeffs: Callable[[object], list] = lambda _canon: []

    def __post_init__(self):
        self.expected_key = self.expected_key or self.id


@dataclass
class CrossCheck:
    """An untimed check that two routes agree; returns a problem or None."""

    id: str
    run: Callable[[], str | None]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    cross_checks: list[CrossCheck] = field(default_factory=list)


def _same(a, b, what: str) -> str | None:
    return None if canon_text(a) == canon_text(b) else f"{what} disagree"


def _prism_vs_brute(slice_graph: str, k: int, n: int) -> CrossCheck:
    import colorblocks as cb

    def run():
        g = cb.parse_graph_spec(slice_graph)
        dp = cb.prism_distribution(g, k, n)
        brute = cb.distribution_bruteforce(cb.cartesian_product(g, cb.path(n)), k)
        return _same(dist_canon(dp), dist_canon(brute), "transfer and brute force")

    return CrossCheck(f"cross/{slice_graph}xpath:{n}_k{k}", run)


def _dist_case(case_id: str, call, expected_key: str = "") -> Case:
    return Case(
        case_id,
        call,
        dist_canon,
        lambda out: dist_total_problem(dist_canon(out)),
        expected_key,
        dist_coeffs,
    )


def prism_dp(seed: int) -> Workload:
    import colorblocks as cb

    specs = [("path", 4, 3, 3), ("cycle", 4, 3, 3), ("star", 3, 2, 8), ("complete", 4, 2, 8)]
    cases = []
    for family, size, k, n in specs:
        g = getattr(cb, family)(size)
        cases.append(
            _dist_case(
                f"prism/{family}{size}_k{k}_n{n}",
                lambda g=g, k=k, n=n: cb.prism_distribution(g, k, n),
            )
        )
    random.Random(seed).shuffle(cases)
    checks = [_prism_vs_brute("star:3", 2, 3), _prism_vs_brute("cycle:4", 3, 2)]
    return Workload("prism_dp", cases, checks)


def _km_gf_case(m: int, k: int) -> Case:
    import colorblocks as cb

    def invariant(gf):
        return series_total_problem(series_canon(cb.series_expand(gf, 3)), m, k)

    return Case(f"gf/km_{m}_{k}", lambda: cb.km_prism_gf(m, k), gf_canon, invariant, coeffs=gf_coeffs)


def _tree_formula_problem(d, n: int, k: int) -> str | None:
    """Any tree: [y^j] = k * C(n-1, j-1) * (k-1)^(j-1)."""
    import math

    want = {
        str(j): str(k * math.comb(n - 1, j - 1) * (k - 1) ** (j - 1))
        for j in range(1, n + 1)
        if k * math.comb(n - 1, j - 1) * (k - 1) ** (j - 1)
    }
    got = dist_canon(d)
    if got["dist"] != want:
        return f"tree on {n} vertices does not match k*C(n-1,j-1)*(k-1)^(j-1)"
    return dist_total_problem(got)


def symbolic_gf(seed: int) -> Workload:
    import colorblocks as cb
    from colorblocks import closed_forms as cf
    from colorblocks import fixtures as fx

    def fixtures_agree():
        return [
            cb.gf_equal(cb.km_prism_gf(m, k), fx.fixture_gf(f"K{m}_k{k}"))
            for m, k in ((4, 2), (5, 2), (6, 2), (4, 3))
        ]

    cases = [
        _km_gf_case(5, 3),
        Case(
            "gf/star13_matrix",
            lambda: fx.fixture_gf("STAR13_matrix"),
            gf_canon,
            lambda gf: None
            if cb.gf_equal(gf, fx.fixture_gf("STAR13_k2"))
            else "solved star system differs from the stored STAR13_k2 fixture",
            coeffs=gf_coeffs,
        ),
        Case(
            "gf/km_equals_fixtures",
            fixtures_agree,
            list,
            lambda out: None if all(out) else f"gf_equal gave {out}",
        ),
        Case(
            "gf/series_K6_k2_N30",
            lambda: cb.series_expand(fx.fixture_gf("K6_k2"), 30),
            series_canon,
            lambda out: series_total_problem(series_canon(out), 6, 2),
            coeffs=series_coeffs,
        ),
        Case(
            "closed/tree_255_k2",
            lambda: cf.tree_distribution(255, 2),
            dist_canon,
            lambda d: _tree_formula_problem(d, 255, 2),
            coeffs=dist_coeffs,
        ),
        Case(
            "closed/pbt_6_k3",
            lambda: cf.pbt_distribution(6, 3),
            dist_canon,
            lambda d: _tree_formula_problem(d, 127, 3),
            coeffs=dist_coeffs,
        ),
    ]
    random.Random(seed).shuffle(cases)

    def km_vs_prism():
        series = cb.series_expand(cb.km_prism_gf(4, 3), 3)
        for n in (1, 2, 3):
            dp = cb.prism_distribution(cb.complete(4), 3, n)
            if poly_canon(series[n]) != poly_canon(dp.poly):
                return f"[x^{n}] of km_prism_gf(4,3) differs from the profile DP"
        return None

    return Workload("symbolic_gf", cases, [CrossCheck("cross/km_4_3_vs_prism", km_vs_prism)])


def random_connected_graph(n: int, edge_count: int, seed: int):
    """A seeded random tree on n vertices plus random extra edges."""
    import colorblocks as cb

    tree = cb.random_tree(n, seed)
    have = set(tree.edges())
    rng = random.Random(seed)
    extra = rng.sample(
        [e for e in itertools.combinations(range(n), 2) if e not in have],
        edge_count - len(have),
    )
    return cb.Graph.from_edges(n, tree.edges() + extra)


def bruteforce(seed: int) -> Workload:
    import colorblocks as cb
    from colorblocks import closed_forms as cf

    def brute(g, k, threads=1):
        return cb.distribution_bruteforce(g, k, threads=threads)

    grid = cb.grid(4, 4)
    k3p3 = cb.cartesian_product(cb.complete(3), cb.path(3))
    tree = cb.random_tree(RANDOM_TREE_N, seed)
    pool_index = seed % RANDOM_GRAPH_POOL
    graph = random_connected_graph(RANDOM_GRAPH_N, RANDOM_GRAPH_EDGES, pool_index)
    cases = [
        _dist_case("brute/grid4x4_k2_t1", lambda: brute(grid, 2)),
        _dist_case("brute/grid4x4_k2_t2", lambda: brute(grid, 2, threads=2)),
        _dist_case("brute/cycle10_k3", lambda: brute(cb.cycle(10), 3)),
        _dist_case("brute/complete3xpath3_k3", lambda: brute(k3p3, 3)),
        # every tree on 12 vertices has the same distribution
        _dist_case("brute/random_tree12_k2", lambda: brute(tree, 2)),
        _dist_case(
            "brute/random_graph9_k3",
            lambda: brute(graph, 3),
            f"brute/random_graph9_k3/{pool_index}",
        ),
    ]
    random.Random(seed).shuffle(cases)

    def tree_vs_closed():
        got = cb.distribution_bruteforce(tree, 2)
        want = cf.tree_distribution(RANDOM_TREE_N, 2)
        return _same(dist_canon(got), dist_canon(want), "brute force and the tree formula")

    checks = [
        _prism_vs_brute("complete:3", 3, 3),
        _prism_vs_brute("path:4", 2, 4),
        CrossCheck("cross/random_tree12_vs_closed", tree_vs_closed),
    ]
    return Workload("bruteforce", cases, checks)


# -- cli_mix -------------------------------------------------------------------------

CLI_CORPUS = EXPECTED_DIR / "cli_corpus.json"


def cli_canon(argv: list[str], code: int, stdout: str) -> dict:
    """Exit code and output of one request, with ``elapsed_ms`` removed."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        output = [row for row in rows if row[:1] != ["elapsed_ms"]]
    else:
        output = json.loads(stdout)
        output.pop("elapsed_ms", None)
    return {"exit_code": code, "output": output}


def run_cli(argv: list[str]) -> tuple[int, str]:
    from colorblocks import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def load_cli_corpus() -> list[dict]:
    return json.loads(CLI_CORPUS.read_text())["requests"]


def cli_agreement_problem(results: list[tuple[list[str], dict]]) -> str | None:
    """Every ``dist`` method gives the same distribution for one graph and k."""
    seen: dict[tuple[str, int], tuple[str, dict]] = {}
    for argv, canon in results:
        doc = canon["output"]
        if argv[0] != "dist" or not isinstance(doc, dict):
            continue
        key = (doc["graph"], doc["k"])
        if key in seen and seen[key][1] != doc["distribution"]:
            return f"methods {seen[key][0]} and {doc['method']} disagree on {key}"
        seen.setdefault(key, (doc["method"], doc["distribution"]))
        total = sum(int(c) for c in doc["distribution"].values())
        if total != int(doc["total"]) or total != doc["k"] ** doc["vertices"]:
            return f"B(1) = {total} on {key}, expected {doc['k']}^{doc['vertices']}"
    return None


def cli_mix(seed: int) -> Workload:
    requests = load_cli_corpus()
    cases = []
    for index, request in enumerate(requests):
        argv = request["argv"]
        cases.append(
            Case(
                f"cli/{index:03d}",
                lambda argv=argv: run_cli(argv),
                lambda out, argv=argv: cli_canon(argv, *out),
                coeffs=cli_coeffs,
            )
        )

    def agreement():
        dist_argvs = [r["argv"] for r in requests if r["argv"][0] == "dist"]
        return cli_agreement_problem([(a, cli_canon(a, *run_cli(a))) for a in dist_argvs])

    random.Random(seed).shuffle(cases)
    return Workload("cli_mix", cases, [CrossCheck("cross/cli_dist_methods_agree", agreement)])


BUILDERS = {
    "prism_dp": prism_dp,
    "symbolic_gf": symbolic_gf,
    "bruteforce": bruteforce,
    "cli_mix": cli_mix,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def load_expected(name: str) -> dict:
    """Stored outputs by expected key, in the form ``stored_form`` gives."""
    if name == "cli_mix":
        return {
            f"cli/{index:03d}": {"output": {"exit_code": r["exit_code"], "output": r["output"]}}
            for index, r in enumerate(load_cli_corpus())
        }
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())
