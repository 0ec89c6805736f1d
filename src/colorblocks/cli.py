"""Command-line interface.

Subcommands: dist, expect, series, gf, classes, verify.  Output is JSON by
default (``--format csv`` for spreadsheet rows).  Every big number is emitted
as a decimal string -- coefficients routinely exceed 2^53 -- and exact fields
are never rounded; ``--decimals`` adds an explicitly rounded rendering.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from . import closed_forms as cf
from . import verify as verify_mod
from .algebra import series_expand
from .errors import CapExceededError, GraphSpecError, PolyParseError
from .fixtures import FIXTURE_IDS, fixture_gf, fixture_k
from .graphs import parse_graph_spec, split_prism_spec
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    BlockDistribution,
    distribution_bruteforce,
)
from .polytext import format_poly, format_rational, poly_to_json
from .transfer import (
    DEFAULT_STATE_CAP,
    color_classes,
    km_prism_gf,
    prism_distribution,
)


class UsageError(ValueError):
    pass


def _decimal_string(value: Fraction, places: int) -> str:
    with localcontext() as ctx:
        ctx.prec = places + 30
        # the default exponent range ends near 10^-10^6, short of large places
        ctx.Emin = min(ctx.Emin, -places)
        quantum = Decimal(1).scaleb(-places)
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(quantum))


def _distribution_doc(args, dist: BlockDistribution, elapsed_ms: int) -> dict:
    coeffs = dist.coefficients()
    doc = {
        "graph": args.graph,
        "k": args.k,
        "method": args.method,
        "vertices": dist.vertex_count,
        "distribution": {str(j): format_rational(c) for j, c in coeffs.items()},
        "total": format_rational(dist.total()),
        "expected": format_rational(dist.expected()),
        "elapsed_ms": elapsed_ms,
    }
    if args.decimals is not None:
        doc["expected_decimal"] = _decimal_string(dist.expected(), args.decimals)
        doc["decimal_places"] = args.decimals
    return doc


def _emit(doc: dict, fmt: str, csv_rows=None, csv_header=None):
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)


def _dist_csv_rows(dist: BlockDistribution):
    return [(0, j, format_rational(c)) for j, c in dist.coefficients().items()]


def _closed_form_distribution(spec: str, k: int) -> BlockDistribution:
    head, _, tail = spec.partition(":")
    if head in ("path", "cycle", "complete", "star", "pbt") and tail.isdigit():
        value = int(tail)
        if head == "path":
            return cf.tree_distribution(value, k)
        if head == "star":
            return cf.tree_distribution(value + 1, k)
        if head == "pbt":
            return cf.pbt_distribution(value, k)
        if head == "cycle":
            return cf.cycle_distribution(value, k)
        return cf.complete_distribution(value, k)
    prism = split_prism_spec(spec)
    if prism is not None:
        inner, n = prism
        fam, _, size = inner.partition(":")
        if fam == "complete" and size.isdigit():
            coeff = series_expand(km_prism_gf(int(size), k), n)[n]
            return BlockDistribution(coeff, int(size) * n, k)
    raise UsageError(
        f"no closed-form distribution for {spec!r}; recognized: path/cycle/"
        "complete/star/pbt:<n> and product(complete:<m>,path:<n>)"
    )


def _closed_form_expectation(spec: str, k: int) -> tuple[Fraction, int]:
    """Returns (expected value, vertex count)."""
    head, _, tail = spec.partition(":")
    if head in ("path", "cycle", "complete", "star", "pbt") and "," not in tail and tail.isdigit():
        value = int(tail)
        if head == "path":
            return cf.tree_expected(value, k), value
        if head == "star":
            return cf.tree_expected(value + 1, k), value + 1
        if head == "pbt":
            return cf.pbt_expected(value, k), 2 ** (value + 1) - 1
        if head == "cycle":
            return cf.cycle_expected(value, k), value
        return cf.complete_expected(value, k), value
    if head == "bipartite":
        parts = tail.split(",")
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            n, m = int(parts[0]), int(parts[1])
            return cf.bipartite_expected(n, m, k), n + m
    prism = split_prism_spec(spec)
    if prism is not None:
        inner, n = prism
        fam, _, size = inner.partition(":")
        if fam == "complete" and size.isdigit():
            return cf.complete_prism_expected(int(size), n, k), int(size) * n
    raise UsageError(
        f"no closed-form expectation for {spec!r}; recognized: path/cycle/"
        "complete/star/pbt:<n>, bipartite:<n>,<m>, product(complete:<m>,path:<n>)"
    )


def _compute_distribution(args) -> BlockDistribution:
    if args.method == "brute":
        g = parse_graph_spec(args.graph)
        cap = args.cap if args.cap else DEFAULT_ENUMERATION_CAP
        # never more worker threads than cores
        threads = min(args.threads, os.cpu_count() or 1)
        return distribution_bruteforce(g, args.k, cap=cap, threads=threads)
    if args.method == "transfer":
        if args.n is not None:
            slice_graph = parse_graph_spec(args.graph)
            n = args.n
        else:
            prism = split_prism_spec(args.graph)
            if prism is None:
                raise UsageError(
                    "--method transfer needs product(G,path:n) or --graph G with --n"
                )
            slice_graph = parse_graph_spec(prism[0])
            n = prism[1]
        state_cap = args.cap if args.cap else DEFAULT_STATE_CAP
        return prism_distribution(slice_graph, args.k, n, state_cap=state_cap)
    return _closed_form_distribution(args.graph, args.k)


def cmd_dist(args) -> int:
    t0 = time.perf_counter()
    dist = _compute_distribution(args)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    doc = _distribution_doc(args, dist, elapsed_ms)
    _emit(doc, args.format, _dist_csv_rows(dist), ("x_exp", "y_exp", "coefficient"))
    return 0


def cmd_expect(args) -> int:
    t0 = time.perf_counter()
    if args.method == "closed":
        expected, vertices = _closed_form_expectation(args.graph, args.k)
    else:
        dist = _compute_distribution(args)
        expected, vertices = dist.expected(), dist.vertex_count
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    doc = {
        "graph": args.graph,
        "k": args.k,
        "method": args.method,
        "vertices": vertices,
        "expected": format_rational(expected),
        "elapsed_ms": elapsed_ms,
    }
    if args.decimals is not None:
        doc["expected_decimal"] = _decimal_string(expected, args.decimals)
        doc["decimal_places"] = args.decimals
    _emit(doc, args.format, [(key, value) for key, value in doc.items()], ("field", "value"))
    return 0


def cmd_series(args) -> int:
    if args.N > 64:
        raise UsageError("--N is capped at 64")
    t0 = time.perf_counter()
    gf = fixture_gf(args.fixture, args.k)
    coeffs = series_expand(gf, args.N)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    doc = {
        "fixture": args.fixture,
        "k": fixture_k(args.fixture, args.k),
        "N": args.N,
        "series": {
            str(n): {str(j): format_rational(c) for j, c in sorted(
                (jj, cc) for (_, jj), cc in coeffs[n].terms.items())}
            for n in range(args.N + 1)
        },
        "elapsed_ms": elapsed_ms,
    }
    rows = [
        (n, j, format_rational(c))
        for n in range(args.N + 1)
        for (_, j), c in sorted(coeffs[n].terms.items())
    ]
    _emit(doc, args.format, rows, ("x_exp", "y_exp", "coefficient"))
    return 0


def cmd_gf(args) -> int:
    if args.fixture is not None:
        gf = fixture_gf(args.fixture, args.k if args.fixture == "K3_generic_k" else None)
        label = {"fixture": args.fixture}
        if args.fixture == "K3_generic_k":
            label["k"] = args.k
    elif args.m is not None:
        if args.k is None:
            raise UsageError("gf --m needs --k")
        gf = km_prism_gf(args.m, args.k)
        label = {"slice": f"complete:{args.m}", "k": args.k}
    else:
        raise UsageError("gf needs --fixture or --m")
    doc = {
        **label,
        "num": format_poly(gf.num),
        "den": format_poly(gf.den),
        "num_terms": poly_to_json(gf.num),
        "den_terms": poly_to_json(gf.den),
    }
    rows = [("num", i, j, format_rational(c)) for (i, j), c in sorted(gf.num.terms.items())]
    rows += [("den", i, j, format_rational(c)) for (i, j), c in sorted(gf.den.terms.items())]
    _emit(doc, args.format, rows, ("part", "x_exp", "y_exp", "coefficient"))
    return 0


def cmd_classes(args) -> int:
    classes = color_classes(args.m, args.k)
    doc = {
        "m": args.m,
        "k": args.k,
        "count": len(classes),
        "total": format_rational(args.k**args.m),
        "classes": [
            {"parts": list(c.parts), "size": format_rational(c.size), "support": c.support}
            for c in classes
        ],
    }
    rows = [
        ("+".join(map(str, c.parts)), format_rational(c.size), c.support) for c in classes
    ]
    _emit(doc, args.format, rows, ("parts", "size", "support"))
    return 0


def cmd_verify(args) -> int:
    return verify_mod.run_suite(args.suite)


def _int_in_range(low: int, high: int | None = None):
    """argparse type: an int with low <= value (and value <= high)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_THREADS = _int_in_range(1)
_DECIMALS = _int_in_range(0)
# the enumeration indexes colorings in int64 arithmetic
_CAP = _int_in_range(1, 2**63 - 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorblocks",
        description="Exact block-count distributions of k-colorings of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, k_required=True):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if k_required:
            p.add_argument("--k", type=int, required=True, help="number of colors")

    p_dist = sub.add_parser("dist", help="block distribution of a graph")
    p_dist.add_argument("--graph", required=True, help="graph spec, e.g. complete:4")
    add_common(p_dist)
    p_dist.add_argument(
        "--method", choices=("brute", "transfer", "closed"), default="brute"
    )
    p_dist.add_argument("--n", type=int, help="path length for --method transfer")
    p_dist.add_argument("--cap", type=_CAP, help="enumeration / state cap override")
    p_dist.add_argument(
        "--threads", type=_THREADS, default=1, help="worker threads, at most the core count"
    )
    p_dist.add_argument("--decimals", type=_DECIMALS, help="add a rounded decimal rendering")
    p_dist.set_defaults(handler=cmd_dist)

    p_exp = sub.add_parser("expect", help="expected block count")
    p_exp.add_argument("--graph", required=True)
    add_common(p_exp)
    p_exp.add_argument(
        "--method", choices=("brute", "transfer", "closed"), default="closed"
    )
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--cap", type=_CAP)
    p_exp.add_argument("--threads", type=_THREADS, default=1)
    p_exp.add_argument("--decimals", type=_DECIMALS)
    p_exp.set_defaults(handler=cmd_expect)

    p_series = sub.add_parser("series", help="series coefficients of a fixture")
    p_series.add_argument("--fixture", required=True, choices=FIXTURE_IDS)
    p_series.add_argument("--k", type=int, help="k for K3_generic_k")
    p_series.add_argument("--N", type=int, required=True, help="highest x power (<= 64)")
    p_series.add_argument("--format", choices=("json", "csv"), default="json")
    p_series.set_defaults(handler=cmd_series)

    p_gf = sub.add_parser("gf", help="print a generating function")
    p_gf.add_argument("--fixture", choices=FIXTURE_IDS)
    p_gf.add_argument("--m", type=int, help="complete-slice size for the reduced system")
    p_gf.add_argument("--k", type=int)
    p_gf.add_argument("--format", choices=("json", "csv"), default="json")
    p_gf.set_defaults(handler=cmd_gf)

    p_classes = sub.add_parser("classes", help="color classes of a complete slice")
    p_classes.add_argument("--m", type=int, required=True)
    p_classes.add_argument("--k", type=int, required=True)
    p_classes.add_argument("--format", choices=("json", "csv"), default="json")
    p_classes.set_defaults(handler=cmd_classes)

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--suite", choices=("quick", "full"), default="quick")
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, GraphSpecError, PolyParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
