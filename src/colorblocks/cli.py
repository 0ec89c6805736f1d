"""Command-line interface.

Subcommands: dist, expect, series, gf, classes, verify.  Output is JSON by
default (``--format csv`` for spreadsheet rows).  Every big number is emitted
as a decimal string -- coefficients routinely exceed 2^53 -- and exact fields
are never rounded; ``--decimals`` adds an explicitly rounded rendering.

Every subcommand's options live in one table, ``_COMMANDS``.  A well-formed
request (a subcommand, then exact flag and value pairs) is read from that
table without argparse; any other argv goes to an argparse parser built from
the same table with every subcommand and its options, so help, usage and
error text all come from argparse.

``dist`` and ``expect`` check their caps on the vertex count of the parsed
spec, before any graph is built; ``--method transfer`` takes a prism spec
``product(G,path:n)``.

The ``verify`` module, the check registry, is imported by ``cmd_verify``
alone, so no other subcommand loads it.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap exceeded
(an enumeration or state cap, the dimension limit of the symbolic solve, or
``MAX_DECIMALS``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

from . import closed_forms as cf
from .algebra import series_expand
from .combinatorics import partition_count_at_most_k_parts
from .errors import CapExceededError, DimensionLimitError
from .fixtures import FIXTURE_IDS, fixture_gf, fixture_k
from .graphs import build_graph, parse_spec_tree, prism_factors, vertex_count
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    BlockDistribution,
    check_enumeration_cap,
    distribution_bruteforce,
)
from .polytext import format_poly, format_rational, poly_to_json
from .transfer import (
    DEFAULT_STATE_CAP,
    check_slice_caps,
    color_classes,
    km_prism_gf,
    prism_distribution,
)


class UsageError(ValueError):
    pass


# the rounding context of ``_decimal_string`` holds places + 30 digits, so its
# memory grows with --decimals (about 77 MB at 16 million places)
MAX_DECIMALS = 10**7

# no graph with more vertices can be built; a spec past it is rejected before
# its count is formed (a huge pbt:h)
_MAX_VERTICES = 2**63 - 1


def _decimal_string(value: Fraction, places: int) -> str:
    with localcontext() as ctx:
        ctx.prec = places + 30
        # the default exponent range ends near 10^-10^6, short of large places
        ctx.Emin = min(ctx.Emin, -places)
        quantum = Decimal(1).scaleb(-places)
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(quantum))


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``.  json writes an int with ``str``, which
    stops at the interpreter's int -> str digit limit (``pbt:20000`` has more
    vertices than that); past it, each top-level int is written by
    ``format_rational``, which converts through ``Decimal``, in place of a 0
    on its own line."""
    try:
        return json.dumps(doc, indent=2)
    except ValueError:
        numbers = {key: value for key, value in doc.items() if type(value) is int}
        text = json.dumps({**doc, **dict.fromkeys(numbers, 0)}, indent=2)
        for key, value in numbers.items():
            entry = f"\n  {json.dumps(key)}: "
            text = text.replace(entry + "0", entry + format_rational(value), 1)
        return text


def _emit(doc: dict, fmt: str, csv_rows=None, csv_header=None):
    if fmt == "json":
        print(_json_text(doc))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)


def _compute(args) -> tuple[BlockDistribution | Fraction, int]:
    """(distribution, vertex count); for ``expect --method closed`` the
    expected value stands in for the distribution."""
    if args.method == "closed":
        kind = "expectation" if args.command == "expect" else "distribution"
        found = cf.closed_form(args.graph, args.k, kind)
        if found is None:
            forms = ", ".join(f for f, entry in cf.CLOSED_FORMS.items() if getattr(entry, kind))
            raise UsageError(f"no closed-form {kind} for {args.graph!r}; recognized: {forms}")
        return found
    spec = parse_spec_tree(args.graph)
    if args.method == "brute":
        cap = args.cap if args.cap else DEFAULT_ENUMERATION_CAP
        check_enumeration_cap(vertex_count(spec, _MAX_VERTICES), args.k, cap)
        dist = distribution_bruteforce(build_graph(spec), args.k, cap=cap)
        return dist, dist.vertex_count
    prism = prism_factors(spec)
    if prism is None:
        raise UsageError(f"--method transfer takes a spec product(G,path:n), not {args.graph!r}")
    slice_spec, n = prism
    state_cap = args.cap if args.cap else DEFAULT_STATE_CAP
    check_slice_caps(vertex_count(slice_spec, _MAX_VERTICES), args.k, state_cap)
    dist = prism_distribution(build_graph(slice_spec), args.k, n, state_cap=state_cap)
    return dist, dist.vertex_count


def cmd_blocks(args) -> int:
    """dist and expect: expect leaves out the distribution and its total."""
    if args.decimals is not None and args.decimals > MAX_DECIMALS:
        raise CapExceededError(f"--decimals {args.decimals} exceeds the limit {MAX_DECIMALS}")
    t0 = time.perf_counter()
    value, vertices = _compute(args)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    expected = value.expected() if isinstance(value, BlockDistribution) else value
    doc = {"graph": args.graph, "k": args.k, "method": args.method, "vertices": vertices}
    if args.command == "dist":
        doc["distribution"] = {str(j): format_rational(c) for j, c in value.coefficients().items()}
        doc["total"] = format_rational(value.total())
    doc["expected"] = format_rational(expected)
    doc["elapsed_ms"] = elapsed_ms
    if args.decimals is not None:
        doc["expected_decimal"] = _decimal_string(expected, args.decimals)
        doc["decimal_places"] = args.decimals
    if args.command == "dist":
        rows = [(0, j, c) for j, c in doc["distribution"].items()]
        _emit(doc, args.format, rows, ("x_exp", "y_exp", "coefficient"))
    else:
        rows = [(key, format_rational(v) if type(v) is int else v) for key, v in doc.items()]
        _emit(doc, args.format, rows, ("field", "value"))
    return 0


def cmd_series(args) -> int:
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
    if args.fixture is not None and args.m is not None:
        raise UsageError("gf takes --fixture or --m, not both")
    if args.fixture is not None:
        gf = fixture_gf(args.fixture, args.k)
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


def _check_class_listing(m: int, k: int) -> None:
    """Exit 3 before ``color_classes`` lists more than ``DEFAULT_STATE_CAP``
    entries, counting m + k per class.  A class holds only its parts (at most
    min(m, k) of them) and its size, so m + k is a conservative bound; it is
    kept as it stands so that no request changes its exit code."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")

    def check(classes: int, qualifier: str) -> None:
        entries = classes * (m + k)
        if entries > DEFAULT_STATE_CAP:
            raise CapExceededError(
                f"listing {qualifier}{entries} entries ({classes} classes times m + k = {m + k}) "
                f"exceeds state cap {DEFAULT_STATE_CAP}"
            )

    # partitions of m into at most k parts: 1 for k = 1, m//2 + 1 for k = 2, and
    # for k >= 3 at least those into at most 3 parts, round((m + 3)^2 / 12) of
    # them; a request this bound rejects never reaches the exact count
    check(1 if k == 1 else m // 2 + 1 if k == 2 else ((m + 3) ** 2 + 6) // 12, "at least ")
    check(partition_count_at_most_k_parts(m, k), "")


def cmd_classes(args) -> int:
    _check_class_listing(args.m, args.k)
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
    from . import verify

    return verify.run_suite()


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


_DECIMALS = _int_in_range(0)
# a cap below 2^63 keeps check_enumeration_cap's `vertices < cap.bit_length()`
# test, the one that lets k^vertices be formed for k > 1, below 63 vertices
_CAP = _int_in_range(1, 2**63 - 1)


_FORMAT = ("--format", str, False, ("json", "csv"), "json", None)


def _blocks_options(method: str) -> tuple:
    return (
        ("--graph", str, True, None, None, "graph spec, e.g. complete:4 or product(G,path:n)"),
        _FORMAT,
        ("--k", int, True, None, None, "number of colors"),
        ("--method", str, False, ("brute", "transfer", "closed"), method, None),
        ("--cap", _CAP, False, None, None, "enumeration / state cap override"),
        ("--decimals", _DECIMALS, False, None, None, "add a rounded decimal rendering"),
    )


# name -> (help, handler, options); an option is (flag, type, required,
# choices, default, help), in help order
_COMMANDS = {
    "dist": ("block distribution of a graph", cmd_blocks, _blocks_options("brute")),
    "expect": ("expected block count", cmd_blocks, _blocks_options("closed")),
    "series": ("series coefficients of a fixture", cmd_series, (
        ("--fixture", str, True, FIXTURE_IDS, None, None),
        ("--k", int, False, None, None, "k for K3_generic_k"),
        ("--N", _int_in_range(0, 64), True, None, None, "highest x power (<= 64)"),
        _FORMAT,
    )),
    "gf": ("print a generating function", cmd_gf, (
        ("--fixture", str, False, FIXTURE_IDS, None, None),
        ("--m", int, False, None, None, "complete-slice size for the reduced system"),
        ("--k", int, False, None, None, None),
        _FORMAT,
    )),
    "classes": ("color classes of a complete slice", cmd_classes, (
        ("--m", int, True, None, None, None),
        ("--k", int, True, None, None, None),
        _FORMAT,
    )),
    "verify": ("run every built-in verification check", cmd_verify, ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorblocks",
        description="Exact block-count distributions of k-colorings of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kind, required, choices, default, text in options:
            p.add_argument(
                flag, type=kind, required=required, choices=choices, default=default, help=text
            )
        p.set_defaults(handler=handler)
    return parser


def _parse_plain(argv) -> argparse.Namespace | None:
    """``_build_parser().parse_args(argv)`` for argv of the plain shape: a
    subcommand, then pairs of one of its exact flags and a value that does not
    start with ``-``, converts through the option's type and lies in its
    choices, with every required option given.  None for any other argv, which
    is left to argparse, the only source of help, usage and error text."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    table = {option[0]: option for option in options}
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in table or text.startswith("-"):
            return None
        _, kind, _, choices, _, _ = table[flag]
        try:
            given[flag] = kind(text)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and given[flag] not in choices:
            return None
    if any(required and flag not in given for flag, _, required, *_ in options):
        return None
    values = {flag[2:]: given.get(flag, default) for flag, _, _, _, default, _ in options}
    return argparse.Namespace(command=argv[0], handler=handler, **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (CapExceededError, DimensionLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
