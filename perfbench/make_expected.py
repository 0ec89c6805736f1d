"""Write the stored outputs the benchmark checks against.

Run from the root of a checkout:

    python3 perfbench/make_expected.py

It writes ``expected/<workload>.json`` for the library workloads and
``expected/cli_corpus.json``, the fixed ``cli_mix`` request corpus with each
request's exit code and output (``elapsed_ms`` removed).  The stored outputs
are the program's results at the commit that added the benchmark; rerun this
only in a change that alters the benchmark itself, never to make a changed
program pass.
"""

from __future__ import annotations

import json
import random
import sys
import time

import workloads as wl

# Seed of the cli_mix corpus; fixed so the corpus never changes.
CORPUS_SEED = 20250110
CORPUS_SIZE = 240


def _edges_spec(g) -> str:
    return f"edges:{g.n}:[" + ",".join(f"{u}-{v}" for u, v in g.edges()) + "]"


def cli_requests(rng: random.Random) -> list[list[str]]:
    """The cli_mix corpus: every request is cheap (a few ms) and succeeds."""
    small_slices = ["path:2", "path:3", "cycle:3", "star:2", "complete:3", "cycle:4", "star:3", "path:4"]
    families = ["path", "cycle", "complete", "star", "pbt"]
    fixtures = ["K4_k2", "K5_k2", "K6_k2", "K4_k3", "STAR13_k2"]
    out: list[list[str]] = []
    while len(out) < CORPUS_SIZE:
        kind = rng.choice(
            ["edges"] * 6 + ["prism_pair"] * 5 + ["closed"] * 3 + ["expect"] * 3
            + ["series"] * 2 + ["gf"] * 2 + ["classes"]
        )
        fmt = ["--format", "csv"] if rng.random() < 0.15 else []
        if kind == "edges":
            n = rng.randint(5, 8)
            k = 3 if n <= 7 and rng.random() < 0.5 else 2
            extra = rng.randint(0, n // 2)
            g = wl.random_connected_graph(n, n - 1 + extra, rng.randrange(1 << 30))
            out.append(["dist", "--graph", _edges_spec(g), "--k", str(k), "--method", "brute", *fmt])
        elif kind == "prism_pair":
            slice_spec = rng.choice(small_slices)
            vertices = int(slice_spec.split(":")[1]) + (slice_spec.startswith("star"))
            k = 3 if vertices <= 3 and rng.random() < 0.5 else 2
            n = rng.randint(2, 6 if k ** vertices <= 8 else 4)
            if k ** (vertices * n) > 1 << 13:
                n = 2
            graph = f"product({slice_spec},path:{n})"
            for method in ("transfer", "brute"):
                out.append(["dist", "--graph", graph, "--k", str(k), "--method", method])
        elif kind == "closed":
            family = rng.choice(families + ["prism"])
            k = rng.randint(2, 4)
            if family == "prism":
                graph = f"product(complete:{rng.randint(2, 3)},path:{rng.randint(2, 6)})"
                k = 2
            elif family == "pbt":
                graph = f"pbt:{rng.randint(1, 4)}"
            elif family in ("cycle", "complete"):
                graph = f"{family}:{rng.randint(3, 12)}"
            else:
                graph = f"{family}:{rng.randint(2, 30)}"
            out.append(["dist", "--graph", graph, "--k", str(k), "--method", "closed", *fmt])
        elif kind == "expect":
            choice = rng.random()
            k = rng.randint(2, 5)
            if choice < 0.3:
                graph = f"bipartite:{rng.randint(1, 6)},{rng.randint(1, 6)}"
                method = "closed"
            elif choice < 0.6:
                graph = f"product(complete:{rng.randint(2, 6)},path:{rng.randint(2, 40)})"
                method = "closed"
            elif choice < 0.8:
                graph = f"{rng.choice(families)}:{rng.randint(3, 9)}"
                method = "closed"
            else:
                graph = f"product({rng.choice(small_slices[:5])},path:{rng.randint(2, 4)})"
                method = "transfer"
                k = 2
            decimals = ["--decimals", str(rng.randint(4, 20))] if rng.random() < 0.4 else []
            out.append(["expect", "--graph", graph, "--k", str(k), "--method", method, *decimals, *fmt])
        elif kind == "series":
            if rng.random() < 0.25:
                fixture = ["--fixture", "K3_generic_k", "--k", str(rng.randint(2, 4))]
            else:
                fixture = ["--fixture", rng.choice(fixtures)]
            out.append(["series", *fixture, "--N", str(rng.randint(1, 10)), *fmt])
        elif kind == "gf":
            if rng.random() < 0.5:
                out.append(["gf", "--fixture", rng.choice(fixtures), *fmt])
            else:
                m, k = rng.choice([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
                out.append(["gf", "--m", str(m), "--k", str(k), *fmt])
        else:
            m, k = rng.randint(2, 8), rng.randint(2, 5)
            out.append(["classes", "--m", str(m), "--k", str(k), *fmt])
    return out[:CORPUS_SIZE]


def _write(name: str, payload: dict):
    path = wl.EXPECTED_DIR / name
    path.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {path.relative_to(wl.ROOT)}")


def library_expected(name: str) -> dict:
    stored = {}
    workload = wl.build(name, 0)
    for case in workload.cases:
        stored[case.expected_key] = wl.stored_form(case.canon(case.call()))
    if name == "bruteforce":
        for index in range(wl.RANDOM_GRAPH_POOL):
            g = wl.random_connected_graph(wl.RANDOM_GRAPH_N, wl.RANDOM_GRAPH_EDGES, index)
            d = sys.modules["colorblocks"].distribution_bruteforce(g, 3)
            stored[f"brute/random_graph9_k3/{index}"] = wl.stored_form(wl.dist_canon(d))
    return stored


def cli_corpus() -> dict:
    requests = []
    slowest = (0.0, None)
    for argv in cli_requests(random.Random(CORPUS_SEED)):
        t0 = time.perf_counter()
        code, stdout = wl.run_cli(argv)
        slowest = max(slowest, (time.perf_counter() - t0, argv), key=lambda s: s[0])
        if code != 0:
            raise SystemExit(f"corpus request failed with exit code {code}: {argv}")
        requests.append({"argv": argv, **wl.cli_canon(argv, code, stdout)})
    print(f"slowest request {slowest[0] * 1000:.1f} ms: {' '.join(slowest[1])}")
    return {"seed": CORPUS_SEED, "requests": requests}


def main():
    wl.import_program()
    wl.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in ("prism_dp", "symbolic_gf", "bruteforce"):
        _write(f"{name}.json", library_expected(name))
    _write("cli_corpus.json", cli_corpus())


if __name__ == "__main__":
    main()
