"""Tests of the benchmark harness itself (not of colorblocks).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import run as bench
import tracer as tr
import workloads as wl

wl.import_program()

import colorblocks as cb  # noqa: E402

EXACT = ("transfer.states_peak", "transfer.transitions", "oracle.colorings", "algebra.max_coeff_bits")


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in EXACT}


# -- statistics ------------------------------------------------------------------------


def test_percentile_small_cases():
    assert bench.percentile([7.0], 90) == 7.0
    assert bench.percentile([1, 2, 3, 4], 50) == 2.5
    assert bench.percentile([4, 1, 3, 2], 0) == 1
    assert bench.percentile([4, 1, 3, 2], 100) == 4
    assert bench.percentile(range(11), 90) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        bench.percentile([], 50)


def test_percentile_matches_inclusive_quantiles():
    rng = random.Random(5)
    for size in (2, 3, 10, 241):
        data = [rng.random() for _ in range(size)]
        deciles = statistics.quantiles(data, n=10, method="inclusive")
        for i, want in enumerate(deciles, start=1):
            assert bench.percentile(data, 10 * i) == pytest.approx(want)


def test_union_length_merges_and_clips():
    assert tr.union_length([], 0, 10) == 0
    assert tr.union_length([(1, 3), (2, 5)], 0, 10) == 4
    assert tr.union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert tr.union_length([(2, 3), (1, 6), (4, 5)], 0, 10) == 5


def test_self_time_subtracts_children_once():
    spans = [
        (0, "root", 0.0, 10.0, None, "c"),
        (1, "a", 1.0, 3.0, 0, "c"),
        (2, "b", 2.0, 5.0, 0, "c"),  # overlaps a, as on another thread
        (3, "a", 8.0, 12.0, 0, "c"),  # runs past the parent's end
        (4, "leaf", 1.5, 2.5, 1, "c"),
    ]
    own = tr.self_times(spans)
    assert own[0] == pytest.approx(10 - 4 - 2)
    assert own[1] == pytest.approx(2 - 1)
    assert own[4] == pytest.approx(1)
    totals = tr.span_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(1 + 4)


def test_coeff_bits_reads_numerators_and_denominators():
    assert wl.coeff_bits([]) == 0
    assert wl.coeff_bits(["3", "-255", "7/1024"]) == 11
    assert wl.coeff_bits(wl.cli_coeffs({"exit_code": 0, "output": [["j", "count"], ["1", "99999"]]})) == 0
    doc = {"graph": "path:3", "k": 2, "vertices": 3, "distribution": {"1": "2", "2": "4"}, "total": "8"}
    assert wl.coeff_bits(wl.cli_coeffs({"exit_code": 0, "output": doc})) == 3


# -- tracing -------------------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores():
    original_add = cb.LaurentPoly2.__dict__["__add__"]
    original_prism = cb.prism_distribution
    tracer = tr.Tracer()
    counters = tr.WorkCounters(tracer)
    with tracer:
        assert cb.prism_distribution is not original_prism
        tracer.run_case("x", lambda: cb.prism_distribution(cb.path(2), 2, 3))
    assert cb.LaurentPoly2.__dict__["__add__"] is original_add
    assert cb.prism_distribution is original_prism
    by_id = {s[0]: s for s in tracer.spans}
    names = {s[1] for s in tracer.spans}
    assert {"case", "transfer.prism_distribution", "transfer.step", "algebra.add"} <= names
    for sid, name, start, end, parent, case in tracer.spans:
        assert case == "x" and start <= end
        if name == "transfer.step":
            assert by_id[parent][1] == "transfer.prism_distribution"
    assert counters.values["transfer.transitions"] == 4 * 4 + 4 * 4
    assert counters.values["transfer.states_peak"] == 4


def test_tracer_records_one_span_per_operator_call():
    y = cb.LaurentPoly2.y()
    tracer = tr.Tracer()
    with tracer:
        tracer.run_case("ops", lambda: (y + y, 1 + y, y * y, 2 * y))
    names = sorted(s[1] for s in tracer.spans if s[1] != "case")
    assert names == ["algebra.add", "algebra.add", "algebra.mul", "algebra.mul"]


def test_tracer_parents_worker_thread_spans():
    tracer = tr.Tracer()
    with tracer:
        tracer.run_case("t", lambda: cb.distribution_bruteforce(cb.path(6), 2, threads=2))
    by_id = {s[0]: s for s in tracer.spans}
    kernels = [s for s in tracer.spans if s[1] == "oracle.kernel"]
    assert len(kernels) == 2
    assert all(by_id[s[4]][1] == "oracle.bruteforce" for s in kernels)


# -- output checks ----------------------------------------------------------------------


def _mini_workload(name: str, ids: tuple[str, ...]) -> wl.Workload:
    cases = [c for c in wl.build(name, 3).cases if c.id in ids]
    assert len(cases) == len(ids)
    return wl.Workload(name, cases)


@pytest.mark.parametrize("cold", [False, True])
def test_corrupted_stored_output_raises_fail_frac(cold):
    workload = _mini_workload("cli_mix", ("cli/000", "cli/001", "cli/002"))
    expected = wl.load_expected("cli_mix")
    run = bench.Run(workload, expected, cold=cold)
    run.one_pass()
    assert (run.attempted, run.failed) == (3, 0)

    corrupted = json.loads(json.dumps(expected))
    corrupted["cli/001"]["output"]["exit_code"] = 1
    run = bench.Run(workload, corrupted, cold=cold)
    run.one_pass()
    assert (run.attempted, run.failed) == (3, 1)
    assert run.problems == ["cli/001: output differs from the stored output"]


def test_memoized_setup_cost_shows_in_cli_mix(monkeypatch):
    """A cost the program pays once per process and then memoizes stays in
    every cold timing, while repeats inside one process would hide it."""
    from colorblocks import transfer

    delay = 0.05
    original = transfer._slice_table

    @functools.lru_cache(maxsize=None)
    def slow_slice_table(g, k):
        time.sleep(delay)
        return original(g, k)

    monkeypatch.setattr(transfer, "_slice_table", slow_slice_table)
    requests = wl.load_cli_corpus()
    ids = tuple(f"cli/{i:03d}" for i, r in enumerate(requests) if r["argv"][:1] == ["dist"]
                and r["argv"][r["argv"].index("--method") + 1] == "transfer")[:2]
    workload = _mini_workload("cli_mix", ids)
    cold = bench.Run(workload, wl.load_expected("cli_mix"), cold=True)
    for _ in range(3):
        cold.one_pass()
    assert cold.failed == 0
    assert all(t >= delay for t in cold.case_times().values())

    warm = bench.Run(workload, wl.load_expected("cli_mix"))
    for _ in range(3):
        warm.one_pass()
    assert all(t < delay for t in warm.case_times().values())


def test_cold_run_reports_peak_memory_of_its_calls():
    run = bench.Run(_mini_workload("bruteforce", ("brute/cycle10_k3",)), wl.load_expected("bruteforce"), cold=True)
    run.one_pass()
    assert run.failed == 0 and run.max_bits > 0
    assert run.peak_rss_mb > 1


def test_corrupted_digest_and_raising_case_count_as_failed():
    workload = _mini_workload("symbolic_gf", ("gf/km_equals_fixtures", "gf/series_K6_k2_N30"))
    expected = wl.load_expected("symbolic_gf")
    assert "sha256" in expected["gf/series_K6_k2_N30"]
    corrupted = dict(expected, **{"gf/series_K6_k2_N30": {"sha256": "0" * 64, "bytes": 1}})
    run = bench.Run(workload, corrupted)
    run.one_pass()
    assert run.failed == 1

    def boom():
        raise ArithmeticError("boom")

    run = bench.Run(wl.Workload("x", [wl.Case("gf/km_equals_fixtures", boom, list)]), expected)
    run.one_pass()
    assert run.failed == 1 and "ArithmeticError: boom" in run.problems[0]


def test_invariant_catches_wrong_total():
    assert wl.dist_total_problem({"vertices": 2, "k": 2, "dist": {"1": "2", "2": "2"}}) is None
    assert wl.dist_total_problem({"vertices": 2, "k": 2, "dist": {"1": "2", "2": "3"}})


def test_every_pooled_graph_has_a_stored_output():
    expected = wl.load_expected("bruteforce")
    for seed in range(wl.RANDOM_GRAPH_POOL):
        assert f"brute/random_graph9_k3/{seed}" in expected


def test_cli_corpus_is_fixed_and_complete():
    requests = wl.load_cli_corpus()
    assert len(requests) >= 200
    assert all(r["exit_code"] == 0 for r in requests)
    assert {r["argv"][0] for r in requests} == {"dist", "expect", "series", "gf", "classes"}
    assert {r["argv"][r["argv"].index("--method") + 1] for r in requests if r["argv"][0] == "dist"} == {
        "brute",
        "transfer",
        "closed",
    }
    assert not any("elapsed_ms" in json.dumps(r["output"]) for r in requests)


# -- exact counts repeat ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, ids",
    [
        ("prism_dp", ("prism/complete4_k2_n8",)),
        ("symbolic_gf", ("gf/km_equals_fixtures", "gf/series_K6_k2_N30")),
        ("bruteforce", ("brute/grid4x4_k2_t2",)),
    ],
)
def test_exact_counts_repeat_in_process(name, ids):
    counts = []
    for _ in range(2):
        run = bench.Run(_mini_workload(name, ids), wl.load_expected(name))
        traced_samples = {}
        traced, _spans = bench.traced_pass(run, traced_samples)
        run.one_pass()
        assert run.failed == 0
        counts.append(exact_counts(bench.per_layer_metrics(run, traced, traced_samples)))
    assert counts[0] == counts[1]
    assert any(v for k, v in counts[0].items() if k.endswith(".calls") and not k.startswith(("case", "cli")))


def test_exact_counts_repeat_across_two_traced_runs(tmp_path):
    results = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", "cli_mix", "--seed", "7",
             "--seconds", "1", "--trace", "1", "--out", str(tmp_path / str(i))],
            stdout=subprocess.PIPE, text=True, timeout=300,
        )
        assert proc.returncode == 0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(bench.PER_LAYER)
        results.append(exact_counts({k: m["value"] for k, m in result["metrics"].items()}))
    assert results[0] == results[1]
    assert results[0]["cli.main.calls"] == len(wl.load_cli_corpus())


# -- the contract with BENCHMARK.json ------------------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prism_dp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
