"""Benchmark of colorblocks: four workloads, each in its own fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py                        # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1              # every workload, per-layer metrics
    python3 perfbench/run.py --workload prism_dp --seed 3 --seconds 30 --trace 0

With ``--workload <name>`` the run happens in this process; without it, each
workload runs in a child process.  A run times passes over the workload's
cases for ``--seconds`` seconds, each timed call the first call into the
program in a fork of the run's process, checks every output against ``expected/``,
prints each metric with its unit, writes a detailed record to ``results/``
and prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 0 only when every output
was correct.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tr
import workloads as wl

# Set-up is timed this many times per run, spread over the run; the median
# is reported.
SETUP_PROBES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name, _module, _attr in tr.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(tr.WorkCounters.NAMES, "count"))
    units["oracle.kernel.bytes_computed"] = "B"
    units.update(
        {
            "algebra.max_coeff_bits": "bits",
            "transfer.slice_table.hit_ratio": "ratio",
            "oracle.colorings_per_s": "1/s",
            "oracle.parallel_speedup": "ratio",
            "trace.overhead_frac": "ratio",
        }
    )
    for layer in (*tr.LAYERS, tr.CASE_SPAN):
        units[f"layer.{layer}.self_s"] = "s"
    return units


PER_LAYER = _per_layer_units()

PARALLEL_PAIR = ("brute/grid4x4_k2_t1", "brute/grid4x4_k2_t2")


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def machine_info(loadavg: list[float]) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": loadavg,
    }


# -- set-up time ---------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> int:
    """Child side of one set-up measurement: import, build inputs, report."""
    wl.import_program()
    wl.build(workload, seed)
    print("ready", flush=True)
    return 0


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--probe-setup", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


# -- timed passes ------------------------------------------------------------------------


def attempt(case: wl.Case, call, stored: dict | None, first: bool) -> dict:
    """Call one case once, timed, and judge its output outside the timing.

    On the first right output of a case in a run (``first``), the report also
    carries the invariant's verdict and the output's coefficient bits.
    """
    start = time.perf_counter()
    try:
        out = call()
    except Exception:
        problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return {"elapsed": time.perf_counter() - start, "problem": problem}
    elapsed = time.perf_counter() - start
    canon = case.canon(out)
    if stored is None:
        return {"elapsed": elapsed, "problem": f"no stored output under {case.expected_key!r}"}
    if not wl.matches(canon, stored):
        return {"elapsed": elapsed, "problem": "output differs from the stored output"}
    if not first:
        return {"elapsed": elapsed, "problem": None}
    return {
        "elapsed": elapsed,
        "problem": case.invariant(out) if case.invariant else None,
        "checked": True,
        "bits": wl.coeff_bits(case.coeffs(canon)),
    }


class Run:
    """Executes a workload's cases, times them, and judges every output.

    With ``cold``, every timed call is the first call into the program in a
    forked copy of this process, taken before this process has called the
    program at all.  Whatever the program memoizes or builds lazily within a
    process is then paid again by every timed call.
    """

    def __init__(self, workload: wl.Workload, expected: dict, cold: bool = False):
        self.workload = workload
        self.expected = expected
        self.cold = cold
        self.samples: dict[str, list[float]] = {c.id: [] for c in workload.cases}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_bits = 0
        self.peak_rss_mb = 0.0
        self._checked: set[str] = set()
        self.setup: list[float] = []
        self._setup_probe = None
        self._probe_interval = 0.0
        self._next_probe = 0.0

    def fail(self, what: str, problem: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {problem}")

    def execute(self, case: wl.Case, call=None, traced: bool = False) -> float:
        """Run one case once; returns its time.  Checks run outside the timing.

        A traced call leaves the once-per-run invariant to a later untraced
        call: the invariant calls the program too, and its spans would count.
        """
        first = not traced and case.id not in self._checked
        if self.cold and call is None:
            report = self._attempt_forked(case, first)
        else:
            report = attempt(case, call or case.call, self.expected.get(case.expected_key), first)
        self.attempted += 1
        if report["problem"]:
            self.fail(case.id, report["problem"])
        if report.get("checked"):
            self._checked.add(case.id)
            self.max_bits = max(self.max_bits, report["bits"])
        return report["elapsed"]

    def _attempt_forked(self, case: wl.Case, first: bool) -> dict:
        """``attempt`` in a forked copy of this process, which then exits."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                report = attempt(case, case.call, self.expected.get(case.expected_key), first)
                report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                with os.fdopen(write_fd, "w") as f:
                    f.write(json.dumps(report))
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        with os.fdopen(read_fd) as f:
            data = f.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not data:
            return {"elapsed": 0.0, "problem": f"forked call ended with wait status {status}"}
        report = json.loads(data)
        self.peak_rss_mb = max(self.peak_rss_mb, report.pop("rss_mb"))
        return report

    def cross_checks(self):
        for check in self.workload.cross_checks:
            self.attempted += 1
            try:
                problem = check.run()
            except Exception:
                problem = traceback.format_exc(limit=3).strip().splitlines()[-1]
            if problem:
                self.fail(check.id, problem)

    def one_pass(self):
        for case in self.workload.cases:
            self.samples[case.id].append(self.execute(case))
            self.between_cases()

    def passes_until(self, deadline: float):
        """Cycle over the cases, skipping any whose last time would overrun."""
        while True:
            ran = False
            for case in self.workload.cases:
                if time.perf_counter() + self.samples[case.id][-1] > deadline:
                    continue
                self.samples[case.id].append(self.execute(case))
                self.between_cases()
                ran = True
            if not ran:
                return

    def probe_setup_every(self, interval: float, probe):
        """Time set-up now, then every ``interval`` seconds between cases."""
        self._setup_probe, self._probe_interval = probe, interval
        self.setup.append(probe())
        self._next_probe = time.perf_counter() + interval

    def between_cases(self):
        if self._setup_probe and time.perf_counter() >= self._next_probe:
            self.setup.append(self._setup_probe())
            self._next_probe = time.perf_counter() + self._probe_interval

    def case_times(self) -> dict[str, float]:
        """Each case's fastest time in the run.

        A shared host can alternate between a fast and a slow speed (about
        1.5x apart on a 2-core Xeon VM) for seconds to minutes at a time, so a
        median flips with the share of slow time in the run; the fastest of
        many repeats does not.
        """
        return {cid: min(ts) for cid, ts in self.samples.items() if ts}

    def note_peak_rss(self):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.peak_rss_mb = max(self.peak_rss_mb, own)


def end_to_end_metrics(run: Run) -> dict[str, float]:
    times = list(run.case_times().values())
    case_ms = [t * 1000 for t in times]
    return {
        "setup_s": statistics.median(run.setup),
        "wall_s": sum(times),
        "case_ms_p50": percentile(case_ms, 50),
        "case_ms_p90": percentile(case_ms, 90),
        "peak_rss_mb": run.peak_rss_mb,
    }


def traced_pass(run: Run, traced_samples: dict[str, list[float]]) -> tuple[dict[str, float], list[tuple]]:
    """One pass with every target wrapped; returns per-layer figures and spans.

    Each case's traced time is appended to ``traced_samples``.
    """
    tracer = tr.Tracer()
    counters = tr.WorkCounters(tracer)
    with tracer:
        cache = tracer.originals["transfer.slice_table"]
        before = cache.cache_info()
        for case in run.workload.cases:
            call = lambda c=case: tracer.run_case(c.id, c.call)  # noqa: E731
            traced_samples.setdefault(case.id, []).append(run.execute(case, call, traced=True))
        after = cache.cache_info()
    totals = tr.span_totals(tracer.spans)
    metrics: dict[str, float] = {}
    for name, _module, _attr in tr.TARGETS:
        t = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = t["calls"]
        metrics[f"{name}.self_s"] = t["self_s"]
    metrics.update(counters.values)
    lookups = (after.hits - before.hits) + (after.misses - before.misses)
    metrics["transfer.slice_table.hit_ratio"] = (after.hits - before.hits) / lookups if lookups else 0.0
    kernel_s = metrics["oracle.kernel.self_s"]
    metrics["oracle.colorings_per_s"] = metrics["oracle.colorings"] / kernel_s if kernel_s else 0.0
    for layer, seconds in tr.layer_self_times(totals).items():
        metrics[f"layer.{layer}.self_s"] = seconds
    return metrics, tracer.spans


def per_layer_metrics(run: Run, traced: dict[str, float], traced_samples: dict[str, list[float]]) -> dict[str, float]:
    times = run.case_times()
    metrics = {name: traced.get(name, 0) for name in PER_LAYER}
    metrics["algebra.max_coeff_bits"] = run.max_bits
    traced_s = sum(min(ts) for ts in traced_samples.values())
    metrics["trace.overhead_frac"] = traced_s / sum(times.values()) - 1
    single, double = PARALLEL_PAIR
    if single in times and double in times:
        metrics["oracle.parallel_speedup"] = times[single] / times[double]
    return metrics


def write_spans(path: Path, spans):
    with open(path, "w") as f:
        f.write(",".join(tr.SPAN_FIELDS) + "\n")
        for sid, name, start, end, parent, case in sorted(spans):
            f.write(f"{sid},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{case}\n")


def run_workload(args) -> int:
    loadavg = list(os.getloadavg())
    try:
        wl.import_program()
        workload = wl.build(args.workload, args.seed)
        expected = wl.load_expected(args.workload)
        # set-up time and cold calls are end-to-end figures only
        run = Run(workload, expected, cold=not args.trace)
        if not args.trace:
            run.probe_setup_every(args.seconds / SETUP_PROBES, lambda: setup_probe(args.workload, args.seed))
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: cannot set up workload {args.workload}: {exc}", file=sys.stderr)
        return 2
    machine = machine_info(loadavg)
    start = time.perf_counter()
    deadline = start + args.seconds
    spans = None
    if args.trace:
        # counts, spans and the cache hit ratio come from the first pass of
        # this fresh process; later passes alternate untraced and traced to
        # measure the tracing overhead
        traced_samples: dict[str, list[float]] = {}
        traced, spans = traced_pass(run, traced_samples)
        run.cross_checks()
        run.one_pass()
        while time.perf_counter() < deadline:
            traced_pass(run, traced_samples)
            run.one_pass()
        metrics = per_layer_metrics(run, traced, traced_samples)
        units = PER_LAYER
    else:
        run.one_pass()
        run.passes_until(deadline)
        while len(run.setup) < SETUP_PROBES:
            run.setup.append(setup_probe(args.workload, args.seed))
        run.note_peak_rss()
        # after the timing: the forked calls must not inherit their results
        run.cross_checks()
        metrics = end_to_end_metrics(run)
        units = END_TO_END
    correct = run.failed == 0
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "problems": run.problems,
        "metrics": reported,
        "setup_samples_s": run.setup,
        "case_samples_s": run.samples,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        write_spans(out_dir / f"{args.workload}.spans.csv", spans)

    print(f"machine: {json.dumps(machine)}")
    for problem in run.problems:
        print(f"FAIL {problem}")
    samples = sum(len(ts) for ts in run.samples.values())
    print(f"{args.workload}: {len(run.samples)} cases, {samples} timed calls; "
          f"fail_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": reported}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process; collects their results."""
    summary = {}
    status = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / f"summary.trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, help="run one workload here (default: all, each in a child process)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(wl.BENCH_DIR / "results"), help="directory for detailed records")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
