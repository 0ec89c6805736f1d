"""Spans around calls into colorblocks, recorded from outside the package.

``Tracer.install`` rebinds each function in ``TARGETS`` to a wrapper, in every
loaded ``colorblocks`` module that holds it (names imported with ``from ...
import`` are rebound too) and on ``LaurentPoly2`` for the operators.  Each call
records a span: name, start, end, parent span and case id.  Spans stay in
memory; ``span_totals`` and ``layer_self_times`` turn them into per-layer
figures.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("algebra", "transfer", "oracle", "closed_forms", "fixtures", "polytext", "graphs", "cli")

# (span name, module, attribute); a class attribute is written "Class.attr".
TARGETS = (
    ("algebra.add", "algebra", "LaurentPoly2.__add__"),
    ("algebra.add", "algebra", "LaurentPoly2.__radd__"),
    ("algebra.mul", "algebra", "LaurentPoly2.__mul__"),
    ("algebra.mul", "algebra", "LaurentPoly2.__rmul__"),
    ("algebra.square", "algebra", "LaurentPoly2._square"),
    ("algebra.div_exact", "algebra", "_div_exact"),
    ("algebra.bareiss_det", "algebra", "_bareiss_det"),
    ("algebra.bareiss_solve", "algebra", "bareiss_solve"),
    ("algebra.series_expand", "algebra", "series_expand"),
    ("transfer.prism_distribution", "transfer", "prism_distribution"),
    ("transfer.slice_table", "transfer", "_slice_table"),
    ("transfer.step", "transfer", "step"),
    ("transfer.finalize", "transfer", "finalize"),
    ("transfer.km_prism_gf", "transfer", "km_prism_gf"),
    ("transfer.km_system", "transfer", "km_transfer_system"),
    ("oracle.bruteforce", "oracle", "distribution_bruteforce"),
    ("oracle.color_chunk", "oracle", "_color_chunk"),
    ("oracle.kernel", "oracle", "_chunk_block_counts"),
    ("closed_forms.tree", "closed_forms", "tree_distribution"),
    ("closed_forms.tree", "closed_forms", "pbt_distribution"),
    ("fixtures.fixture_gf", "fixtures", "fixture_gf"),
    ("graphs.parse_spec", "graphs", "parse_graph_spec"),
    ("polytext.format_poly", "polytext", "format_poly"),
    ("cli.main", "cli", "main"),
    ("cli.emit", "cli", "_emit"),
)

# Span name of the benchmark's own call into a case; its self time is the
# work of code that no target covers.
CASE_SPAN = "case"

# Span fields, in the order the tuples in ``Tracer.spans`` hold them.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "case")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads may overlap each other; their union counts once.
    """
    children = defaultdict(list)
    for sid, _name, start, end, parent, _case in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _case in spans
    }


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.case: str | None = None
        self.observers: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording --------------------------------------------------------------

    def _thread_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """A wrapper of ``fn`` that records a span per call and feeds observers."""
        spans, ids, observers = self.spans, self._ids, self.observers[name]
        main_stack, main_ident = self._main_stack, threading.main_thread().ident
        clock, get_ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = main_stack if get_ident() == main_ident else self._thread_stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread: the span that started it is on the main thread
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.case))
            for observe in observers:
                observe(args, result)
            return result

        return traced

    def run_case(self, case_id: str, call):
        """Run the benchmark's call into one case under a root span."""
        self.case = case_id
        try:
            return self.wrap(CASE_SPAN, call)()
        finally:
            self.case = None

    # -- installing -----------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "colorblocks" or n.startswith("colorblocks.")]
        wrappers: dict[int, object] = {}
        for name, module_name, attr in TARGETS:
            module = sys.modules[f"colorblocks.{module_name}"]
            cls_name, _, key = attr.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            original = vars(owner)[key]
            wrapper = wrappers.setdefault(id(original), self.wrap(name, original))
            self.originals.setdefault(name, original)
            if cls_name:
                self._rebind(owner, key, wrapper)
                continue
            # a module-level function is also bound wherever it was imported
            for holder in modules:
                for bound, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, bound, wrapper)

    def _rebind(self, holder, key: str, value):
        self._restore.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-layer metrics ----------------------------------------------------------------


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Span name -> {"calls": n, "self_s": summed self time}."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid, name, *_ in spans:
        totals[name]["calls"] += 1
        totals[name]["self_s"] += own[sid]
    return dict(totals)


def layer_self_times(totals) -> dict[str, float]:
    """Layer -> summed self time of its spans; ``case`` is code no target covers."""
    out = {layer: 0.0 for layer in LAYERS}
    out[CASE_SPAN] = 0.0
    for name, t in totals.items():
        out[name.split(".")[0]] += t["self_s"]
    return out


class WorkCounters:
    """Exact work counts taken from the arguments and results of traced calls."""

    NAMES = (
        "transfer.states_peak",
        "transfer.transitions",
        "transfer.system_dim",
        "oracle.colorings",
        "oracle.kernel.bytes_computed",
    )

    def __init__(self, tracer: Tracer):
        self.values = dict.fromkeys(self.NAMES, 0)
        self._lock = threading.Lock()  # the kernel runs on worker threads too
        tracer.observers["transfer.step"].append(self._on_step)
        tracer.observers["algebra.bareiss_solve"].append(self._on_solve)
        tracer.observers["oracle.kernel"].append(self._on_kernel)

    def _on_step(self, args, states):
        g, k, before = args[:3]
        v = self.values
        v["transfer.states_peak"] = max(v["transfer.states_peak"], len(states))
        v["transfer.transitions"] += len(before) * k**g.n

    def _on_solve(self, args, _solutions):
        self.values["transfer.system_dim"] = max(self.values["transfer.system_dim"], len(args[0]))

    def _on_kernel(self, args, _counts):
        colors, edges = args
        rows, n = colors.shape
        label_bytes = 1 if n <= 127 else 2
        # computed, not measured: the colors, label and edge-mask arrays
        computed = colors.nbytes + rows * n * label_bytes + rows * len(edges)
        with self._lock:
            self.values["oracle.colorings"] += rows
            self.values["oracle.kernel.bytes_computed"] += computed
