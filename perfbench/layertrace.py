"""Layer tracing for the cwilf benchmark, from outside the package.

`Tracer.install` wraps, in memory only, the public functions and methods of
the six cwilf modules (the layers) and rebinds every module-level name that
refers to a wrapped function.  Each wrapped call is a span: name, layer,
start, end, and the span that caused it.  Spans are not stored one by one
(the polynomial workloads make close to a million weight-ring calls); they
are folded on exit into per-function call counts and self times, where self
time is the span's duration minus the spans nested directly in it.  A
layer's self time is the sum over its functions.

Weight-ring calls made from inside a weight-ring span open no span of their
own: `WeightPoly.__sub__` calling `__add__`, or `compose_shift` multiplying
polynomials, is one outermost call.  `WeightPoly.__init__` is counted but
not timed.

The wrappers also count the work each engine does at its seams: the cluster
engine's states per level (from the tables `cluster_tables` yields; the
weight bit length is read from the last nonempty one) and the positive
engine's cells per level (from the tables `init_table` and the
step functions return).

Run as a script, it executes one CLI invocation under the tracer:

    PYTHONPATH=src python3 perfbench/layertrace.py count --avoid 132 --n 30

stdout is the CLI's own, unchanged; the trace summary is printed as the last
line of stderr, after TRACE_PREFIX.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "analysis", "cluster_dp", "positive_dp", "weightring", "permcore")
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "__pow__", "mul_var")
ARITH_NAMES = frozenset(f"weightring.WeightPoly.{a}" for a in ARITH)
ORACLE_NAMES = frozenset(f"permcore.{f}" for f in (
    "brute_weight_enum", "brute_avoider_count", "brute_cluster_enum", "iter_cluster_witnesses"))
STEP_NAMES = ("positive_dp.step_append_aggregated", "positive_dp.step_append")
TRACE_PREFIX = "PERFBENCH-TRACE "

# The per-layer metrics, in the order BENCHMARK.json lists them (with
# trace.overhead, which the harness computes from two runs).
METRICS = (
    "cluster_dp.tables_s", "cluster_dp.states_total", "cluster_dp.levels",
    "cluster_dp.states_peak", "cluster_dp.recurrence_s", "cluster_dp.weight_bits_max",
    "positive_dp.step_s", "positive_dp.steps", "positive_dp.cells_total",
    "positive_dp.cells_peak", "positive_dp.readout_s",
    "weightring.arith_s", "weightring.arith_calls", "weightring.poly_new",
    "weightring.shift_s", "weightring.text_s",
    "analysis.self_s", "cli.self_s", "permcore.oracle_calls",
)


def _weight_bits(w) -> int:
    if isinstance(w, int):
        return abs(w).bit_length()
    return max((abs(c).bit_length() for _e, c in w.items()), default=0)


class Tracer:
    """Per-function call counts and self times, plus per-level state counts."""

    def __init__(self):
        self._stack: list[list] = []       # open spans: [name, layer, start, child seconds]
        self._restore: list[tuple] = []    # (owner, attribute, original)
        # calls per function; a generator counts once, however often resumed
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.callers: dict[tuple[str, str], int] = defaultdict(int)
        self.poly_new = 0
        self.cluster_levels: list[int] = []
        self.positive_levels: list[int] = []
        self._last_cluster_table: dict | None = None

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        stack = self._stack
        self.callers[(stack[-1][0] if stack else "", name)] += 1
        stack.append([name, layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, _layer, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, fn, name: str, layer: str, on_result=None):
        stack = self._stack
        ring = layer == "weightring"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[name] += 1
                return self._timed_iter(fn(*args, **kwargs), name, layer, on_result)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ring and stack and stack[-1][1] == "weightring":  # fold into the outer ring call
                return fn(*args, **kwargs)
            self.calls[name] += 1
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _timed_iter(self, gen, name: str, layer: str, on_item):
        # one span per resumption of a wrapped generator
        while True:
            self._enter(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            if on_item is not None:
                on_item(item)
            yield item

    # -- counters at the engine seams ----------------------------------------

    def _cluster_level(self, item) -> None:
        _n, table = item
        self.cluster_levels.append(len(table))
        if table:  # some lengths admit no cluster (132: even lengths)
            self._last_cluster_table = table

    def _positive_level(self, table) -> None:
        self.positive_levels.append(len(table.cells))

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        prefix = f"{layer}.{cls.__name__}"
        is_poly = prefix == "weightring.WeightPoly"
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if is_poly and attr == "__init__":
                self._set(cls, attr, self._counting_init(obj))
            elif attr.startswith("_") and not (is_poly and attr in ARITH):
                continue
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self._wrap(obj.__func__, name, layer)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, name, layer))

    def _counting_init(self, init):
        @functools.wraps(init)
        def counted(*args, **kwargs):
            self.poly_new += 1
            init(*args, **kwargs)
        return counted

    def install(self, package) -> None:
        """Wrap the layers of `package` (the imported `cwilf` module)."""
        hooks = {"cluster_dp.cluster_tables": self._cluster_level,
                 "positive_dp.init_table": self._positive_level}
        hooks.update({name: self._positive_level for name in STEP_NAMES})
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(obj, name, layer, hooks.get(name))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- readout ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics; call after `uninstall`."""
        def secs(*names):
            return sum(self.self_s.get(n, 0.0) for n in names)

        def calls(*names):
            return sum(self.calls.get(n, 0) for n in names)

        def layer_self_s(layer):
            return sum(v for n, v in self.self_s.items() if n.startswith(layer + "."))

        last = self._last_cluster_table
        return {
            "cluster_dp.tables_s": secs("cluster_dp.cluster_tables"),
            "cluster_dp.states_total": sum(self.cluster_levels),
            "cluster_dp.levels": len(self.cluster_levels),
            "cluster_dp.states_peak": max(self.cluster_levels, default=0),
            "cluster_dp.recurrence_s": secs("cluster_dp.assemble_counts"),
            "cluster_dp.weight_bits_max": max(map(_weight_bits, last.values()), default=0)
            if last else 0,
            "positive_dp.step_s": secs(*STEP_NAMES),
            "positive_dp.steps": calls(*STEP_NAMES),
            "positive_dp.cells_total": sum(self.positive_levels),
            "positive_dp.cells_peak": max(self.positive_levels, default=0),
            "positive_dp.readout_s": secs("positive_dp.StateTable.total"),
            "weightring.arith_s": secs(*ARITH_NAMES),
            "weightring.arith_calls": calls(*ARITH_NAMES),
            "weightring.poly_new": self.poly_new,
            "weightring.shift_s": secs("weightring.compose_shift"),
            "weightring.text_s": secs("weightring.term_text"),
            "analysis.self_s": layer_self_s("analysis"),
            "cli.self_s": layer_self_s("cli"),
            "permcore.oracle_calls": calls(*ORACLE_NAMES),
        }

    def summary(self, main_s: float) -> dict:
        return {
            "main_s": main_s,
            "metrics": self.metrics(),
            "cluster_levels": self.cluster_levels,
            "positive_levels": self.positive_levels,
            "functions": {n: [self.calls[n], self.self_s[n]] for n in sorted(self.calls)},
            "callers": sorted([caller, callee, count]
                              for (caller, callee), count in self.callers.items()),
        }


def main(argv: list[str]) -> int:
    import cwilf
    import cwilf.cli

    tracer = Tracer()
    tracer.install(cwilf)
    start = time.perf_counter()
    try:
        return cwilf.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        sys.stdout.flush()
        print(TRACE_PREFIX + json.dumps(tracer.summary(main_s)), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
