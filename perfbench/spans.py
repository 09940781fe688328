"""Benchmark-side tracing: spans around the program's public entry points.

The traced run installs wrappers around the entry points listed in
:data:`FUNCTION_HOOKS` and :data:`METHOD_HOOKS`; the program's own files are
never edited.  Each wrapper opens a span (name, start, end, parent) kept in
memory.  A span's *self time* is its duration minus the time its direct
child spans cover, so nested spans -- of the same layer or not -- are counted
once, and ``unattributed_s = wall - sum(self times)`` holds by construction.

An entry point that is missing, or an after-hook that cannot read the
count it expects, is reported as a problem (see :func:`install` and
:attr:`SpanRecorder.problems`); the worker counts each one as a failed
check, because the metrics it feeds would otherwise read 0 without a sign.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple


class SpanRecorder:
    """In-memory span tree plus named counters, for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or None]`` per span, in open order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        #: Every ``repro.api.Analysis`` built while hooks are installed.
        self.sessions: list = []
        #: One message per after-hook that failed to read its count.
        self.problems: List[str] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per span name: duration minus the direct children's durations.

    ``spans`` holds ``(name, start, end, parent)`` entries whose ``parent`` is
    the index of the enclosing span (``None`` at top level); children lie
    inside their parent and do not overlap each other (one thread).
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, covered):
        totals[name] = totals.get(name, 0.0) + (end - start) - children
    return totals


def attribute(spans: Sequence[Sequence], wall: float) -> Tuple[Dict[str, float], float]:
    """Self times per span name and the wall time no span covers."""
    totals = self_times(spans)
    return totals, wall - sum(totals.values())


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _wrap(recorder: SpanRecorder, name: str, function, after=None):
    """``function`` inside a span; ``after(args, kwargs, result)`` may count."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            try:
                after(recorder, args, kwargs, result)
            except Exception as exc:  # noqa: BLE001 - reported, never swallowed
                message = f"{name}: after-hook failed: {exc!r}"
                if message not in recorder.problems:
                    recorder.problems.append(message)
        return result

    return traced


def _count_calls(counter: str):
    def after(recorder, args, kwargs, result):
        recorder.count(counter)

    return after


def _after_factor(recorder, args, kwargs, result):
    recorder.count("linear.factorizations")
    lu = args[0]._lu
    recorder.count("linear.fill_nnz", int(lu.L.nnz) + int(lu.U.nnz))


def _after_solve_many(recorder, args, kwargs, result):
    # A 1-D right-hand side is forwarded to ``solve``, which counts it.
    if getattr(result, "ndim", 1) == 2:
        recorder.count("linear.solves", result.shape[1])


def _after_march(recorder, args, kwargs, result):
    recorder.count("stepping.steps", max(len(args[0].times) - 1, 0))


def _after_basis(recorder, args, kwargs, result):
    size = int(result.size)
    recorder.counts["chaos.basis_size"] = max(recorder.counts.get("chaos.basis_size", 0), size)


def _after_partition(recorder, args, kwargs, result):
    recorder.count("partition.atoms", len(result.interiors))
    recorder.count("partition.interface_nodes", len(result.boundary))


def _after_mor(recorder, args, kwargs, result):
    size = int(result.mor_stats["reduced_size"])
    recorder.counts["mor.reduced_size"] = max(recorder.counts.get("mor.reduced_size", 0), size)


def _after_session(recorder, args, kwargs, result):
    recorder.sessions.append(args[0])


#: ``(module, function, span name, after-hook)``: every binding of the
#: function in an imported ``repro`` module is replaced, so callers that
#: imported it by name are traced too.
FUNCTION_HOOKS = (
    ("repro.grid.generator", "generate_power_grid", "grid.generate", None),
    ("repro.grid.stamping", "stamp", "grid.stamp", None),
    ("repro.variation.model", "build_stochastic_system", "variation.build", None),
    ("repro.chaos.galerkin", "assemble_augmented_matrix", "chaos.assemble", None),
    ("repro.chaos.galerkin", "assemble_augmented_operator", "chaos.assemble", None),
    ("repro.opera.engine", "run_opera_transient", "opera.run", None),
    ("repro.montecarlo.engine", "run_monte_carlo_transient", "montecarlo.run", None),
    ("repro.partition.partitioner", "partition_system", "partition.partition", _after_partition),
    ("repro.partition.engine", "system_partition", "partition.partition", _after_partition),
    ("repro.mor.prima", "prima_reduce", "mor.reduce", None),
    ("repro.mor.engine", "run_mor_transient", "mor.run", _after_mor),
)

#: Bindings traced only at that call site: the Monte Carlo engine's
#: per-sample deterministic transient (other engines call it too).
SITE_HOOKS = (
    (
        "repro.montecarlo.engine",
        "run_transient",
        "montecarlo.sample",
        _count_calls("montecarlo.samples"),
    ),
)

#: ``(module, class, method, span name, after-hook)``.
METHOD_HOOKS = (
    ("repro.grid.stamping", "StampedSystem", "drain_current_vector", "excite.vector",
     _count_calls("excite.vector_calls")),
    ("repro.grid.stamping", "StampedSystem", "drain_current_matrix", "excite.matrix",
     _count_calls("excite.matrix_calls")),
    ("repro.chaos.galerkin", "GalerkinSystem", "rhs_series", "excite.series", None),
    ("repro.api.session", "Analysis", "basis", "chaos.basis", _after_basis),
    ("repro.api.session", "Analysis", "galerkin", "chaos.assemble", None),
    ("repro.api.session", "Analysis", "run", "api.run", None),
    ("repro.api.session", "Analysis", "__init__", "api.session", _after_session),
    ("repro.linalg.operator", "KronSumOperator", "to_csr", "chaos.assemble", None),
    ("repro.sim.linear", "DirectSolver", "__init__", "linear.factor", _after_factor),
    ("repro.sim.linear", "DirectSolver", "solve", "linear.solve", _count_calls("linear.solves")),
    ("repro.sim.linear", "DirectSolver", "solve_many", "linear.solve", _after_solve_many),
    ("repro.stepping.loop", "StepLoop", "run", "stepping.march", _after_march),
    ("repro.mor.reduced", "ReducedBlockSolver", "__init__", "mor.reduced_factor", None),
    ("repro.mor.reduced", "ReducedBlockSolver", "solve", "mor.reduced_solve", None),
    ("repro.sweep.runner", "SweepRunner", "run", "sweep.run", None),
    ("repro.sweep.store", "ShardedNpzBackend", "append", "sweep.append", None),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(recorder: SpanRecorder) -> List[str]:
    """Install every hook whose target exists; returns the ones missing.

    A missing target is a failed check for the caller to report: the
    metrics it feeds would read 0.  Call after ``import repro`` so every module that bound a hooked function
    by name is already loaded.  The wrappers stay for the life of the
    process (the traced run is a process of its own).
    """
    skipped = []
    repro_modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for module_name, attr, span_name, after in FUNCTION_HOOKS:
        original = getattr(_module(module_name), attr, None)
        if original is None:
            skipped.append(f"{module_name}.{attr}")
            continue
        traced = _wrap(recorder, span_name, original, after)
        for module in repro_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    for module_name, attr, span_name, after in SITE_HOOKS:
        module = _module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            skipped.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrap(recorder, span_name, original, after))
    for module_name, class_name, attr, span_name, after in METHOD_HOOKS:
        cls = getattr(_module(module_name), class_name, None)
        original = cls.__dict__.get(attr) if cls is not None else None
        if not callable(original):
            skipped.append(f"{module_name}.{class_name}.{attr}")
            continue
        setattr(cls, attr, _wrap(recorder, span_name, original, after))
    return skipped


#: Per-layer metrics taken from self times: metric name -> span names.
SELF_TIME_METRICS = {
    "grid.generate_s": ("grid.generate",),
    "grid.stamp_s": ("grid.stamp",),
    "variation.build_s": ("variation.build",),
    "excite.self_s": ("excite.vector", "excite.matrix", "excite.series"),
    "chaos.basis_s": ("chaos.basis",),
    "chaos.assemble_s": ("chaos.assemble",),
    "opera.self_s": ("opera.run",),
    "linear.factor_s": ("linear.factor",),
    "linear.solve_s": ("linear.solve",),
    "stepping.march_s": ("stepping.march",),
    "montecarlo.self_s": ("montecarlo.run", "montecarlo.sample"),
    "partition.partition_s": ("partition.partition",),
    "mor.reduce_s": ("mor.reduce",),
    "mor.reduced_factor_s": ("mor.reduced_factor",),
    "mor.self_s": ("mor.run", "mor.reduce", "mor.reduced_factor", "mor.reduced_solve"),
    "sweep.store_append_s": ("sweep.append",),
    "sweep.self_s": ("sweep.run", "sweep.append"),
    "api.self_s": ("api.run", "api.session"),
}


def summarize(recorder: SpanRecorder, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (self times, counts, remainder)."""
    totals, unattributed = attribute(recorder.spans, wall)
    metrics = {
        metric: sum(totals.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    samples = [end - start for name, start, end, _ in recorder.spans if name == "montecarlo.sample"]
    metrics["montecarlo.sample_s"] = sum(samples) / len(samples) if samples else 0.0
    metrics["unattributed_s"] = unattributed
    metrics["traced_wall_s"] = wall
    for name, value in recorder.counts.items():
        metrics[name] = value
    return metrics

