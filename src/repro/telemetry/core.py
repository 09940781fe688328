"""The telemetry context: nested span timers and typed counters/gauges.

Instrumented code never checks whether telemetry is on -- it asks
:func:`current_telemetry` for the active context and calls it.  When nothing
is enabled that returns the module-wide :data:`NULL` singleton, whose methods
do nothing and whose ``span`` hands back one shared, stateless context
manager -- no per-call object is allocated, so disabled telemetry costs a
few attribute lookups per *run* (hot per-step work is additionally guarded
by ``Telemetry.enabled`` so it costs nothing at all).

Timing uses :func:`time.perf_counter` (monotonic); span events carry offsets
relative to the context's epoch, so traces are insensitive to wall-clock
adjustments.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from .stepstats import StepStats

__all__ = [
    "Counter",
    "Gauge",
    "Span",
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "current_telemetry",
    "enable_telemetry",
    "disable_telemetry",
    "merge_summaries",
    "profile",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += int(amount)


class Gauge:
    """A float metric holding its most recently set value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)


class Span:
    """A timed section; use as a context manager via :meth:`Telemetry.span`.

    Spans nest: the depth recorded in the trace event is the number of
    enclosing open spans at entry time.  The ``phase`` attribute (if given)
    is hoisted to a top-level event field so reports can group sections into
    the canonical phases (``excite`` / ``assemble`` / ``factor`` / ``step`` /
    ``fit`` / ``run``).
    """

    __slots__ = ("_telemetry", "name", "attrs", "phase", "start", "duration", "depth")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict[str, object]):
        self._telemetry = telemetry
        self.name = name
        self.phase = attrs.pop("phase", None)
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self.depth = 0

    def __enter__(self) -> "Span":
        tele = self._telemetry
        self.depth = len(tele._stack)
        tele._stack.append(self)
        self.start = tele._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tele = self._telemetry
        self.duration = tele._clock() - self.start
        if tele._stack and tele._stack[-1] is self:
            tele._stack.pop()
        tele._finish_span(self)
        return False

    def annotate(self, **attrs) -> None:
        """Add attributes known only once the section has run (e.g. the path taken)."""
        self.attrs.update(attrs)


class Telemetry:
    """An enabled telemetry context collecting spans, metrics and step stats.

    Spans become trace events as they close; counters, gauges and the merged
    :class:`~repro.telemetry.stepstats.StepStats` are snapshotted by
    :meth:`summary` / the trace exporter.  Install a context process-wide
    with :func:`enable_telemetry` or scoped with :func:`profile`.
    """

    enabled = True

    def __init__(self):
        self._clock = time.perf_counter
        self.epoch = self._clock()
        self.events: List[dict] = []
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.step_stats = StepStats()
        self._pending_steps: Optional[StepStats] = None
        self._stack: List[Span] = []
        self._seq = 0

    # ------------------------------------------------------------------ spans
    def span(self, name: str, **attrs) -> Span:
        """Open a named, timed section (context manager); ``phase=`` groups it."""
        return Span(self, name, attrs)

    def _finish_span(self, span: Span) -> None:
        self._seq += 1
        event = {
            "type": "span",
            "seq": self._seq,
            "name": span.name,
            "t_s": span.start - self.epoch,
            "duration_s": span.duration,
            "depth": span.depth,
        }
        if span.phase is not None:
            event["phase"] = span.phase
        if span.attrs:
            event["attrs"] = span.attrs
        self.events.append(event)

    # ---------------------------------------------------------------- metrics
    def counter(self, name: str) -> Counter:
        """The named :class:`Counter`, created on first use."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def count(self, name: str, amount: int = 1) -> None:
        """Increment the named counter."""
        self.counter(name).add(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge."""
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        gauge.set(value)

    # ------------------------------------------------------------- step stats
    def record_step_stats(self, stats: StepStats) -> None:
        """Fold one step loop's aggregate into the context.

        The cumulative aggregate (``self.step_stats``) spans the whole
        context lifetime; a second, drainable aggregate feeds
        :meth:`pop_step_stats` so each engine can claim the stats of exactly
        the loops it ran.
        """
        self.step_stats.merge(stats)
        if self._pending_steps is None:
            self._pending_steps = StepStats()
        self._pending_steps.merge(stats)

    def pop_step_stats(self) -> Optional[StepStats]:
        """Drain the step stats recorded since the last pop (None when none)."""
        pending = self._pending_steps
        self._pending_steps = None
        return pending

    # ---------------------------------------------------------------- summary
    def elapsed(self) -> float:
        """Seconds since the context was created (monotonic)."""
        return self._clock() - self.epoch

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-phase call counts and total durations from the closed spans."""
        totals: Dict[str, Dict[str, float]] = {}
        for event in self.events:
            if event["type"] != "span":
                continue
            phase = event.get("phase", "other")
            entry = totals.setdefault(phase, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += event["duration_s"]
        return {phase: totals[phase] for phase in sorted(totals)}

    def summary(self) -> Dict[str, object]:
        """JSON-safe snapshot: phase totals, counters, gauges, step stats.

        This is what sweep workers ship back with each case result and what
        the sharded store persists in case meta; keys are sorted so merged
        summaries are deterministic.
        """
        payload: Dict[str, object] = {
            "phases": self.phase_totals(),
            "counters": {name: self.counters[name].value for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].value for name in sorted(self.gauges)},
            "spans": sum(1 for event in self.events if event["type"] == "span"),
            "elapsed_s": self.elapsed(),
        }
        if self.step_stats.solves or self.step_stats.steps:
            payload["step_stats"] = self.step_stats.to_dict()
        return dict(sorted(payload.items()))


class _NullSpan:
    """The shared no-op span: stateless, reentrant, allocation-free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled default: every method is a no-op.

    ``span`` returns one module-wide stateless context manager, so code can
    unconditionally write ``with current_telemetry().span(...)`` without
    allocating per call when telemetry is off.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def record_step_stats(self, stats: StepStats) -> None:
        pass

    def pop_step_stats(self) -> None:
        return None


#: The process-wide disabled singleton.
NULL = NullTelemetry()

_ACTIVE: Optional[Telemetry] = None


def current_telemetry():
    """The active :class:`Telemetry`, or :data:`NULL` when disabled."""
    active = _ACTIVE
    return NULL if active is None else active


def enable_telemetry(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install (and return) a process-wide telemetry context."""
    global _ACTIVE
    _ACTIVE = telemetry if telemetry is not None else Telemetry()
    return _ACTIVE


def disable_telemetry() -> Optional[Telemetry]:
    """Remove the active context (returned, so callers can still export it)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


def merge_summaries(summaries) -> Optional[Dict[str, object]]:
    """Deterministically merge per-run :meth:`Telemetry.summary` dicts.

    Callers iterate their runs in a canonical order (the sweep runner merges
    in plan order) so the float sums -- phase totals, elapsed times -- are
    identical no matter how many workers produced the parts.  Returns None
    when no summary is present.
    """
    merged_phases: Dict[str, Dict[str, float]] = {}
    merged_counters: Dict[str, int] = {}
    merged_gauges: Dict[str, float] = {}
    merged_steps: Optional[StepStats] = None
    spans = 0
    elapsed = 0.0
    cases = 0
    for summary in summaries:
        if not summary:
            continue
        cases += 1
        for phase, entry in summary.get("phases", {}).items():
            slot = merged_phases.setdefault(phase, {"count": 0, "total_s": 0.0})
            slot["count"] += entry.get("count", 0)
            slot["total_s"] += entry.get("total_s", 0.0)
        for name, value in summary.get("counters", {}).items():
            merged_counters[name] = merged_counters.get(name, 0) + value
        for name, value in summary.get("gauges", {}).items():
            if value is not None:
                merged_gauges[name] = value
        steps = summary.get("step_stats")
        if steps:
            if merged_steps is None:
                merged_steps = StepStats()
            merged_steps.merge(StepStats.from_dict(steps))
        spans += summary.get("spans", 0)
        elapsed += summary.get("elapsed_s", 0.0)
    if not cases:
        return None
    payload: Dict[str, object] = {
        "cases": cases,
        "counters": dict(sorted(merged_counters.items())),
        "elapsed_s": elapsed,
        "gauges": dict(sorted(merged_gauges.items())),
        "phases": {phase: merged_phases[phase] for phase in sorted(merged_phases)},
        "spans": spans,
    }
    if merged_steps is not None:
        payload["step_stats"] = merged_steps.to_dict()
    return dict(sorted(payload.items()))


@contextmanager
def profile(telemetry: Optional[Telemetry] = None):
    """Scoped activation: enable a context, yield it, restore the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    tele = telemetry if telemetry is not None else Telemetry()
    _ACTIVE = tele
    try:
        yield tele
    finally:
        _ACTIVE = previous
