"""Self-time accounting of the benchmark's span recorder (synthetic trees)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def synthetic_recorder():
    """0-10 linear.solve > 1-4 linear.solve > 2-3 excite.vector; gap; 12-15 excite.vector.

    Wall 0-20: the nested same-layer ``linear.solve`` spans must count once
    (9 s, not 10 + 3), and the uncovered 10-12 and 15-20 land in
    ``unattributed``.
    """
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    outer = recorder.open("linear.solve")
    clock.now = 1.0
    inner = recorder.open("linear.solve")
    clock.now = 2.0
    vector = recorder.open("excite.vector")
    clock.now = 3.0
    recorder.close(vector)
    clock.now = 4.0
    recorder.close(inner)
    clock.now = 10.0
    recorder.close(outer)
    clock.now = 12.0
    vector = recorder.open("excite.vector")
    clock.now = 15.0
    recorder.close(vector)
    return recorder


def test_nested_same_layer_spans_count_once_and_gaps_are_unattributed():
    recorder = synthetic_recorder()
    totals, unattributed = spans.attribute(recorder.spans, wall=20.0)
    assert totals == {"linear.solve": 9.0, "excite.vector": 4.0}
    assert unattributed == 7.0
    assert sum(totals.values()) + unattributed == 20.0


def test_summary_adds_up_to_the_wall_time():
    recorder = synthetic_recorder()
    metrics = spans.summarize(recorder, wall=20.0)
    assert metrics["linear.solve_s"] == 9.0
    assert metrics["excite.self_s"] == 4.0
    assert metrics["unattributed_s"] == 7.0
    assert metrics["traced_wall_s"] == 20.0


def test_spans_must_close_in_order():
    recorder = spans.SpanRecorder(FakeClock())
    outer = recorder.open("a.x")
    recorder.open("b.y")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_unclosed_span_is_rejected():
    recorder = spans.SpanRecorder(FakeClock())
    recorder.open("a.x")
    with pytest.raises(ValueError):
        spans.self_times(recorder.spans)


def test_wrapped_function_is_traced_and_counted():
    recorder = spans.SpanRecorder()
    traced = spans._wrap(recorder, "excite.vector", lambda x: x + 1, spans._count_calls("calls"))
    assert traced(1) == 2
    assert traced(2) == 3
    assert [span[0] for span in recorder.spans] == ["excite.vector", "excite.vector"]
    assert recorder.counts == {"calls": 2}


def test_failing_after_hook_is_reported_once_and_the_call_still_returns():
    recorder = spans.SpanRecorder()

    def after(recorder, args, kwargs, result):
        raise AttributeError("no _lu")

    traced = spans._wrap(recorder, "linear.factor", lambda x: x * 2, after)
    assert traced(2) == 4
    assert traced(3) == 6
    assert recorder.problems == ["linear.factor: after-hook failed: AttributeError('no _lu')"]


def test_install_reports_missing_entry_points(monkeypatch):
    monkeypatch.setattr(
        spans,
        "FUNCTION_HOOKS",
        (
            ("perfbench_no_such_module", "f", "a.f", None),
            ("json", "no_such_function", "a.g", None),
        ),
    )
    monkeypatch.setattr(spans, "SITE_HOOKS", ())
    monkeypatch.setattr(
        spans, "METHOD_HOOKS", (("json", "JSONDecoder", "no_such_method", "a.h", None),)
    )
    skipped = spans.install(spans.SpanRecorder())
    assert skipped == [
        "perfbench_no_such_module.f",
        "json.no_such_function",
        "json.JSONDecoder.no_such_method",
    ]
