"""Unit tests for the span arithmetic and the wrappers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Recorder, covered, outermost, self_times  # noqa: E402


def _span(ident, parent, name, start, end):
    return {"id": ident, "parent": parent, "name": name, "start": start, "end": end, "counts": {}}


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-5.0, -1.0)]) == 5.0


def test_covered_of_nothing_is_zero():
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        _span(0, None, "compile", 0.0, 10.0),
        _span(1, 0, "pipeline.recommend_all", 1.0, 5.0),
        _span(2, 1, "recommenders.score", 2.0, 4.0),
        _span(3, 0, "compile.score_pass", 6.0, 9.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(3.0)  # 10 - 4 - 3
    assert own[1] == pytest.approx(2.0)  # 4 - 2
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 0.0, 6.0),
        _span(2, 0, "b", 4.0, 8.0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_outermost_skips_spans_nested_in_a_same_named_span():
    spans = [
        _span(0, None, "pipeline.load", 0.0, 5.0),
        _span(1, 0, "pipeline.fit", 1.0, 4.0),
        _span(2, 1, "pipeline.load", 2.0, 3.0),
        _span(3, None, "pipeline.load", 6.0, 7.0),
    ]
    assert [s["id"] for s in outermost(spans, "pipeline.load")] == [0, 3]


def test_wrap_records_parent_counts_and_overhead():
    recorder = Recorder()
    inner = recorder.wrap("inner", lambda rows: len(rows), lambda a, k, r: {"rows": float(r)})
    outer = recorder.wrap("outer", lambda: inner([1, 2, 3]))
    assert outer() == 3
    by_name = {s["name"]: s for s in recorder.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["counts"] == {"rows": 3.0}
    assert by_name["outer"]["start"] <= by_name["inner"]["start"] <= by_name["inner"]["end"]
    assert recorder.overhead_s >= 0.0


def test_wrap_records_a_failed_call_and_reraises():
    recorder = Recorder()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap("fails", fail)()
    assert recorder.spans[0]["counts"] == {"errors": 1}


def test_threads_keep_separate_parent_stacks():
    recorder = Recorder()
    seen = []
    leaf = recorder.wrap("leaf", lambda: None)

    def worker():
        leaf()
        seen.append(True)

    def root():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(10)

    recorder.wrap("root", root)()
    assert seen == [True]
    leaf_span = next(s for s in recorder.spans if s["name"] == "leaf")
    assert leaf_span["parent"] is None


def test_install_replaces_every_module_binding_of_a_function(monkeypatch):
    import spans

    def compile_artifact():
        return "compiled"

    home = types.ModuleType("repro_fake_home")
    home.compile_artifact = compile_artifact
    reexport = types.ModuleType("repro_fake_reexport")
    reexport.compile_artifact = compile_artifact
    monkeypatch.setitem(sys.modules, "repro_fake_home", home)
    monkeypatch.setitem(sys.modules, "repro_fake_reexport", reexport)
    monkeypatch.setattr(spans, "FUNCTIONS", (("repro_fake_home", "compile_artifact", "compile", None),))
    monkeypatch.setattr(spans, "METHODS", ())

    recorder = Recorder()
    assert spans.install(recorder) == 2
    assert reexport.compile_artifact is home.compile_artifact
    assert reexport.compile_artifact() == "compiled"
    assert [s["name"] for s in recorder.spans] == ["compile"]
