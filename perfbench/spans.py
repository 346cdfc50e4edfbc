"""In-memory spans for the benchmark's traced runs, and their arithmetic.

A span records one call across a layer boundary: its name, start and end
(``time.monotonic`` seconds, comparable across processes on one host), the
span that was open on the same thread when it began (its parent) and the
counts the boundary reports (rows, users, bytes, ...).  Spans stay in memory
and are written once, when the process ends.

The wrappers live in the benchmark, not in the program: :func:`install`
replaces the public callables named in :data:`FUNCTIONS` and
:data:`METHODS` with timing wrappers.  A function re-exported under the
same name by another module (``repro.serving.compile_artifact``) is the
same object, so every module attribute that holds it is replaced too;
otherwise a caller that imported the re-export would bypass the span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

clock = time.monotonic


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: Seconds spent inside wrappers outside the wrapped calls.
        self.overhead_s = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        # Re-entrant: a signal handler may dump while its thread is closing a span.
        self._lock = threading.RLock()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict[str, Any]:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        stack.append(span)
        return span

    def _close(self, span: dict[str, Any], entered: float) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append(span)
            self.overhead_s += (span["start"] - entered) + (clock() - span["end"])

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` that records one span per call."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = clock()
            span = self._open(name)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["end"] = clock()
                span["counts"] = {"errors": 1}
                self._close(span, entered)
                raise
            span["end"] = clock()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            self._close(span, entered)
            return result

        return traced

    def span(self, name: str) -> "_Block":
        """A ``with`` block recorded as one span (used for process roots)."""
        return _Block(self, name)

    def dump(self, path: str | Path, **extra: Any) -> None:
        """Write every closed span, plus ``extra`` fields, as one JSON file."""
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "overhead_s": self.overhead_s,
                "cpu_s": time.process_time(),
                "spans": list(self.spans),
                **extra,
            }
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)


class _Block:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> dict[str, Any]:
        self._entered = clock()
        self._span = self._recorder._open(self._name)
        self._span["start"] = clock()
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span["end"] = clock()
        self._recorder._close(self._span, self._entered)


# --------------------------------------------------------------------------- #
# What is wrapped
# --------------------------------------------------------------------------- #
def _rows_arg(position: int, keyword: str) -> Callable[[tuple, dict, Any], dict[str, float]]:
    """Count the rows of argument ``keyword``, passed at ``position`` (``self`` is 0)."""

    def count(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
        value = args[position] if len(args) > position else kwargs.get(keyword)
        if value is None:  # predict_matrix(None) scores every user
            return {"rows": float(args[0].train_data.n_users)}
        return {"rows": float(len(value)) if hasattr(value, "__len__") else 1.0}

    return count


def _ingest_rows(args: tuple, kwargs: dict, report: Any) -> dict[str, float]:
    return {"rows": float(report.n_new_ratings)}


def _artifact_size(args: tuple, kwargs: dict, directory: Any) -> dict[str, float]:
    manifest_path = Path(directory) / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    size = manifest_path.stat().st_size
    for entry in manifest["shards"]:
        size += (Path(directory) / entry["items"]).stat().st_size
        size += (Path(directory) / entry["scores"]).stat().st_size
    return {"bytes": float(size), "rows": float(manifest["n_users"])}


def _update_report(args: tuple, kwargs: dict, report: Any) -> dict[str, float]:
    return {
        "rows": float(report.users_recomputed),
        "n_users": float(report.n_users),
        "shards_skipped": float(report.shards_skipped),
        "shards_rewritten": float(report.shards_rewritten),
        "shards_appended": float(report.shards_appended),
        "revision": float(report.revision),
    }


#: ``(module, function, span name, counter)``: module-level callables.
FUNCTIONS: tuple[tuple[str, str, str, Any], ...] = (
    ("repro.data.outofcore", "ingest_csv", "data.ingest", _ingest_rows),
    ("repro.experiments.datasets", "load_experiment_split", "data.load", None),
    ("repro.data.incremental", "read_delta_csv", "data.delta", None),
    ("repro.data.incremental", "extend_split_interactions", "data.delta", None),
    ("repro.serving.artifact", "compile_artifact", "compile", _artifact_size),
    ("repro.serving.update", "compile_artifact_update", "update.compile", _update_report),
)

#: ``(module, class, method, span name, counter)``: methods of the concrete
#: classes the workloads use.
METHODS: tuple[tuple[str, str, str, str, Any], ...] = (
    ("repro.recommenders.knn", "ItemKNN", "fit", "recommenders.fit", None),
    ("repro.recommenders.knn", "ItemKNN", "delta_refit", "recommenders.refit", None),
    ("repro.recommenders.knn", "ItemKNN", "predict_matrix", "recommenders.score", _rows_arg(1, "users")),
    ("repro.preferences.generalized", "GeneralizedPreference", "estimate",
     "preferences.estimate", None),
    ("repro.ganc.oslg", "OSLGOptimizer", "run", "ganc.oslg", None),
    ("repro.ganc.incremental", "SequentialAssigner", "run", "ganc.sequential", _rows_arg(2, "order")),
    ("repro.parallel.tasks", "SnapshotAssignTask", "__call__", "ganc.snapshot", _rows_arg(1, "users")),
    ("repro.parallel.tasks", "TopNScoresTask", "__call__", "compile.score_pass", _rows_arg(1, "users")),
    ("repro.pipeline.pipeline", "Pipeline", "fit", "pipeline.fit", None),
    ("repro.pipeline.pipeline", "Pipeline", "recommend_all", "pipeline.recommend_all", None),
    ("repro.pipeline.pipeline", "Pipeline", "load", "pipeline.load", None),
    ("repro.pipeline.pipeline", "Pipeline", "save", "pipeline.save", None),
    ("repro.serving.store", "RecommendationStore", "lookup_rows", "store.lookup", _rows_arg(1, "users")),
    ("repro.serving.store", "RecommendationStore", "lookup", "store.lookup", _rows_arg(1, "users")),
    ("repro.serving.store", "RecommendationStore", "reload", "store.reload", None),
)


def install(recorder: Recorder) -> int:
    """Wrap every target in this process; returns the bindings replaced.

    Modules are imported first, so every re-export that exists at program
    start is found by identity and replaced.
    """
    replaced = 0
    for module_name, name, span_name, count in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), name)
        wrapper = recorder.wrap(span_name, original, count)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not str(getattr(module, "__name__", "")).startswith("repro"):
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    replaced += 1
    for module_name, class_name, method, span_name, count in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(recorder.wrap(span_name, raw.__func__, count)))
        else:
            setattr(cls, method, recorder.wrap(span_name, raw, count))
        replaced += 1
    return replaced


# --------------------------------------------------------------------------- #
# Arithmetic over a span list
# --------------------------------------------------------------------------- #
def covered(interval: tuple[float, float], others: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``others`` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered((span["start"], span["end"]), children.get(span["id"], ()))
        for span in spans
    }


def outermost(spans: list[dict[str, Any]], name: str) -> list[dict[str, Any]]:
    """Spans called ``name`` with no ancestor of the same name.

    A method that calls itself (or a same-named span nested through another
    layer) would otherwise be counted twice.
    """
    by_id = {span["id"]: span for span in spans}
    found = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found
