"""Per-layer metrics of a traced run, derived from the spans it wrote.

Every name the benchmark declares is always present: a layer the workload
does not reach reports 0.  Seconds are totals over the read slices,
except where noted: on build-ganc they are per build, and ``update.*_s``
and ``store.reload_s`` are medians per delta (so that ``freshness_s`` ≈
``update.wait_s`` + ``update.process_s`` + ``store.reload_s`` + one poll).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Iterable

from spans import outermost, self_times

#: Per-layer metric names and units, in the order ``BENCHMARK.json`` lists them.
UNITS: dict[str, str] = {
    "data.ingest_s": "s",
    "data.ingest_rows": "count",
    "data.load_s": "s",
    "data.delta_s": "s",
    "recommenders.fit_s": "s",
    "recommenders.refit_s": "s",
    "recommenders.score_s": "s",
    "recommenders.rows_scored": "count",
    "recommenders.score_passes": "ratio",
    "preferences.estimate_s": "s",
    "ganc.sequential_s": "s",
    "ganc.sequential_users": "count",
    "ganc.snapshot_s": "s",
    "ganc.snapshot_users": "count",
    "ganc.oslg_self_s": "s",
    "pipeline.load_s": "s",
    "pipeline.save_s": "s",
    "compile.total_s": "s",
    "compile.self_s": "s",
    "compile.bytes": "bytes",
    "update.process_s": "s",
    "update.startup_s": "s",
    "update.compile_s": "s",
    "update.wait_s": "s",
    "update.rows_recomputed": "count",
    "update.rows_changed": "count",
    "update.useful_share": "share",
    "update.shards_rewritten": "count",
    "update.shards_skipped": "count",
    "update.failed": "count",
    "store.lookup_ms": "ms",
    "store.rows_per_call": "rows",
    "store.fallback_share": "share",
    "store.reload_s": "s",
    "store.reloads": "count",
    "store.reload_failures": "count",
    "http.self_cpu_ms": "ms",
    "http.single_rows": "count",
    "http.non200": "count",
    "client.late_p50_ms": "ms",
    "client.late_p99_ms": "ms",
    "client.read_p99_ms": "ms",
    "client.cpu_ms": "ms",
    "client.requests": "count",
    "trace.unaccounted_share": "share",
    "trace.overhead_share": "share",
}


#: Root spans of the batch processes: a build, or a whole CLI command.
ROOTS = ("build", "process")


class SpanFile:
    """The spans one traced process wrote."""

    def __init__(self, path: Path) -> None:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        self.spans: list[dict[str, Any]] = payload["spans"]
        self.overhead_s = float(payload["overhead_s"])
        self.cpu_s = float(payload["cpu_s"])
        self.main_start = float(payload["main_start"])

    def select(self, name: str, windows: list[tuple[float, float]] | None = None) -> list[dict[str, Any]]:
        """Outermost ``name`` spans, started inside one of ``windows`` when given."""
        found = outermost(self.spans, name)
        if windows is None:
            return found
        return [s for s in found if any(lo <= s["start"] < hi for lo, hi in windows)]


def _seconds(spans: Iterable[dict[str, Any]]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _count(spans: Iterable[dict[str, Any]], key: str) -> float:
    return sum(s["counts"].get(key, 0.0) for s in spans)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def model_layers(
    files: list[SpanFile], windows: list[tuple[float, float]] | None, per: float
) -> dict[str, float]:
    """The offline layers (data … serving.artifact), divided by ``per``."""

    def pick(name: str) -> list[dict[str, Any]]:
        return [s for f in files for s in f.select(name, windows)]

    def self_of(name: str) -> float:
        total = 0.0
        for f in files:
            own = self_times(f.spans)
            total += sum(own[s["id"]] for s in f.select(name, windows))
        return total

    scored = _count(pick("recommenders.score"), "rows")
    compiled = _count(pick("compile"), "rows") + _count(pick("update.compile"), "rows")
    values = {
        "data.ingest_s": _seconds(pick("data.ingest")),
        "data.ingest_rows": _count(pick("data.ingest"), "rows"),
        "data.load_s": _seconds(pick("data.load")),
        "data.delta_s": _seconds(pick("data.delta")),
        "recommenders.fit_s": _seconds(pick("recommenders.fit")),
        "recommenders.refit_s": _seconds(pick("recommenders.refit")),
        "recommenders.score_s": _seconds(pick("recommenders.score")),
        "recommenders.rows_scored": scored,
        "preferences.estimate_s": _seconds(pick("preferences.estimate")),
        "ganc.sequential_s": _seconds(pick("ganc.sequential")),
        "ganc.sequential_users": _count(pick("ganc.sequential"), "rows"),
        "ganc.snapshot_s": _seconds(pick("ganc.snapshot")),
        "ganc.snapshot_users": _count(pick("ganc.snapshot"), "rows"),
        "ganc.oslg_self_s": self_of("ganc.oslg"),
        "pipeline.load_s": _seconds(pick("pipeline.load")),
        "pipeline.save_s": _seconds(pick("pipeline.save")),
        "compile.total_s": _seconds(pick("compile")),
        "compile.self_s": self_of("compile"),
        "compile.bytes": _count(pick("compile"), "bytes"),
    }
    values = {name: value / per for name, value in values.items()}
    values["recommenders.score_passes"] = scored / compiled if compiled else 0.0
    return values


def trace_layers(batch: list[SpanFile], every: list[SpanFile]) -> dict[str, float]:
    """How much of the batch processes' root spans no child covers, and how
    much of every traced process's CPU the wrappers themselves took."""
    roots = [(f, s) for f in batch for s in f.spans
             if s["parent"] is None and s["name"] in ROOTS]
    duration = sum(s["end"] - s["start"] for _, s in roots)
    unaccounted = sum(self_times(f.spans)[s["id"]] for f, s in roots)
    cpu = sum(f.cpu_s for f in every)
    return {
        "trace.unaccounted_share": unaccounted / duration if duration else 0.0,
        "trace.overhead_share": sum(f.overhead_s for f in every) / cpu if cpu else 0.0,
    }


def serving_layers(server: SpanFile, run: dict[str, Any]) -> dict[str, float]:
    """The store, HTTP and client layers over the measured slices of ``run``.

    ``run`` holds the slices' ``windows``, the ``/healthz`` payloads read
    before and after each (``counters``), the server's CPU seconds over
    them and the client summary.
    """
    windows, client = run["windows"], run["client"]
    lookups = _seconds(server.select("store.lookup", windows))
    requests = max(client["requests"], 1)

    def delta(*keys: str) -> float:
        def at(payload: dict[str, Any]) -> float:
            for key in keys:
                payload = payload[key]
            return payload

        return float(sum(at(after) - at(before) for before, after in run["counters"]))

    rows = delta("served", "artifact_rows") + delta("served", "fallback_rows")
    batches = delta("coalescing", "batches")
    return {
        "store.lookup_ms": lookups / requests * 1e3,
        "store.rows_per_call": delta("coalescing", "batched_rows") / batches if batches else 0.0,
        "store.fallback_share": delta("served", "fallback_rows") / rows if rows else 0.0,
        "store.reload_s": _median(
            [s["end"] - s["start"] for s in server.select("store.reload", windows)]
        ),
        "store.reloads": delta("reloads"),
        "store.reload_failures": delta("reload_failures"),
        "http.self_cpu_ms": (run["server_cpu_s"] - lookups) / requests * 1e3,
        "http.single_rows": delta("coalescing", "single_rows"),
        "http.non200": float(client["non200"]),
        "client.late_p50_ms": client["late_p50_ms"],
        "client.late_p99_ms": client["late_p99_ms"],
        "client.read_p99_ms": client["read_p99_ms"],
        "client.cpu_ms": client["cpu_ms"],
        "client.requests": float(client["requests"]),
    }


def assemble(*parts: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every declared per-layer metric with its unit; unreached layers are 0."""
    merged: dict[str, float] = {}
    for part in parts:
        merged.update(part)
    unknown = set(merged) - set(UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(merged.get(name, 0.0)), "unit": unit}
        for name, unit in UNITS.items()
    }
