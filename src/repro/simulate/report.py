"""Structured simulation run reports with one canonical byte encoding.

A run report is the simulator's durable output: the run configuration, the
trace digest, a per-window series of drift metrics and whole-run totals.
The schema is pinned (:data:`REPORT_SCHEMA_VERSION`, fixed key sets) and the
encoding is canonical — sorted keys, minimal separators, one trailing
newline — so two runs can be compared byte-for-byte, which is exactly how
the determinism tests and the CI smoke job compare worker counts.

Determinism rule: nothing wall-clock-dependent may enter a report.
Throughput numbers live in ``BENCH_simulate.json``, not here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.exceptions import SimulationError

REPORT_SCHEMA_VERSION = 1

#: Exact key set of every per-window record.  ``precision``, ``recall``,
#: ``epc`` and ``arp`` are ``None`` when the run had no split / popularity
#: context (plain store or HTTP replay); everything else is always a number.
WINDOW_KEYS = frozenset(
    {
        "index",
        "start",
        "end",
        "events",
        "unique_users",
        "cold_arrivals",
        "returning_arrivals",
        "consumed",
        "window_coverage",
        "window_gini",
        "cumulative_coverage",
        "cumulative_gini",
        "coverage_gain",
        "precision",
        "recall",
        "epc",
        "arp",
    }
)

#: Metrics that may legitimately be ``None`` (missing context, empty window).
_OPTIONAL_KEYS = frozenset({"precision", "recall", "epc", "arp"})

_TOP_LEVEL_KEYS = frozenset(
    {"schema", "kind", "scenario", "feedback", "source", "config", "trace_digest",
     "windows", "totals"}
)


def _check_number(value: Any, where: str, errors: list[str]) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{where} must be a number, got {type(value).__name__}")
    elif isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{where} must be finite, got {value!r}")


def validate_report(payload: Any) -> list[str]:
    """All schema violations in ``payload`` (empty list = valid report)."""
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"report must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != REPORT_SCHEMA_VERSION:
        errors.append(
            f"schema must be {REPORT_SCHEMA_VERSION}, got {payload.get('schema')!r}"
        )
    if payload.get("kind") != "simulation-report":
        errors.append(f"kind must be 'simulation-report', got {payload.get('kind')!r}")
    missing = _TOP_LEVEL_KEYS - payload.keys()
    if missing:
        errors.append(f"missing top-level keys: {sorted(missing)}")
    extra = payload.keys() - _TOP_LEVEL_KEYS
    if extra:
        errors.append(f"unexpected top-level keys: {sorted(extra)}")
    for field in ("scenario", "feedback", "source", "trace_digest"):
        if field in payload and not isinstance(payload[field], str):
            errors.append(f"{field} must be a string")
    config = payload.get("config")
    if not isinstance(config, dict):
        errors.append("config must be an object of flat scalars")
    else:
        for key, value in config.items():
            if not isinstance(value, (str, bool)):
                _check_number(value, f"config[{key!r}]", errors)
    windows = payload.get("windows")
    if not isinstance(windows, list):
        errors.append("windows must be a list")
        windows = []
    for position, window in enumerate(windows):
        where = f"windows[{position}]"
        if not isinstance(window, dict):
            errors.append(f"{where} must be an object")
            continue
        if window.keys() != WINDOW_KEYS:
            errors.append(
                f"{where} keys differ from the pinned set: "
                f"missing {sorted(WINDOW_KEYS - window.keys())}, "
                f"extra {sorted(window.keys() - WINDOW_KEYS)}"
            )
            continue
        for key, value in window.items():
            if value is None and key in _OPTIONAL_KEYS:
                continue
            _check_number(value, f"{where}[{key!r}]", errors)
    totals = payload.get("totals")
    if not isinstance(totals, dict):
        errors.append("totals must be an object")
    else:
        for key, value in totals.items():
            if value is None:
                continue
            _check_number(value, f"totals[{key!r}]", errors)
    return errors


def canonical_bytes(payload: dict[str, Any]) -> bytes:
    """The report's one canonical encoding (what determinism tests compare)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def write_report(payload: dict[str, Any], path: str | Path) -> Path:
    """Validate and write a report in canonical form; returns the path."""
    errors = validate_report(payload)
    if errors:
        raise SimulationError(
            "refusing to write an invalid simulation report:\n  " + "\n  ".join(errors)
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canonical_bytes(payload))
    return path


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a report written by :func:`write_report`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = validate_report(payload)
    if errors:
        raise SimulationError(
            f"{path} is not a valid simulation report:\n  " + "\n  ".join(errors)
        )
    return payload
