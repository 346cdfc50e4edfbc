"""Machine-readable benchmark output shared by every standalone driver.

Each committed benchmark (``bench_ganc.py``, ``bench_batch_scoring.py``,
``bench_parallel_scaling.py``, ``bench_serving.py``) emits — next to its
human-readable table — one ``benchmarks/output/BENCH_<name>.json`` document
so the performance trajectory can be tracked PR-over-PR by machines instead
of by eyeballing text tables.  ``run_all.py`` drives every bench and
validates each document against the schema below; CI runs the same
validation on a smoke-scale pass.

Schema (version 1)
------------------
``schema``
    The integer schema version (this module's ``SCHEMA_VERSION``).
``bench``
    The benchmark name, matching the ``BENCH_<name>.json`` filename.
``config``
    A flat mapping of the run's configuration (scale, repeats, shapes…);
    values must be JSON scalars.
``metrics``
    A flat mapping of metric name to finite number — absolute measurements
    (seconds, users/s, …).
``speedups`` (optional)
    A flat mapping of comparison name to finite number — relative ratios.
``equal`` (optional)
    Whether every compared implementation produced identical outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

SCHEMA_VERSION = 1

OUTPUT_DIR = Path(__file__).resolve().parent / "output"


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _is_finite_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(float(value))
    )


def validate_payload(payload: Any) -> list[str]:
    """Return every schema violation in ``payload`` (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(payload, Mapping):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA_VERSION:
        errors.append(f"schema must be {SCHEMA_VERSION}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("bench"), str) or not payload.get("bench"):
        errors.append(f"bench must be a non-empty string, got {payload.get('bench')!r}")
    config = payload.get("config")
    if not isinstance(config, Mapping):
        errors.append(f"config must be an object, got {type(config).__name__}")
    else:
        for key, value in config.items():
            if not _is_scalar(value):
                errors.append(f"config[{key!r}] must be a JSON scalar, got {type(value).__name__}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, Mapping) or not metrics:
        errors.append("metrics must be a non-empty object")
    else:
        for key, value in metrics.items():
            if not _is_finite_number(value):
                errors.append(f"metrics[{key!r}] must be a finite number, got {value!r}")
    if "speedups" in payload:
        speedups = payload["speedups"]
        if not isinstance(speedups, Mapping):
            errors.append("speedups must be an object when present")
        else:
            for key, value in speedups.items():
                if not _is_finite_number(value):
                    errors.append(f"speedups[{key!r}] must be a finite number, got {value!r}")
    if "equal" in payload and not isinstance(payload["equal"], bool):
        errors.append(f"equal must be a boolean when present, got {payload['equal']!r}")
    unknown = set(payload) - {"schema", "bench", "config", "metrics", "speedups", "equal"}
    if unknown:
        errors.append(f"unknown top-level key(s): {sorted(unknown)}")
    return errors


def write_bench_json(
    name: str,
    *,
    config: Mapping[str, Any],
    metrics: Mapping[str, float],
    speedups: Mapping[str, float] | None = None,
    equal: bool | None = None,
    output_dir: Path | None = None,
) -> Path:
    """Write (and validate) one ``BENCH_<name>.json`` document."""
    payload: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "bench": name,
        "config": dict(config),
        "metrics": {key: float(value) for key, value in metrics.items()},
    }
    if speedups is not None:
        payload["speedups"] = {key: float(value) for key, value in speedups.items()}
    if equal is not None:
        payload["equal"] = bool(equal)
    errors = validate_payload(payload)
    if errors:
        raise ValueError(f"invalid benchmark payload for {name!r}: {errors}")
    directory = OUTPUT_DIR if output_dir is None else output_dir
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_bench_text(name: str, text: str) -> Path:
    """Write one bench's human-readable report, ``bench_<name>.txt``.

    Like :func:`write_bench_json`, it writes into :data:`OUTPUT_DIR` as that
    attribute reads at call time, so ``run_all.py --smoke`` can point every
    bench at a scratch directory.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"bench_{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def load_and_validate(path: Path) -> dict[str, Any]:
    """Load one ``BENCH_*.json`` file, raising ``ValueError`` on violations."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = validate_payload(payload)
    if errors:
        raise ValueError(f"{path} violates the benchmark schema: {errors}")
    return payload
