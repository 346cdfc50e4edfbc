"""Response encoding for the HTTP service behind ``repro serve``.

The service itself lives in :mod:`repro.serving.async_service`; this module
holds the payload builders and the canonical JSON encoding its responses
are made of.  They are kept apart so that code checking served bytes — the
tests and the serving benchmarks — can build the expected response for a
store lookup without importing the server:
``recommend_body(recommend_payload(store, user, n, *store.lookup(user, n)))``
is exactly the body ``GET /recommend?user=U&n=N`` answers with.

``/recommend`` payloads are ``{"user", "n", "items", "scores", "source"}``:
``items`` is trimmed of ``-1`` padding, ``scores`` holds the artifact's
diagnostic scores (or ``null`` when the row came from live fallback) and
``source`` is ``"artifact"`` or ``"live"``.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import Any

import numpy as np

from repro.serving.store import RecommendationStore


def _jsonable_row(items: np.ndarray, scores: np.ndarray | None) -> tuple[list[int], list[float | None] | None]:
    """Trim ``-1`` padding and convert non-finite scores to ``None``.

    Runs on every ``/recommend`` response.  One bulk
    ``tolist()`` per array converts to Python scalars, then plain-``int``
    comparisons trim the padding: for the short rows served here that beats
    both per-element numpy scalar iteration and mask/fancy-index chains,
    whose fixed per-call overhead exceeds the whole row.
    """
    item_row = items.tolist()
    out_items = [item for item in item_row if item >= 0]
    if scores is None:
        return out_items, None
    out_scores = [
        score if isfinite(score) else None
        for item, score in zip(item_row, scores.tolist())
        if item >= 0
    ]
    return out_items, out_scores


def json_body(payload: dict[str, Any]) -> bytes:
    """The canonical JSON response encoding of every JSON endpoint."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def recommend_body(payload: dict[str, Any]) -> bytes:
    """:func:`json_body` specialised to the fixed ``/recommend`` payload.

    Byte-for-byte identical to ``json_body(payload)`` for every payload
    :func:`recommend_payload` can build — the keys are already in sorted
    order, the values are ints, finite floats, ``None`` and clean strings,
    and ``repr`` of a finite float is exactly what ``json.dumps`` emits.
    Asserted against ``json_body`` in the test suite; runs for every
    ``/recommend`` response.
    """
    scores = payload["scores"]
    if scores is None:
        scores_text = "null"
    else:
        scores_text = f"[{', '.join('null' if s is None else repr(s) for s in scores)}]"
    return (
        f'{{"items": [{", ".join(map(str, payload["items"]))}], '
        f'"n": {payload["n"]}, "scores": {scores_text}, '
        f'"source": "{payload["source"]}", "user": {payload["user"]}}}\n'
    ).encode("utf-8")


def recommend_payload(
    store: RecommendationStore,
    user: int,
    n: int | None,
    items: np.ndarray,
    scores: np.ndarray | None,
    source: str,
) -> dict[str, Any]:
    """Build one ``/recommend`` response payload from a store lookup row."""
    out_items, out_scores = _jsonable_row(items, scores)
    return {
        "user": user,
        "n": store.n if n is None else n,
        "items": out_items,
        "scores": out_scores,
        "source": source,
    }


def healthz_payload(
    store: RecommendationStore,
    *,
    uptime_seconds: float,
    reloads: int,
    reload_failures: int,
) -> dict[str, Any]:
    """Build the ``/healthz`` payload fields that describe the store."""
    return {
        "status": "ok",
        "artifact": str(store.artifact_dir),
        "algorithm": store.manifest.get("algorithm"),
        "n": store.n,
        "revision": store.revision,
        "coverage": store.coverage,
        "n_users_total": store.n_users_total,
        "fallback": store.has_fallback,
        "uptime_seconds": uptime_seconds,
        "reloads": reloads,
        "reload_failures": reload_failures,
        "served": dict(store.stats),
    }
