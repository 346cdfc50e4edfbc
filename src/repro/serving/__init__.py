"""Serving layer: compiled top-N artifacts and an HTTP lookup service.

The paper's framework is an *offline precompute* design — top-N lists are
generated in batch, then looked up per user.  PRs 1–3 built the offline
half (batched scoring, persistable pipelines, parallel fan-out); this
package is the online half:

:mod:`repro.serving.artifact`
    :func:`compile_artifact` runs a saved pipeline's batched
    ``recommend_all`` once — fanned out over :mod:`repro.parallel` — and
    writes memory-mappable ``.npy`` shards of item ids + scores plus a
    ``manifest.json`` (spec hash, N, shard layout, numpy/scipy line).
:mod:`repro.serving.update`
    Delta-only recompilation (``repro compile --update``):
    :func:`refit_pipeline` absorbs a split extension via the recommenders'
    exact delta refits (full-fit fallback), and
    :func:`compile_artifact_update` byte-compares fresh rows against the
    live artifact and rewrites only the shards that changed, bumping the
    manifest ``revision`` for warm reloads.
:mod:`repro.serving.store`
    :class:`RecommendationStore` memory-maps the shards and answers
    ``top_n(users, n)`` with O(1) row reads, falling back to a live
    :class:`~repro.pipeline.Pipeline` (LRU-cached ``recommend_all`` tables)
    for users or ``n`` the artifact does not cover.
:mod:`repro.serving.async_service`
    The HTTP service behind ``repro serve``: an asyncio keep-alive server
    exposing ``GET /recommend``, ``POST /recommend/batch``,
    ``GET /healthz``, ``GET /manifest`` and ``GET /metrics``.  It
    coalesces in-flight ``/recommend`` requests into batched store
    lookups, pre-forks ``--workers K`` processes sharing one listening
    socket with one mmap store handle each, and warm-reloads on
    ``SIGHUP``.
:mod:`repro.serving.service`
    The response payload builders and their canonical JSON encoding.

Every lookup — artifact row or fallback — returns exactly the bytes
``Pipeline.recommend_all`` produces for the same persisted pipeline, and
the service answers with exactly the bytes the payload builders produce
for that lookup (asserted in ``tests/test_serving.py`` /
``tests/test_serving_async.py`` for every registered recommender family
and for GANC).

Each public name is imported from its submodule on first access, so a
process that compiles or updates an artifact never imports the asyncio tier.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule it is imported from on first access.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ARTIFACT_FORMAT_VERSION",
            "DEFAULT_SHARD_SIZE",
            "compile_artifact",
            "load_manifest",
            "serving_environment",
            "spec_hash",
        ),
        "repro.serving.artifact",
    ),
    **dict.fromkeys(
        (
            "RefitReport",
            "UpdateReport",
            "compile_artifact_update",
            "ingest_and_update",
            "refit_pipeline",
        ),
        "repro.serving.update",
    ),
    **dict.fromkeys(("RecommendationStore", "open_store"), "repro.serving.store"),
    **dict.fromkeys(
        (
            "DEFAULT_COALESCE_MAX",
            "DEFAULT_COALESCE_WINDOW_US",
            "AsyncRecommendationService",
            "AsyncServiceHandle",
            "CoalescingBatcher",
            "build_async_service",
            "serve_async",
            "start_async_in_thread",
        ),
        "repro.serving.async_service",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
