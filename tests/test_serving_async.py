"""Async serving tier: coalescing, batch endpoint, workers, byte-identity.

The contract under test: for every request, ``repro serve`` answers with
the bytes the threading ``http.server`` tier (its former default) sent — a
success body is what the payload helpers build from the store's own lookup
row, and an error is the pinned ``(status, body)`` of
:data:`ERROR_RESPONSES` — for every registered recommender family and for
GANC pipelines, while routing covered lookups through the coalesced
batched store path.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.pipeline import (
    ComponentSpec,
    EvaluationSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
)
from repro.registry import available
from repro.serving import (
    CoalescingBatcher,
    RecommendationStore,
    build_async_service,
    compile_artifact,
    start_async_in_thread,
)
from repro.serving.service import json_body, recommend_body, recommend_payload

N = 5


def _bare_spec(name: str, **overrides) -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec(name),
        evaluation=EvaluationSpec(n=N),
        seed=0,
        **overrides,
    )


def _ganc_spec() -> PipelineSpec:
    return PipelineSpec(
        recommender=ComponentSpec("pop"),
        preference=ComponentSpec("thetag"),
        coverage=ComponentSpec("dyn"),
        ganc=GANCSpec(sample_size=16, optimizer="oslg"),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )


@pytest.fixture(scope="module")
def pop_pipeline_dir(tmp_path_factory, small_split) -> Path:
    """A saved bare-Pop pipeline shared by the async-tier tests."""
    directory = tmp_path_factory.mktemp("pipeline-pop-async")
    Pipeline(_bare_spec("pop")).fit(small_split).save(directory)
    return directory


@pytest.fixture(scope="module")
def pop_artifact_dir(tmp_path_factory, pop_pipeline_dir) -> Path:
    """A compiled artifact of the shared Pop pipeline (small shards)."""
    directory = tmp_path_factory.mktemp("artifact-pop-async")
    compile_artifact(pop_pipeline_dir, directory, shard_size=16)
    return directory


@pytest.fixture()
def async_handle(pop_pipeline_dir, pop_artifact_dir):
    """A running async service on an ephemeral port, torn down after the test."""
    service = build_async_service(pop_artifact_dir, pipeline=pop_pipeline_dir)
    handle = start_async_in_thread(service)
    try:
        yield handle
    finally:
        handle.stop()


def _request(
    address: tuple[str, int],
    path: str,
    *,
    method: str = "GET",
    body: bytes | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[int, bytes]:
    """One request over a fresh connection; returns (status, body bytes)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


#: Successful requests every byte sweep checks, as ``(path, user, n)``:
#: covered lookups, default n, prefix n, live fallback n and an escaped query.
def _success_requests(n_users: int) -> list[tuple[str, int, int | None]]:
    return [
        (f"/recommend?user=0&n={N}", 0, N),
        (f"/recommend?user=7&n={N}", 7, N),
        (f"/recommend?user={n_users - 1}&n={N}", n_users - 1, N),
        ("/recommend?user=3", 3, None),              # n defaults to the artifact's n
        ("/recommend?user=4&n=3", 4, 3),             # prefix slice when consistent, else live
        (f"/recommend?user=2&n={N + 2}", 2, N + 2),  # beyond the compiled n -> live fallback
        ("/recommend?user=%30&n=5", 0, 5),           # percent-escaped: parse_qs fallback path
    ]


#: ``(status, body)`` of every error path on ``small_split`` (80 users,
#: 150 items), recorded from the threading ``http.server`` tier that
#: ``repro serve`` ran before the asyncio service became its only tier.
#: The bodies were the same for every registered family and for GANC.
ERROR_RESPONSES: dict[str, tuple[int, bytes]] = {
    "/recommend": (400, b'{"error": "missing required query parameter \'user\'"}\n'),
    "/recommend?user=abc": (400, b'{"error": "\'user\' and \'n\' must be integers"}\n'),
    "/recommend?user=0&n=zz": (400, b'{"error": "\'user\' and \'n\' must be integers"}\n'),
    "/recommend?user=999999": (
        404, b'{"error": "user index out of range: got 999999, valid range is [0, 80)"}\n'
    ),
    "/recommend?user=-1": (
        404, b'{"error": "user index out of range: got -1, valid range is [0, 80)"}\n'
    ),
    "/recommend?user=0&n=0": (400, b'{"error": "n must be >= 1, got 0"}\n'),
    "/nope": (404, b'{"error": "unknown path \'/nope\'"}\n'),
    "/recommend?user=NaN": (400, b'{"error": "\'user\' and \'n\' must be integers"}\n'),
    "/recommend?user=1.5": (400, b'{"error": "\'user\' and \'n\' must be integers"}\n'),
    "/recommend?user=1e3": (400, b'{"error": "\'user\' and \'n\' must be integers"}\n'),
    "/recommend?user=": (400, b'{"error": "missing required query parameter \'user\'"}\n'),
    "/recommend?user=0&n=151": (
        400, b'{"error": "n=151 exceeds the compiled item universe (150 items)"}\n'
    ),
    "/recommend?user=0&n=-3": (400, b'{"error": "n must be >= 1, got -3"}\n'),
}


def _assert_served_bytes(artifact_dir, pipeline_dir, n_users: int, label: str) -> None:
    """Serve the artifact; every success and error response must be exact.

    Success bodies are checked against the payload helpers applied to the
    store's own lookup — exactly what the ``http.server`` tier's handler
    sent — and errors against :data:`ERROR_RESPONSES`.
    """
    store = RecommendationStore(artifact_dir, pipeline=pipeline_dir)
    handle = start_async_in_thread(build_async_service(artifact_dir, pipeline=pipeline_dir))
    try:
        for path, user, n in _success_requests(n_users):
            expected = recommend_body(recommend_payload(store, user, n, *store.lookup(user, n)))
            assert _request(handle.address, path) == (200, expected), (label, path)
        for path, expected in ERROR_RESPONSES.items():
            assert _request(handle.address, path) == expected, (label, path)
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# Byte-identity: every recommender family + GANC
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(available("recommender")))
def test_async_tier_bytes_match_legacy_for_every_family(name, small_split, tmp_path):
    """Every response is the byte string the ``http.server`` tier sent."""
    pipeline = Pipeline(_bare_spec(name)).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=13)
    _assert_served_bytes(tmp_path / "art", tmp_path / "pipe", small_split.train.n_users, name)


def test_async_tier_bytes_match_legacy_for_ganc(small_split, tmp_path):
    """Every response is the byte string the ``http.server`` tier sent."""
    pipeline = Pipeline(_ganc_spec()).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=9)
    # GANC artifacts are not prefix-consistent, so n=3 exercises the
    # live-fallback route through the async tier's individual path.
    _assert_served_bytes(tmp_path / "art", tmp_path / "pipe", small_split.train.n_users, "ganc")


def test_async_responses_match_store_computed_bytes(small_split, async_handle, pop_artifact_dir):
    """The served bytes are exactly what the payload helpers produce."""
    store = RecommendationStore(pop_artifact_dir)
    for user in (0, 3, small_split.train.n_users - 1):
        status, body = _request(async_handle.address, f"/recommend?user={user}&n={N}")
        assert status == 200
        expected = recommend_body(
            recommend_payload(store, user, N, *store.lookup(user, N))
        )
        assert body == expected


# --------------------------------------------------------------------------- #
# POST /recommend/batch
# --------------------------------------------------------------------------- #
def test_batch_endpoint_matches_single_gets(async_handle):
    users = [0, 5, 11, 2]
    status, body = _request(
        async_handle.address,
        "/recommend/batch",
        method="POST",
        body=json.dumps({"users": users, "n": N}).encode(),
        headers={"Content-Type": "application/json"},
    )
    assert status == 200
    payload = json.loads(body)
    assert payload["count"] == len(users)
    for user, result in zip(users, payload["results"]):
        single_status, single_body = _request(
            async_handle.address, f"/recommend?user={user}&n={N}"
        )
        assert single_status == 200
        # Each batch element is the same payload a single GET returns,
        # re-encodable to the same bytes.
        assert json.loads(single_body) == result
        assert json_body(result) == single_body


def test_batch_endpoint_default_n_and_fallback(async_handle):
    status, body = _request(
        async_handle.address,
        "/recommend/batch",
        method="POST",
        body=json.dumps({"users": [1, 4]}).encode(),
    )
    assert status == 200
    assert all(r["n"] == N for r in json.loads(body)["results"])
    status, body = _request(
        async_handle.address,
        "/recommend/batch",
        method="POST",
        body=json.dumps({"users": [1], "n": N + 2}).encode(),
    )
    assert status == 200
    (result,) = json.loads(body)["results"]
    assert result["source"] == "live" and result["scores"] is None


def test_batch_endpoint_validation_errors(async_handle):
    cases = [
        (b"{not json", 400, "not valid JSON"),
        (b"[1, 2]", 400, "JSON object"),
        (json.dumps({"users": [0], "extra": 1}).encode(), 400, "unknown key"),
        (json.dumps({"users": []}).encode(), 400, "non-empty array"),
        (json.dumps({"users": [0, "x"]}).encode(), 400, "array of integers"),
        (json.dumps({"users": [True]}).encode(), 400, "array of integers"),
        (json.dumps({"n": N}).encode(), 400, "non-empty array"),
        (json.dumps({"users": [0], "n": "5"}).encode(), 400, "'n' must be an integer"),
    ]
    for body, status, fragment in cases:
        got_status, got_body = _request(
            async_handle.address, "/recommend/batch", method="POST", body=body
        )
        assert got_status == status, body
        assert fragment in json.loads(got_body)["error"], body


def test_method_mismatches_are_405(async_handle):
    status, body = _request(async_handle.address, "/recommend/batch", method="GET")
    assert status == 405 and "not allowed" in json.loads(body)["error"]
    status, body = _request(
        async_handle.address, "/recommend?user=0", method="POST", body=b"{}"
    )
    assert status == 405 and "not allowed" in json.loads(body)["error"]


def test_post_without_content_length_is_411(async_handle):
    import socket as socket_module

    sock = socket_module.create_connection(async_handle.address, timeout=30)
    try:
        sock.sendall(b"POST /recommend/batch HTTP/1.1\r\nHost: t\r\n\r\n")
        response = sock.recv(65536)
    finally:
        sock.close()
    assert b"411" in response.split(b"\r\n", 1)[0]


# --------------------------------------------------------------------------- #
# The coalescing batcher itself
# --------------------------------------------------------------------------- #
def test_coalescing_batcher_flushes_at_max_and_window(pop_artifact_dir):
    import asyncio

    store = RecommendationStore(pop_artifact_dir)
    stats = {"batches": 0, "batched_rows": 0, "largest_batch": 0, "single_rows": 0}

    async def scenario() -> None:
        batcher = CoalescingBatcher(store, stats, max_batch=4, window_us=20_000)
        # Four submissions hit max_batch: flushed synchronously as one call.
        futures = [batcher.submit(user, N) for user in (0, 1, 2, 3)]
        assert stats["batches"] == 1 and stats["batched_rows"] == 4
        assert stats["largest_batch"] == 4
        for user, future in zip((0, 1, 2, 3), futures):
            items, scores, source = await future
            expected_items, expected_scores, expected_source = store.lookup(user, N)
            np.testing.assert_array_equal(items, expected_items)
            np.testing.assert_array_equal(scores, expected_scores)
            assert source == expected_source == "artifact"
        # Two submissions stay below max_batch: the window timer flushes them.
        futures = [batcher.submit(user, N) for user in (4, 5)]
        assert stats["batches"] == 1  # not yet
        await asyncio.wait_for(asyncio.gather(*futures), timeout=10)
        assert stats["batches"] == 2 and stats["batched_rows"] == 6

    asyncio.run(scenario())


def test_coalescing_batcher_window_zero_flushes_next_tick(pop_artifact_dir):
    import asyncio

    store = RecommendationStore(pop_artifact_dir)
    stats = {"batches": 0, "batched_rows": 0, "largest_batch": 0, "single_rows": 0}

    async def scenario() -> None:
        batcher = CoalescingBatcher(store, stats, max_batch=64, window_us=0)
        futures = [batcher.submit(user, N) for user in (0, 1, 2)]
        await asyncio.wait_for(asyncio.gather(*futures), timeout=10)
        # All three arrived in the same loop iteration -> one store call.
        assert stats["batches"] == 1 and stats["largest_batch"] == 3

    asyncio.run(scenario())


def test_coalescing_batcher_groups_by_n(pop_artifact_dir):
    import asyncio

    store = RecommendationStore(pop_artifact_dir)
    stats = {"batches": 0, "batched_rows": 0, "largest_batch": 0, "single_rows": 0}

    async def scenario() -> None:
        batcher = CoalescingBatcher(store, stats, max_batch=4, window_us=0)
        futures = [
            batcher.submit(0, N), batcher.submit(1, 3),
            batcher.submit(2, N), batcher.submit(3, 3),
        ]
        results = await asyncio.wait_for(asyncio.gather(*futures), timeout=10)
        # One flush of 4 queued lookups, dispatched as two store calls
        # (one per distinct n).
        assert stats["batches"] == 2 and stats["batched_rows"] == 4
        assert stats["largest_batch"] == 4
        for (user, n), (items, _, _) in zip(((0, N), (1, 3), (2, N), (3, 3)), results):
            np.testing.assert_array_equal(items, store.lookup(user, n)[0])

    asyncio.run(scenario())


def test_coalescing_batcher_rejects_bad_knobs(pop_artifact_dir):
    store = RecommendationStore(pop_artifact_dir)
    with pytest.raises(ConfigurationError, match="coalesce_max"):
        CoalescingBatcher(store, {}, max_batch=0)
    with pytest.raises(ConfigurationError, match="coalesce_window_us"):
        CoalescingBatcher(store, {}, window_us=-1)


# --------------------------------------------------------------------------- #
# Concurrency: hammering clients, warm reload under load
# --------------------------------------------------------------------------- #
def _expected_bodies(store: RecommendationStore, plan) -> list[bytes]:
    return [
        recommend_body(recommend_payload(store, user, n, *store.lookup(user, n)))
        for user, n in plan
    ]


def _hammer(address, plan, bodies: list, errors: list, index: int) -> None:
    try:
        conn = http.client.HTTPConnection(*address, timeout=60)
        collected = []
        for user, n in plan:
            suffix = "" if n is None else f"&n={n}"
            conn.request("GET", f"/recommend?user={user}{suffix}")
            response = conn.getresponse()
            assert response.status == 200
            collected.append(response.read())
        conn.close()
        bodies[index] = collected
    except Exception as exc:  # noqa: BLE001 - surfaced by the assertion below
        errors.append((index, exc))


def test_concurrent_clients_get_byte_identical_responses(
    small_split, pop_pipeline_dir, pop_artifact_dir, async_handle
):
    """8 concurrent keep-alive clients, mixed user/n: exact bytes."""
    n_users = small_split.train.n_users
    rng = np.random.default_rng(3)
    plans = []
    for _ in range(8):
        users = rng.integers(0, n_users, size=30)
        ns = rng.choice([N, 3, None, N + 2], size=30, p=[0.6, 0.2, 0.1, 0.1])
        plans.append([(int(u), n if n is None else int(n)) for u, n in zip(users, ns)])
    reference = RecommendationStore(pop_artifact_dir, pipeline=pop_pipeline_dir)
    expected = [_expected_bodies(reference, plan) for plan in plans]

    bodies: list = [None] * len(plans)
    errors: list = []
    threads = [
        threading.Thread(target=_hammer, args=(async_handle.address, plan, bodies, errors, i))
        for i, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert bodies == expected


def test_warm_reload_under_load_never_drops_a_request(
    small_split, pop_pipeline_dir, pop_artifact_dir, async_handle
):
    """Responses stay byte-correct while SIGHUP-style reloads swap state."""
    reference = RecommendationStore(pop_artifact_dir, pipeline=pop_pipeline_dir)
    plan = [(user % small_split.train.n_users, N) for user in range(120)]
    expected = _expected_bodies(reference, plan)
    bodies: list = [None]
    errors: list = []
    thread = threading.Thread(
        target=_hammer, args=(async_handle.address, plan, bodies, errors, 0)
    )
    thread.start()
    reloads = 0
    while thread.is_alive() and reloads < 5:
        async_handle.reload()
        reloads += 1
        time.sleep(0.02)
    thread.join(timeout=120)
    assert not errors, errors
    assert bodies[0] == expected
    status, body = _request(async_handle.address, "/healthz")
    assert status == 200
    assert json.loads(body)["reloads"] >= 1


def test_async_reload_failure_increments_counter(small_split, tmp_path, caplog):
    """A broken in-place recompile must not kill serving; logged, /healthz counts it."""
    pipeline = Pipeline(_bare_spec("pop")).fit(small_split)
    pipeline.save(tmp_path / "pipe")
    compile_artifact(tmp_path / "pipe", tmp_path / "art", shard_size=16)
    service = build_async_service(tmp_path / "art", pipeline=tmp_path / "pipe")
    handle = start_async_in_thread(service)
    try:
        _, before = _request(handle.address, f"/recommend?user=1&n={N}")
        # Recompile from a different spec: reload must reject it and keep serving.
        other = Pipeline(_bare_spec("rand")).fit(small_split)
        compile_artifact(other, tmp_path / "art", shard_size=16)
        with caplog.at_level(logging.ERROR, logger="repro.serving"):
            handle.reload()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = json.loads(_request(handle.address, "/healthz")[1])
                if health["reload_failures"]:
                    break
                time.sleep(0.01)
        assert health["reload_failures"] == 1 and health["reloads"] == 0
        assert any("reload failed" in record.message for record in caplog.records)
        _, after = _request(handle.address, f"/recommend?user=1&n={N}")
        assert after == before
    finally:
        handle.stop()


# --------------------------------------------------------------------------- #
# /healthz, keep-alive, pre-fork workers
# --------------------------------------------------------------------------- #
def test_async_healthz_reports_tier_and_coalescing(async_handle):
    for _ in range(3):
        _request(async_handle.address, f"/recommend?user=0&n={N}")
    status, body = _request(async_handle.address, "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["tier"] == "async"
    assert health["reload_failures"] == 0
    assert set(health["coalescing"]) == {
        "batches", "batched_rows", "largest_batch", "single_rows",
    }
    assert health["coalescing"]["batched_rows"] >= 3


def test_async_keep_alive_reuses_one_connection(async_handle):
    conn = http.client.HTTPConnection(*async_handle.address, timeout=30)
    try:
        conn.request("GET", f"/recommend?user=0&n={N}")
        first = conn.getresponse()
        first.read()
        sock = conn.sock
        assert sock is not None
        conn.request("GET", "/healthz")
        second = conn.getresponse()
        second.read()
        assert conn.sock is sock  # same TCP connection served both
    finally:
        conn.close()


def test_prefork_workers_serve_and_forward_signals(
    small_split, pop_pipeline_dir, pop_artifact_dir
):
    """--workers 2 shares one socket; SIGHUP warm-swaps; SIGTERM shuts down."""
    if not hasattr(os, "fork"):
        pytest.skip("pre-fork requires os.fork")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--artifact", str(pop_artifact_dir),
            "--pipeline", str(pop_pipeline_dir),
            "--async", "--workers", "2", "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, banner
        address = (match.group(1), int(match.group(2)))
        store = RecommendationStore(pop_artifact_dir)
        expected = recommend_body(recommend_payload(store, 0, N, *store.lookup(0, N)))
        deadline = time.monotonic() + 30
        while True:  # workers may still be forking; retry until the deadline
            try:
                status, body = _request(address, f"/recommend?user=0&n={N}")
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        assert status == 200 and body == expected
        proc.send_signal(signal.SIGHUP)  # must warm-swap, not kill
        time.sleep(0.2)
        status, body = _request(address, f"/recommend?user=0&n={N}")
        assert status == 200 and body == expected
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


# --------------------------------------------------------------------------- #
# Fast-path helpers stay equivalent to their general fallbacks
# --------------------------------------------------------------------------- #
def test_simple_query_parser_agrees_with_parse_qs(async_handle):
    """Escaped queries take the parse_qs fallback and answer identically."""
    fast_status, fast_body = _request(async_handle.address, f"/recommend?user=3&n={N}")
    slow_status, slow_body = _request(async_handle.address, f"/recommend?user=%33&n={N}")
    assert (fast_status, fast_body) == (slow_status, slow_body) == (200, fast_body)

    from repro.serving.async_service import _simple_query_params

    assert _simple_query_params("user=3&n=2") == ("3", "2")
    assert _simple_query_params("user=3") == ("3", None)
    assert _simple_query_params("") == (None, None)
    # Anything ambiguous defers to parse_qs: escapes, blanks, repeats, extras.
    for query in ("user=%33", "user=3&n=", "user=3&user=4", "user=3&x=1", "user"):
        assert _simple_query_params(query) is None
