"""The HTTP service behind ``repro serve``: asyncio with request coalescing.

A dependency-free (stdlib ``asyncio``) keep-alive HTTP/1.1 server over one
:class:`~repro.serving.store.RecommendationStore`.  Answering every request
with its own single-user store lookup would leave the batched lookup path —
~10x cheaper per row than single lookups in ``BENCH_serving.json`` — unused
under concurrency; this service harvests it:

Request coalescing
    In-flight ``GET /recommend`` requests whose rows the memory-mapped
    artifact covers are queued in a :class:`CoalescingBatcher` and flushed
    as one ``store.lookup_rows(users, n)`` call — at ``coalesce_max``
    queued lookups (default 64) or after ``coalesce_window_us``
    microseconds (default 500; ``0`` flushes on the next event-loop tick),
    whichever comes first.  Requests the artifact cannot answer directly
    (uncovered users, an ``n`` needing live fallback, out-of-range values)
    resolve individually in a thread so one bad or slow request never
    stalls a batch.

Explicit batching
    ``POST /recommend/batch`` with ``{"users": [...], "n": N}`` answers a
    multi-user query through the same batched path in one round trip; each
    element of ``results`` is byte-identical to the corresponding single
    ``GET /recommend`` response payload.

Pre-fork workers
    ``serve_async(..., workers=K)`` binds one listening socket, forks ``K``
    worker processes that share it (the kernel load-balances accepts), and
    gives every worker its *own* event loop and its own
    :class:`~repro.serving.store.RecommendationStore` mmap handles.  The
    parent forwards ``SIGHUP`` (warm swap in every worker) and
    ``SIGTERM``/``SIGINT`` (shutdown).

Responses are built by the payload helpers in :mod:`repro.serving.service`
(:func:`~repro.serving.service.json_body` and friends), so a ``/recommend``
body is exactly the bytes those helpers produce for the store's lookup row,
whichever path — coalesced, individual or batch — served it.  ``GET
/healthz``, ``GET /manifest`` and ``GET /metrics`` report liveness, the
artifact manifest and Prometheus counters; ``SIGHUP`` re-reads the manifest
and drops shard maps and fallback caches (:meth:`RecommendationStore.reload`)
without restarting the process, so an artifact recompiled in place starts
serving immediately.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import socket
import threading
import time
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.exceptions import ConfigurationError, ReproError, ServingError
from repro.pipeline.pipeline import Pipeline
from repro.serving.metrics import METRICS_CONTENT_TYPE, ServingMetrics
from repro.serving.service import healthz_payload, json_body, recommend_body, recommend_payload
from repro.serving.store import RecommendationStore

logger = logging.getLogger("repro.serving")

#: Flush a micro-batch once this many lookups are queued.
DEFAULT_COALESCE_MAX = 64
#: ... or once the oldest queued lookup has waited this long (microseconds).
DEFAULT_COALESCE_WINDOW_US = 500

#: Upper bound on a request head and on a POST body (separately).
MAX_REQUEST_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HTTPError(Exception):
    """Internal: an HTTP error response with a status code and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _TextPayload:
    """A non-JSON response body (the ``/metrics`` exposition text)."""

    __slots__ = ("body",)

    def __init__(self, body: bytes) -> None:
        self.body = body


class CoalescingBatcher:
    """Coalesces concurrent artifact lookups into batched store calls.

    Lookups are grouped by their resolved ``n`` (one store call serves one
    ``n``) and flushed when ``max_batch`` lookups are queued or after
    ``window_us`` microseconds, whichever comes first; ``window_us=0``
    flushes on the next event-loop tick, which coalesces exactly the
    requests that arrived in the same loop iteration with no added latency.

    Only lookups that :meth:`RecommendationStore.covers` approved are
    submitted, so a flush is a pure memory-mapped read.  If a warm swap
    shrinks the artifact between enqueue and flush, the affected batch is
    re-resolved request by request in worker threads — a live-fallback
    build must never run on the event loop.
    """

    def __init__(
        self,
        store: RecommendationStore,
        stats: dict[str, int],
        *,
        max_batch: int = DEFAULT_COALESCE_MAX,
        window_us: int = DEFAULT_COALESCE_WINDOW_US,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"coalesce_max must be >= 1, got {max_batch}")
        if window_us < 0:
            raise ConfigurationError(f"coalesce_window_us must be >= 0, got {window_us}")
        self._store = store
        self._max_batch = int(max_batch)
        self._window_s = int(window_us) / 1e6
        self.stats = stats
        self._pending: dict[int, list[tuple[int, asyncio.Future]]] = {}
        self._count = 0
        self._handle: asyncio.Handle | None = None
        #: Strong refs to in-flight individual re-resolutions (task GC guard).
        self._tasks: set[asyncio.Task] = set()

    def submit(self, user: int, n: int) -> "asyncio.Future[tuple]":
        """Queue one covered ``(user, n)`` lookup; resolves to a lookup row.

        The returned future resolves to ``(items, scores, source)`` exactly
        as :meth:`RecommendationStore.lookup` would return for the single
        user.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.setdefault(n, []).append((user, future))
        self._count += 1
        if self._count >= self._max_batch:
            if self._handle is not None:
                self._handle.cancel()
                self._handle = None
            self.flush()
        elif self._handle is None:
            if self._window_s <= 0:
                self._handle = loop.call_soon(self._scheduled_flush)
            else:
                self._handle = loop.call_later(self._window_s, self._scheduled_flush)
        return future

    def _scheduled_flush(self) -> None:
        self._handle = None
        self.flush()

    def flush(self) -> None:
        """Dispatch every queued lookup now (one store call per ``n``)."""
        pending, self._pending = self._pending, {}
        count, self._count = self._count, 0
        if not pending:
            return
        self.stats["largest_batch"] = max(self.stats["largest_batch"], count)
        for n, batch in pending.items():
            self._dispatch(n, batch)

    def _dispatch(self, n: int, batch: list[tuple[int, asyncio.Future]]) -> None:
        users = np.fromiter((user for user, _ in batch), dtype=np.int64, count=len(batch))
        store = self._store
        if store.covers(users, n):
            try:
                items, scores, covered = store.lookup_rows(users, n)
            except ReproError:
                pass  # fall through to individual resolution below
            else:
                self.stats["batches"] += 1
                self.stats["batched_rows"] += len(batch)
                for row, (_, future) in enumerate(batch):
                    if future.done():
                        continue
                    row_scores = scores[row] if scores is not None and covered[row] else None
                    source = "artifact" if covered[row] else "live"
                    future.set_result((items[row], row_scores, source))
                return
        # The artifact no longer covers this batch (a warm swap happened
        # between enqueue and flush): resolve each row individually off the
        # loop so a fallback build cannot block every other response.
        loop = asyncio.get_running_loop()
        for user, future in batch:
            task = loop.create_task(self._resolve_single(user, n, future))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _resolve_single(self, user: int, n: int, future: asyncio.Future) -> None:
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(None, self._store.lookup, user, n)
        except Exception as exc:  # noqa: BLE001 - mapped to an HTTP status upstream
            if not future.done():
                future.set_exception(exc)
        else:
            if not future.done():
                future.set_result(result)


class AsyncRecommendationService:
    """Asyncio HTTP service over one :class:`RecommendationStore`.

    One instance owns one store handle, one coalescing batcher and the
    serving counters surfaced by ``/healthz``.  :meth:`start` opens the
    listening socket on the running event loop; under pre-fork each worker
    process builds its own instance.
    """

    def __init__(
        self,
        store: RecommendationStore,
        *,
        coalesce_max: int = DEFAULT_COALESCE_MAX,
        coalesce_window_us: int = DEFAULT_COALESCE_WINDOW_US,
    ) -> None:
        self.store = store
        self.started = time.monotonic()
        self.reloads = 0
        self.reload_failures = 0
        #: Coalescing counters: store calls, rows through them, the largest
        #: flushed batch, and rows that took the individual path.
        self.coalescing: dict[str, int] = {
            "batches": 0, "batched_rows": 0, "largest_batch": 0, "single_rows": 0,
        }
        self.metrics = ServingMetrics()
        self._batcher = CoalescingBatcher(
            store, self.coalescing, max_batch=coalesce_max, window_us=coalesce_window_us
        )
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        sock: socket.socket | None = None,
    ) -> asyncio.AbstractServer:
        """Open the listening socket and begin accepting connections.

        Pass ``sock`` to serve on an already-bound socket (the pre-fork
        path); otherwise binds ``host:port`` (``port=0`` picks an ephemeral
        port).
        """
        loop = asyncio.get_running_loop()
        if sock is not None:
            server = await loop.create_server(lambda: _HttpProtocol(self), sock=sock)
        else:
            server = await loop.create_server(lambda: _HttpProtocol(self), host=host, port=port)
        self._server = server
        return server

    def reload(self) -> None:
        """Warm-reload the store (the SIGHUP hook); never raises."""
        try:
            self.store.reload()
            self.reloads += 1
        except ReproError as exc:
            # A broken artifact mid-rewrite must not kill a serving
            # process; the old mapped shards keep serving until the next HUP.
            self.reload_failures += 1
            logger.error("reload failed, keeping previous state: %s", exc)

    #: /metrics endpoint labels (anything else counts as "other").
    _ENDPOINTS = {
        "/recommend": "recommend",
        "/recommend/batch": "recommend_batch",
        "/healthz": "healthz",
        "/manifest": "manifest",
        "/metrics": "metrics",
    }

    async def _respond(
        self, method: str, target: str, body: bytes
    ) -> tuple[int, dict[str, Any] | bytes | "_TextPayload"]:
        """Route one request; returns (status, JSON payload or encoded body)."""
        parsed = urlsplit(target)
        path = parsed.path
        start = time.perf_counter()
        try:
            if path == "/recommend":
                self._require_method(method, "GET", path)
                return 200, await self._recommend(parsed.query)
            if path == "/recommend/batch":
                self._require_method(method, "POST", path)
                return 200, await self._recommend_batch(body)
            if path == "/healthz":
                self._require_method(method, "GET", path)
                return 200, self._healthz()
            if path == "/manifest":
                self._require_method(method, "GET", path)
                return 200, self.store.manifest
            if path == "/metrics":
                self._require_method(method, "GET", path)
                return 200, self._metrics()
            raise _HTTPError(404, f"unknown path {path!r}")
        except _HTTPError as exc:
            return exc.status, {"error": exc.message}
        except ServingError as exc:
            return 404, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": str(exc)}
        finally:
            self.metrics.observe(
                self._ENDPOINTS.get(path, "other"), time.perf_counter() - start
            )

    @staticmethod
    def _require_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HTTPError(405, f"method {method} not allowed for {path!r}")

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    async def _lookup_row(self, user: int, n: int | None) -> tuple:
        """One ``(items, scores, source)`` row, coalescing when possible."""
        store = self.store
        if store.covers(user, n):
            resolved = store.n if n is None else int(n)
            return await self._batcher.submit(int(user), resolved)
        # Anything the artifact cannot answer directly — live fallback,
        # out-of-range values that must raise the store's own error —
        # resolves individually in a worker thread.
        self.coalescing["single_rows"] += 1
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.store.lookup, int(user), n)

    async def _recommend(self, query: str) -> bytes:
        simple = _simple_query_params(query)
        if simple is None:  # escaped or ambiguous query: defer to the stdlib parser
            parsed = parse_qs(query)
            user_text = parsed["user"][0] if "user" in parsed else None
            n_text = parsed["n"][0] if "n" in parsed else None
        else:
            user_text, n_text = simple
        if user_text is None:
            raise _HTTPError(400, "missing required query parameter 'user'")
        try:
            user = int(user_text)
            n = int(n_text) if n_text is not None else None
        except ValueError:
            raise _HTTPError(400, "'user' and 'n' must be integers") from None
        items, scores, source = await self._lookup_row(user, n)
        return recommend_body(recommend_payload(self.store, user, n, items, scores, source))

    async def _recommend_batch(self, body: bytes) -> dict[str, Any]:
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HTTPError(400, "request body is not valid JSON") from None
        if not isinstance(parsed, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        unknown = set(parsed) - {"users", "n"}
        if unknown:
            raise _HTTPError(400, f"unknown key(s) in batch request: {sorted(unknown)}")
        users = parsed.get("users")
        if (
            not isinstance(users, list)
            or not users
            or not all(isinstance(u, int) and not isinstance(u, bool) for u in users)
        ):
            raise _HTTPError(400, "'users' must be a non-empty array of integers")
        n = parsed.get("n")
        if n is not None and (isinstance(n, bool) or not isinstance(n, int)):
            raise _HTTPError(400, "'n' must be an integer")

        user_block = np.asarray(users, dtype=np.int64)
        loop = asyncio.get_running_loop()
        items, scores, covered = await loop.run_in_executor(
            None, self.store.lookup_rows, user_block, n
        )
        results = [
            recommend_payload(
                self.store,
                int(user),
                n,
                items[row],
                scores[row] if scores is not None and covered[row] else None,
                "artifact" if covered[row] else "live",
            )
            for row, user in enumerate(users)
        ]
        return {"count": len(results), "results": results}

    def _healthz(self) -> dict[str, Any]:
        payload = healthz_payload(
            self.store,
            uptime_seconds=round(time.monotonic() - self.started, 3),
            reloads=self.reloads,
            reload_failures=self.reload_failures,
        )
        payload["tier"] = "async"
        payload["coalescing"] = dict(self.coalescing)
        return payload

    def _metrics(self) -> "_TextPayload":
        text = self.metrics.render(
            store_stats=self.store.stats,
            reloads=self.reloads,
            reload_failures=self.reload_failures,
            extra_counters={
                f"coalesce_{name}": value for name, value in self.coalescing.items()
            },
        )
        return _TextPayload(text.encode("utf-8"))


class _HttpProtocol(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection, handled straight on the transport.

    A raw :class:`asyncio.Protocol` instead of the streams API: under
    sustained load every request pays the connection machinery, and
    dropping the per-read futures (``readuntil``/``drain``) roughly halves
    the fixed per-request event-loop cost.  ``data_received`` accumulates
    bytes, slices complete requests out of the buffer, and spawns one task
    per request; pipelined responses are written strictly in request order
    (each handler awaits its predecessor before writing).
    """

    def __init__(self, service: AsyncRecommendationService) -> None:
        self.service = service
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: Head of the request whose body is still incomplete.
        self.head: tuple[str, str, str, dict[str, str]] | None = None
        self.body_length = 0
        self.closing = False
        #: The previous request's handler task — or, on the fast path, the
        #: batcher future whose callback writes the response (the
        #: response-ordering chain; both are awaitable).
        self.tail: asyncio.Task | asyncio.Future | None = None
        #: Strong refs to in-flight handler tasks (task GC guard).
        self.tasks: set[asyncio.Task] = set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        """Keep the transport; responses are written straight to it."""
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Exception | None) -> None:
        """Drop the transport so in-flight handlers skip their writes."""
        self.transport = None

    def data_received(self, data: bytes) -> None:
        """Buffer bytes, carve out complete requests, dispatch handlers."""
        if self.closing:
            return
        buf = self.buffer
        buf += data
        while True:
            if self.head is None:
                end = buf.find(b"\r\n\r\n")
                if end < 0:
                    if len(buf) > MAX_REQUEST_BYTES:
                        self._reject(431, "request head too large")
                    return
                head = _parse_head(bytes(buf[:end]))
                if head is None:
                    self._reject(400, "malformed HTTP request")
                    return
                del buf[: end + 4]
                length_text = head[3].get("content-length")
                if length_text is None:
                    if head[0] == "POST":
                        self._reject(411, "POST requires a Content-Length header")
                        return
                    length = 0
                else:
                    try:
                        length = int(length_text)
                    except ValueError:
                        length = -1
                    if length < 0:
                        self._reject(400, f"invalid Content-Length {length_text!r}")
                        return
                    if length > MAX_REQUEST_BYTES:
                        self._reject(413, f"request body exceeds {MAX_REQUEST_BYTES} bytes")
                        return
                self.head = head
                self.body_length = length
            if len(buf) < self.body_length:
                return
            body = bytes(buf[: self.body_length])
            del buf[: self.body_length]
            method, target, version, headers = self.head
            self.head = None
            keep_alive = _keep_alive(version, headers)
            if (
                keep_alive
                and method == "GET"
                and not body
                and (self.tail is None or self.tail.done())
                and target.startswith("/recommend?")
                and "#" not in target
                and self._dispatch_fast(target[11:])
            ):
                continue
            task = asyncio.get_running_loop().create_task(
                self._handle(method, target, body, keep_alive, self.tail)
            )
            self.tail = task
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)
            if not keep_alive:
                # The handler closes the transport after this response; any
                # pipelined bytes behind a Connection: close request are dead.
                self.closing = True
                return

    def _dispatch_fast(self, query: str) -> bool:
        """Dispatch a covered keep-alive ``GET /recommend`` without a task.

        The hot path under sustained load: the coalesced lookup's future
        gets one done-callback that writes the response straight to the
        transport, skipping per-request task creation and the coroutine
        round trip.  Returns ``False`` — leaving the request to the general
        handler, which produces identical bytes — for anything unusual:
        escaped queries, malformed values, rows the artifact cannot
        coalesce, or an in-flight predecessor (response ordering).
        """
        simple = _simple_query_params(query)
        if simple is None:
            return False
        user_text, n_text = simple
        if user_text is None:
            return False
        try:
            user = int(user_text)
            n = None if n_text is None else int(n_text)
        except ValueError:
            return False
        store = self.service.store
        if not store.covers(user, n):
            return False
        start = time.perf_counter()
        future = self.service._batcher.submit(user, store.n if n is None else n)
        self.tail = future
        future.add_done_callback(self._fast_callback(user, n, start))
        return True

    def _fast_callback(self, user: int, n: int | None, start: float):
        """Build the done-callback that writes one fast-path response."""

        def finish(future: asyncio.Future) -> None:
            """Encode the resolved lookup row and write it to the transport."""
            self.service.metrics.observe("recommend", time.perf_counter() - start)
            transport = self.transport
            if transport is None or transport.is_closing():
                future.exception()  # consume; the peer is gone
                return
            try:
                items, scores, source = future.result()
                body = recommend_body(
                    recommend_payload(self.service.store, user, n, items, scores, source)
                )
                transport.write(b"%s%d\r\n\r\n%s" % (_HEAD_200_KEEP_ALIVE, len(body), body))
            except ServingError as exc:
                transport.write(_response_bytes(404, {"error": str(exc)}, keep_alive=True))
            except ReproError as exc:
                transport.write(_response_bytes(400, {"error": str(exc)}, keep_alive=True))
            except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
                logger.exception("unhandled error serving /recommend for user %s", user)
                transport.write(
                    _response_bytes(500, {"error": "internal server error"}, keep_alive=False)
                )
                transport.close()

        return finish

    async def _handle(
        self,
        method: str,
        target: str,
        body: bytes,
        keep_alive: bool,
        previous: "asyncio.Task | asyncio.Future | None",
    ) -> None:
        try:
            status, payload = await self.service._respond(method, target, body)
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            logger.exception("unhandled error serving %s", target)
            status, payload = 500, {"error": "internal server error"}
            keep_alive = False
        response = _response_bytes(status, payload, keep_alive=keep_alive)
        if previous is not None:
            with contextlib.suppress(Exception):
                await previous  # pipelined responses leave in request order
        transport = self.transport
        if transport is not None and not transport.is_closing():
            transport.write(response)
            if not keep_alive:
                transport.close()

    def _reject(self, status: int, message: str) -> None:
        """Answer a malformed request and close; parsing cannot continue."""
        self.closing = True
        self.buffer.clear()
        response = _response_bytes(status, {"error": message}, keep_alive=False)
        if self.tail is None or self.tail.done():
            self._write_closing(response)
        else:  # keep response order even behind in-flight pipelined requests
            task = asyncio.get_running_loop().create_task(
                self._write_closing_after(self.tail, response)
            )
            self.tasks.add(task)
            task.add_done_callback(self.tasks.discard)

    async def _write_closing_after(
        self, previous: "asyncio.Task | asyncio.Future", response: bytes
    ) -> None:
        with contextlib.suppress(Exception):
            await previous
        self._write_closing(response)

    def _write_closing(self, response: bytes) -> None:
        transport = self.transport
        if transport is not None and not transport.is_closing():
            transport.write(response)
            transport.close()


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #
def _simple_query_params(query: str) -> tuple[str | None, str | None] | None:
    """``(user, n)`` raw values for an unambiguous ``/recommend`` query.

    The per-request fast path: ``user=U[&n=N]`` with no escapes costs a
    split instead of a full ``parse_qs`` pass.  Anything else — percent
    escapes, blank or repeated parameters, unknown keys — returns ``None``
    so the caller falls back to ``parse_qs``, whose answers (and error
    bodies) are the reference this shortcut must reproduce.
    """
    if "%" in query or "+" in query or ";" in query:
        return None
    user_text = n_text = None
    if query:
        for part in query.split("&"):
            key, sep, value = part.partition("=")
            if not sep or not value:
                return None
            if key == "user" and user_text is None:
                user_text = value
            elif key == "n" and n_text is None:
                n_text = value
            else:
                return None
    return user_text, n_text


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]] | None:
    """Parse a request head into (method, target, version, headers)."""
    try:
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, version = parts
        headers: dict[str, str] = {}
        for raw in header_block.split(b"\r\n"):
            if not raw:
                continue
            name, sep, value = raw.partition(b":")
            if not sep:
                return None
            headers[name.decode("latin-1").strip().lower()] = value.decode("latin-1").strip()
        return method, target, version, headers
    except UnicodeDecodeError:
        return None


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        return connection != "close"
    return connection == "keep-alive"


_HEAD_200_KEEP_ALIVE = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: "


def _response_bytes(
    status: int, payload: dict[str, Any] | bytes | _TextPayload, *, keep_alive: bool
) -> bytes:
    if type(payload) is _TextPayload:
        body = payload.body
        content_type = METRICS_CONTENT_TYPE
    else:
        body = payload if type(payload) is bytes else json_body(payload)
        content_type = "application/json"
        if status == 200 and keep_alive:  # the hot path: one prebuilt head
            return b"%s%d\r\n\r\n%s" % (_HEAD_200_KEEP_ALIVE, len(body), body)
    reason = _REASONS.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if not keep_alive:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + body


# --------------------------------------------------------------------------- #
# Construction and embedding helpers
# --------------------------------------------------------------------------- #
def build_async_service(
    artifact_dir: str | Path,
    *,
    pipeline: Pipeline | str | Path | None = None,
    fallback_cache_size: int = 2,
    coalesce_max: int | None = None,
    coalesce_window_us: int | None = None,
) -> AsyncRecommendationService:
    """Construct a (not yet started) async service over a fresh store handle."""
    store = RecommendationStore(
        artifact_dir, pipeline=pipeline, fallback_cache_size=fallback_cache_size
    )
    return AsyncRecommendationService(
        store,
        coalesce_max=DEFAULT_COALESCE_MAX if coalesce_max is None else coalesce_max,
        coalesce_window_us=(
            DEFAULT_COALESCE_WINDOW_US if coalesce_window_us is None else coalesce_window_us
        ),
    )


class AsyncServiceHandle:
    """A running async service in a daemon thread (tests, benchmarks)."""

    def __init__(
        self,
        service: AsyncRecommendationService,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        stop_event: asyncio.Event,
        address: tuple[str, int],
    ) -> None:
        self.service = service
        self.thread = thread
        self._loop = loop
        self._stop = stop_event
        self.address = address

    @property
    def base_url(self) -> str:
        """The ``http://host:port`` root of the running service."""
        host, port = self.address
        return f"http://{host}:{port}"

    def reload(self) -> None:
        """Trigger a warm reload on the service's event loop (thread-safe)."""
        self._loop.call_soon_threadsafe(self.service.reload)

    def stop(self) -> None:
        """Stop the server and join its thread."""
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._stop.set)
        self.thread.join(timeout=10)


def start_async_in_thread(
    service: AsyncRecommendationService, *, host: str = "127.0.0.1", port: int = 0
) -> AsyncServiceHandle:
    """Run ``service`` on its own event loop in a daemon thread.

    The embedding counterpart of :func:`serve_async` — used by the tests,
    the examples and the load benchmark.  Returns once the listening socket
    is bound.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            server = await service.start(host=host, port=port)
            box["address"] = server.sockets[0].getsockname()[:2]
            started.set()
            await box["stop"].wait()
            server.close()
            await server.wait_closed()

        try:
            asyncio.run(_main())
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller below
            box["error"] = exc
            started.set()

    thread = threading.Thread(target=_run, name="repro-serve-async", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise ServingError("async serving tier failed to start within 30s")
    if "error" in box:
        raise ServingError(f"async serving tier failed to start: {box['error']}") from box["error"]
    return AsyncServiceHandle(service, thread, box["loop"], box["stop"], box["address"])


# --------------------------------------------------------------------------- #
# Blocking entry point (CLI) and pre-fork workers
# --------------------------------------------------------------------------- #
def _listening_socket(host: str, port: int, *, backlog: int = 512) -> socket.socket:
    """Bind one listening TCP socket that forked workers can share."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    sock.setblocking(False)
    return sock


async def _worker_main(
    artifact_dir: str | Path,
    *,
    sock: socket.socket,
    pipeline: Pipeline | str | Path | None,
    fallback_cache_size: int,
    coalesce_max: int | None,
    coalesce_window_us: int | None,
    verbose: bool,
) -> int:
    """One worker: its own store handle + event loop on a shared socket."""
    service = build_async_service(
        artifact_dir,
        pipeline=pipeline,
        fallback_cache_size=fallback_cache_size,
        coalesce_max=coalesce_max,
        coalesce_window_us=coalesce_window_us,
    )
    loop = asyncio.get_running_loop()
    if hasattr(signal, "SIGHUP"):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signal.SIGHUP, service.reload)
    server = await service.start(sock=sock)
    if verbose:
        print(f"  artifact: {service.store.artifact_dir}  ({service.store!r})", flush=True)
    async with server:
        await server.serve_forever()
    return 0


def serve_async(
    artifact_dir: str | Path,
    *,
    pipeline: Pipeline | str | Path | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    fallback_cache_size: int = 2,
    coalesce_max: int | None = None,
    coalesce_window_us: int | None = None,
    verbose: bool = True,
) -> int:
    """Blocking entry point behind ``repro serve``; returns an exit code.

    ``workers=1`` serves from the calling process.  ``workers=K`` pre-forks
    ``K`` processes sharing one listening socket, each with its own event
    loop and its own memory-mapped store handle; the parent forwards
    ``SIGHUP`` (warm swap everywhere) and ``SIGTERM``/``SIGINT``
    (shutdown) to every worker.
    """
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise ConfigurationError("workers > 1 requires os.fork (POSIX)")

    sock = _listening_socket(host, port)
    bound_host, bound_port = sock.getsockname()[:2]
    if verbose:
        print(
            f"repro serve: listening on http://{bound_host}:{bound_port} "
            f"(async tier, workers={workers})",
            flush=True,
        )
        if hasattr(signal, "SIGHUP"):
            print("  SIGHUP triggers a warm reload in every worker", flush=True)

    if workers == 1:
        try:
            return asyncio.run(
                _worker_main(
                    artifact_dir,
                    sock=sock,
                    pipeline=pipeline,
                    fallback_cache_size=fallback_cache_size,
                    coalesce_max=coalesce_max,
                    coalesce_window_us=coalesce_window_us,
                    verbose=verbose,
                )
            )
        except KeyboardInterrupt:
            if verbose:
                print("repro serve: shutting down")
            return 0
        finally:
            sock.close()

    return _serve_prefork(
        artifact_dir,
        sock=sock,
        pipeline=pipeline,
        workers=workers,
        fallback_cache_size=fallback_cache_size,
        coalesce_max=coalesce_max,
        coalesce_window_us=coalesce_window_us,
        verbose=verbose,
    )


def _serve_prefork(
    artifact_dir: str | Path,
    *,
    sock: socket.socket,
    pipeline: Pipeline | str | Path | None,
    workers: int,
    fallback_cache_size: int,
    coalesce_max: int | None,
    coalesce_window_us: int | None,
    verbose: bool,
) -> int:
    """Fork ``workers`` children sharing ``sock``; parent supervises."""
    children: list[int] = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            # Worker process: never unwind into the parent's stack.
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent coordinates shutdown
                status = asyncio.run(
                    _worker_main(
                        artifact_dir,
                        sock=sock,
                        pipeline=pipeline,
                        fallback_cache_size=fallback_cache_size,
                        coalesce_max=coalesce_max,
                        coalesce_window_us=coalesce_window_us,
                        verbose=False,
                    )
                )
            except BaseException:  # noqa: BLE001
                logger.exception("serving worker crashed")
            finally:
                os._exit(status)
        children.append(pid)
    sock.close()  # only workers accept

    def _forward(signum: int) -> None:
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signum)

    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, lambda signum, frame: _forward(signal.SIGHUP))
    signal.signal(signal.SIGTERM, lambda signum, frame: _forward(signal.SIGTERM))

    try:
        for pid in children:
            os.waitpid(pid, 0)
    except KeyboardInterrupt:
        _forward(signal.SIGTERM)
        for pid in children:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    if verbose:
        print("repro serve: all workers exited")
    return 0
