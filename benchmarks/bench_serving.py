"""Serving benchmark: compile/lookup microbenchmarks + a closed-loop load test.

Builds a pipeline on the synthetic ML-100K profile, persists it, compiles a
top-N artifact, and measures two layers:

**Microbenchmarks** (store only, no HTTP)

* **compile throughput** — users/second through ``compile_artifact``
  (dominated by the batched ``recommend_all`` pass);
* **store lookup latency** — microseconds per single-user ``top_n`` against
  the memory-mapped artifact, and per batched 100-user block;
* **fallback latency** — the first uncached live-scoring fallback (builds a
  full ``recommend_all`` table) vs. subsequent LRU-cached fallback lookups,
  to show what the artifact saves.

**Load generator** (full HTTP round trips)

A closed-loop load test: ``--clients`` concurrent keep-alive connections,
each issuing ``--requests-per-client`` sequential ``GET /recommend``
requests (the next request is sent only after the previous response is
fully read), against two configurations of the ``repro serve`` service over
the same artifact:

* ``async`` — coalescing disabled (batch size 1);
* ``coalesced`` — request coalescing into the batched mmap lookup path
  (``--coalesce-max`` / ``--coalesce-window-us``).

Sustained RPS and p50/p95/p99 latency are recorded per configuration (best of
``--repeats`` fleet runs, like every other timing here); the
``coalesced`` numbers are the headline ``rps``/``p50_us``/``p95_us``/
``p99_us`` metrics in ``BENCH_serving.json``.  Every response stream is
digest-compared against bodies precomputed from the store directly, so both
configurations are verified byte-identical before any number is reported.
``--min-load-speedup`` (default 1.0) gates the coalesced-vs-async
sustained-RPS ratio — coalescing must not cost throughput; pass ``0`` to
disable (CI smoke).

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py               # full scale
    PYTHONPATH=src python benchmarks/bench_serving.py --scale 0.1 \\
        --clients 4 --requests-per-client 25 --min-load-speedup 0   # CI smoke run
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    Pipeline,
    PipelineSpec,
)
from repro.serving import (
    DEFAULT_COALESCE_MAX,
    DEFAULT_COALESCE_WINDOW_US,
    RecommendationStore,
    build_async_service,
    compile_artifact,
    start_async_in_thread,
)
from repro.serving.service import json_body, recommend_payload

from bench_json import write_bench_json, write_bench_text

N = 5


def _time(fn, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# --------------------------------------------------------------------------- #
# Closed-loop load generator
# --------------------------------------------------------------------------- #
def _request_bytes(user: int, n: int) -> bytes:
    return (
        f"GET /recommend?user={user}&n={n} HTTP/1.1\r\nHost: bench\r\n\r\n"
    ).encode("ascii")


def _consume_response(sock: socket.socket, buf: bytearray) -> bytes:
    """Read one HTTP/1.1 response off a keep-alive socket, return its body."""
    while True:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            break
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buf += chunk
    head = bytes(buf[:end]).lower()
    if not head.startswith(b"http/1.1 200"):
        raise ConnectionError(f"unexpected response head {head[:80]!r}")
    index = head.find(b"content-length:")
    if index < 0:
        raise ConnectionError("response carried no Content-Length")
    stop = head.find(b"\r", index)
    length = int(head[index + 15 : stop if stop >= 0 else len(head)])
    total = end + 4 + length
    while len(buf) < total:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buf += chunk
    body = bytes(buf[end + 4 : total])
    del buf[:total]
    return body


def _consume_response_fast(sock: socket.socket, buf: bytearray) -> None:
    """Frame one response with minimal parsing; used only in the timed pass.

    The untimed verification pass has already strict-parsed and
    byte-validated every response this connection will see again, so here
    a single ``rfind`` recovers Content-Length (the last header the service
    emits) and the body is skipped without copying.  Keeping the client this
    cheap matters on a shared-core runner: client per-request overhead adds
    to both configurations' denominators and compresses the measured ratio.
    """
    while True:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            break
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buf += chunk
    total = end + 4 + int(buf[buf.rfind(b" ", 0, end) + 1 : end])
    while len(buf) < total:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buf += chunk
    del buf[:total]


def _client_worker(
    address: tuple[str, int],
    requests: list[bytes],
    barrier: threading.Barrier,
    latencies: list[float],
    digests: list,
    errors: list,
    index: int,
) -> None:
    """One closed-loop client: send, read fully, repeat, on one connection.

    Two passes over the same request plan: an untimed verification pass
    that digests every response body (and doubles as connection + server
    warmup), then the timed pass, which only frames responses so client
    overhead stays off the latency numbers.
    """
    try:
        sock = socket.create_connection(address, timeout=120)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = bytearray()
        try:
            digest = hashlib.sha256()
            for request in requests:
                sock.sendall(request)
                digest.update(_consume_response(sock, buf))
            digests[index] = digest.hexdigest()
            barrier.wait()
            for i, request in enumerate(requests):
                start = time.perf_counter()
                sock.sendall(request)
                _consume_response_fast(sock, buf)
                latencies[i] = time.perf_counter() - start
        finally:
            sock.close()
    except Exception as exc:  # noqa: BLE001 - re-raised by the coordinator
        errors.append((index, exc))
        barrier.abort()


def _fleet_main(spec_path: str) -> int:
    """Hidden ``--fleet`` entry point: run the client fleet in this process.

    The coordinator launches the fleet as a subprocess so the clients do
    not share the server process's GIL — the servers are measured with the
    whole interpreter to themselves, as they would face a real remote load
    generator.  Reads a JSON spec (address, per-client user plans), drives
    the closed-loop clients, and prints one JSON result line:
    ``{"wall": seconds, "latencies": [...], "digests": [...]}``.
    """
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    address = (spec["host"], spec["port"])
    plans: list[list[int]] = spec["plans"]
    n = spec["n"]
    latencies = [[0.0] * len(plan) for plan in plans]
    digests: list = [None] * len(plans)
    errors: list = []
    barrier = threading.Barrier(len(plans) + 1)
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(
                address,
                [_request_bytes(user, n) for user in plan],
                barrier,
                latencies[index],
                digests,
                errors,
                index,
            ),
            daemon=True,
        )
        for index, plan in enumerate(plans)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - start
    if errors:
        index, exc = errors[0]
        print(json.dumps({"error": f"client {index}: {exc!r}"}))
        return 1
    print(json.dumps({
        "wall": wall,
        "latencies": [value for client in latencies for value in client],
        "digests": digests,
    }))
    return 0


def _expected_digest(store: RecommendationStore, users: np.ndarray, n: int) -> str:
    """The sha256 of the exact response bytes one client must receive."""
    digest = hashlib.sha256()
    for user in users:
        items, scores, source = store.lookup(int(user), n)
        digest.update(json_body(recommend_payload(store, int(user), n, items, scores, source)))
    return digest.hexdigest()


def _run_tier(
    address: tuple[str, int],
    user_plans: list[np.ndarray],
    expected: list[str],
    repeats: int,
) -> dict[str, float]:
    """Best-of-``repeats`` closed-loop runs against one configuration."""
    best: dict[str, float] | None = None
    for _ in range(repeats):
        result = _run_fleet(address, user_plans, expected)
        if best is None or result["rps"] > best["rps"]:
            best = result
    assert best is not None
    return best


def _run_fleet(
    address: tuple[str, int],
    user_plans: list[np.ndarray],
    expected: list[str],
) -> dict[str, float]:
    """Drive one server with len(user_plans) concurrent closed-loop clients.

    The fleet runs in its own interpreter (``--fleet`` subprocess) so the
    measured server keeps this process's GIL to itself.
    """
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as spec:
        json.dump(
            {
                "host": address[0],
                "port": address[1],
                "n": N,
                "plans": [[int(u) for u in plan] for plan in user_plans],
            },
            spec,
        )
        spec_path = spec.name
    try:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, __file__, "--fleet", spec_path],
            capture_output=True, text=True, timeout=600, check=False,
            cwd=Path(__file__).resolve().parent, env=env,
        )
    finally:
        Path(spec_path).unlink(missing_ok=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"load fleet failed (exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.splitlines()[-1])
    if "error" in result:
        raise RuntimeError(f"load fleet failed: {result['error']}")
    if result["digests"] != expected:
        raise AssertionError("served response stream differs from store-computed bytes")
    total = sum(plan.size for plan in user_plans)
    p50, p95, p99 = np.percentile(np.asarray(result["latencies"]), [50, 95, 99])
    return {
        "rps": total / result["wall"],
        "p50_us": p50 * 1e6,
        "p95_us": p95 * 1e6,
        "p99_us": p99 * 1e6,
    }


def _start_tier(
    tier: str,
    artifact_dir: Path,
    coalesce_max: int,
    coalesce_window_us: int,
):
    """Start one configuration on an ephemeral port; returns (address, stop, service)."""
    if tier == "async":
        service = build_async_service(artifact_dir, coalesce_max=1, coalesce_window_us=0)
    else:
        service = build_async_service(
            artifact_dir, coalesce_max=coalesce_max, coalesce_window_us=coalesce_window_us
        )
    handle = start_async_in_thread(service)
    return handle.address, handle.stop, service


def run_load_benchmark(
    artifact_dir: Path,
    *,
    clients: int,
    requests_per_client: int,
    coalesce_max: int,
    coalesce_window_us: int,
    repeats: int = 1,
):
    """Drive both configurations with concurrent clients; returns (lines, metrics)."""
    store = RecommendationStore(artifact_dir)
    rng = np.random.default_rng(7)
    user_plans = [
        rng.integers(0, store.coverage, size=requests_per_client) for _ in range(clients)
    ]
    expected = [_expected_digest(store, plan, N) for plan in user_plans]

    lines = [
        "",
        f"closed-loop load test: {clients} keep-alive clients x "
        f"{requests_per_client} GET /recommend each, best of {repeats} "
        f"(coalesce_max={coalesce_max}, coalesce_window_us={coalesce_window_us})",
    ]
    results: dict[str, dict[str, float]] = {}
    for tier in ("async", "coalesced"):
        address, stop, service = _start_tier(tier, artifact_dir, coalesce_max, coalesce_window_us)
        try:
            results[tier] = _run_tier(address, user_plans, expected, repeats)
        finally:
            stop()
        extra = ""
        if tier == "coalesced":
            stats = service.coalescing
            if stats["batches"]:
                extra = (
                    f"  [{stats['batched_rows']} rows in {stats['batches']} store calls, "
                    f"avg {stats['batched_rows'] / stats['batches']:.1f}/batch, "
                    f"largest {stats['largest_batch']}]"
                )
        r = results[tier]
        lines.append(
            f"  {tier:<9}: {r['rps']:>8,.0f} rps   "
            f"p50 {r['p50_us']:>8,.0f} us   p95 {r['p95_us']:>8,.0f} us   "
            f"p99 {r['p99_us']:>8,.0f} us{extra}"
        )

    speedups = {
        "coalesced_vs_async_rps": results["coalesced"]["rps"] / results["async"]["rps"],
        "coalesced_vs_async_p50": results["async"]["p50_us"] / results["coalesced"]["p50_us"],
    }
    lines.append(
        f"  coalesced vs async: {speedups['coalesced_vs_async_rps']:.2f}x sustained rps, "
        f"{speedups['coalesced_vs_async_p50']:.2f}x lower p50"
    )
    lines.append(
        "  both configurations served response streams byte-identical to the store"
    )

    metrics: dict[str, float] = {}
    for tier, r in results.items():
        for key, value in r.items():
            metrics[f"{tier}_{key}"] = value
    # Headline numbers = the shipped configuration (async + coalescing).
    metrics.update({key: value for key, value in results["coalesced"].items()})
    return lines, metrics, speedups


def run_benchmark(
    scale: float,
    repeats: int,
    jobs: int,
    lookups: int,
    *,
    clients: int,
    requests_per_client: int,
    coalesce_max: int,
    coalesce_window_us: int,
):
    """Execute the full benchmark; returns (report lines, metrics, speedups)."""
    metrics: dict[str, float] = {}
    lines = [
        "serving benchmark (compile throughput + lookup latency + HTTP load)",
        f"scale={scale} repeats={repeats} jobs={jobs} lookups={lookups} n={N} "
        f"clients={clients} requests_per_client={requests_per_client}",
        "",
    ]
    spec = PipelineSpec(
        recommender=ComponentSpec("psvd10"),
        dataset=DatasetSpec(key="ml100k", scale=scale),
        evaluation=EvaluationSpec(n=N),
        seed=0,
    )
    pipeline = Pipeline(spec).fit()
    n_users = pipeline.split.train.n_users
    reference = pipeline.recommend_all(N).items

    with tempfile.TemporaryDirectory() as tmp:
        pipeline_dir = Path(tmp) / "pipeline"
        artifact_dir = Path(tmp) / "artifact"
        pipeline.save(pipeline_dir)

        compile_s, _ = _time(
            lambda: compile_artifact(
                pipeline_dir, artifact_dir, shard_size=1024, n_jobs=jobs
            ),
            repeats=repeats,
        )
        lines.append(
            f"compile: {n_users} users in {compile_s:.3f}s "
            f"({n_users / compile_s:,.0f} users/s, jobs={jobs})"
        )

        store = RecommendationStore(artifact_dir, pipeline=pipeline_dir)
        users = np.arange(n_users)
        np.testing.assert_array_equal(store.top_n(users, N), reference)

        rng = np.random.default_rng(0)
        sample = rng.integers(0, n_users, size=lookups)
        single_s, _ = _time(
            lambda: [store.top_n(int(u), N) for u in sample], repeats=repeats
        )
        lines.append(
            f"store single-user lookup: {single_s / lookups * 1e6:,.1f} us/lookup "
            f"({lookups / single_s:,.0f} lookups/s)"
        )

        batch = sample[:100]
        batch_s, _ = _time(lambda: store.top_n(batch, N), repeats=max(repeats, 3))
        lines.append(
            f"store 100-user batch lookup: {batch_s * 1e3:,.3f} ms/batch "
            f"({batch_s / batch.size * 1e6:,.1f} us/row)"
        )

        # Fallback: n bigger than compiled forces live scoring.
        cold_s, _ = _time(lambda: store.top_n(0, N + 1))
        warm_s, _ = _time(
            lambda: [store.top_n(int(u), N + 1) for u in sample], repeats=repeats
        )
        np.testing.assert_array_equal(
            store.top_n(users, N + 1), pipeline.recommend_all(N + 1).items
        )
        lines.append(
            f"fallback first lookup (builds recommend_all({N + 1}) table): {cold_s:.3f}s"
        )
        lines.append(
            f"fallback cached lookup: {warm_s / lookups * 1e6:,.1f} us/lookup"
        )
        speedup = (cold_s) / (single_s / lookups)
        lines.append(
            f"artifact lookup vs cold live scoring: {speedup:,.0f}x cheaper"
        )
        lines.append("")
        lines.append("all measured paths verified byte-identical to Pipeline.recommend_all")
        metrics.update(
            compile_s=compile_s,
            compile_users_per_s=n_users / compile_s,
            single_lookup_us=single_s / lookups * 1e6,
            batch_lookup_us_per_row=batch_s / batch.size * 1e6,
            fallback_cold_s=cold_s,
            fallback_cached_lookup_us=warm_s / lookups * 1e6,
            lookup_vs_cold_speedup=speedup,
        )

        load_lines, load_metrics, speedups = run_load_benchmark(
            artifact_dir,
            clients=clients,
            requests_per_client=requests_per_client,
            coalesce_max=coalesce_max,
            coalesce_window_us=coalesce_window_us,
            repeats=repeats,
        )
        lines.extend(load_lines)
        metrics.update(load_metrics)
    return lines, metrics, speedups


def main(argv=None) -> int:
    """CLI entry point; writes the report and returns an exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--lookups", type=int, default=1000)
    parser.add_argument("--clients", type=int, default=32,
                        help="concurrent keep-alive load clients (default 32)")
    parser.add_argument("--requests-per-client", type=int, default=200,
                        help="timed requests per client (default 200)")
    parser.add_argument("--coalesce-max", type=int, default=DEFAULT_COALESCE_MAX)
    parser.add_argument(
        "--coalesce-window-us", type=int, default=0,
        help="coalescing window of the coalesced configuration; 0 = flush on the next "
             "event-loop tick, which closed-loop clients measure best because a "
             "positive window locksteps every in-flight request (default 0; the "
             f"server's own default is {DEFAULT_COALESCE_WINDOW_US})",
    )
    parser.add_argument(
        "--min-load-speedup", type=float, default=1.0,
        help="fail unless coalesced sustained RPS >= this multiple of the "
             "uncoalesced (async) RPS (0 disables the gate; default 1.0)",
    )
    parser.add_argument("--fleet", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.fleet:  # hidden: run as the client-fleet subprocess
        return _fleet_main(args.fleet)

    lines, metrics, speedups = run_benchmark(
        args.scale,
        args.repeats,
        args.jobs,
        args.lookups,
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        coalesce_max=args.coalesce_max,
        coalesce_window_us=args.coalesce_window_us,
    )
    report = "\n".join(lines)
    print(report)
    output = write_bench_text("serving", report)
    print(f"\nwritten to {output}")
    write_bench_json(
        "serving",
        config={
            "scale": args.scale,
            "repeats": args.repeats,
            "jobs": args.jobs,
            "lookups": args.lookups,
            "n": N,
            "clients": args.clients,
            "requests_per_client": args.requests_per_client,
            "coalesce_max": args.coalesce_max,
            "coalesce_window_us": args.coalesce_window_us,
        },
        metrics=metrics,
        speedups=speedups,
        equal=True,
    )
    if args.min_load_speedup > 0 and speedups["coalesced_vs_async_rps"] < args.min_load_speedup:
        print(
            f"FAIL: coalescing sustained only "
            f"{speedups['coalesced_vs_async_rps']:.2f}x the uncoalesced RPS "
            f"(required {args.min_load_speedup:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
