"""The benchmark's open-loop load generator.

Arrivals are a seeded Poisson process at a fixed rate, split over at most
``nproc`` threads.  Each thread owns one keep-alive connection and its own
sub-schedule; it sleeps until a request is due, sends it, and blocks on the
response.  Every request is timed from when it was due, so a stall that
delays later requests counts against them too, and how late the thread
started each request is recorded beside it.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

clock = time.monotonic

#: Request mix: shares of single GETs at the compiled n, single GETs at the
#: second n (live fallback on GANC artifacts) and batch POSTs.
GET_SHARE, SECOND_N_SHARE, BATCH_SHARE = 0.85, 0.10, 0.05
#: Users per batch POST.
BATCH_USERS = 8


@dataclass
class Request:
    """One scheduled request: when it is due and what it asks."""

    due: float
    kind: str
    users: tuple[int, ...]
    n: int
    wire: bytes


@dataclass
class Outcome:
    """What one thread observed, one entry per scheduled request."""

    sent: list[float] = field(default_factory=list)
    received: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    body: list[bytes] = field(default_factory=list)
    cpu_s: float = 0.0


def _wire(host: str, port: int, kind: str, users: tuple[int, ...], n: int) -> bytes:
    if kind == "batch":
        body = json.dumps({"users": list(users), "n": n}).encode()
        return (
            f"POST /recommend/batch HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
    return f"GET /recommend?user={users[0]}&n={n} HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n".encode()


def schedule(
    seed: int,
    *,
    part: int,
    rate: float,
    seconds: float,
    threads: int,
    n_users: int,
    n: int,
    second_n: int,
    host: str,
    port: int,
) -> list[list[Request]]:
    """Per-thread request lists of one read slice.

    ``part`` numbers the slices of a run, so that each plays its own
    arrivals; the same arguments give the same lists.
    """
    plans = []
    for stream in np.random.SeedSequence([seed, part]).spawn(threads):
        rng = np.random.default_rng(stream)
        gaps = rng.exponential(threads / rate, size=int(seconds * rate / threads * 2) + 16)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        kinds = rng.choice(
            ["get", "second_n", "batch"], size=due.size, p=[GET_SHARE, SECOND_N_SHARE, BATCH_SHARE]
        )
        users = rng.integers(n_users, size=(due.size, BATCH_USERS))
        plan = []
        for position, kind in enumerate(kinds):
            chosen = tuple(int(u) for u in users[position]) if kind == "batch" else (
                int(users[position, 0]),
            )
            size = second_n if kind == "second_n" else n
            plan.append(
                Request(float(due[position]), str(kind), chosen, size,
                        _wire(host, port, str(kind), chosen, size))
            )
        plans.append(plan)
    return plans


def _read_response(sock: socket.socket, buffer: bytearray) -> tuple[int, bytes]:
    """One HTTP/1.1 response off a keep-alive socket: ``(status, body)``."""
    while True:
        end = buffer.find(b"\r\n\r\n")
        if end >= 0:
            break
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    head = bytes(buffer[:end]).split(b"\r\n")
    status = int(head[0].split(b" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    need = end + 4 + length
    while len(buffer) < need:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    body = bytes(buffer[end + 4 : need])
    del buffer[:need]
    return status, body


def _run_thread(address: tuple[str, int], plan: list[Request], start: float, out: Outcome) -> None:
    cpu = time.thread_time()
    sock = socket.create_connection(address)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buffer = bytearray()
    try:
        for request in plan:
            wait = start + request.due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                sock.sendall(request.wire)
                status, body = _read_response(sock, buffer)
            except (OSError, ValueError, IndexError):  # refused, reset or malformed
                status, body = 0, b""
                sock.close()
                sock = socket.create_connection(address)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                buffer.clear()
            out.sent.append(sent)
            out.received.append(clock())
            out.status.append(status)
            out.body.append(body)
    finally:
        sock.close()
        out.cpu_s = time.thread_time() - cpu


def run(address: tuple[str, int], plans: list[list[Request]], start: float) -> list[Outcome]:
    """Play every thread's plan from ``start`` (a ``clock()`` time); blocks."""
    outcomes = [Outcome() for _ in plans]
    threads = [
        threading.Thread(target=_run_thread, args=(address, plan, start, out), daemon=True)
        for plan, out in zip(plans, outcomes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def summary(slices: list[tuple[list[list[Request]], list[Outcome], float]]) -> dict[str, Any]:
    """Latency from due, lateness and client CPU over every request of every
    slice, each slice given as ``(plans, outcomes, start)``."""
    due = np.array([start + r.due for plans, _, start in slices for plan in plans for r in plan])
    outcomes = [out for _, slice_outcomes, _ in slices for out in slice_outcomes]
    sent = np.array([t for out in outcomes for t in out.sent])
    received = np.array([t for out in outcomes for t in out.received])
    count = max(due.size, 1)
    read = (received - due) * 1e3
    late = (sent - due) * 1e3
    return {
        "requests": int(due.size),
        "read_p50_ms": float(np.median(read)),
        "read_p99_ms": float(np.percentile(read, 99)),
        "late_p50_ms": float(np.median(late)),
        "late_p99_ms": float(np.percentile(late, 99)),
        "cpu_ms": sum(out.cpu_s for out in outcomes) / count * 1e3,
        "non200": int(sum(status != 200 for out in outcomes for status in out.status)),
    }
