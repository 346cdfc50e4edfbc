"""Prometheus-text serving metrics: request counters + latency histogram.

``repro serve`` exposes ``GET /metrics`` in the Prometheus exposition
format (text version 0.0.4), built from one :class:`ServingMetrics`
instance per server: per-endpoint request counters and a fixed-bucket
request-latency histogram, merged at render time with the counters the
service already keeps for ``/healthz`` (store row provenance, warm
reloads, coalescing).  Everything is stdlib + a lock — no client library — so the
endpoint is available in every environment that can import :mod:`repro`.

The bucket boundaries are fixed at construction (Prometheus histograms are
cumulative per-bucket counters, so boundaries must never change while a
scraper is watching) and default to a 250µs–1s ladder matched to the
measured serving latencies in ``BENCH_serving.json`` (p50 ~1.2ms with
request coalescing, ~2ms without).
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.exceptions import ConfigurationError

#: Default latency ladder (seconds): 250µs .. 1s, then +Inf implicitly.
DEFAULT_BUCKETS = (
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Content type of the exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _format_value(value: float) -> str:
    """Prometheus number formatting: integers without a trailing ``.0``."""
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


class LatencyHistogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe`` is O(#buckets) with a plain scan — the ladders used here
    are a dozen entries, where a scan beats bisect overhead — and takes the
    owning lock, so concurrent request threads can observe safely.
    """

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b <= 0 for b in bounds) or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"bucket bounds must be positive and strictly increasing, got {bounds}"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the implicit +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        """Record one observation (seconds)."""
        seconds = float(seconds)
        position = 0
        for bound in self.bounds:
            if seconds <= bound:
                break
            position += 1
        with self._lock:
            self._counts[position] += 1
            self._sum += seconds
            self._count += 1

    def snapshot(self) -> tuple[list[tuple[str, int]], int, float]:
        """``(cumulative_buckets, count, sum)`` under the lock.

        ``cumulative_buckets`` pairs each ``le`` label (including ``+Inf``)
        with the cumulative count at that bound, ready for exposition.
        """
        with self._lock:
            counts = list(self._counts)
            total, observed_sum = self._count, self._sum
        cumulative: list[tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative.append((_format_value(bound), running))
        cumulative.append(("+Inf", total))
        return cumulative, total, observed_sum


class ServingMetrics:
    """Per-endpoint request counters plus one request-latency histogram."""

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.histogram = LatencyHistogram(buckets)
        self._requests: dict[str, int] = {}
        self._lock = threading.Lock()

    def observe(self, endpoint: str, seconds: float) -> None:
        """Count one request to ``endpoint`` and record its latency."""
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
        self.histogram.observe(seconds)

    def request_counts(self) -> dict[str, int]:
        """Current per-endpoint request counts (a copy)."""
        with self._lock:
            return dict(self._requests)

    def render(
        self,
        *,
        store_stats: Mapping[str, int] | None = None,
        reloads: int = 0,
        reload_failures: int = 0,
        extra_counters: Mapping[str, int] | None = None,
    ) -> str:
        """The full ``/metrics`` exposition text.

        ``store_stats`` is the store's ``/healthz`` counter dict
        (``artifact_rows`` / ``fallback_rows`` / ``fallback_builds``);
        ``extra_counters`` adds further counters (the service's coalescing
        stats) as ``repro_<name>`` gauges.
        """
        lines: list[str] = []

        lines.append("# HELP repro_requests_total Requests served, by endpoint.")
        lines.append("# TYPE repro_requests_total counter")
        for endpoint, count in sorted(self.request_counts().items()):
            lines.append(f'repro_requests_total{{endpoint="{endpoint}"}} {count}')

        buckets, count, observed_sum = self.histogram.snapshot()
        lines.append(
            "# HELP repro_request_latency_seconds Request handling latency."
        )
        lines.append("# TYPE repro_request_latency_seconds histogram")
        for le, cumulative in buckets:
            lines.append(
                f'repro_request_latency_seconds_bucket{{le="{le}"}} {cumulative}'
            )
        lines.append(f"repro_request_latency_seconds_sum {_format_value(observed_sum)}")
        lines.append(f"repro_request_latency_seconds_count {count}")

        if store_stats is not None:
            lines.append(
                "# HELP repro_store_rows_total Rows served, by provenance."
            )
            lines.append("# TYPE repro_store_rows_total counter")
            lines.append(
                f'repro_store_rows_total{{source="artifact"}} '
                f"{int(store_stats.get('artifact_rows', 0))}"
            )
            lines.append(
                f'repro_store_rows_total{{source="fallback"}} '
                f"{int(store_stats.get('fallback_rows', 0))}"
            )
            lines.append(
                "# HELP repro_fallback_builds_total Live recommend_all table builds."
            )
            lines.append("# TYPE repro_fallback_builds_total counter")
            lines.append(
                f"repro_fallback_builds_total {int(store_stats.get('fallback_builds', 0))}"
            )

        lines.append("# HELP repro_reloads_total Successful warm artifact reloads.")
        lines.append("# TYPE repro_reloads_total counter")
        lines.append(f"repro_reloads_total {int(reloads)}")
        lines.append("# HELP repro_reload_failures_total Failed warm artifact reloads.")
        lines.append("# TYPE repro_reload_failures_total counter")
        lines.append(f"repro_reload_failures_total {int(reload_failures)}")

        for name, value in sorted((extra_counters or {}).items()):
            lines.append(f"# TYPE repro_{name} counter")
            lines.append(f"repro_{name} {int(value)}")

        return "\n".join(lines) + "\n"


def parse_metrics(text: str) -> dict[str, float]:
    """Parse exposition text into ``{sample_name_with_labels: value}``.

    A deliberately small parser for the simulator's HTTP-source scrape and
    the tests — handles exactly the format :meth:`ServingMetrics.render`
    emits (comments, ``name{labels} value`` and ``name value`` lines).
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            continue
        samples[name] = float(value)
    return samples
