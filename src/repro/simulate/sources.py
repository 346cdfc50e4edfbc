"""Recommendation sources: where the simulator gets its top-N rows from.

One simulator, three deployment shapes:

* :class:`PipelineSource` — a live fitted :class:`~repro.pipeline.Pipeline`.
  For GANC specs with dynamic coverage this is the *online* mode: consumed
  items flow back into the live :class:`~repro.coverage.state.CoverageState`
  via its O(N) delta, so every later arrival is answered against the shifted
  state — the Dyn optimizers running genuinely online.
* :class:`StoreSource` — a compiled, memory-mapped
  :class:`~repro.serving.store.RecommendationStore` artifact.  Stateless,
  so trace shards can replay in parallel on threads sharing one store.
* :class:`HTTPSource` — a running ``repro serve`` tier reached over HTTP;
  the end-to-end mode, which also scrapes the tier's Prometheus
  ``/metrics`` endpoint for the run report.

The common contract is :meth:`RecommendationSource.rows`: a batched
``(users, n) -> (items, scores | None)`` lookup with the library's standard
``-1``-padded rows.  ``parallel_safe`` tells the engine whether shards may
fan out over an executor; ``online`` tells it that feedback mutates the
source, which forces strictly in-order sequential consumption.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.pipeline.pipeline import Pipeline

#: Names accepted by the ``--source`` CLI flag.
SOURCE_KINDS = ("pipeline", "store", "http")


class RecommendationSource(ABC):
    """Answers batched top-N lookups for the simulator's event stream."""

    #: source kind label recorded in run reports
    kind: str = "abstract"
    #: whether independent trace shards may query this source concurrently
    parallel_safe: bool = False
    #: whether consumed feedback mutates the source's recommendation state
    online: bool = False

    @property
    @abstractmethod
    def n_users(self) -> int:
        """Size of the user universe the source can answer for."""

    @property
    @abstractmethod
    def n_items(self) -> int:
        """Size of the item universe recommendations are drawn from."""

    @abstractmethod
    def rows(self, users: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Top-``n`` rows for a block of users: ``(items, scores | None)``."""

    def push_feedback(self, items: np.ndarray) -> None:
        """Record one event's consumed items (no-op for offline sources)."""
        del items

    def close(self) -> None:
        """Release any held connections or maps (no-op by default)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kind={self.kind!r}, online={self.online})"


class PipelineSource(RecommendationSource):
    """Serve events from a live fitted pipeline, optionally with online feedback.

    ``online`` is true exactly when the pipeline is a GANC run with dynamic
    coverage: ``Pipeline.recommend`` evaluates each user against the
    *current* coverage state, and :meth:`push_feedback` advances that state
    through the O(N) ``CoverageState.apply`` delta.
    """

    kind = "pipeline"
    parallel_safe = False  # feedback (or shared model state) is not shardable

    def __init__(self, pipeline: Pipeline | str | Path) -> None:
        if not isinstance(pipeline, Pipeline):
            pipeline = Pipeline.load(pipeline)
        if not pipeline.is_fitted:
            raise ConfigurationError("PipelineSource needs a fitted pipeline")
        self.pipeline = pipeline
        model = pipeline.model
        self._coverage = (
            model.coverage if model is not None and model.coverage.is_dynamic else None
        )
        self.online = self._coverage is not None

    @property
    def n_users(self) -> int:
        """User-universe size of the fitted split."""
        return self.pipeline.split.train.n_users

    @property
    def n_items(self) -> int:
        """Item-universe size of the fitted split."""
        return self.pipeline.split.train.n_items

    @property
    def split(self):
        """The fitted split (gives the engine held-out futures for accuracy)."""
        return self.pipeline.split

    def rows(self, users: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Live top-``n`` rows against the *current* coverage state."""
        return self.pipeline.recommend(np.asarray(users, dtype=np.int64), n), None

    def push_feedback(self, items: np.ndarray) -> None:
        """Advance the dynamic coverage state by the consumed items."""
        if self._coverage is not None and np.asarray(items).size:
            self._coverage.update(np.asarray(items, dtype=np.int64))

    def coverage_counts(self) -> np.ndarray | None:
        """The live coverage counts (for online-invariant verification)."""
        if self._coverage is None:
            return None
        return self._coverage.state.counts.copy()


class StoreSource(RecommendationSource):
    """Serve events from a compiled artifact via :class:`RecommendationStore`.

    The store is opened (and validated) at construction; the thread pool
    shares it across shards.
    """

    kind = "store"
    parallel_safe = True

    def __init__(
        self,
        artifact_dir: str | Path,
        *,
        pipeline_dir: str | Path | None = None,
    ) -> None:
        from repro.serving.store import RecommendationStore

        self.artifact_dir = Path(artifact_dir)
        self.pipeline_dir = None if pipeline_dir is None else Path(pipeline_dir)
        self._store = RecommendationStore(self.artifact_dir, pipeline=self.pipeline_dir)

    @property
    def n_users(self) -> int:
        """User-universe size recorded in the artifact manifest."""
        return self._store.n_users_total

    @property
    def n_items(self) -> int:
        """Item-universe size recorded in the artifact manifest."""
        n_items = self._store.manifest.get("n_items")
        if n_items is None:
            raise SimulationError(
                f"artifact {self.artifact_dir} predates n_items manifests; "
                "recompile it with repro compile"
            )
        return int(n_items)

    def rows(self, users: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Batched ``lookup_rows`` against the memory-mapped artifact."""
        items, scores, _ = self._store.lookup_rows(np.asarray(users, dtype=np.int64), n)
        return items, scores


class HTTPSource(RecommendationSource):
    """Serve events from a running ``repro serve`` tier over HTTP.

    Each event is one ``GET /recommend`` round trip (both tiers answer it);
    the universe sizes come from ``GET /manifest``.  ``scrape_metrics``
    fetches the tier's Prometheus ``/metrics`` text for the run report.
    """

    kind = "http"
    parallel_safe = False  # one connection, ordered requests

    def __init__(self, base_url: str, *, timeout: float = 10.0) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigurationError(
                f"base_url must start with http:// or https://, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        manifest = self._get_json("/manifest")
        self._n_users = int(manifest.get("n_users_total", manifest["n_users"]))
        n_items = manifest.get("n_items")
        if n_items is None:
            raise SimulationError(
                f"the tier at {self.base_url} serves an artifact without "
                "n_items in its manifest; recompile it with repro compile"
            )
        self._n_items = int(n_items)

    def _get(self, path: str) -> bytes:
        try:
            with urllib.request.urlopen(self.base_url + path, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.URLError as error:
            raise SimulationError(
                f"request to {self.base_url + path} failed: {error}"
            ) from None

    def _get_json(self, path: str) -> dict:
        return json.loads(self._get(path).decode("utf-8"))

    @property
    def n_users(self) -> int:
        """User-universe size from the tier's ``/manifest``."""
        return self._n_users

    @property
    def n_items(self) -> int:
        """Item-universe size from the tier's ``/manifest``."""
        return self._n_items

    def rows(self, users: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """One ``GET /recommend`` round trip per user in the block."""
        users = np.asarray(users, dtype=np.int64)
        items = np.full((users.size, n), -1, dtype=np.int64)
        scores = np.full((users.size, n), np.nan, dtype=np.float64)
        have_scores = False
        for row, user in enumerate(users.tolist()):
            payload = self._get_json(f"/recommend?user={user}&n={n}")
            got = np.asarray(payload["items"], dtype=np.int64)
            items[row, : got.size] = got
            if payload.get("scores") is not None:
                row_scores = [
                    np.nan if s is None else float(s) for s in payload["scores"]
                ]
                scores[row, : len(row_scores)] = row_scores
                have_scores = True
        return items, (scores if have_scores else None)

    def scrape_metrics(self) -> str:
        """The serving tier's Prometheus ``/metrics`` exposition text."""
        return self._get("/metrics").decode("utf-8")


def create_source(
    source: str,
    *,
    artifact_dir: str | Path | None = None,
    pipeline_dir: str | Path | None = None,
    url: str | None = None,
) -> RecommendationSource:
    """Build the source the ``--source`` CLI flag names.

    Validates the flag combinations up front with errors naming the missing
    flag, mirroring the other subcommands' parse-time checks.
    """
    if source not in SOURCE_KINDS:
        raise ConfigurationError(
            f"unknown source {source!r}; available: {list(SOURCE_KINDS)}"
        )
    if source == "pipeline":
        if pipeline_dir is None:
            raise ConfigurationError("--source pipeline requires --pipeline DIR")
        return PipelineSource(pipeline_dir)
    if source == "store":
        if artifact_dir is None:
            raise ConfigurationError("--source store requires --artifact DIR")
        return StoreSource(artifact_dir, pipeline_dir=pipeline_dir)
    if url is None:
        raise ConfigurationError("--source http requires --url URL")
    return HTTPSource(url)
