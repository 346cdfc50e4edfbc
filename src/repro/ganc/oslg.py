"""Ordered Sampling-based Locally Greedy (OSLG) — Algorithm 1 of the paper.

OSLG makes the sequential Locally Greedy optimizer scalable by exploiting the
user long-tail preference estimates twice:

1. **Sampling.**  A Gaussian KDE is fitted to the preference vector ``θ`` and
   a sample of ``S`` users is drawn from it, so the sequential pass only
   touches a representative subset of users.  The sequential complexity drops
   from ``O(|U|·|I|·N)`` to ``O(S·|I|·N)``.
2. **Ordering.**  Sampled users are served in *increasing* θ order.  Early
   (popularity-leaning) users grab the established items; by the time the
   high-θ explorers are served, the dynamic coverage function has discounted
   those items and their value functions favour untouched long-tail items.

This implementation runs both phases at matrix speed:

* The **sequential sampled pass** (lines 4–10) runs on the incremental
  engine of :mod:`repro.ganc.incremental`: accuracy rows prefetched as
  batched blocks, coverage scores blended from the delta-updated live
  :class:`~repro.coverage.state.CoverageState`, per-user work reduced to a
  θ-blend plus a masked argpartition top-N on preallocated buffers.
* Each user's accuracy rows are scored once: both phases read the raw
  scores of the items they assign from the ``(a, raw)`` block their
  selection used, so :attr:`FittedTopN.scores` needs no second pass.
* The per-user **snapshots** ``F(θ_u)`` (line 9) are recorded as compact
  :class:`~repro.coverage.state.DeltaSnapshots` — O(S·N) memory instead of
  the historical dense O(S·|I|) matrix — and reconstruct bit-identically.
* Every user outside the sample is assigned independently (lines 11–15)
  against the snapshot of the sampled user whose θ is closest to theirs; the
  non-sampled users are scored and assigned in memory-bounded *blocks* of
  2-D array operations that fan out to executor workers.
"""

from __future__ import annotations

import numpy as np

from repro.coverage.dynamic import DynamicCoverage
from repro.coverage.state import DeltaSnapshots
from repro.exceptions import ConfigurationError
from repro.ganc.incremental import SequentialAssigner, supports_incremental
from repro.ganc.kde import GaussianKDE, validate_bandwidth
from repro.ganc.locally_greedy import BatchAccuracyProvider, BatchExclusionProvider
from repro.parallel.executor import Executor, resolve_executor
from repro.parallel.tasks import SnapshotAssignTask
from repro.recommenders.base import FittedTopN
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.topn import iter_user_blocks


class OSLGResult:
    """Output of an OSLG run.

    Attributes
    ----------
    top_n:
        The assigned top-N collection.
    sampled_users:
        Users that were processed sequentially, in processing order
        (increasing θ).
    snapshot_log:
        Compact per-step snapshot record (base counts + assignment deltas),
        aligned with ``sampled_users``.
    snapshots:
        The dense ``(S, n_items)`` frequency snapshot matrix ``F(θ_u)``,
        reconstructed (and cached) from ``snapshot_log`` on first access —
        byte-identical to the historical eagerly-stored array.
    """

    __slots__ = ("top_n", "sampled_users", "snapshot_log", "_snapshots")

    def __init__(
        self,
        top_n: FittedTopN,
        sampled_users: np.ndarray,
        snapshot_log: DeltaSnapshots,
    ) -> None:
        self.top_n = top_n
        self.sampled_users = sampled_users
        self.snapshot_log = snapshot_log
        self._snapshots: np.ndarray | None = None

    @property
    def snapshots(self) -> np.ndarray:
        """Dense snapshot matrix, materialized lazily from the delta log."""
        if self._snapshots is None:
            self._snapshots = self.snapshot_log.dense()
        return self._snapshots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OSLGResult(top_n={self.top_n!r}, "
            f"sampled_users={self.sampled_users.size}, "
            f"snapshots={self.snapshot_log.n_steps} step(s))"
        )


class OSLGOptimizer:
    """Algorithm 1: GANC optimization with ordered sampling.

    Parameters
    ----------
    coverage:
        A fitted :class:`~repro.coverage.dynamic.DynamicCoverage` instance.
        Subclasses are rejected: the sequential pass runs on the
        delta-updated :class:`~repro.coverage.state.CoverageState`, which
        only reproduces the stock counting semantics (see
        :func:`~repro.ganc.incremental.supports_incremental`).
    n:
        Top-N size.
    sample_size:
        Number of users processed sequentially (the paper's ``S``; 500 in the
        experiments).  Values larger than the user count fall back to a full
        sequential pass.
    bandwidth:
        KDE bandwidth rule or value; validated here, at construction time, so
        a typo'd rule fails naming the parameter instead of deep inside the
        sampling step.
    seed:
        Seed for the KDE sampling step.
    """

    def __init__(
        self,
        coverage: DynamicCoverage,
        n: int,
        *,
        sample_size: int = 500,
        bandwidth: float | str = "silverman",
        seed: SeedLike = None,
    ) -> None:
        if not isinstance(coverage, DynamicCoverage):
            raise ConfigurationError(
                "OSLG requires the dynamic coverage recommender; "
                f"got {type(coverage).__name__}"
            )
        if not supports_incremental(coverage):
            raise ConfigurationError(
                f"OSLG supports only the stock DynamicCoverage, got the subclass "
                f"{type(coverage).__name__}; run it with the locally_greedy optimizer"
            )
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1, got {sample_size}")
        self.coverage = coverage
        self.n = int(n)
        self.sample_size = int(sample_size)
        self.bandwidth = validate_bandwidth(bandwidth, parameter="bandwidth")
        self._seed = seed

    # ------------------------------------------------------------------ #
    def run(
        self,
        theta: np.ndarray,
        accuracy_matrix: BatchAccuracyProvider,
        exclusion_pairs: BatchExclusionProvider,
        *,
        block_size: int | None = None,
        executor: Executor | None = None,
        n_jobs: int | None = None,
    ) -> OSLGResult:
        """Execute Algorithm 1 and return the assigned collection.

        ``accuracy_matrix`` and ``exclusion_pairs`` map a block of user
        indices to its ``(a, raw)`` pair of ``(B, n_items)`` blocks and to
        its flattened ``(block_row, item)`` exclusion pairs, as in
        :meth:`~repro.ganc.locally_greedy.LocallyGreedyOptimizer.run`.  The
        sequential sampled pass runs on the incremental delta-updated engine;
        the snapshot blocks are mutually independent — exactly the
        parallelism the paper points out — and fan out to
        ``executor``/``n_jobs`` workers with byte-identical results for any
        worker count.
        """
        theta = np.asarray(theta, dtype=np.float64)
        n_users = theta.size
        if n_users == 0:
            raise ConfigurationError("cannot optimize an empty user set")
        rng = ensure_rng(self._seed)

        sampled = self._sample_users(theta, rng)
        # Line 3: sort the sample in increasing long-tail preference.
        sampled = sampled[np.argsort(theta[sampled], kind="stable")]

        out = np.full((n_users, self.n), -1, dtype=np.int64)
        scores = np.full((n_users, self.n), np.nan, dtype=np.float64)

        # Lines 4-10: sequential pass over the sampled users.
        log = DeltaSnapshots(self.coverage.frequencies)
        record = log.record
        assigner = SequentialAssigner(self.coverage, self.n, block_size=block_size)
        assigner.run(
            out,
            sampled,
            theta,
            accuracy_matrix,
            exclusion_pairs,
            scores=scores,
            on_assign=lambda _user, items: record(items),
        )

        # Lines 11-15: every remaining user reuses the snapshot of the nearest
        # sampled θ; assignments are mutually independent, so whole blocks are
        # scored and selected as 2-D operations.
        remaining = np.setdiff1d(np.arange(n_users), sampled, assume_unique=False)
        if remaining.size:
            task = SnapshotAssignTask(
                theta,
                theta[sampled],
                log,
                self.n,
                accuracy_matrix,
                exclusion_pairs,
            )
            blocks = [remaining[block] for block in iter_user_blocks(remaining.size, block_size)]
            snapshot_executor = resolve_executor(executor, n_jobs)
            for users, (rows, row_scores) in zip(
                blocks, snapshot_executor.map_blocks(task, blocks)
            ):
                out[users] = rows
                scores[users] = row_scores

        return OSLGResult(
            top_n=FittedTopN(items=out, scores=scores),
            sampled_users=sampled,
            snapshot_log=log,
        )

    # ------------------------------------------------------------------ #
    def _sample_users(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Line 2: draw S users according to the KDE of θ.

        Each KDE draw is matched to the not-yet-selected user with the closest
        preference value, which yields a sample whose θ distribution follows
        the estimated density while still being a subset of real users.
        """
        n_users = theta.size
        size = min(self.sample_size, n_users)
        if size == n_users:
            return np.arange(n_users, dtype=np.int64)

        kde = GaussianKDE(theta, bandwidth=self.bandwidth)
        draws = np.sort(kde.sample(size, seed=rng))

        # Greedy nearest-user matching on the sorted preference values.
        order = np.argsort(theta, kind="stable")
        sorted_theta = theta[order]
        available = np.ones(n_users, dtype=bool)
        chosen: list[int] = []
        for draw in draws:
            idx = int(np.searchsorted(sorted_theta, draw))
            candidates = []
            left = idx - 1
            right = idx
            # Scan outwards for the nearest still-available user.
            while left >= 0 or right < n_users:
                if right < n_users and available[right]:
                    candidates.append(right)
                if left >= 0 and available[left]:
                    candidates.append(left)
                if candidates:
                    break
                left -= 1
                right += 1
            if not candidates:
                break
            best = min(candidates, key=lambda pos: abs(sorted_theta[pos] - draw))
            available[best] = False
            chosen.append(int(order[best]))
        return np.asarray(sorted(chosen), dtype=np.int64)
