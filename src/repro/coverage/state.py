"""Incremental assignment state behind the dynamic coverage recommender.

The GANC sequential optimizers assign one user's top-N set at a time; after
every assignment only the N just-assigned items' counts change, yet the
historical implementation re-derived the full coverage score vector
``c(i) = 1 / sqrt(f^A_i + 1)`` over *all* items per user.  This module keeps
the counts and the derived score vector in lockstep instead:

* :class:`CoverageState` maintains ``(counts, scores)`` with an O(N) delta
  per :meth:`~CoverageState.apply` call — each touched entry is recomputed
  with exactly the same ``1 / sqrt(f + 1)`` expression a full recompute would
  use, so the maintained vector is bit-for-bit identical to one derived from
  scratch at every step.
* :class:`DeltaSnapshots` records the per-step coverage snapshots OSLG needs
  (Algorithm 1, line 9) as the assignment deltas themselves — O(S·N) memory
  instead of the historical dense O(S·|I|) array — and reconstructs either
  the dense snapshot matrix or the score rows of arbitrary snapshot
  positions on demand, again bit-identically.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import ConfigurationError


def _validate_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise ConfigurationError(
            f"assignment counts must be a 1-D vector, got shape {counts.shape}"
        )
    if counts.size and counts.min() < 0:
        raise ConfigurationError("assignment frequencies cannot be negative")
    return counts


class CoverageState:
    """Assignment counts and their coverage scores, updated by O(N) deltas.

    Parameters
    ----------
    counts:
        Initial per-item assignment counts ``f^A`` (non-negative).  The score
        vector ``1 / sqrt(f + 1)`` is derived once here; afterwards only the
        entries touched by :meth:`apply` are recomputed.
    """

    __slots__ = ("_counts", "_scores")

    def __init__(self, counts: np.ndarray) -> None:
        self._counts = _validate_counts(counts).copy()
        self._scores = 1.0 / np.sqrt(self._counts + 1.0)

    @classmethod
    def zeros(cls, n_items: int) -> "CoverageState":
        """Fresh state: no assignments yet, every score at its maximum of 1."""
        if n_items < 0:
            raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
        return cls(np.zeros(int(n_items), dtype=np.float64))

    @property
    def n_items(self) -> int:
        """Size of the item universe."""
        return self._counts.size

    @property
    def counts(self) -> np.ndarray:
        """Current assignment counts ``f^A`` (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    @property
    def scores(self) -> np.ndarray:
        """Current coverage scores ``1 / sqrt(f^A + 1)`` (read-only view).

        The view aliases the live state: it reflects every subsequent
        :meth:`apply` without re-fetching, which is what lets the sequential
        optimizers blend against it without per-user copies.
        """
        view = self._scores.view()
        view.flags.writeable = False
        return view

    def apply(self, items: np.ndarray) -> None:
        """Record one assignment: bump ``items``' counts, refresh their scores.

        Cost is O(N) in the number of assigned items — repeated items are
        counted once per occurrence, exactly like ``np.add.at``.
        """
        items = np.asarray(items, dtype=np.int64)
        if not items.size:
            return
        np.add.at(self._counts, items, 1.0)
        # Counts are fully incremented above, so recomputing a duplicated
        # index twice writes the same value twice — no dedup needed.
        self._scores[items] = 1.0 / np.sqrt(self._counts[items] + 1.0)

    def apply_batch(self, batches: Iterable[np.ndarray]) -> None:
        """Record many assignments at once; bit-identical to looped :meth:`apply`.

        ``batches`` is a sequence of per-step assigned item arrays (for the
        traffic simulator: the consumed items of every event in a window).
        All counts are bumped first — each occurrence adds exactly ``1.0``,
        and float64 addition of small integers is exact, so the final counts
        equal the looped result bit for bit — then each touched score entry
        is recomputed once from its final count, which is also exactly the
        value the last looped ``apply`` would have written.
        """
        arrays = [np.asarray(items, dtype=np.int64) for items in batches]
        arrays = [items for items in arrays if items.size]
        if not arrays:
            return
        touched = np.concatenate(arrays)
        np.add.at(self._counts, touched, 1.0)
        self._scores[touched] = 1.0 / np.sqrt(self._counts[touched] + 1.0)

    def revert(self, items: np.ndarray) -> None:
        """Undo one :meth:`apply`: drop ``items``' counts, refresh their scores.

        The inverse the simulator's windowed what-if checks need: reverting
        exactly the items a previous ``apply`` recorded restores counts *and*
        scores bit-identically (each occurrence subtracts the exact ``1.0``
        it added, and the score is recomputed with the same expression).
        Reverting items that were never applied would drive a count negative;
        that is rejected with the state left unchanged.
        """
        items = np.asarray(items, dtype=np.int64)
        if not items.size:
            return
        np.subtract.at(self._counts, items, 1.0)
        if self._counts[items].min() < 0:
            np.add.at(self._counts, items, 1.0)  # restore before failing
            raise ConfigurationError(
                "revert would drive an assignment count negative; the items "
                "do not match a previously applied assignment"
            )
        self._scores[items] = 1.0 / np.sqrt(self._counts[items] + 1.0)

    def reset(self) -> None:
        """Clear all counts; every score returns to ``1 / sqrt(1) = 1``."""
        self._counts.fill(0.0)
        self._scores.fill(1.0)


class DeltaSnapshots:
    """Per-step coverage snapshots stored as assignment deltas.

    The historical OSLG implementation materialized a dense
    ``(S, n_items)`` float64 snapshot matrix — one full copy of the
    frequency vector per sampled user.  Each snapshot differs from its
    predecessor by at most N counts, so this log stores the base counts once
    plus the per-step assigned item arrays, and reconstructs

    * :meth:`dense` — the exact historical snapshot matrix, and
    * :meth:`scores_at` — the coverage *score* rows of arbitrary snapshot
      positions (what the snapshot-assignment phase actually consumes)

    by replaying the deltas through a :class:`CoverageState`.  Every
    reconstructed value is computed with the same expressions as the dense
    path, so both forms are bit-identical to the pre-refactor arrays.
    """

    __slots__ = ("_base", "_deltas")

    def __init__(self, base_counts: np.ndarray, deltas: Iterable[np.ndarray] = ()) -> None:
        self._base = _validate_counts(base_counts).copy()
        self._deltas: list[np.ndarray] = [
            np.asarray(items, dtype=np.int64).copy() for items in deltas
        ]

    @property
    def n_items(self) -> int:
        """Size of the item universe."""
        return self._base.size

    @property
    def n_steps(self) -> int:
        """Number of recorded snapshots."""
        return len(self._deltas)

    def __len__(self) -> int:
        return len(self._deltas)

    @property
    def base_counts(self) -> np.ndarray:
        """Counts before the first recorded step (read-only view)."""
        view = self._base.view()
        view.flags.writeable = False
        return view

    def record(self, items: np.ndarray) -> None:
        """Append one step's assigned items (the snapshot delta)."""
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise ConfigurationError(
                f"assigned item indices must lie in [0, {self.n_items}), "
                f"got range [{items.min()}, {items.max()}]"
            )
        self._deltas.append(items.copy())

    def _check_positions(self, positions: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (positions.min() < 0 or positions.max() >= self.n_steps):
            raise ConfigurationError(
                f"snapshot positions must lie in [0, {self.n_steps}), "
                f"got range [{positions.min()}, {positions.max()}]"
            )
        return positions

    def counts_at(self, position: int) -> np.ndarray:
        """Dense frequency vector after step ``position`` (a fresh array)."""
        position = int(self._check_positions(np.asarray([position]))[0])
        counts = self._base.copy()
        for items in self._deltas[: position + 1]:
            np.add.at(counts, items, 1.0)
        return counts

    def dense(self) -> np.ndarray:
        """The historical ``(n_steps, n_items)`` dense snapshot matrix."""
        out = np.empty((self.n_steps, self.n_items), dtype=np.float64)
        counts = self._base.copy()
        for step, items in enumerate(self._deltas):
            np.add.at(counts, items, 1.0)
            out[step] = counts
        return out

    def scores_at(self, positions: np.ndarray) -> np.ndarray:
        """Coverage score rows of the requested snapshot positions.

        Equivalent to ``DynamicCoverage.snapshot_scores(self.dense()[positions])``
        but replays only up to the largest requested position and derives each
        unique row once, at O(max_position · N) delta work plus one O(n_items)
        score row per distinct position.
        """
        positions = self._check_positions(positions)
        if positions.size == 0:
            return np.empty((0, self.n_items), dtype=np.float64)
        unique, inverse = np.unique(positions, return_inverse=True)
        rows = np.empty((unique.size, self.n_items), dtype=np.float64)
        state = CoverageState(self._base)
        cursor = 0
        for step in range(int(unique[-1]) + 1):
            state.apply(self._deltas[step])
            if step == unique[cursor]:
                rows[cursor] = state.scores
                cursor += 1
        return rows[inverse]
