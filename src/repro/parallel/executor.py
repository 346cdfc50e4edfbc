"""The :class:`Executor`: one fan-out contract for every batched path.

Every batched path in the library reduces to the same shape of work: shard
the user axis into contiguous blocks (:func:`repro.utils.topn.iter_user_blocks`)
and apply a *block task* — a callable mapping a block's user indices to that
block's result rows — to each block.  An :class:`Executor` runs those
applications, and ``n_jobs`` alone decides how:

``n_jobs == 1`` (or a single block)
    A plain in-order loop in the calling thread.
``n_jobs > 1``
    A :class:`concurrent.futures.ThreadPoolExecutor` fan-out.  The heavy
    lifting inside block tasks is numpy matrix work that releases the GIL,
    so threads scale on multi-core machines while sharing the fitted models
    with zero serialization cost.

Results are always returned in block order, so callers can scatter them into
the output array exactly as the in-order loop would have.  Tasks that declare
``needs_rng = True`` are called as ``task(users, rng)`` with a per-block
generator derived via ``SeedSequence.spawn`` before any block runs, which
makes their streams independent of thread scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import spawn_seed_sequences


@runtime_checkable
class BlockTask(Protocol):
    """A unit of sharded work: maps a block of user indices to result rows."""

    def __call__(self, users: np.ndarray) -> Any:  # pragma: no cover - protocol
        ...


def effective_n_jobs(n_jobs: int) -> int:
    """Resolve an ``n_jobs`` request to a concrete worker count.

    ``-1`` means one worker per CPU this process may run on (its affinity
    mask where the OS has one, so a pinned process is not oversubscribed);
    any other value must be a positive integer.
    """
    if n_jobs == -1:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    if not isinstance(n_jobs, (int, np.integer)) or isinstance(n_jobs, bool) or n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be a positive integer or -1, got {n_jobs!r}")
    return int(n_jobs)


class Executor:
    """Runs block tasks over user blocks and returns results in block order."""

    def __init__(self, n_jobs: int = 1) -> None:
        self.n_jobs = effective_n_jobs(n_jobs)

    def map_blocks(
        self,
        task: BlockTask,
        blocks: Sequence[np.ndarray],
        *,
        seed: int | None = None,
    ) -> list[Any]:
        """Apply ``task`` to every block; results come back in block order.

        ``seed`` (or a task with ``needs_rng = True``) switches to the seeded
        calling convention ``task(users, rng)`` with per-block generators
        derived via ``SeedSequence.spawn``.
        """
        calls: list[Callable[[], Any]]
        if seed is None and not getattr(task, "needs_rng", False):
            calls = [lambda users=users: task(users) for users in blocks]
        else:
            sequences = spawn_seed_sequences(seed, len(blocks))
            calls = [
                lambda users=users, seq=seq: task(users, np.random.default_rng(seq))
                for users, seq in zip(blocks, sequences)
            ]
        if len(calls) <= 1 or self.n_jobs == 1:
            return [call() for call in calls]
        with ThreadPoolExecutor(max_workers=self.n_jobs) as pool:
            return list(pool.map(lambda call: call(), calls))

    def __repr__(self) -> str:
        return f"Executor(n_jobs={self.n_jobs})"


def resolve_executor(executor: Executor | None = None, n_jobs: int | None = None) -> Executor:
    """Normalize the ``(executor, n_jobs)`` option pair.

    An explicit :class:`Executor` instance wins; otherwise ``n_jobs``
    (``None`` meaning 1) builds one.
    """
    if executor is not None:
        if not isinstance(executor, Executor):
            raise ConfigurationError(
                f"executor must be a repro.parallel.Executor, got {type(executor).__name__}"
            )
        return executor
    return Executor(1 if n_jobs is None else n_jobs)
