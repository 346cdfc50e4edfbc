"""Sharded parallel execution.

The user axis of the GANC framework is embarrassingly parallel: accuracy
scoring, coverage snapshots and the locally-greedy per-user assignment are
independent per user (Sections III and IV of the paper), so every batched
path in the library can fan its user blocks out to workers.  This package
supplies the machinery:

:mod:`repro.parallel.executor`
    The :class:`Executor`: ``n_jobs == 1`` runs blocks in order in the
    caller, ``n_jobs > 1`` on a thread pool.  Both return block results in
    block order, so at a fixed block size the output is byte-identical for
    any worker count.
:mod:`repro.parallel.tasks`
    The block tasks used by ``recommend_all`` (and so the artifact
    compile pass), the locally-greedy independent assignment and the OSLG
    snapshot phase.

Determinism
-----------
Block tasks used by the library are RNG-free at serve time (stochastic
models draw from per-user keyed streams fixed at fit time), which is what
makes results invariant to ``n_jobs``.  The block size is another matter:
it decides which users share one matrix product, and the factor models
(PureSVD, RSVD, CofiRank) score a row differently in the last ulps when
its block changes, so their raw scores — and the score shards of a
compiled artifact, which are read from the blocks the ranking pass scored
— depend on the block size and, for GANC, on the optimizer's block order;
their top-N ids match across block sizes as tested.  Pop, Rand, ItemKNN and UserKNN compute every row
on its own, so their score bytes do not depend on it.  Tasks that do need
randomness receive per-block generators derived with
``numpy.random.SeedSequence.spawn`` (:func:`repro.utils.rng.spawn_seed_sequences`)
before any block runs, so their streams depend only on the root seed and
the block position — never on thread scheduling.
"""

from repro.parallel.executor import Executor, effective_n_jobs
from repro.parallel.tasks import (
    IndependentAssignTask,
    SnapshotAssignTask,
    TopNScoresTask,
)

__all__ = [
    "Executor",
    "effective_n_jobs",
    "TopNScoresTask",
    "IndependentAssignTask",
    "SnapshotAssignTask",
]
