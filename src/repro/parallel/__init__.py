"""Sharded parallel execution.

The user axis of the GANC framework is embarrassingly parallel: accuracy
scoring, coverage snapshots and the locally-greedy per-user assignment are
independent per user (Sections III and IV of the paper), so every batched
path in the library can fan its user blocks out to workers.  This package
supplies the machinery:

:mod:`repro.parallel.executor`
    The :class:`Executor`: ``n_jobs == 1`` runs blocks in order in the
    caller, ``n_jobs > 1`` on a thread pool.  Both return block results in
    block order, so the scored output is byte-identical for any worker count
    and any block size.
:mod:`repro.parallel.tasks`
    The block tasks and providers used by ``recommend_all``, the
    locally-greedy independent assignment, the OSLG snapshot phase and the
    artifact compile pass.

Determinism
-----------
Block tasks used by the library are RNG-free at serve time (stochastic
models draw from per-user keyed streams fixed at fit time), which is what
makes results invariant to ``n_jobs`` *and* block size.  Tasks that do need
randomness receive per-block generators derived with
``numpy.random.SeedSequence.spawn`` (:func:`repro.utils.rng.spawn_seed_sequences`)
before any block runs, so their streams depend only on the root seed and
the block position — never on thread scheduling.
"""

from repro.parallel.executor import Executor, effective_n_jobs, resolve_executor
from repro.parallel.tasks import (
    ExclusionPairsProvider,
    IndependentAssignTask,
    RecommendBlockTask,
    SnapshotAssignTask,
    TopNScoresTask,
    UnitScoresProvider,
)

__all__ = [
    "Executor",
    "resolve_executor",
    "effective_n_jobs",
    "RecommendBlockTask",
    "TopNScoresTask",
    "UnitScoresProvider",
    "ExclusionPairsProvider",
    "IndependentAssignTask",
    "SnapshotAssignTask",
]
