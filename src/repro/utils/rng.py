"""Random-number-generator helpers.

Every stochastic component in the library accepts a ``seed`` argument that may
be ``None``, an integer, or an already constructed
:class:`numpy.random.Generator`.  :func:`ensure_rng` converts any of those into
a Generator so the rest of the code never has to branch on the input type.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, or an existing Generator
        (returned unchanged so callers can share a stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent child generators from ``rng``.

    Used when a parallel-style loop needs per-task deterministic streams that
    do not depend on iteration order.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def spawn_seed_sequences(seed: int | None, count: int) -> list[np.random.SeedSequence]:
    """Derive ``count`` independent child seed sequences from one root seed.

    Thin wrapper over ``numpy.random.SeedSequence.spawn``: child ``i`` is a
    pure function of ``(seed, i)``, so a parallel fan-out that derives the
    children *before* scattering work gets identical per-block streams
    regardless of worker count or completion order.  ``seed=None``
    draws the root from OS entropy (children are then only reproducible
    within the call).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return np.random.SeedSequence(seed).spawn(count)
