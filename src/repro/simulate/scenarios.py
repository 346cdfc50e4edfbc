"""Scenario presets: deterministic generators of simulation traces.

Each scenario turns ``(n_users, n_events, seed)`` — plus, for ``replay``, a
fitted train/test split — into a :class:`~repro.simulate.events.Trace`.  All
randomness flows from a fixed ``SeedSequence`` spawn layout (stream 0 drives
timestamps, stream 1 drives user draws), so a scenario is a pure function of
its arguments: same inputs, byte-identical trace, on any machine.

User pools follow one convention across scenarios: the *cold pool* is the
last ``cold_fraction`` (default 20%) of the user universe, reserved for
cold-start arrivals; the *active pool* is everyone else; the *hot pool* —
used by ``burst`` — is the first 5% of the active pool, modelling the small
head of users that drives traffic spikes.

Scenario catalog
----------------
``steady``
    Homogeneous Poisson arrivals (exponential inter-arrival times, unit
    rate) with users drawn uniformly from the active pool.
``burst``
    Steady traffic whose middle third collapses to a 10x arrival rate and
    concentrates on the hot pool — the popularity-feedback stress test.
``coldstart``
    Steady start, then a wave (25% of events) of first-time arrivals drawn
    from the cold pool, then mixed traffic over the full universe.
``replay``
    Re-plays the held-out test interactions of a fitted split in a seeded
    random order with synthesized exponential timestamps (the source data
    carries no timestamps of its own), capped at ``n_events``.
"""

from __future__ import annotations

import numpy as np

from repro.data.split import TrainTestSplit
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulate.events import Trace, label_kinds

#: Names accepted by :func:`build_trace` / the ``--scenario`` CLI flag.
SCENARIOS = ("steady", "burst", "coldstart", "replay")

#: Fraction of the user universe reserved for cold-start arrivals.
COLD_FRACTION = 0.2

#: Fraction of the active pool treated as the burst-driving head.
HOT_FRACTION = 0.05


def _pools(n_users: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(active, cold, hot) user pools; every pool is non-empty."""
    n_cold = min(max(1, int(round(n_users * COLD_FRACTION))), n_users - 1)
    active = np.arange(n_users - n_cold, dtype=np.int64)
    cold = np.arange(n_users - n_cold, n_users, dtype=np.int64)
    n_hot = max(1, int(round(active.size * HOT_FRACTION)))
    return active, cold, active[:n_hot]


def _streams(seed: int, count: int = 3) -> list[np.random.Generator]:
    """The scenario's fixed rng layout, derived from one root seed."""
    return [
        np.random.default_rng(sequence)
        for sequence in np.random.SeedSequence(seed).spawn(count)
    ]


def _check_args(n_users: int, n_events: int) -> None:
    if n_users < 2:
        raise ConfigurationError(f"scenarios need n_users >= 2, got {n_users}")
    if n_events < 1:
        raise ConfigurationError(f"n_events must be >= 1, got {n_events}")


def _steady(n_users: int, n_items: int, n_events: int, seed: int) -> Trace:
    time_rng, user_rng, _ = _streams(seed)
    active, cold, _ = _pools(n_users)
    timestamps = np.cumsum(time_rng.exponential(1.0, size=n_events))
    users = user_rng.choice(active, size=n_events, replace=True)
    return Trace(
        scenario="steady",
        seed=seed,
        n_users=n_users,
        n_items=n_items,
        timestamps=timestamps,
        users=users,
        kinds=label_kinds(users, cold),
    )


def _burst(n_users: int, n_items: int, n_events: int, seed: int) -> Trace:
    time_rng, user_rng, _ = _streams(seed)
    active, cold, hot = _pools(n_users)
    start, stop = n_events // 3, 2 * n_events // 3
    gaps = time_rng.exponential(1.0, size=n_events)
    gaps[start:stop] *= 0.1  # the spike: 10x arrival rate
    users = user_rng.choice(active, size=n_events, replace=True)
    if stop > start:
        users[start:stop] = user_rng.choice(hot, size=stop - start, replace=True)
    return Trace(
        scenario="burst",
        seed=seed,
        n_users=n_users,
        n_items=n_items,
        timestamps=np.cumsum(gaps),
        users=users,
        kinds=label_kinds(users, cold),
    )


def _coldstart(n_users: int, n_items: int, n_events: int, seed: int) -> Trace:
    time_rng, user_rng, _ = _streams(seed)
    active, cold, _ = _pools(n_users)
    wave_start = int(n_events * 0.6)
    wave_stop = min(n_events, wave_start + max(1, int(n_events * 0.25)))
    users = user_rng.choice(active, size=n_events, replace=True)
    if wave_stop > wave_start:
        users[wave_start:wave_stop] = user_rng.choice(
            cold, size=wave_stop - wave_start, replace=True
        )
    if wave_stop < n_events:  # mixed tail over the full universe
        users[wave_stop:] = user_rng.integers(0, n_users, size=n_events - wave_stop)
    return Trace(
        scenario="coldstart",
        seed=seed,
        n_users=n_users,
        n_items=n_items,
        timestamps=np.cumsum(time_rng.exponential(1.0, size=n_events)),
        users=users,
        kinds=label_kinds(users, cold),
    )


def _replay(
    n_users: int, n_items: int, n_events: int, seed: int, split: TrainTestSplit
) -> Trace:
    test = split.test
    if test.n_ratings == 0:
        raise SimulationError("replay scenario needs a split with test interactions")
    time_rng, user_rng, _ = _streams(seed)
    _, cold, _ = _pools(n_users)
    order = user_rng.permutation(test.n_ratings)[: min(n_events, test.n_ratings)]
    users = test.user_indices[order]
    timestamps = np.cumsum(time_rng.exponential(1.0, size=order.size))
    return Trace(
        scenario="replay",
        seed=seed,
        n_users=n_users,
        n_items=n_items,
        timestamps=timestamps,
        users=users,
        kinds=label_kinds(users, cold),
    )


def build_trace(
    scenario: str,
    *,
    n_users: int,
    n_items: int,
    n_events: int,
    seed: int,
    split: TrainTestSplit | None = None,
) -> Trace:
    """Build the named scenario's trace (a pure function of its arguments)."""
    if not isinstance(scenario, str) or scenario.strip().lower() not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; available: {list(SCENARIOS)}"
        )
    scenario = scenario.strip().lower()
    _check_args(n_users, n_events)
    if scenario == "replay":
        if split is None:
            raise ConfigurationError(
                "the replay scenario needs a fitted split (pass a pipeline "
                "directory so the held-out test interactions are available)"
            )
        if split.test.n_users != n_users:
            raise SimulationError(
                f"replay split has {split.test.n_users} users but the source "
                f"serves {n_users}"
            )
        return _replay(n_users, n_items, n_events, int(seed), split)
    builder = {"steady": _steady, "burst": _burst, "coldstart": _coldstart}[scenario]
    return builder(n_users, n_items, n_events, int(seed))
