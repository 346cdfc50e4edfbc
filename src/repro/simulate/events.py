"""Timestamped interaction traces: the input stream of the traffic simulator.

A :class:`Trace` is a columnar event log — parallel ``timestamps`` / ``users``
arrays plus a derived per-event *arrival kind* — describing who asks for
recommendations and when.  Traces are the determinism anchor of the whole
subsystem: scenario generators build them from ``SeedSequence``-derived
streams only, and :meth:`Trace.tobytes` defines one canonical byte encoding
so two runs can be compared with a single digest instead of array-by-array.

Arrival kinds distinguish the three user populations the paper's dynamic
coverage variants react to differently:

* ``KIND_EXISTING`` — a known user's first arrival in the trace,
* ``KIND_COLD`` — the first arrival of a user from the scenario's cold-start
  pool (no prior interactions in the replayed world),
* ``KIND_RETURNING`` — any repeat arrival, whose feedback has already shifted
  the coverage state once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SimulationError

#: Arrival kinds (values are part of the canonical trace encoding).
KIND_EXISTING = 0
KIND_COLD = 1
KIND_RETURNING = 2

_ENCODING_VERSION = 1


def label_kinds(users: np.ndarray, cold_pool: np.ndarray) -> np.ndarray:
    """Derive per-event arrival kinds from the user column.

    The first occurrence of a user is ``KIND_COLD`` when the user belongs to
    ``cold_pool`` and ``KIND_EXISTING`` otherwise; every later occurrence is
    ``KIND_RETURNING``.  Pure function of its inputs, so the kinds never need
    to be shipped separately from the user column.
    """
    users = np.asarray(users, dtype=np.int64)
    cold = set(np.asarray(cold_pool, dtype=np.int64).tolist())
    kinds = np.empty(users.size, dtype=np.uint8)
    seen: set[int] = set()
    for position, user in enumerate(users.tolist()):
        if user in seen:
            kinds[position] = KIND_RETURNING
        else:
            seen.add(user)
            kinds[position] = KIND_COLD if user in cold else KIND_EXISTING
    return kinds


@dataclass(frozen=True)
class Trace:
    """An immutable, canonical event log for one simulation run."""

    scenario: str
    seed: int
    n_users: int
    n_items: int
    timestamps: np.ndarray = field(repr=False)
    users: np.ndarray = field(repr=False)
    kinds: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        timestamps = np.ascontiguousarray(self.timestamps, dtype=np.float64)
        users = np.ascontiguousarray(self.users, dtype=np.int64)
        kinds = np.ascontiguousarray(self.kinds, dtype=np.uint8)
        if not (timestamps.shape == users.shape == kinds.shape) or timestamps.ndim != 1:
            raise SimulationError(
                "trace columns must be parallel 1-D arrays, got shapes "
                f"{timestamps.shape}/{users.shape}/{kinds.shape}"
            )
        if timestamps.size:
            if np.diff(timestamps).min() < 0:
                raise SimulationError("trace timestamps must be non-decreasing")
            if users.min() < 0 or users.max() >= self.n_users:
                raise SimulationError(
                    f"trace user indices must lie in [0, {self.n_users}), got "
                    f"range [{users.min()}, {users.max()}]"
                )
        for name, value in (("timestamps", timestamps), ("users", users), ("kinds", kinds)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_events(self) -> int:
        """Number of events in the trace."""
        return self.timestamps.size

    def __len__(self) -> int:
        return self.n_events

    def shard(self, n_shards: int) -> list[np.ndarray]:
        """Split the event axis into ``n_shards`` contiguous index blocks.

        The shard layout is a pure function of ``(n_events, n_shards)`` —
        never of worker counts — which is what makes sharded replay
        byte-identical across ``--jobs`` values.
        Trailing shards may be one event shorter; empty shards are dropped.
        """
        if n_shards < 1:
            raise SimulationError(f"n_shards must be >= 1, got {n_shards}")
        blocks = np.array_split(np.arange(self.n_events, dtype=np.int64), n_shards)
        return [block for block in blocks if block.size]

    def tobytes(self) -> bytes:
        """One canonical byte encoding of the whole trace.

        Header fields and column bytes are concatenated in a fixed order
        (little-endian scalars, C-order arrays), so byte equality here is
        exactly array-and-metadata equality.
        """
        header = (
            np.array(
                [_ENCODING_VERSION, self.seed, self.n_users, self.n_items, self.n_events],
                dtype=np.int64,
            ).tobytes()
            + self.scenario.encode("utf-8")
            + b"\x00"
        )
        return (
            header
            + self.timestamps.tobytes()
            + self.users.tobytes()
            + self.kinds.tobytes()
        )

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`tobytes` (recorded in run reports)."""
        return hashlib.sha256(self.tobytes()).hexdigest()

    def kind_counts(self) -> dict[str, int]:
        """Event counts per arrival kind (for report totals)."""
        kinds = self.kinds
        return {
            "existing": int((kinds == KIND_EXISTING).sum()),
            "cold": int((kinds == KIND_COLD).sum()),
            "returning": int((kinds == KIND_RETURNING).sum()),
        }
