"""The simulation engine: sharded replay, online feedback, windowed drift.

A run has two phases:

**Replay** — the trace's events are answered by the recommendation source
and filtered through the feedback model.  For ``parallel_safe`` sources the
event axis is cut into ``config.shards`` contiguous shards (a pure function
of the trace length — never of worker counts) and fanned out over a
:class:`~repro.parallel.Executor`; each shard's feedback randomness comes
from a per-shard generator derived via ``SeedSequence.spawn`` before any
shard runs, so results are byte-identical for any ``--jobs``.  Online
sources (a live dynamic-coverage GANC) are consumed strictly in event order
instead: each event's consumed items flow back through
``CoverageState.apply`` before the next lookup — with the *same* per-shard
generator layout, so the run stays a pure function of the seed.

**Windowed drift** — events are merged in global order into fixed-size
windows.  Per window the engine records item-space coverage and Gini (of
the recommended rows), novelty (EPC/ARP against train popularity),
accuracy proxies (precision/recall of the recommended rows against the
user's held-out relevant items), and the *cumulative* coverage state over
everything consumed so far — maintained with the O(N)
:meth:`CoverageState.apply_batch` delta and, when ``config.verify`` is on,
checked bit-identical against a from-scratch recompute at every window
boundary (the online invariant) with an additional
``apply → revert → apply`` round trip exercising the exact-inverse
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.coverage.state import CoverageState
from repro.data.split import TrainTestSplit
from repro.exceptions import ConfigurationError, SimulationError
from repro.metrics.report import relevant_test_items
from repro.parallel.executor import Executor
from repro.simulate.events import KIND_COLD, KIND_RETURNING, Trace
from repro.simulate.feedback import FEEDBACK_MODELS, create_feedback
from repro.simulate.report import REPORT_SCHEMA_VERSION
from repro.simulate.scenarios import SCENARIOS, build_trace
from repro.simulate.sources import PipelineSource, RecommendationSource
from repro.utils.rng import spawn_seed_sequences

#: Events looked up per batched source call inside one shard.  Purely a
#: mechanism knob: per-event feedback still runs in event order, so the
#: chunk size never changes results.
_LOOKUP_CHUNK = 512


def _feedback_seed(seed: int) -> int:
    """A replay-phase root seed decorrelated from the scenario's streams.

    Scenario builders and the executor both spawn children of their root
    seed; deriving the replay root from a *salted* ``SeedSequence`` keeps
    the feedback draws statistically independent of the trace draws while
    remaining a pure function of the run seed.
    """
    sequence = np.random.SeedSequence([int(seed), 0x5EEDFEED])
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimulationConfig:
    """Everything that determines a run's bytes (no mechanism knobs).

    ``shards`` is part of the *configuration*, not the execution mechanism:
    the shard layout feeds the per-shard rng derivation, so it must be fixed
    independently of how many workers happen to execute the shards.
    """

    scenario: str = "steady"
    n_events: int = 1000
    n: int = 10
    feedback: str = "position-biased"
    feedback_params: Mapping[str, float] = field(default_factory=dict)
    window: int = 100
    seed: int = 0
    shards: int = 4
    verify: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; available: {list(SCENARIOS)}"
            )
        if self.feedback not in FEEDBACK_MODELS:
            raise ConfigurationError(
                f"unknown feedback model {self.feedback!r}; available: "
                f"{list(FEEDBACK_MODELS)}"
            )
        for name, value, floor in (
            ("n_events", self.n_events, 1),
            ("n", self.n, 1),
            ("window", self.window, 1),
            ("shards", self.shards, 1),
        ):
            if value < floor:
                raise ConfigurationError(f"{name} must be >= {floor}, got {value}")


class ShardReplayTask:
    """Replays one shard of trace events against a parallel-safe source."""

    needs_rng = True

    def __init__(
        self,
        source: RecommendationSource,
        users: np.ndarray,
        n: int,
        feedback: str,
        feedback_params: Mapping[str, float],
    ) -> None:
        self.source = source
        self.users = users
        self.n = n
        self.feedback = feedback
        self.feedback_params = dict(feedback_params)

    def __call__(
        self, events: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(items_block, consumed_per_event)`` for this shard's events."""
        model = create_feedback(self.feedback, **self.feedback_params)
        items_block = np.full((events.size, self.n), -1, dtype=np.int64)
        consumed: list[np.ndarray] = []
        for start in range(0, events.size, _LOOKUP_CHUNK):
            chunk = events[start : start + _LOOKUP_CHUNK]
            items, scores = self.source.rows(self.users[chunk], self.n)
            items_block[start : start + chunk.size] = items[:, : self.n]
            for row in range(chunk.size):
                row_scores = None if scores is None else scores[row]
                consumed.append(model.consume(items[row], row_scores, rng))
        return items_block, consumed


def _replay_online(
    source: RecommendationSource,
    trace: Trace,
    config: SimulationConfig,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Strictly in-order replay with per-event feedback into the source.

    Uses the same shard layout and per-shard generators as the parallel
    path, so the run is a pure function of the seed even though it cannot
    be sharded (each event's consumption changes the next event's answer).
    """
    blocks = trace.shard(config.shards)
    sequences = spawn_seed_sequences(_feedback_seed(config.seed), len(blocks))
    model = create_feedback(config.feedback, **dict(config.feedback_params))
    items_all = np.full((trace.n_events, config.n), -1, dtype=np.int64)
    consumed_all: list[np.ndarray] = []
    for block, sequence in zip(blocks, sequences):
        rng = np.random.default_rng(sequence)
        for event in block.tolist():
            items, scores = source.rows(
                np.asarray([trace.users[event]], dtype=np.int64), config.n
            )
            items_all[event] = items[0, : config.n]
            row_scores = None if scores is None else scores[0]
            eaten = model.consume(items[0], row_scores, rng)
            consumed_all.append(eaten)
            source.push_feedback(eaten)
    return items_all, consumed_all


def _replay_sharded(
    source: RecommendationSource,
    trace: Trace,
    config: SimulationConfig,
    executor: Executor,
) -> tuple[np.ndarray, list[np.ndarray]]:
    blocks = trace.shard(config.shards)
    task = ShardReplayTask(
        source, trace.users, config.n, config.feedback, config.feedback_params
    )
    results = executor.map_blocks(task, blocks, seed=_feedback_seed(config.seed))
    items_all = np.full((trace.n_events, config.n), -1, dtype=np.int64)
    consumed_all: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * trace.n_events
    for block, (items_block, consumed) in zip(blocks, results):
        items_all[block] = items_block
        for offset, event in enumerate(block.tolist()):
            consumed_all[event] = consumed[offset]
    return items_all, consumed_all


def _gini(frequencies: np.ndarray) -> float:
    """Lorenz-curve Gini of a frequency vector (Table III formula)."""
    freq = np.asarray(frequencies, dtype=np.float64)
    total = freq.sum()
    if total <= 0:
        return 1.0
    sorted_freq = np.sort(freq)
    count = sorted_freq.size
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weighted = float(((count + 1 - ranks) * sorted_freq).sum())
    return float((count + 1 - 2.0 * weighted / total) / count)


def _verify_checkpoint(
    state: CoverageState,
    consumed_history: list[np.ndarray],
    window_index: int,
) -> None:
    """The online invariant: delta state == from-scratch recompute, bitwise."""
    fresh = CoverageState.zeros(state.n_items)
    fresh.apply_batch(consumed_history)
    if not np.array_equal(state.counts, fresh.counts) or not np.array_equal(
        state.scores, fresh.scores
    ):
        raise SimulationError(
            f"online invariant violated at window {window_index}: the "
            "delta-updated coverage state diverged from a from-scratch "
            "recompute over the consumed-event history"
        )


@dataclass(frozen=True)
class SimulationResult:
    """A finished run: the trace it consumed and the structured report.

    ``consumed`` holds each event's consumed item indices (same order as
    ``trace``); together with ``trace.users`` it is exactly what
    :func:`repro.data.incremental.consumed_delta` needs to turn the run's
    online feedback into an ingestible rating delta — the simulate →
    ingest → delta-refit → delta-compile loop.
    """

    trace: Trace
    report: dict[str, Any]
    consumed: tuple[np.ndarray, ...] = ()


def run_simulation(
    source: RecommendationSource,
    config: SimulationConfig,
    *,
    split: TrainTestSplit | None = None,
    executor: Executor | None = None,
    trace: Trace | None = None,
) -> SimulationResult:
    """Replay (or generate and replay) a trace and report windowed drift.

    ``split`` supplies held-out futures for the accuracy proxies and train
    popularity for novelty; it defaults to the pipeline's own split when the
    source is a :class:`PipelineSource` and is required by the ``replay``
    scenario.  ``executor`` is pure mechanism — any worker count yields
    byte-identical traces and reports.
    """
    if split is None and isinstance(source, PipelineSource):
        split = source.split
    if trace is None:
        trace = build_trace(
            config.scenario,
            n_users=source.n_users,
            n_items=source.n_items,
            n_events=config.n_events,
            seed=config.seed,
            split=split,
        )
    executor = executor if executor is not None else Executor()

    # ------------------------------------------------------------------ #
    # Phase 1: replay
    # ------------------------------------------------------------------ #
    baseline_counts = (
        source.coverage_counts() if isinstance(source, PipelineSource) else None
    )
    if source.online or not source.parallel_safe:
        items_all, consumed_all = _replay_online(source, trace, config)
    else:
        items_all, consumed_all = _replay_sharded(source, trace, config, executor)

    # ------------------------------------------------------------------ #
    # Phase 2: windowed drift metrics
    # ------------------------------------------------------------------ #
    n_items = source.n_items
    relevant = None if split is None else relevant_test_items(split.test)
    popularity = (
        None
        if split is None
        else split.train.item_popularity().astype(np.float64)
    )
    max_pop = None if popularity is None else max(float(popularity.max()), 1.0)

    state = CoverageState.zeros(n_items)
    consumed_history: list[np.ndarray] = []
    windows: list[dict[str, Any]] = []

    for start in range(0, trace.n_events, config.window):
        stop = min(start + config.window, trace.n_events)
        index = start // config.window
        window_events = range(start, stop)

        window_freq = np.zeros(n_items, dtype=np.int64)
        window_consumed = [consumed_all[event] for event in window_events]
        consumed_count = int(sum(arr.size for arr in window_consumed))
        precision_sum = recall_sum = 0.0
        accuracy_events = 0
        pop_sum = 0.0
        epc_sum = 0.0
        slot_count = 0
        for event in window_events:
            recs = items_all[event]
            recs = recs[recs >= 0]
            if recs.size:
                np.add.at(window_freq, recs, 1)
                if popularity is not None:
                    pops = popularity[recs]
                    pop_sum += float(pops.sum())
                    epc_sum += float((1.0 - pops / max_pop).sum())
                    slot_count += recs.size
            if relevant is not None:
                rel = relevant[int(trace.users[event])]
                if rel.size:
                    hits = np.intersect1d(recs, rel, assume_unique=False).size
                    precision_sum += hits / float(config.n)
                    recall_sum += hits / float(rel.size)
                    accuracy_events += 1

        # Cumulative coverage via the O(N) delta path, with the windowed
        # what-if round trip: apply the window, and under --verify prove
        # revert() is its exact inverse before re-applying.
        covered_before = int(np.count_nonzero(state.counts))
        if config.verify:
            pre_counts = state.counts.copy()
            pre_scores = state.scores.copy()
        state.apply_batch(window_consumed)
        covered_after = int(np.count_nonzero(state.counts))
        if config.verify:
            flat = (
                np.concatenate(window_consumed)
                if consumed_count
                else np.empty(0, dtype=np.int64)
            )
            state.revert(flat)
            if not np.array_equal(state.counts, pre_counts) or not np.array_equal(
                state.scores, pre_scores
            ):
                raise SimulationError(
                    f"revert() failed to invert window {index}'s apply_batch"
                )
            state.apply(flat)
        consumed_history.extend(window_consumed)
        if config.verify:
            _verify_checkpoint(state, consumed_history, index)

        kinds = trace.kinds[start:stop]
        windows.append(
            {
                "index": index,
                "start": start,
                "end": stop,
                "events": stop - start,
                "unique_users": int(np.unique(trace.users[start:stop]).size),
                "cold_arrivals": int((kinds == KIND_COLD).sum()),
                "returning_arrivals": int((kinds == KIND_RETURNING).sum()),
                "consumed": consumed_count,
                "window_coverage": float(np.count_nonzero(window_freq)) / n_items,
                "window_gini": _gini(window_freq),
                "cumulative_coverage": covered_after / n_items,
                "cumulative_gini": _gini(state.counts),
                "coverage_gain": (covered_after - covered_before) / n_items,
                "precision": (
                    None
                    if relevant is None or accuracy_events == 0
                    else precision_sum / accuracy_events
                ),
                "recall": (
                    None
                    if relevant is None or accuracy_events == 0
                    else recall_sum / accuracy_events
                ),
                "epc": (
                    None if popularity is None or slot_count == 0 else epc_sum / slot_count
                ),
                "arp": (
                    None if popularity is None or slot_count == 0 else pop_sum / slot_count
                ),
            }
        )

    # Online sources: the live coverage state must have advanced by exactly
    # the consumed history (float adds of unit increments are exact).
    if config.verify and baseline_counts is not None:
        after = source.coverage_counts()
        assert after is not None
        if not np.array_equal(after, baseline_counts + state.counts):
            raise SimulationError(
                "online invariant violated: the live pipeline coverage state "
                "does not equal its baseline plus the consumed-event history"
            )

    kind_counts = trace.kind_counts()
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "simulation-report",
        "scenario": trace.scenario,
        "feedback": config.feedback,
        "source": source.kind,
        "config": {
            "events": trace.n_events,
            "n": config.n,
            "window": config.window,
            "seed": config.seed,
            "shards": config.shards,
            "n_users": trace.n_users,
            "n_items": trace.n_items,
            "online": bool(source.online),
            "verified": bool(config.verify),
        },
        "trace_digest": trace.digest(),
        "windows": windows,
        "totals": {
            "events": trace.n_events,
            "consumed": int(sum(arr.size for arr in consumed_all)),
            "unique_users": int(np.unique(trace.users).size),
            "existing_arrivals": kind_counts["existing"],
            "cold_arrivals": kind_counts["cold"],
            "returning_arrivals": kind_counts["returning"],
            "cumulative_coverage": float(np.count_nonzero(state.counts)) / n_items,
            "cumulative_gini": _gini(state.counts),
        },
    }
    return SimulationResult(trace=trace, report=report, consumed=tuple(consumed_all))
