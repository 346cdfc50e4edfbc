"""Traffic-replay simulation with online GANC feedback.

The :mod:`repro.simulate` subsystem turns the static-split reproduction into
a living system: timestamped interaction traces (generated by scenario
presets or replayed from a held-out split) are answered by a recommendation
source — a live :class:`~repro.pipeline.Pipeline`, a compiled
:class:`~repro.serving.store.RecommendationStore` artifact, or a running
HTTP serving tier — filtered through a behavioural feedback model, and fed
back into the dynamic coverage state, while windowed drift metrics track
how accuracy, novelty and item-space coverage evolve under traffic.

Entry points: :func:`run_simulation` (library), ``repro simulate`` (CLI).

Each public name is imported from its submodule on first access.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule it is imported from on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("ShardReplayTask", "SimulationConfig", "SimulationResult", "run_simulation"),
        "repro.simulate.engine",
    ),
    **dict.fromkeys(
        ("KIND_COLD", "KIND_EXISTING", "KIND_RETURNING", "Trace", "label_kinds"),
        "repro.simulate.events",
    ),
    **dict.fromkeys(
        (
            "FEEDBACK_MODELS",
            "AcceptAll",
            "FeedbackModel",
            "PositionBiased",
            "ThresholdOnScore",
            "create_feedback",
        ),
        "repro.simulate.feedback",
    ),
    **dict.fromkeys(
        (
            "REPORT_SCHEMA_VERSION",
            "canonical_bytes",
            "load_report",
            "validate_report",
            "write_report",
        ),
        "repro.simulate.report",
    ),
    **dict.fromkeys(("SCENARIOS", "build_trace"), "repro.simulate.scenarios"),
    **dict.fromkeys(
        (
            "SOURCE_KINDS",
            "HTTPSource",
            "PipelineSource",
            "RecommendationSource",
            "StoreSource",
            "create_source",
        ),
        "repro.simulate.sources",
    ),
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
