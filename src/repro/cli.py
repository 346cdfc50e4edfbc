"""Command-line interface for the GANC reproduction.

Exposes the experiment harness and the pipeline API without writing Python:

.. code-block:: console

    python -m repro table2 --scale 0.3
    python -m repro figure1 --datasets ml100k ml1m
    python -m repro table4 --datasets ml100k --scale 0.3 --output out.txt
    python -m repro figure6 --scale 0.3
    python -m repro recommend --dataset ml100k --arec psvd100 --theta thetaG --coverage dyn
    python -m repro recommend --dataset ml100k --dump-spec spec.json
    python -m repro run --config spec.json --save-pipeline artifacts/ml100k
    python -m repro run --load-pipeline artifacts/ml100k
    python -m repro ablation-oslg --dataset ml1m

Every experiment subcommand prints the same rows the paper's corresponding
table/figure reports and optionally writes them to ``--output``.  The
``recommend`` subcommand is sugar over a :class:`~repro.pipeline.PipelineSpec`
(``--dump-spec`` writes the equivalent JSON); ``run`` executes any spec file
and can persist/serve fitted pipelines.

Each handler imports the experiment, report, serving and simulation code it
runs, so a command loads only what it calls: ``repro compile --update``
imports no experiment runner, no simulator and no asyncio tier.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.data.io import save_recommendations_csv
from repro.exceptions import ConfigurationError
from repro.experiments.datasets import EXPERIMENT_DATASETS
from repro.experiments.runner import ExperimentTable
from repro.pipeline import (
    ComponentSpec,
    DatasetSpec,
    EvaluationSpec,
    ExecutionSpec,
    GANCSpec,
    Pipeline,
    PipelineSpec,
)
from repro.ganc.kde import validate_bandwidth
from repro.simulate.feedback import FEEDBACK_MODELS
from repro.simulate.scenarios import SCENARIOS
from repro.simulate.sources import SOURCE_KINDS
from repro.utils.tables import format_table

#: Valid sequential orderings for ``--theta-order``.
THETA_ORDERS = ("increasing", "decreasing", "arbitrary")


def _positive_int(option: str) -> Callable[[str], int]:
    """Argparse ``type`` validating strictly positive integer options.

    Raises :class:`ConfigurationError` (not ``ValueError``, which argparse
    would swallow into a generic usage message) so a bad ``--jobs 0`` fails
    loudly with the offending option named, instead of surfacing later as an
    opaque numpy error deep inside a scoring block.
    """

    def parse(text: str) -> int:
        """Parse one occurrence of the option, failing with the flag named."""
        try:
            value = int(text)
        except ValueError:
            raise ConfigurationError(f"{option} must be an integer, got {text!r}") from None
        if value < 1:
            raise ConfigurationError(f"{option} must be >= 1, got {value}")
        return value

    return parse


def _non_negative_int(option: str) -> Callable[[str], int]:
    """Argparse ``type`` validating integer options where ``0`` is meaningful.

    Same contract as :func:`_positive_int` but admits zero — e.g.
    ``--coalesce-window-us 0`` means "flush on the next event-loop tick".
    """

    def parse(text: str) -> int:
        """Parse one occurrence of the option, failing with the flag named."""
        try:
            value = int(text)
        except ValueError:
            raise ConfigurationError(f"{option} must be an integer, got {text!r}") from None
        if value < 0:
            raise ConfigurationError(f"{option} must be >= 0, got {value}")
        return value

    return parse


def _positive_float(option: str) -> Callable[[str], float]:
    """Argparse ``type`` validating strictly positive float options.

    Same rationale as :func:`_positive_int`: ``--scale 0`` used to survive
    argument parsing and only blow up deep inside dataset synthesis with an
    opaque error; now it raises :class:`ConfigurationError` naming the flag.
    """

    def parse(text: str) -> float:
        """Parse one occurrence of the option, failing with the flag named."""
        try:
            value = float(text)
        except ValueError:
            raise ConfigurationError(f"{option} must be a number, got {text!r}") from None
        if not math.isfinite(value) or value <= 0:
            raise ConfigurationError(f"{option} must be a positive finite number, got {value}")
        return value

    return parse


def _bandwidth(option: str) -> Callable[[str], "float | str"]:
    """Argparse ``type`` validating KDE bandwidth options at parse time.

    Accepts a positive number or a plug-in rule name; anything else raises
    :class:`ConfigurationError` naming the flag (same contract as
    ``--jobs``/``--scale``) instead of failing deep inside the KDE fit.
    """

    def parse(text: str) -> float | str:
        """Parse one occurrence of the option, failing with the flag named."""
        value: float | str
        try:
            value = float(text)
        except ValueError:
            value = text
        return validate_bandwidth(value, parameter=option)

    return parse


def _one_of(option: str, choices: tuple[str, ...]) -> Callable[[str], str]:
    """Argparse ``type`` validating an enumerated option at parse time.

    Like ``choices=`` but raises :class:`ConfigurationError` naming the flag
    instead of argparse's generic usage error, matching the other validated
    options.
    """

    def parse(text: str) -> str:
        """Parse one occurrence of the option, failing with the flag named."""
        if text not in choices:
            raise ConfigurationError(
                f"{option} must be one of {'/'.join(choices)}, got {text!r}"
            )
        return text

    return parse


def _emit(table: ExperimentTable, output: str | None) -> None:
    text = table.to_text()
    print(text)
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\nwritten to {path}")


def _add_common_arguments(parser: argparse.ArgumentParser, *, with_datasets: bool = True) -> None:
    parser.add_argument(
        "--scale",
        type=_positive_float("--scale"),
        default=0.35,
        help="surrogate dataset scale factor (must be > 0)",
    )
    parser.add_argument("--seed", type=int, default=0, help="split / sampling seed")
    parser.add_argument("--output", type=str, default=None, help="write the rendered table to this file")
    parser.add_argument(
        "--block-size",
        type=_positive_int("--block-size"),
        default=None,
        help="users scored per matrix block in the batched paths "
        "(default: repro.utils.topn.DEFAULT_BLOCK_SIZE); peak memory is "
        "O(block_size x n_items)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int("--jobs"),
        default=1,
        help="threads the batched score paths fan user blocks out to "
        "(1 = in order; results are byte-identical for any value)",
    )
    if with_datasets:
        parser.add_argument(
            "--datasets",
            nargs="+",
            choices=sorted(EXPERIMENT_DATASETS),
            default=None,
            help="dataset keys to include (default: all five)",
        )


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import run_table2

    _emit(run_table2(datasets=args.datasets, scale=args.scale, seed=args.seed), args.output)
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.experiments.figure1 import run_figure1

    _, table = run_figure1(datasets=args.datasets, scale=args.scale, seed=args.seed)
    _emit(table, args.output)
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import run_figure2

    _, table = run_figure2(datasets=args.datasets, scale=args.scale, seed=args.seed)
    _emit(table, args.output)
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from repro.experiments.figure3_4 import run_figure3

    _, table = run_figure3(
        sample_sizes=tuple(args.sample_sizes), bandwidth=args.bandwidth,
        scale=args.scale, seed=args.seed,
        block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from repro.experiments.figure3_4 import run_figure4

    _, table = run_figure4(
        sample_sizes=tuple(args.sample_sizes), bandwidth=args.bandwidth,
        scale=args.scale, seed=args.seed,
        block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from repro.experiments.figure5 import run_figure5

    _, table = run_figure5(
        dataset_key=args.dataset,
        n_values=tuple(args.n_values),
        sample_size=args.sample_size,
        scale=args.scale,
        seed=args.seed,
        block_size=args.block_size,
        n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.experiments.table4 import run_table4

    _, table = run_table4(
        datasets=args.datasets, scale=args.scale, sample_size=args.sample_size,
        seed=args.seed, block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_figure6(args: argparse.Namespace) -> int:
    from repro.experiments.figure6 import run_figure6

    _, table = run_figure6(
        datasets=args.datasets, scale=args.scale, sample_size=args.sample_size,
        seed=args.seed, block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.experiments.table5 import run_table5

    _, table = run_table5(datasets=args.datasets, scale=args.scale, seed=args.seed)
    _emit(table, args.output)
    return 0


def _cmd_figure7_8(args: argparse.Namespace) -> int:
    from repro.experiments.figure7_8 import run_figure7_8

    _, table = run_figure7_8(
        datasets=tuple(args.datasets or ("ml100k", "ml1m")), scale=args.scale,
        seed=args.seed, block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_ablation_oslg(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import run_oslg_vs_greedy

    _, table = run_oslg_vs_greedy(
        dataset_key=args.dataset, scale=args.scale, seed=args.seed,
        block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_ablation_ordering(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import run_ordering_ablation

    _, table = run_ordering_ablation(
        dataset_key=args.dataset, scale=args.scale, seed=args.seed,
        block_size=args.block_size, n_jobs=args.jobs,
    )
    _emit(table, args.output)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Generate the combined markdown report."""
    from repro.experiments.report_writer import ReportConfig, generate_report, write_report

    config = ReportConfig(
        datasets=tuple(args.datasets or ("ml100k", "ml1m")),
        scale=args.scale,
        sample_size=args.sample_size,
        seed=args.seed,
        include_table4=not args.skip_table4,
        include_figure6=not args.skip_figure6,
    )
    if args.output:
        path = write_report(args.output, config)
        print(f"report written to {path}")
    else:
        print(generate_report(config))
    return 0


def _spec_from_recommend_args(args: argparse.Namespace) -> PipelineSpec:
    """The :class:`PipelineSpec` equivalent of a ``recommend`` invocation."""
    return PipelineSpec(
        dataset=DatasetSpec(key=args.dataset, scale=args.scale),
        recommender=ComponentSpec(args.arec),
        preference=ComponentSpec(args.theta),
        coverage=ComponentSpec(args.coverage),
        ganc=GANCSpec(
            sample_size=args.sample_size,
            bandwidth=args.bandwidth,
            theta_order=args.theta_order,
            block_size=args.block_size,
        ),
        evaluation=EvaluationSpec(n=args.n, block_size=args.block_size),
        execution=ExecutionSpec(n_jobs=args.jobs),
        seed=args.seed,
    )


def _run_pipeline(
    pipeline: Pipeline,
    *,
    dataset_label: str,
    output: str | None,
    save_recommendations: str | None,
    save_pipeline: str | None,
) -> int:
    """Shared recommend/run tail: serve, score, print and persist."""
    recommendations = pipeline.recommend_all()
    report = pipeline.evaluate(recommendations).report

    n = pipeline.spec.evaluation.n
    rows = [[metric, value] for metric, value in report.as_dict().items()]
    text = format_table(
        ["metric", "value"], rows,
        title=f"{pipeline.algorithm} on {dataset_label} (top-{n})",
    )
    print(text)
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\nwritten to {path}")

    if save_recommendations:
        path = save_recommendations_csv(recommendations.as_dict(), save_recommendations)
        print(f"\nrecommendations written to {path}")
    if save_pipeline:
        directory = pipeline.save(save_pipeline)
        print(f"\nfitted pipeline saved to {directory}")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    """Run one GANC configuration end to end and report its metrics."""
    spec = _spec_from_recommend_args(args)
    if args.dump_spec:
        path = spec.to_json_file(args.dump_spec)
        print(f"pipeline spec written to {path}")
    pipeline = Pipeline(spec).fit()
    return _run_pipeline(
        pipeline,
        dataset_label=spec.dataset.key,
        output=args.output,
        save_recommendations=args.save_recommendations,
        save_pipeline=args.save_pipeline,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """Execute a pipeline spec file (or serve a saved fitted pipeline)."""
    if args.load_pipeline:
        pipeline = Pipeline.load(args.load_pipeline)
    else:
        pipeline = Pipeline.from_json_file(args.config)
    # --jobs overrides the spec's execution section: execution is
    # mechanism, not modelling, so overriding it never changes results.
    if args.jobs is not None:
        pipeline.set_execution(ExecutionSpec(n_jobs=args.jobs))
    # --sample-size/--bandwidth/--theta-order override the ganc section:
    # these are optimizer knobs, applied without refitting any component.
    if (
        args.sample_size is not None
        or args.bandwidth is not None
        or args.theta_order is not None
    ):
        ganc = pipeline.spec.ganc
        pipeline.set_ganc(
            dataclasses.replace(
                ganc,
                sample_size=args.sample_size if args.sample_size is not None else ganc.sample_size,
                bandwidth=args.bandwidth if args.bandwidth is not None else ganc.bandwidth,
                theta_order=args.theta_order if args.theta_order is not None else ganc.theta_order,
            )
        )
    if not args.load_pipeline:
        pipeline.fit()
    return _run_pipeline(
        pipeline,
        dataset_label=pipeline.spec.dataset.key,
        output=args.output,
        save_recommendations=args.save_recommendations,
        save_pipeline=args.save_pipeline,
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    """Compile a saved pipeline into a serveable top-N artifact."""
    if args.delta is not None and not args.update:
        raise ConfigurationError("--delta requires --update")
    if args.update:
        # The artifact's own layout is authoritative for an update.
        for flag, value in (
            ("--n", args.n),
            ("--shard-size", args.shard_size),
            ("--max-users", args.max_users),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"{flag} cannot be changed by --update; run a full compile"
                )
        return _cmd_compile_update(args)
    from repro.serving import compile_artifact

    directory = compile_artifact(
        args.pipeline,
        args.artifact,
        n=args.n,
        shard_size=args.shard_size,
        max_users=args.max_users,
        block_size=args.block_size,
        n_jobs=args.jobs,
    )
    from repro.serving import load_manifest

    manifest = load_manifest(directory)
    print(
        f"compiled top-{manifest['n']} artifact for {manifest['n_users']}/"
        f"{manifest['n_users_total']} users ({len(manifest['shards'])} shard(s)) "
        f"of {manifest['algorithm']} to {directory}"
    )
    return 0


def _cmd_compile_update(args: argparse.Namespace) -> int:
    """Delta-only recompilation of a live artifact (``repro compile --update``)."""
    from repro.serving import compile_artifact_update, ingest_and_update

    if args.delta is not None:
        _, refit_report, report = ingest_and_update(
            args.pipeline,
            args.artifact,
            args.delta,
            block_size=args.block_size,
            n_jobs=args.jobs,
        )
        print(
            f"ingested {args.delta} ({refit_report.kind} refit) into {args.pipeline}"
        )
    else:
        report = compile_artifact_update(
            args.pipeline,
            args.artifact,
            block_size=args.block_size,
            n_jobs=args.jobs,
        )
    print(
        f"updated artifact {report.artifact_dir} to revision {report.revision}: "
        f"{report.users_recomputed}/{report.n_users} rows recomputed, "
        f"{report.shards_skipped} shard(s) unchanged, "
        f"{report.shards_rewritten} rewritten, {report.shards_appended} appended"
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Stream a ratings CSV into an out-of-core shard store."""
    from repro.data.outofcore import ingest_csv

    report = ingest_csv(
        args.csv,
        args.output,
        chunk_size=args.chunk_size,
        default_rating=args.rating_default,
        append=args.append,
    )
    print(
        f"ingested {report.n_new_ratings} rating(s) from {args.csv} into "
        f"{report.directory} (revision {report.revision}): now "
        f"{report.n_ratings} ratings, {report.n_users} users, "
        f"{report.n_items} items in {report.n_shards} shard(s)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a compiled artifact over HTTP (with optional live fallback)."""
    from repro.serving import serve_async

    return serve_async(
        args.artifact,
        pipeline=args.pipeline,
        host=args.host,
        port=args.port,
        workers=args.workers,
        fallback_cache_size=args.fallback_cache_size,
        coalesce_max=args.coalesce_max,
        coalesce_window_us=args.coalesce_window_us,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Replay a traffic scenario against a source and report windowed drift."""
    from repro.simulate import (
        SimulationConfig,
        create_source,
        run_simulation,
        write_report,
    )

    source = create_source(
        args.source,
        artifact_dir=args.artifact,
        pipeline_dir=args.pipeline,
        url=args.url,
    )
    config = SimulationConfig(
        scenario=args.scenario,
        n_events=args.events,
        n=args.n,
        feedback=args.feedback,
        window=args.window,
        seed=args.seed,
        shards=args.shards,
        verify=args.verify,
    )
    # A saved pipeline's split gives the store/http replay held-out futures
    # for the accuracy proxies and train popularity for novelty; the live
    # pipeline source carries its own split.
    split = None
    if args.pipeline is not None and args.source != "pipeline":
        from repro.pipeline.persistence import load_split_npz

        split = load_split_npz(Path(args.pipeline) / "split.npz")
    try:
        result = run_simulation(source, config, split=split, n_jobs=args.jobs)
    finally:
        source.close()
    report = result.report

    def _cell(value: float | None) -> str:
        return "-" if value is None else f"{value:.4f}"

    rows = [
        [
            window["index"],
            window["events"],
            window["consumed"],
            f"{window['window_coverage']:.4f}",
            f"{window['cumulative_coverage']:.4f}",
            f"{window['cumulative_gini']:.4f}",
            _cell(window["precision"]),
            _cell(window["epc"]),
        ]
        for window in report["windows"]
    ]
    mode = "online" if report["config"]["online"] else "offline"
    print(
        format_table(
            ["window", "events", "consumed", "cov", "cum-cov", "cum-gini", "prec", "epc"],
            rows,
            title=(
                f"{config.scenario} x {config.feedback} on {args.source} "
                f"({mode}, {report['totals']['events']} events)"
            ),
        )
    )
    totals = report["totals"]
    print(
        f"\ntotals: consumed={totals['consumed']} "
        f"unique_users={totals['unique_users']} "
        f"cold={totals['cold_arrivals']} returning={totals['returning_arrivals']} "
        f"coverage={totals['cumulative_coverage']:.4f} "
        f"gini={totals['cumulative_gini']:.4f}"
    )
    if config.verify:
        print("online invariant verified at every window boundary")
    if args.out:
        path = write_report(report, args.out)
        print(f"\nreport written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GANC reproduction: regenerate the paper's tables/figures or run the framework.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simple_commands: dict[str, tuple[str, Callable[[argparse.Namespace], int]]] = {
        "table2": ("Table II: dataset statistics", _cmd_table2),
        "figure1": ("Figure 1: popularity vs activity", _cmd_figure1),
        "figure2": ("Figure 2: preference histograms", _cmd_figure2),
        "table5": ("Table V: RSVD hyper-parameter selection", _cmd_table5),
        "figure7-8": ("Figures 7-8: ranking protocol comparison", _cmd_figure7_8),
    }
    for name, (help_text, handler) in simple_commands.items():
        sub = subparsers.add_parser(name, help=help_text)
        _add_common_arguments(sub)
        sub.set_defaults(handler=handler)

    for name, handler, dataset_key in (("figure3", _cmd_figure3, "ml1m"), ("figure4", _cmd_figure4, "mt200k")):
        sub = subparsers.add_parser(name, help=f"OSLG sample-size sweep ({dataset_key})")
        _add_common_arguments(sub, with_datasets=False)
        sub.add_argument("--sample-sizes", nargs="+", type=int, default=[100, 300, 500])
        sub.add_argument(
            "--bandwidth", type=_bandwidth("--bandwidth"), default="silverman",
            help="KDE bandwidth for OSLG sampling: a positive number or scott/silverman",
        )
        sub.set_defaults(handler=handler)

    figure5 = subparsers.add_parser("figure5", help="Figure 5: preference models x ARec x N")
    _add_common_arguments(figure5, with_datasets=False)
    figure5.add_argument("--dataset", choices=sorted(EXPERIMENT_DATASETS), default="ml1m")
    figure5.add_argument("--n-values", nargs="+", type=int, default=[5, 10, 15, 20])
    figure5.add_argument("--sample-size", type=_positive_int("--sample-size"), default=500)
    figure5.set_defaults(handler=_cmd_figure5)

    for name, help_text, handler in (
        ("table4", "Table IV: re-ranking comparison", _cmd_table4),
        ("figure6", "Figure 6: accuracy/coverage/novelty trade-offs", _cmd_figure6),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common_arguments(sub)
        sub.add_argument("--sample-size", type=_positive_int("--sample-size"), default=500)
        sub.set_defaults(handler=handler)

    for name, help_text, handler in (
        ("ablation-oslg", "Ablation: OSLG vs exact Locally Greedy", _cmd_ablation_oslg),
        ("ablation-ordering", "Ablation: sequential user ordering", _cmd_ablation_ordering),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_common_arguments(sub, with_datasets=False)
        sub.add_argument("--dataset", choices=sorted(EXPERIMENT_DATASETS), default="ml1m")
        sub.set_defaults(handler=handler)

    report = subparsers.add_parser("report", help="generate the combined markdown report")
    _add_common_arguments(report)
    report.add_argument("--sample-size", type=_positive_int("--sample-size"), default=200)
    report.add_argument("--skip-table4", action="store_true", help="omit the Table IV comparison")
    report.add_argument("--skip-figure6", action="store_true", help="omit the Figure 6 trade-off section")
    report.set_defaults(handler=_cmd_report)

    recommend = subparsers.add_parser("recommend", help="run one GANC configuration and report metrics")
    _add_common_arguments(recommend, with_datasets=False)
    recommend.add_argument("--dataset", choices=sorted(EXPERIMENT_DATASETS), default="ml100k")
    recommend.add_argument("--arec", default="psvd100", help="accuracy recommender (pop, rand, rsvd, psvd10, psvd100, cofir100)")
    recommend.add_argument("--theta", default="thetaG", help="preference model (thetaA/N/T/G/R/C)")
    recommend.add_argument("--coverage", default="dyn", help="coverage recommender (rand, stat, dyn)")
    recommend.add_argument("--n", type=int, default=5, help="top-N size")
    recommend.add_argument(
        "--sample-size", type=_positive_int("--sample-size"), default=500,
        help="OSLG sample size S (sequential users; clipped to the user count)",
    )
    recommend.add_argument(
        "--bandwidth", type=_bandwidth("--bandwidth"), default="silverman",
        help="KDE bandwidth for OSLG sampling: a positive number or scott/silverman",
    )
    recommend.add_argument(
        "--theta-order", type=_one_of("--theta-order", THETA_ORDERS), default="increasing",
        help="sequential user ordering: increasing (paper), decreasing or arbitrary",
    )
    recommend.add_argument(
        "--save-recommendations", type=str, default=None, help="write the top-N sets to this CSV file"
    )
    recommend.add_argument(
        "--dump-spec", type=str, default=None,
        help="write the equivalent pipeline spec JSON to this file",
    )
    recommend.add_argument(
        "--save-pipeline", type=str, default=None,
        help="save the fitted pipeline (spec + arrays) to this directory",
    )
    recommend.set_defaults(handler=_cmd_recommend)

    run = subparsers.add_parser(
        "run", help="execute a pipeline spec JSON (or serve a saved fitted pipeline)"
    )
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=str, default=None, help="pipeline spec JSON file")
    source.add_argument(
        "--load-pipeline", type=str, default=None,
        help="directory of a fitted pipeline saved with --save-pipeline",
    )
    run.add_argument("--output", type=str, default=None, help="write the metric table to this file")
    run.add_argument(
        "--jobs", type=_positive_int("--jobs"), default=None,
        help="override the spec's execution.n_jobs (results are unchanged)",
    )
    run.add_argument(
        "--sample-size", type=_positive_int("--sample-size"), default=None,
        help="override the spec's ganc.sample_size (OSLG sequential sample)",
    )
    run.add_argument(
        "--bandwidth", type=_bandwidth("--bandwidth"), default=None,
        help="override the spec's ganc.bandwidth (number or scott/silverman)",
    )
    run.add_argument(
        "--theta-order", type=_one_of("--theta-order", THETA_ORDERS), default=None,
        help="override the spec's ganc.theta_order",
    )
    run.add_argument(
        "--save-recommendations", type=str, default=None, help="write the top-N sets to this CSV file"
    )
    run.add_argument(
        "--save-pipeline", type=str, default=None,
        help="save the fitted pipeline (spec + arrays) to this directory",
    )
    run.set_defaults(handler=_cmd_run)

    compile_cmd = subparsers.add_parser(
        "compile",
        help="precompute a saved pipeline's top-N into a serveable artifact",
    )
    compile_cmd.add_argument(
        "--pipeline", type=str, required=True,
        help="directory of a fitted pipeline saved with --save-pipeline",
    )
    compile_cmd.add_argument(
        "--artifact", type=str, required=True,
        help="output directory for the compiled artifact",
    )
    compile_cmd.add_argument(
        "--n", type=_positive_int("--n"), default=None,
        help="top-N size to compile (default: the spec's evaluation.n)",
    )
    compile_cmd.add_argument(
        "--shard-size", type=_positive_int("--shard-size"), default=None,
        help="users per .npy shard file (default: 4096)",
    )
    compile_cmd.add_argument(
        "--max-users", type=_positive_int("--max-users"), default=None,
        help="store only the first K users (the rest serve via live fallback)",
    )
    compile_cmd.add_argument(
        "--block-size", type=_positive_int("--block-size"), default=None,
        help="users scored per matrix block during the compile pass",
    )
    compile_cmd.add_argument(
        "--jobs", type=_positive_int("--jobs"), default=None,
        help="threads the compile pass fans user blocks out to",
    )
    compile_cmd.add_argument(
        "--update", action="store_true",
        help="delta-recompile an existing artifact in place: recompute only "
        "what changed, rewrite only shards whose rows differ, bump the "
        "manifest revision (layout flags are taken from the artifact)",
    )
    compile_cmd.add_argument(
        "--delta", type=str, default=None,
        help="ingest this user,item[,rating] CSV into the saved pipeline "
        "before updating (requires --update; the pipeline directory is "
        "refitted and saved back in place)",
    )
    compile_cmd.set_defaults(handler=_cmd_compile)

    ingest_cmd = subparsers.add_parser(
        "ingest",
        help="stream a user,item[,rating] CSV into an out-of-core shard "
        "store loadable as a memmap-backed dataset (dataset.path in specs)",
    )
    ingest_cmd.add_argument(
        "--csv", type=str, required=True,
        help="ratings CSV to ingest (same format as `repro compile --delta`)",
    )
    ingest_cmd.add_argument(
        "--output", type=str, required=True,
        help="ingest-store directory (created fresh unless --append)",
    )
    ingest_cmd.add_argument(
        "--chunk-size", type=_positive_int("--chunk-size"), default=1_000_000,
        help="rows buffered per .npy shard; bounds ingest memory "
        "(default: 1000000)",
    )
    ingest_cmd.add_argument(
        "--rating-default", type=float, default=1.0,
        help="rating assigned to two-column rows (default: 1.0)",
    )
    ingest_cmd.add_argument(
        "--append", action="store_true",
        help="add ratings to an existing store, preserving its id maps "
        "(first-appearance dense indexing, like RatingDataset.extend)",
    )
    ingest_cmd.set_defaults(handler=_cmd_ingest)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="serve a compiled artifact over HTTP (asyncio, keep-alive, "
        "request coalescing into batched store lookups)",
    )
    serve_cmd.add_argument(
        "--artifact", type=str, required=True,
        help="directory of an artifact written by `repro compile`",
    )
    serve_cmd.add_argument(
        "--pipeline", type=str, default=None,
        help="saved pipeline directory used as live fallback for lookups "
        "the artifact does not cover",
    )
    serve_cmd.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8000, help="bind port (0 picks an ephemeral port)"
    )
    serve_cmd.add_argument(
        "--fallback-cache-size", type=_positive_int("--fallback-cache-size"), default=2,
        help="distinct n values whose live recommend_all tables stay cached",
    )
    serve_cmd.add_argument(
        "--async", dest="async_tier", action="store_true",
        help="accepted for compatibility; has no effect (the asyncio "
        "service is the only one)",
    )
    serve_cmd.add_argument(
        "--workers", type=_positive_int("--workers"), default=1,
        help="pre-forked worker processes sharing the listening socket, one "
        "mmap store handle each (default 1)",
    )
    serve_cmd.add_argument(
        "--coalesce-max", type=_positive_int("--coalesce-max"), default=None,
        help="flush a micro-batch at this many queued lookups (default 64)",
    )
    serve_cmd.add_argument(
        "--coalesce-window-us", type=_non_negative_int("--coalesce-window-us"), default=None,
        help="max microseconds a queued lookup waits before its batch is "
        "flushed; 0 flushes on the next event-loop tick (default 500)",
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    simulate_cmd = subparsers.add_parser(
        "simulate",
        help="replay a traffic scenario against a pipeline/artifact/HTTP tier "
        "and report windowed coverage/novelty/accuracy drift",
    )
    simulate_cmd.add_argument(
        "--scenario", type=_one_of("--scenario", SCENARIOS), default="steady",
        help=f"traffic preset: {'/'.join(SCENARIOS)} (default: steady)",
    )
    simulate_cmd.add_argument(
        "--events", type=_positive_int("--events"), default=1000,
        help="number of arrival events to generate and replay (default: 1000)",
    )
    simulate_cmd.add_argument(
        "--feedback", type=_one_of("--feedback", FEEDBACK_MODELS),
        default="position-biased",
        help=f"consumption model: {'/'.join(FEEDBACK_MODELS)} "
        "(default: position-biased)",
    )
    simulate_cmd.add_argument(
        "--source", type=_one_of("--source", SOURCE_KINDS), default="pipeline",
        help="where top-N rows come from: pipeline (live, online feedback for "
        "dynamic coverage), store (compiled artifact), http (running tier)",
    )
    simulate_cmd.add_argument(
        "--pipeline", type=str, default=None,
        help="saved pipeline directory (--source pipeline, or fallback for "
        "--source store)",
    )
    simulate_cmd.add_argument(
        "--artifact", type=str, default=None,
        help="compiled artifact directory (--source store)",
    )
    simulate_cmd.add_argument(
        "--url", type=str, default=None,
        help="base URL of a running serving tier (--source http)",
    )
    simulate_cmd.add_argument(
        "--n", type=_positive_int("--n"), default=10,
        help="top-N size requested per event (default: 10)",
    )
    simulate_cmd.add_argument(
        "--window", type=_positive_int("--window"), default=100,
        help="events per drift-metric window (default: 100)",
    )
    simulate_cmd.add_argument("--seed", type=int, default=0, help="run seed")
    simulate_cmd.add_argument(
        "--shards", type=_positive_int("--shards"), default=4,
        help="trace shards for the parallel replay path; part of the run "
        "configuration, so results are identical for any --jobs (default: 4)",
    )
    simulate_cmd.add_argument(
        "--jobs", type=_positive_int("--jobs"), default=1,
        help="threads shards fan out to (results are byte-identical for any value)",
    )
    simulate_cmd.add_argument(
        "--out", type=str, default=None,
        help="write the canonical JSON run report to this file",
    )
    simulate_cmd.add_argument(
        "--verify", action="store_true",
        help="assert the online invariant (delta coverage state == "
        "from-scratch recompute) at every window boundary",
    )
    simulate_cmd.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
