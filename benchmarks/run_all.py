"""Unified benchmark driver: run every committed bench, emit BENCH_*.json.

Runs each standalone benchmark driver in-process and validates the
machine-readable ``benchmarks/output/BENCH_<name>.json`` documents they emit
against the shared schema (see :mod:`bench_json`), so the performance
trajectory is tracked PR-over-PR in reviewable, diffable JSON instead of
only prose tables.

Run directly::

    PYTHONPATH=src python benchmarks/run_all.py              # full-scale pass
    PYTHONPATH=src python benchmarks/run_all.py --smoke      # CI: tiny scale, schema-validated
    PYTHONPATH=src python benchmarks/run_all.py --only ganc  # a single bench

``--smoke`` runs every bench at a tiny scale with all speedup gates
disabled — the point is exercising every driver end to end and validating
the JSON schema, not producing meaningful numbers — and is wired as the CI
bench-smoke step.  It points :data:`bench_json.OUTPUT_DIR` at a temporary
directory for the run and validates there, so the committed
``benchmarks/output/`` files are left as they are.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import bench_batch_scoring
import bench_ganc
import bench_parallel_scaling
import bench_scale
import bench_serving
import bench_simulate
import bench_update
import bench_json
from bench_json import load_and_validate

#: name -> (module, full-scale argv, smoke argv)
BENCHES: dict[str, tuple] = {
    "ganc": (
        bench_ganc,
        [],
        ["--scale", "0.1", "--repeats", "1", "--sample-size", "30",
         "--min-seq-speedup", "0", "--min-e2e-speedup", "0"],
    ),
    "batch_scoring": (
        bench_batch_scoring,
        [],
        ["--scale", "0.1", "--repeats", "1", "--min-speedup", "0"],
    ),
    "parallel_scaling": (
        bench_parallel_scaling,
        ["--scale", "8", "--jobs", "2"],
        ["--scale", "0.1", "--jobs", "2", "--repeats", "1", "--min-speedup", "0"],
    ),
    "scale": (
        bench_scale,
        [],
        [
            "--users", "800", "--items", "600", "--ratings", "20000",
            "--sample-users", "128", "--chunk-size", "8000",
        ],
    ),
    "serving": (
        bench_serving,
        [],
        [
            "--scale", "0.1", "--repeats", "1", "--lookups", "100",
            "--clients", "4", "--requests-per-client", "25", "--min-load-speedup", "0",
        ],
    ),
    "simulate": (
        bench_simulate,
        [],
        [
            "--scale", "0.05", "--events", "400", "--window", "100",
            "--online-events", "120", "--repeats", "1",
        ],
    ),
    "update": (
        bench_update,
        [],
        [
            "--scale", "0.1", "--repeats", "1", "--delta-events", "50",
            "--coldstart-users", "20", "--min-coldstart-speedup", "0",
        ],
    ),
}


def main(argv=None) -> int:
    """Run the requested benches, then validate every emitted JSON document."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", nargs="+", choices=sorted(BENCHES), default=None,
        help="run only these benches (default: all)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny-scale pass with speedup gates disabled (CI schema check)",
    )
    parser.add_argument(
        "--validate-only", action="store_true",
        help="skip running; only validate the committed BENCH_*.json files",
    )
    args = parser.parse_args(argv)
    names = args.only or sorted(BENCHES)
    if not args.smoke or args.validate_only:
        return _run(names, args)
    committed = bench_json.OUTPUT_DIR
    with tempfile.TemporaryDirectory(prefix="bench-smoke-") as scratch:
        bench_json.OUTPUT_DIR = Path(scratch)
        try:
            return _run(names, args)
        finally:
            bench_json.OUTPUT_DIR = committed


def _run(names: list[str], args: argparse.Namespace) -> int:
    """Run (unless ``--validate-only``) and validate the named benches."""
    failures: list[str] = []

    if not args.validate_only:
        for name in names:
            module, full_args, smoke_args = BENCHES[name]
            bench_argv = smoke_args if args.smoke else full_args
            print(f"=== {name} {' '.join(bench_argv)}")
            try:
                code = module.main(list(bench_argv))
            except SystemExit as exc:  # drivers that exit explicitly
                code = int(exc.code or 0)
            if code != 0:
                failures.append(f"{name}: exited {code}")
            print()

    for name in names:
        path = bench_json.OUTPUT_DIR / f"BENCH_{name}.json"
        if not path.exists():
            failures.append(f"{name}: {path.name} was not emitted")
            continue
        try:
            payload = load_and_validate(path)
        except (ValueError, OSError) as exc:
            failures.append(f"{name}: {exc}")
            continue
        if payload.get("bench") != name:
            failures.append(
                f"{name}: document names bench {payload.get('bench')!r}"
            )
        else:
            print(f"validated {path.relative_to(Path.cwd()) if path.is_relative_to(Path.cwd()) else path}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nall benchmark JSON documents valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
