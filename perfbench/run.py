"""End-to-end benchmark of the GANC build, serving and refresh paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-ganc --seed 1 --seconds 20 --trace 0

The workloads (``build-ganc``, ``serve-read``, ``serve-refresh``) are
described in ``perfbench/README.md``.  The program is reached only through
its CLI and public functions, from the checkout's ``src/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it records the environment and the schedule.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import HASH_SEED, POOL_THREADS, pin_environment  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build-ganc", "serve-read", "serve-refresh"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input by this factor (smoke tests only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(root / "src"))

    import numpy
    import scipy

    from procs import Processes
    from workloads import WORKLOADS, Context

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    procs = Processes(root, work)
    context = Context(root=root, work=work, seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), scale=args.scale, procs=procs)

    def terminate(signum: int, frame: object) -> None:
        raise SystemExit(1)  # unwind so that every started process is stopped

    signal.signal(signal.SIGTERM, terminate)
    try:
        result, schedule = WORKLOADS[args.workload](context)
    finally:
        procs.stop_all()
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):  # other workloads may be using it
        work.parent.rmdir()

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)),
        "pool_threads": POOL_THREADS,
        "python_hash_seed": HASH_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **schedule,
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
