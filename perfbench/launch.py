"""Run one ``repro`` CLI command in this process with the span wrappers installed.

Usage::

    python3 perfbench/launch.py SPANS.json serve --async --artifact A ...

The arguments after ``SPANS.json`` go to ``repro.cli.main`` unchanged.  The
spans are written to ``SPANS.json`` when the command returns and when the
process receives SIGTERM or SIGINT: the single-worker async tier installs no
SIGTERM handler of its own, so without this one a terminated server would
exit without running any ``finally`` block.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, clock, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import repro.cli
    import repro.serving.update  # noqa: F401 - imported so its bindings are wrapped

    recorder = Recorder()
    install(recorder)
    main_start = clock()

    def stop(signum: int, frame: object) -> None:
        recorder.dump(spans_path, main_start=main_start)
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        with recorder.span("process"):
            return repro.cli.main(cli_args)
    finally:
        recorder.dump(spans_path, main_start=main_start)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
