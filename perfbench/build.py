"""One build in a fresh process: ratings CSV → servable artifact on disk.

Usage::

    python3 perfbench/build.py REQUEST.json

``REQUEST.json`` names the CSV, the work directory, the model (``ganc`` or
``knn``) and what to do after the build.  The build calls only public
functions — ``ingest_csv``, ``Pipeline.fit``, ``Pipeline.save`` (when the
artifact is to be served with a live fallback) and ``compile_artifact`` at
its defaults — and writes a JSON report next to the request.  With
``"probe": true`` the process stops after its imports: the benchmark uses
that to time process start on its own.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import N, artifact_items, pin_environment, quality, spec_config  # noqa: E402

pin_environment()


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    report_path = Path(request["report"])

    import numpy  # noqa: F401 - part of the program's start-up cost

    from repro.data.outofcore import ingest_csv
    from repro.pipeline import Pipeline, PipelineSpec
    from repro.serving import compile_artifact

    recorder = None
    if request.get("spans"):
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
        # Wrapping rebinds the module attributes; take the wrapped ones.
        from repro.data.outofcore import ingest_csv
        from repro.serving import compile_artifact
    ready = time.monotonic()
    if request.get("probe"):
        report_path.write_text(json.dumps({"ready": ready}), encoding="utf-8")
        return 0

    work = Path(request["dir"])
    artifact = work / "artifact"
    phases: dict[str, float] = {}
    root = recorder.span("build") if recorder is not None else contextlib.nullcontext()
    with root:
        started = time.monotonic()
        ingest_csv(request["csv"], work / "store")
        phases["ingest_s"] = time.monotonic() - started
        spec = PipelineSpec.from_config(spec_config(request["model"], str(work / "store")))
        mark = time.monotonic()
        pipeline = Pipeline(spec).fit()
        phases["fit_s"] = time.monotonic() - mark
        if request.get("save_pipeline"):
            mark = time.monotonic()
            pipeline.save(work / "pipeline")
            phases["save_s"] = time.monotonic() - mark
        mark = time.monotonic()
        compile_artifact(pipeline, artifact, max_users=request.get("max_users"))
        phases["compile_s"] = time.monotonic() - mark
        built = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.dump(request["spans"], main_start=ready)

    result: dict[str, object] = {
        "ready": ready,
        "built": built,
        "build_s": built - started,
        "phases": phases,
        "rss_mb": rss_mb,
    }
    if request.get("check"):
        import numpy as np

        items = artifact_items(artifact)
        expected = pipeline.recommend_all(N).items[: items.shape[0]]
        result["rows_equal"] = bool(
            items.dtype == expected.dtype
            and items.shape == expected.shape
            and np.array_equal(items, expected)
        )
        result["quality"] = quality(pipeline, items)
        result["users"] = int(items.shape[0])
    report_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
