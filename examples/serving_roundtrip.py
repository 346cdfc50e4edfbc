"""Compile → serve → query round trip against a live HTTP server.

Loads a saved pipeline, compiles a top-N artifact, stands the ``repro
serve`` HTTP service up on an ephemeral port, queries *every* user over
HTTP, and writes the answers as the same ``user,rank,item`` CSV ``repro run
--save-recommendations`` produces — so the two files can be byte-compared.
CI uses exactly that comparison as its serving smoke test::

    PYTHONPATH=src python -m repro run --config examples/specs/ml100k_tiny.json \\
        --save-pipeline /tmp/pipe --save-recommendations /tmp/run.csv
    PYTHONPATH=src python examples/serving_roundtrip.py \\
        --pipeline /tmp/pipe --output /tmp/serve.csv
    cmp /tmp/run.csv /tmp/serve.csv
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.data.io import save_recommendations_csv
from repro.serving import build_async_service, compile_artifact, start_async_in_thread


def main(argv=None) -> int:
    """Run the round trip; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pipeline", required=True, help="saved pipeline directory (repro run --save-pipeline)"
    )
    parser.add_argument(
        "--artifact", default=None,
        help="artifact directory (default: compile into a temporary directory)",
    )
    parser.add_argument(
        "--output", required=True, help="write the served top-N sets to this CSV file"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        artifact_dir = Path(args.artifact) if args.artifact else Path(tmp) / "artifact"
        if not (artifact_dir / "manifest.json").exists():
            compile_artifact(args.pipeline, artifact_dir)
            print(f"compiled artifact to {artifact_dir}")

        handle = start_async_in_thread(
            build_async_service(artifact_dir, pipeline=args.pipeline)
        )
        base = handle.base_url
        print(f"serving on {base}")

        try:
            with urllib.request.urlopen(f"{base}/healthz") as response:
                health = json.loads(response.read().decode("utf-8"))
            assert health["status"] == "ok", health

            recommendations = {}
            for user in range(health["n_users_total"]):
                with urllib.request.urlopen(f"{base}/recommend?user={user}") as response:
                    payload = json.loads(response.read().decode("utf-8"))
                recommendations[user] = payload["items"]
            path = save_recommendations_csv(recommendations, args.output)
            print(f"queried {len(recommendations)} users over HTTP -> {path}")
        finally:
            handle.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
