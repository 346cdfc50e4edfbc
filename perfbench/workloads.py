"""The three workloads: inputs, measured phase, output checks and metrics.

Each workload returns ``(result, environment)``: ``result`` has the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics,
or per-layer ones in a traced run); ``environment`` records the inputs and
schedule the run used.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import signal
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.incremental import extend_split_interactions, read_delta_csv
from repro.data.synthetic import stream_ratings_csv
from repro.pipeline import Pipeline
from repro.serving import RecommendationStore, compile_artifact
from repro.serving.service import json_body, recommend_body, recommend_payload

import client
from common import N, SAMPLE_SIZE, SECOND_N, artifact_items, quality
from layers import SpanFile, assemble, model_layers, serving_layers, trace_layers
from procs import HERE, Processes, Server, clock, cpu_s, peak_rss_mb

#: The ratings and the rating deltas are the same for every ``--seed``:
#: across generator seeds the quality metrics of GANC moved by 15-30% (IQR
#: over median, five seeds), which would drown any change a gate should
#: catch.  ``--seed`` drives what happens to the data instead: the arrival
#: times, requested users and request mix of every read phase.
DATA_SEED = 2018
#: build-ganc input: one build takes 6-10 s here, so that 4 + 22 runs of each
#: workload fit the driver's hour even while the host runs slow.
BUILD_SIZE = {"n_users": 7_000, "n_items": 2_800, "target_ratings": 280_000}
#: Input of both serving workloads.
SERVE_SIZE = {"n_users": 2_000, "n_items": 1_000, "target_ratings": 80_000}
#: serve-read compiles this share of users; the rest take the live fallback.
COVERED_SHARE = 0.9
#: Fresh processes timed for build-ganc's set-up before each build and after
#: the last, after one untimed warm-up.
PROBES = 2
#: Set-ups per serving run; set-up metrics are their medians.
SETUP_REPEATS = 5
#: build-ganc builds until ``--seconds`` of build time are spent, and at
#: least this often, so that its medians never rest on one build.
MIN_BUILDS = 2
#: build-ganc serves the first build's artifact, every request at the
#: compiled n, for this long in all (at most ``--seconds``): in slices of
#: ``READ_SLICE_S`` after each build, the rest after the last.
BUILD_READ_S, READ_SLICE_S = 9.0, 3.0
#: Untimed reads that warm a served tier before its first measured slice.
WARM_S = 1.0
#: Offered request rate of the open-loop client.
RATE = 500.0
#: serve-refresh: one delta is due this long into every read slice.  Each
#: has existing users rating items new to them, plus a few new users with
#: integer ids.
DELTA_DUE_S = 0.5
DELTA_USERS, DELTA_RATINGS_PER_USER, DELTA_NEW_USERS = 60, 5, 4
BUILD_TIMEOUT_S, UPDATE_TIMEOUT_S = 150.0, 60.0


@dataclass
class Context:
    """One run: where it works, its seed and length, and whether it traces."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    scale: float
    procs: Processes

    def spans(self, name: str) -> Path | None:
        """Where a traced process writes its spans (``None`` untraced)."""
        return self.work / "spans" / f"{name}.json" if self.trace else None

    def size(self, size: dict[str, int]) -> dict[str, int]:
        """An input size shrunk by ``--scale`` (smoke runs only)."""
        return {key: max(16, int(value * self.scale)) for key, value in size.items()}


def client_threads() -> int:
    """One blocking connection per CPU, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def _generate(ctx: Context, size: dict[str, int]) -> Path:
    path = ctx.work / "ratings.csv"
    stream_ratings_csv(path, seed=DATA_SEED, **size)
    return path


def _build(ctx: Context, request: dict[str, Any], name: str) -> tuple[dict[str, Any] | None, float]:
    """Run ``build.py`` in a fresh process; returns its report and spawn time."""
    request = {**request, "report": str(ctx.work / f"{name}.report.json")}
    if ctx.trace and not request.get("probe"):
        request["spans"] = str(ctx.spans(name))
    path = ctx.work / f"{name}.request.json"
    path.write_text(json.dumps(request), encoding="utf-8")
    spawned = clock()
    code, _ = ctx.procs.run([str(HERE / "build.py"), str(path)], name=name, timeout=BUILD_TIMEOUT_S)
    if code != 0:
        return None, spawned
    return json.loads(Path(request["report"]).read_text(encoding="utf-8")), spawned


def _same_tree(left: Path, right: Path) -> bool:
    """Whether two directories hold the same files with the same bytes."""
    names = sorted(p.relative_to(left) for p in left.rglob("*") if p.is_file())
    if names != sorted(p.relative_to(right) for p in right.rglob("*") if p.is_file()):
        return False
    return all((left / name).read_bytes() == (right / name).read_bytes() for name in names)


# --------------------------------------------------------------------------- #
# build-ganc
# --------------------------------------------------------------------------- #
def build_ganc(ctx: Context) -> tuple[dict[str, Any], dict[str, Any]]:
    """Fresh-process builds of a GANC artifact from a ratings CSV.

    A read slice of the first build's artifact follows every build, so that
    the reads, like the builds, are spread over the whole run.
    """
    size = ctx.size(BUILD_SIZE)
    csv = _generate(ctx, size)
    probe = {"probe": True}
    _build(ctx, probe, "probe-warm")  # untimed: fills the bytecode and page caches
    starts: list[float] = []

    def probes(tag: str) -> None:
        for k in range(PROBES):
            report, spawned = _build(ctx, probe, f"probe{tag}-{k}")
            if report is None:
                raise RuntimeError("import probe failed")
            starts.append(report["ready"] - spawned)

    reference = ctx.work / "reference"
    builds: list[dict[str, Any]] = []
    slices: list[dict[str, Any]] = []
    measured = 0.0
    quality_values: dict[str, float] = {}
    server: Server | None = None
    read_s = min(ctx.seconds, BUILD_READ_S)

    def read(most: float) -> None:
        seconds = min(most, read_s - sum(s["seconds"] for s in slices))
        if seconds > 0:
            slices.append(_read(ctx, server, manifest, len(slices) + 1, seconds, second_n=N))

    while len(builds) < MIN_BUILDS or measured < ctx.seconds:
        k = len(builds)
        probes(str(k))
        shutil.rmtree(ctx.work / "build", ignore_errors=True)
        request = {"csv": str(csv), "dir": str(ctx.work / "build"), "model": "ganc", "check": k == 0}
        report, spawned = _build(ctx, request, f"build{k}")
        if report is None:
            if k == 0:
                raise RuntimeError("the first build failed; see build0.log")
            builds.append({"ok": False})
            break
        artifact = ctx.work / "build" / "artifact"
        if k == 0:
            ok = report["rows_equal"]
            quality_values = report["quality"]
            shutil.copytree(artifact, reference)
            server = Server(ctx.procs, reference, None, spans=None, name="reader")
            server.wait_healthy()
            manifest = json.loads((reference / "manifest.json").read_text(encoding="utf-8"))
            _warm(ctx, server, manifest, second_n=N)
        else:
            ok = _same_tree(artifact, reference)
        measured += report["build_s"]
        starts.append(report["ready"] - spawned)
        builds.append({**report, "ok": ok, "fresh_s": report["built"] - spawned})
        read(READ_SLICE_S)
    assert server is not None
    probes("last")
    read(read_s)
    run = _combine(slices, server)
    server.stop()
    good_reads = _good_responses(RecommendationStore(reference), run)

    good = [b for b in builds if b["ok"]]
    attempted = len(builds) + run["client"]["requests"]
    result = {"correct": len(good) + good_reads == attempted, "attempted": attempted,
              "failed": attempted - len(good) - good_reads}
    environment = {
        "input": size, "oslg_sample_size": SAMPLE_SIZE, "n": N,
        "read_slices_s": [s["seconds"] for s in slices], "warm_s": WARM_S,
        "rate_per_s": RATE, "client_threads": client_threads(),
        "samples": {
            "setup_s": starts,
            **{key: [b[key] for b in good] for key in ("build_s", "rss_mb", "fresh_s")},
        },
    }
    if ctx.trace:
        files = [SpanFile(ctx.spans(f"build{k}")) for k in range(len(builds))]
        result["metrics"] = assemble(
            model_layers(files, None, per=len(files)), trace_layers(files, files)
        )
        return result, environment

    def median(key: str) -> float:
        return statistics.median(b[key] for b in good)

    result["metrics"] = {
        "setup_s": _metric(statistics.median(starts), "s"),
        "build_s": _metric(median("build_s"), "s"),
        "peak_rss_mb": _metric(median("rss_mb"), "MB"),
        "precision_at_n": _metric(quality_values["precision_at_n"], "share"),
        "lt_accuracy_at_n": _metric(quality_values["lt_accuracy_at_n"], "share"),
        "gini_at_n": _metric(quality_values["gini_at_n"], "index"),
        "read_p50_ms": _metric(run["client"]["read_p50_ms"], "ms"),
        "serve_cpu_ms": _metric(run["server_cpu_s"] / max(run["client"]["requests"], 1) * 1e3, "ms"),
        "freshness_s": _metric(median("fresh_s"), "s"),
        "ok_share": _metric((len(good) + good_reads) / attempted, "share"),
    }
    return result, environment


# --------------------------------------------------------------------------- #
# Shared by the serving workloads
# --------------------------------------------------------------------------- #
def _setup(
    ctx: Context, csv: Path, model: str, max_users: int | None, directory: Path, k: int
) -> tuple[Server, dict[str, Any], dict[str, Any]]:
    """One set-up: build and compile into ``directory``, serve, warm.

    Returns the running tier, the set-up's record and its artifact manifest.
    """
    shutil.rmtree(directory, ignore_errors=True)
    request = {"csv": str(csv), "dir": str(directory), "model": model,
               "max_users": max_users, "save_pipeline": True}
    report, spawned = _build(ctx, request, f"setup{k}")
    if report is None:
        raise RuntimeError(f"set-up build {k} failed")
    server = Server(ctx.procs, directory / "artifact", directory / "pipeline",
                    spans=ctx.spans(f"server{k}"), name=f"server{k}")
    healthy = server.wait_healthy()
    manifest = json.loads((directory / "artifact" / "manifest.json").read_text(encoding="utf-8"))
    uncovered = manifest["n_users"] if manifest["n_users"] < manifest["n_users_total"] else 0
    statuses = [server.get(f"/recommend?user={uncovered}&n={N}")[0],
                server.get(f"/recommend?user=0&n={SECOND_N}")[0]]
    record = {
        "setup_s": clock() - spawned,
        "build_s": report["build_s"],
        "fresh_s": healthy - spawned,
        "ok": statuses == [200, 200],
    }
    return server, record, manifest


def _expected_body(store: Any, request: client.Request) -> bytes:
    """The bytes the tier must answer with, computed from the store directly."""
    if request.kind == "batch":
        items, scores, covered = store.lookup_rows(np.asarray(request.users), request.n)
        results = [
            recommend_payload(
                store, user, request.n, items[row],
                scores[row] if scores is not None and covered[row] else None,
                "artifact" if covered[row] else "live",
            )
            for row, user in enumerate(request.users)
        ]
        return json_body({"count": len(results), "results": results})
    items, scores, source = store.lookup(request.users[0], request.n)
    return recommend_body(recommend_payload(store, request.users[0], request.n, items, scores, source))


def _read(
    ctx: Context, server: Server, manifest: dict, part: int, seconds: float, *,
    second_n: int = SECOND_N, during=None,
) -> dict[str, Any]:
    """Play slice ``part`` of the read schedule against ``server``; ``during``
    runs beside it."""
    plans = client.schedule(
        ctx.seed, part=part, rate=RATE, seconds=seconds, threads=client_threads(),
        n_users=manifest["n_users_total"], n=N, second_n=second_n,
        host=server.address[0], port=server.address[1],
    )
    before = server.healthz()
    cpu_before = cpu_s(server.pid)
    start = clock() + 0.1
    side = None
    if during is not None:
        side = threading.Thread(target=during, args=(start,), daemon=True)
        side.start()
    outcomes = client.run(server.address, plans, start)
    if side is not None:
        side.join(UPDATE_TIMEOUT_S)
    end = clock()
    server_cpu = cpu_s(server.pid) - cpu_before
    return {
        "seconds": seconds, "plans": plans, "outcomes": outcomes, "start": start,
        "window": (start, end), "before": before, "after": server.healthz(),
        "server_cpu_s": server_cpu,
    }


def _warm(ctx: Context, server: Server, manifest: dict, second_n: int = SECOND_N) -> None:
    """Untimed reads (slice 0, answers unchecked) before the measured ones."""
    _read(ctx, server, manifest, 0, min(ctx.seconds, WARM_S), second_n=second_n)


def _combine(slices: list[dict[str, Any]], server: Server) -> dict[str, Any]:
    """The measured slices of one run, taken together."""
    return {
        "plans": [plan for s in slices for plan in s["plans"]],
        "outcomes": [outcome for s in slices for outcome in s["outcomes"]],
        "windows": [s["window"] for s in slices],
        "counters": [(s["before"], s["after"]) for s in slices],
        "server_cpu_s": sum(s["server_cpu_s"] for s in slices),
        "client": client.summary([(s["plans"], s["outcomes"], s["start"]) for s in slices]),
        "rss_mb": peak_rss_mb(server.pid),
    }


def _read_between_setups(
    ctx: Context, csv: Path, model: str, max_users: int | None, server: Server,
    manifest: dict, during=None,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]]:
    """Warm ``server`` (set-up 0's tier), then read it in ``SETUP_REPEATS``
    slices with set-ups 1, 2, ... between them, so that reads and set-ups
    both spread over the run.  ``during(k, start)`` runs beside slice ``k``
    (from 0).  Returns the records of the further set-ups and the slices.
    """
    _warm(ctx, server, manifest)
    setups, slices = [], []
    for k in range(SETUP_REPEATS):
        side = None if during is None else functools.partial(during, k)
        slices.append(_read(ctx, server, manifest, k + 1, ctx.seconds / SETUP_REPEATS, during=side))
        if k + 1 < SETUP_REPEATS:
            other, record, _ = _setup(ctx, csv, model, max_users, ctx.work / "other", k + 1)
            other.stop()
            setups.append(record)
    return setups, slices


def _good_responses(store: Any, run: dict) -> int:
    """Responses of a run that are byte-equal to what ``store`` answers."""
    expected: dict[tuple, bytes] = {}
    good = 0
    for plan, outcome in zip(run["plans"], run["outcomes"]):
        for request, status, body in zip(plan, outcome.status, outcome.body):
            key = (request.kind, request.users, request.n)
            if key not in expected:
                expected[key] = _expected_body(store, request)
            good += status == 200 and body == expected[key]
    return good


def _serving_metrics(setups: list[dict], run: dict, quality_values: dict[str, float]) -> dict:
    requests = max(run["client"]["requests"], 1)
    return {
        "setup_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "build_s": _metric(statistics.median(s["build_s"] for s in setups), "s"),
        "precision_at_n": _metric(quality_values["precision_at_n"], "share"),
        "lt_accuracy_at_n": _metric(quality_values["lt_accuracy_at_n"], "share"),
        "gini_at_n": _metric(quality_values["gini_at_n"], "index"),
        "read_p50_ms": _metric(run["client"]["read_p50_ms"], "ms"),
        "serve_cpu_ms": _metric(run["server_cpu_s"] / requests * 1e3, "ms"),
    }


def _schedule_record(size: dict[str, int], setups: list[dict]) -> dict[str, Any]:
    return {"input": size, "rate_per_s": RATE, "client_threads": client_threads(),
            "n": N, "second_n": SECOND_N,
            "mix": {"get": client.GET_SHARE, "second_n": client.SECOND_N_SHARE,
                    "batch": client.BATCH_SHARE, "batch_users": client.BATCH_USERS},
            "samples": {key: [s[key] for s in setups] for key in ("setup_s", "build_s", "fresh_s")}}


# --------------------------------------------------------------------------- #
# serve-read
# --------------------------------------------------------------------------- #
def serve_read(ctx: Context) -> tuple[dict[str, Any], dict[str, Any]]:
    """Open-loop reads against a GANC artifact with an uncovered user share."""
    csv = _generate(ctx, ctx.size(SERVE_SIZE))
    max_users = int(ctx.size(SERVE_SIZE)["n_users"] * COVERED_SHARE)
    work = ctx.work / "serve"
    server, record, manifest = _setup(ctx, csv, "ganc", max_users, work, 0)
    setups, slices = _read_between_setups(ctx, csv, "ganc", max_users, server, manifest)
    setups.insert(0, record)
    run = _combine(slices, server)
    server.stop()

    good = _good_responses(RecommendationStore(work / "artifact", pipeline=work / "pipeline"), run)
    good += sum(s["ok"] for s in setups)
    attempted = run["client"]["requests"] + len(setups)
    quality_values = quality(Pipeline.load(work / "pipeline"), artifact_items(work / "artifact"))

    result = {"correct": good == attempted, "attempted": attempted, "failed": attempted - good}
    environment = _schedule_record(ctx.size(SERVE_SIZE), setups)
    environment["covered_users"] = manifest["n_users"]
    if ctx.trace:
        setup_files = [SpanFile(ctx.spans(f"setup{k}")) for k in range(len(setups))]
        server_file = SpanFile(ctx.spans("server0"))
        result["metrics"] = assemble(
            model_layers([server_file], run["windows"], per=1),
            serving_layers(server_file, run),
            trace_layers(setup_files, setup_files + [server_file]),
        )
        return result, environment
    result["metrics"] = {
        **_serving_metrics(setups, run, quality_values),
        "peak_rss_mb": _metric(run["rss_mb"], "MB"),
        "freshness_s": _metric(statistics.median(s["fresh_s"] for s in setups), "s"),
        "ok_share": _metric(good / attempted, "share"),
    }
    return result, environment


# --------------------------------------------------------------------------- #
# serve-refresh
# --------------------------------------------------------------------------- #
def _make_deltas(ctx: Context, csv: Path, count: int) -> list[Path]:
    """The delta files, generated from the fixed data seed.

    Existing users rate items they have not rated yet, so every delta
    changes the item-item model; new users get fresh integer ids, the id
    type of the ingested data.
    """
    data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    users, items = data[:, 0].astype(np.int64), data[:, 1].astype(np.int64)
    known_items = np.unique(items)
    rated: dict[int, set[int]] = {}
    for user, item in zip(users.tolist(), items.tolist()):
        rated.setdefault(user, set()).add(item)
    rng = np.random.default_rng([DATA_SEED, 1])
    next_user = max(rated) + 1
    deltas = []
    for k in range(count):
        rows = []
        open_users = np.array(sorted(
            u for u, seen in rated.items() if known_items.size - len(seen) >= DELTA_RATINGS_PER_USER
        ))
        chosen = rng.choice(open_users, size=min(DELTA_USERS, open_users.size), replace=False)
        for user in chosen.tolist():
            unrated = np.setdiff1d(known_items, np.fromiter(rated[user], dtype=np.int64))
            for item in rng.choice(unrated, size=DELTA_RATINGS_PER_USER, replace=False).tolist():
                rated[user].add(item)
                rows.append((user, item, int(rng.integers(1, 6))))
        for _ in range(DELTA_NEW_USERS):
            for item in rng.choice(known_items, size=DELTA_RATINGS_PER_USER, replace=False).tolist():
                rows.append((next_user, item, int(rng.integers(1, 6))))
            next_user += 1
        path = ctx.work / "deltas" / f"delta{k}.csv"
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            "user,item,rating\n" + "".join(f"{u},{i},{r}.0\n" for u, i, r in rows), encoding="utf-8"
        )
        deltas.append(path)
    return deltas


def _apply_delta(ctx: Context, server: Server, path: Path, k: int,
                 records: list[dict], start: float) -> None:
    """Apply delta ``k`` when due: ``repro compile --update --delta``, SIGHUP,
    then poll ``/healthz`` until the new revision is served.  Nothing is
    applied once an earlier delta has failed."""
    if any("seen" not in r for r in records):
        return
    work = ctx.work / "serve"
    due = start + DELTA_DUE_S
    if due > clock():
        time.sleep(due - clock())
    cli = ["compile", "--update", "--delta", str(path), "--pipeline", str(work / "pipeline"),
           "--artifact", str(work / "artifact")]
    spans = ctx.spans(f"update{k}")
    args = [str(HERE / "launch.py"), str(spans), *cli] if spans else ["-m", "repro", *cli]
    began = clock()
    code, rss = ctx.procs.run(args, name=f"update{k}", timeout=UPDATE_TIMEOUT_S)
    record = {"due": due, "began": began, "exited": clock(), "code": code, "rss_mb": rss}
    records.append(record)
    if code != 0:
        return
    manifest = json.loads((work / "artifact" / "manifest.json").read_text(encoding="utf-8"))
    revision = int(manifest["revision"])
    record["hup"] = clock()
    os.kill(server.pid, signal.SIGHUP)
    deadline = clock() + UPDATE_TIMEOUT_S
    while server.healthz()["revision"] < revision:
        if clock() > deadline:
            return
        time.sleep(0.005)
    record["seen"] = clock()
    record["revision"] = revision
    shutil.copytree(work / "artifact", ctx.work / "revisions" / str(revision))


def _scratch_compile(ctx: Context, deltas: list[Path]) -> Any:
    """A from-scratch fit and compile of the initial data plus every delta."""
    base = Pipeline.load(ctx.work / "pipeline0")
    split = base.split
    for path in deltas:
        split = extend_split_interactions(split, read_delta_csv(path)).split
    fresh = Pipeline(base.spec).fit(split)
    compile_artifact(fresh, ctx.work / "scratch")
    return fresh


def _same_artifact(updated: Path, scratch: Path) -> bool:
    """Every shard byte and every manifest field except ``revision`` agree."""
    left = json.loads((updated / "manifest.json").read_text(encoding="utf-8"))
    right = json.loads((scratch / "manifest.json").read_text(encoding="utf-8"))
    left.pop("revision")
    right.pop("revision")
    return left == right and _same_tree(updated / "shards", scratch / "shards")


def serve_refresh(ctx: Context) -> tuple[dict[str, Any], dict[str, Any]]:
    """Reads beside a fixed schedule of rating deltas and warm reloads: one
    delta arrives in every read slice."""
    csv = _generate(ctx, ctx.size(SERVE_SIZE))
    work = ctx.work / "serve"
    server, record, manifest = _setup(ctx, csv, "knn", None, work, 0)
    shutil.copytree(work / "pipeline", ctx.work / "pipeline0")
    first = int(manifest["revision"])
    shutil.copytree(work / "artifact", ctx.work / "revisions" / str(first))
    deltas = _make_deltas(ctx, csv, SETUP_REPEATS)
    records: list[dict] = []
    setups, slices = _read_between_setups(
        ctx, csv, "knn", None, server, manifest,
        during=lambda k, start: _apply_delta(ctx, server, deltas[k], k, records, start),
    )
    setups.insert(0, record)
    run = _combine(slices, server)
    server.stop()

    applied = [r for r in records if "seen" in r]
    fresh = _scratch_compile(ctx, deltas)
    final_ok = (
        len(applied) == len(deltas)
        and _same_artifact(work / "artifact", ctx.work / "scratch")
        and json.loads((work / "artifact" / "manifest.json").read_text())["n_users_total"]
        == manifest["n_users_total"] + len(deltas) * DELTA_NEW_USERS
    )

    # Revision r may be live from the SIGHUP that loads it until its
    # successor is first seen on /healthz.
    live = {first: [float("-inf"), float("inf")]}
    previous = first
    for record in applied:
        live[previous][1] = record["seen"]
        live[record["revision"]] = [record["hup"], float("inf")]
        previous = record["revision"]
    stores = {r: RecommendationStore(ctx.work / "revisions" / str(r)) for r in live}
    expected: dict[tuple, bytes] = {}
    good = 0
    for plan, outcome in zip(run["plans"], run["outcomes"]):
        for request, sent, received, status, body in zip(
            plan, outcome.sent, outcome.received, outcome.status, outcome.body
        ):
            for revision, (since, until) in live.items():
                if since <= received and until >= sent:
                    key = (revision, request.kind, request.users, request.n)
                    if key not in expected:
                        expected[key] = _expected_body(stores[revision], request)
                    if status == 200 and body == expected[key]:
                        good += 1
                        break
    deltas_ok = len(applied) - (0 if final_ok else 1)
    good += sum(s["ok"] for s in setups) + max(deltas_ok, 0)
    attempted = run["client"]["requests"] + len(setups) + len(deltas)
    final_items = artifact_items(work / "artifact")
    quality_values = quality(fresh, final_items)

    result = {"correct": good == attempted, "attempted": attempted, "failed": attempted - good}
    environment = _schedule_record(ctx.size(SERVE_SIZE), setups)
    environment["samples"]["freshness_s"] = [r["seen"] - r["due"] for r in applied]
    environment["delta_schedule"] = {
        "count": len(deltas), "due_in_slice_s": DELTA_DUE_S,
        "existing_users": DELTA_USERS, "ratings_per_user": DELTA_RATINGS_PER_USER,
        "new_users": DELTA_NEW_USERS,
    }
    peak = max([run["rss_mb"]] + [r["rss_mb"] for r in records])
    if ctx.trace:
        result["metrics"] = assemble(*_refresh_layers(ctx, setups, records, run))
        return result, environment
    result["metrics"] = {
        **_serving_metrics(setups, run, quality_values),
        "peak_rss_mb": _metric(peak, "MB"),
        "freshness_s": _metric(
            statistics.median(r["seen"] - r["due"] for r in applied) if applied else UPDATE_TIMEOUT_S,
            "s",
        ),
        "ok_share": _metric(good / attempted, "share"),
    }
    return result, environment


def _refresh_layers(ctx: Context, setups: list[dict], records: list[dict], run: dict) -> list[dict]:
    """Per-layer parts of a traced serve-refresh run."""
    setup_files = [SpanFile(ctx.spans(f"setup{k}")) for k in range(len(setups))]
    server_file = SpanFile(ctx.spans("server0"))
    update_files = [SpanFile(ctx.spans(f"update{k}")) for k in range(len(records))]
    compiles = [s for f in update_files for s in f.select("update.compile")]
    recomputed = sum(s["counts"].get("rows", 0.0) for s in compiles)
    changed = 0
    revisions = sorted(int(p.name) for p in (ctx.work / "revisions").iterdir())
    for old, new in zip(revisions, revisions[1:]):
        before = artifact_items(ctx.work / "revisions" / str(old))
        after = artifact_items(ctx.work / "revisions" / str(new))
        common = min(before.shape[0], after.shape[0])
        changed += int((before[:common] != after[:common]).any(axis=1).sum())
        changed += after.shape[0] - common
    updates = {
        "update.process_s": statistics.median(r["exited"] - r["began"] for r in records),
        "update.startup_s": statistics.median(
            f.main_start - r["began"] for f, r in zip(update_files, records)
        ),
        "update.compile_s": statistics.median(s["end"] - s["start"] for s in compiles)
        if compiles else 0.0,
        "update.wait_s": statistics.median(r["began"] - r["due"] for r in records),
        "update.rows_recomputed": recomputed,
        "update.rows_changed": float(changed),
        "update.useful_share": changed / recomputed if recomputed else 0.0,
        "update.shards_rewritten": sum(
            s["counts"].get("shards_rewritten", 0.0) + s["counts"].get("shards_appended", 0.0)
            for s in compiles
        ),
        "update.shards_skipped": sum(s["counts"].get("shards_skipped", 0.0) for s in compiles),
        "update.failed": float(sum(r["code"] != 0 for r in records)),
    }
    return [
        model_layers(update_files + [server_file], run["windows"], per=1),
        updates,
        serving_layers(server_file, run),
        trace_layers(setup_files + update_files, setup_files + update_files + [server_file]),
    ]


WORKLOADS = {"build-ganc": build_ganc, "serve-read": serve_read, "serve-refresh": serve_refresh}
