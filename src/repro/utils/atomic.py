"""Atomic file writes: temp sibling + ``os.replace``.

The compiled serving artifact (:mod:`repro.serving.artifact`, and the delta
recompile in :mod:`repro.serving.update`) and the out-of-core ingest store
(:mod:`repro.data.outofcore`) both commit manifest-last: every shard is
written through these helpers first, the manifest last, so a reader sees
either the old revision or the new one and never a partial file.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

#: Per-process monotone counter making tmp names unique within a process;
#: the pid makes them unique across processes sharing a directory.
_TMP_COUNTER = itertools.count()


def tmp_path(path: Path) -> Path:
    """A collision-free temporary sibling of ``path``.

    Two compiles writing into the same artifact directory (two processes,
    or two threads of one) must never share a tmp name: a fixed
    ``<name>.tmp`` would interleave their writes and rename a corrupt file
    into place.  pid + per-process counter keeps every in-flight tmp
    distinct; the ``.tmp`` suffix keeps it visible to the artifact's stale
    sweep.  A sibling shares the target's filesystem, so ``os.replace`` of
    it is atomic.
    """
    return path.with_name(f"{path.name}.{os.getpid()}-{next(_TMP_COUNTER)}.tmp")


def atomic_save(path: Path, array: np.ndarray) -> None:
    """Write one ``.npy`` file via rename, never truncating an existing file.

    The documented serving workflow is "recompile in place, then SIGHUP":
    a live :class:`~repro.serving.store.RecommendationStore` may hold
    memory maps of the files being replaced.  ``os.replace`` swaps the
    directory entry atomically, so existing maps keep reading the old inode
    until the store reloads — overwriting in place would mutate (or, after
    truncation, SIGBUS) pages under a serving process.
    """
    tmp = tmp_path(path)
    with open(tmp, "wb") as handle:
        np.save(handle, array)
    os.replace(tmp, path)


def atomic_write_json(path: Path, payload: object) -> None:
    """Write JSON via rename for the same live-reader reasons as shards."""
    tmp = tmp_path(path)
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
