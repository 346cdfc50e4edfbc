"""Out-of-core rating datasets: chunked CSV ingestion into memmap-backed shards.

Everything upstream of this module assumes a :class:`RatingDataset` whose
interaction arrays fit in memory — fine at the synthetic ML-1M scale the
reproduction started from, a hard wall at the paper's Netflix scale.  This
module is the scale front door:

* :func:`ingest_csv` streams a ``user,item[,rating]`` CSV through the same
  block parser as the delta reader
  (:func:`repro.data.incremental.iter_rating_blocks`), growing the raw→dense
  id maps one parse block at a time and writing fixed-size ``.npy`` shards
  plus a manifest —
  the same shard+manifest pattern as the compiled serving artifact
  (:mod:`repro.serving.artifact`), including atomic writes (temp file +
  ``os.replace``) and a manifest-last commit so a crashed ingest never leaves
  a store that parses.  ``append=True`` resumes an existing store, preserving
  already-assigned dense indices (first-appearance order, exactly like
  :meth:`RatingDataset.from_interactions` / ``extend``).
* :func:`load_outofcore` consolidates the shards into one contiguous
  ``.npy`` per column (built once per manifest revision, streamed through
  :func:`numpy.lib.format.open_memmap` so the build itself is out-of-core)
  and returns a :class:`RatingDataset` whose interaction arrays are
  read-only memmaps — the dataset constructor's ``np.asarray`` calls are
  no-copy for matching dtypes, so a 10M-rating store opens without reading
  10M ratings into RAM.

The peak resident cost of ingestion is one shard of numpy columns
(``chunk_size`` triples, 24 B each) plus one parse block
(``incremental._BLOCK_LINES`` lines) plus the id maps; the peak cost of
loading is the id maps alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path

import numpy as np

from repro.data.dataset import RatingDataset
from repro.data.incremental import iter_rating_blocks, raw_id_table
from repro.exceptions import ConfigurationError, DataError, DataFormatError
from repro.utils.atomic import atomic_save as _atomic_save
from repro.utils.atomic import atomic_write_json as _atomic_write_json
from repro.utils.atomic import tmp_path as _tmp_path

INGEST_FORMAT = "repro-ingest-v1"
"""Format tag written to (and required from) every ingest-store manifest."""

_MANIFEST_KEYS = (
    "format",
    "n_ratings",
    "n_users",
    "n_items",
    "revision",
    "shard_size",
    "shards",
)

_COLUMNS = ("users", "items", "ratings")
_DTYPES = {"users": np.int64, "items": np.int64, "ratings": np.float64}

def _shard_name(column: str, index: int) -> str:
    """Relative shard path for chunk ``index`` of ``column``."""
    return f"shards/{column}_{index:05d}.npy"


@dataclass(frozen=True)
class IngestReport:
    """Summary of one :func:`ingest_csv` run.

    Attributes
    ----------
    directory:
        The ingest-store directory the run wrote to.
    n_ratings, n_users, n_items:
        Totals over the whole store after the run (not just this CSV).
    n_new_ratings:
        Triples appended by this run.
    n_shards:
        Number of chunk shards in the store after the run.
    revision:
        Monotonic store revision (bumped once per successful ingest).
    """

    directory: Path
    n_ratings: int
    n_users: int
    n_items: int
    n_new_ratings: int
    n_shards: int
    revision: int


def load_ingest_manifest(directory: str | Path) -> dict:
    """Read and validate an ingest store's ``manifest.json``.

    Raises :class:`~repro.exceptions.DataFormatError` when the manifest is
    missing, unparseable, has the wrong format tag, or lacks required keys;
    additive keys from future revisions are tolerated.
    """
    directory = Path(directory)
    path = directory / "manifest.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataFormatError(f"no ingest manifest at {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot parse ingest manifest {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != INGEST_FORMAT:
        raise DataFormatError(
            f"{path} is not a {INGEST_FORMAT} manifest "
            f"(format={payload.get('format')!r})"
            if isinstance(payload, dict)
            else f"{path} is not a JSON object"
        )
    missing = [key for key in _MANIFEST_KEYS if key not in payload]
    if missing:
        raise DataFormatError(f"{path} is missing manifest keys: {missing}")
    return payload


def _read_id_map(path: Path) -> dict[object, int]:
    """Load a raw→dense id map from its JSON list (dense order)."""
    try:
        raw_ids = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"cannot read id map {path}: {exc}") from exc
    return {raw: index for index, raw in enumerate(raw_ids)}


def _dense_codes(tokens: list[str], id_map: dict[object, int]) -> np.ndarray:
    """Dense index of each id token, growing ``id_map`` in first-appearance order.

    Each distinct token is coerced once (:func:`raw_id_table`); raw ids not yet
    in the map get the next indices in the order of their first row, exactly
    as a per-row ``id_map.setdefault(raw, len(id_map))`` would assign them.
    """
    raw = raw_id_table(tokens)
    fresh = list(filterfalse(id_map.__contains__, dict.fromkeys(raw.values())))
    id_map.update(zip(fresh, range(len(id_map), len(id_map) + len(fresh))))
    dense = dict(zip(raw, map(id_map.__getitem__, raw.values())))
    return np.fromiter(map(dense.__getitem__, tokens), dtype=np.int64, count=len(tokens))


def _flush_chunk(
    directory: Path,
    index: int,
    users: np.ndarray,
    items: np.ndarray,
    values: np.ndarray,
) -> list[str]:
    """Write one chunk as three parallel shards; returns their relative names."""
    names = []
    for column, array in zip(_COLUMNS, (users, items, values)):
        name = _shard_name(column, index)
        _atomic_save(directory / name, array)
        names.append(name)
    return names


def ingest_csv(
    csv_path: str | Path,
    output_dir: str | Path,
    *,
    chunk_size: int = 1_000_000,
    default_rating: float = 1.0,
    append: bool = False,
) -> IngestReport:
    """Stream a ratings CSV into an out-of-core shard store.

    The CSV is parsed a block of lines at a time by
    :func:`~repro.data.incremental.iter_rating_blocks` (same validation and
    ``file:line`` error reporting as the delta reader).  Each block's ids are
    mapped to dense indices in first-appearance order, coercing every
    distinct token once, and its columns are copied into one preallocated
    shard of numpy columns; every ``chunk_size`` rows become one triplet of
    ``.npy`` shards under ``output_dir/shards/``.  Memory is that shard
    (24 B per row) plus one parse block plus the id maps, whatever the CSV's
    size.  The id maps are persisted as JSON so the mapping is stable across
    appends, giving the store the same prefix-preserving semantics as
    :meth:`RatingDataset.extend`.

    Parameters
    ----------
    csv_path:
        The ``user,item[,rating]`` CSV to ingest.
    output_dir:
        Store directory.  Must not already hold a store unless ``append``.
    chunk_size:
        Rows per shard, buffered as numpy columns; bounds the resident
        footprint.
    default_rating:
        Value used for two-column rows.
    append:
        Continue an existing store (new chunks, grown id maps, bumped
        revision) instead of creating a fresh one.

    Returns
    -------
    IngestReport
        Totals for the store after this run.
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    csv_path = Path(csv_path)
    directory = Path(output_dir)
    manifest_path = directory / "manifest.json"

    if manifest_path.exists():
        if not append:
            raise DataError(
                f"{directory} already holds an ingest store; pass append=True "
                "to add ratings to it"
            )
        manifest = load_ingest_manifest(directory)
        user_map = _read_id_map(directory / "user_ids.json")
        item_map = _read_id_map(directory / "item_ids.json")
        shards: list[str] = list(manifest["shards"])
        n_existing = int(manifest["n_ratings"])
        revision = int(manifest["revision"])
        shard_index = len(shards) // len(_COLUMNS)
    else:
        if append:
            raise DataError(f"cannot append: no ingest store at {directory}")
        if directory.exists() and any(directory.iterdir()):
            raise DataError(
                f"refusing to create an ingest store in non-empty {directory}"
            )
        manifest = None
        user_map = {}
        item_map = {}
        shards = []
        n_existing = 0
        revision = 0
        shard_index = 0

    (directory / "shards").mkdir(parents=True, exist_ok=True)

    # One shard of columns, filled a parse block at a time.
    users = np.empty(chunk_size, dtype=np.int64)
    items = np.empty(chunk_size, dtype=np.int64)
    values = np.empty(chunk_size, dtype=np.float64)
    filled = 0
    n_new = 0
    for block in iter_rating_blocks(csv_path, default_rating=default_rating):
        block_users = _dense_codes(block.users, user_map)
        block_items = _dense_codes(block.items, item_map)
        offset = 0
        while offset < block.ratings.size:
            take = min(chunk_size - filled, block.ratings.size - offset)
            rows = slice(filled, filled + take)
            users[rows] = block_users[offset : offset + take]
            items[rows] = block_items[offset : offset + take]
            values[rows] = block.ratings[offset : offset + take]
            filled += take
            offset += take
            if filled == chunk_size:
                shards.extend(_flush_chunk(directory, shard_index, users, items, values))
                shard_index += 1
                filled = 0
        n_new += block.ratings.size
    if filled:
        shards.extend(
            _flush_chunk(
                directory, shard_index, users[:filled], items[:filled], values[:filled]
            )
        )
        shard_index += 1
    if n_new == 0:
        raise DataFormatError(f"ratings file {csv_path} contains no interactions")

    # Id maps before the manifest; the manifest commit is what makes the
    # new revision visible, so a crash between these writes leaves the
    # store readable at its previous revision (extra shards are ignored).
    _atomic_write_json(directory / "user_ids.json", list(user_map))
    _atomic_write_json(directory / "item_ids.json", list(item_map))
    _atomic_write_json(
        manifest_path,
        {
            "format": INGEST_FORMAT,
            "n_ratings": n_existing + n_new,
            "n_users": len(user_map),
            "n_items": len(item_map),
            "revision": revision + 1,
            "shard_size": int(chunk_size),
            "shards": shards,
        },
    )
    return IngestReport(
        directory=directory,
        n_ratings=n_existing + n_new,
        n_users=len(user_map),
        n_items=len(item_map),
        n_new_ratings=n_new,
        n_shards=shard_index,
        revision=revision + 1,
    )


def _consolidate(directory: Path, manifest: dict) -> Path:
    """Concatenate the store's shards into one contiguous ``.npy`` per column.

    The build streams shard-by-shard through a writable
    :func:`numpy.lib.format.open_memmap`, so peak memory is one shard
    regardless of store size.  The result is keyed on the manifest revision
    (``consolidated/revision.json``) and rebuilt only when the store has
    ingested new ratings since the last build.
    """
    consolidated = directory / "consolidated"
    marker = consolidated / "revision.json"
    revision = int(manifest["revision"])
    if marker.exists():
        try:
            built = json.loads(marker.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            built = None
        if (
            isinstance(built, dict)
            and built.get("revision") == revision
            and all((consolidated / f"{column}.npy").exists() for column in _COLUMNS)
        ):
            return consolidated

    consolidated.mkdir(parents=True, exist_ok=True)
    total = int(manifest["n_ratings"])
    shard_names = list(manifest["shards"])
    per_column = {
        column: [name for name in shard_names if Path(name).name.startswith(column + "_")]
        for column in _COLUMNS
    }
    for column in _COLUMNS:
        names = per_column[column]
        target = consolidated / f"{column}.npy"
        tmp = _tmp_path(target)
        out = np.lib.format.open_memmap(
            tmp, mode="w+", dtype=_DTYPES[column], shape=(total,)
        )
        cursor = 0
        for name in names:
            shard = np.load(directory / name, mmap_mode="r")
            out[cursor : cursor + shard.size] = shard
            cursor += shard.size
        if cursor != total:
            raise DataFormatError(
                f"ingest store {directory} is inconsistent: manifest says "
                f"{total} ratings but {column} shards hold {cursor}"
            )
        out.flush()
        del out
        os.replace(tmp, target)
    _atomic_write_json(marker, {"revision": revision})
    return consolidated


def load_outofcore(
    directory: str | Path, *, mmap: bool = True, name: str | None = None
) -> RatingDataset:
    """Open an ingest store as a memmap-backed :class:`RatingDataset`.

    Shards are consolidated into contiguous per-column arrays on first load
    (and again only after new ingests; see :func:`_consolidate`), then
    memory-mapped read-only.  The returned dataset behaves exactly like an
    in-memory one — same id maps, same interaction order — but its
    interaction arrays are paged from disk on demand, so opening a
    10M-rating store costs the id maps, not the triples.

    Parameters
    ----------
    directory:
        The ingest-store directory written by :func:`ingest_csv`.
    mmap:
        Load the consolidated arrays with ``mmap_mode="r"`` (default).
        ``False`` reads them fully into memory — useful for benchmarking
        the memmap overhead itself.
    name:
        Dataset name; defaults to the store directory's basename.
    """
    directory = Path(directory)
    manifest = load_ingest_manifest(directory)
    user_map = _read_id_map(directory / "user_ids.json")
    item_map = _read_id_map(directory / "item_ids.json")
    if len(user_map) != int(manifest["n_users"]) or len(item_map) != int(
        manifest["n_items"]
    ):
        raise DataFormatError(
            f"ingest store {directory} is inconsistent: id maps hold "
            f"{len(user_map)} users / {len(item_map)} items but the manifest "
            f"says {manifest['n_users']} / {manifest['n_items']}"
        )
    consolidated = _consolidate(directory, manifest)
    mode = "r" if mmap else None
    columns = {
        column: np.load(consolidated / f"{column}.npy", mmap_mode=mode)
        for column in _COLUMNS
    }
    return RatingDataset(
        columns["users"],
        columns["items"],
        columns["ratings"],
        n_users=int(manifest["n_users"]),
        n_items=int(manifest["n_items"]),
        user_ids=list(user_map),
        item_ids=list(item_map),
        name=name or directory.name,
    )
