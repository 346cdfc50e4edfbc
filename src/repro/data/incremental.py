"""Streaming ingestion: append new rating triples to an immutable split.

The paper's framework is an offline design — everything downstream (model
fits, the GANC assignment, compiled serving artifacts) is a function of one
frozen train/test split.  This module is the front door for *new* ratings
arriving after that split was made: it appends triples to the train side
while preserving the immutability contract (every step returns new
datasets; see :meth:`~repro.data.dataset.RatingDataset.extend`), grows the
id maps for unseen raw users/items in first-appearance order (the same
determinism rule as :meth:`RatingDataset.from_interactions`), and reports
exactly which dense users were touched — the signal the delta-refit and
delta-compile layers (:mod:`repro.serving.update`) need to bound their
work.

Three ingestion shapes are supported:

* dense-index deltas (:func:`extend_split`) — e.g. feedback replayed by the
  simulator, which already lives in the split's index space,
* raw-id deltas (:func:`extend_split_interactions`) — `(user, item, rating)`
  records whose identifiers may never have been seen before,
* delta CSV files (:func:`read_delta_csv`) — the ``repro compile --update
  --delta`` wire format, one ``user,item[,rating]`` line per new rating,
  parsed by the same block parser (:func:`iter_rating_blocks`) as the
  out-of-core ingest.

:func:`consumed_delta` converts a simulation's per-event consumed feedback
(:class:`~repro.simulate.engine.SimulationResult`) into dense delta arrays,
closing the online loop: simulate → ingest → delta-refit → delta-compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.dataset import Interaction, RatingDataset
from repro.data.split import TrainTestSplit
from repro.exceptions import DataError, DataFormatError


@dataclass(frozen=True)
class SplitExtension:
    """An extended split plus the delta bookkeeping downstream layers need.

    Attributes
    ----------
    split:
        The new :class:`~repro.data.split.TrainTestSplit`; its train side is
        the old train followed by the appended triples (prefix-preserving),
        its test side keeps the old test triples over the grown universe.
    changed_users:
        Sorted dense indices of users that gained at least one train rating.
    new_users, new_items:
        Dense indices appended to the universe (empty when it did not grow).
    n_new_ratings:
        Number of appended train triples.
    """

    split: TrainTestSplit
    changed_users: np.ndarray
    new_users: np.ndarray
    new_items: np.ndarray
    n_new_ratings: int


def _grow_test(
    test: RatingDataset, train: RatingDataset
) -> RatingDataset:
    """Re-universe the test side onto the extended train's universe."""
    if test.n_users == train.n_users and test.n_items == train.n_items:
        return test
    old_users = test.n_users
    old_items = test.n_items
    return test.extend(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        n_users=train.n_users,
        n_items=train.n_items,
        user_ids=train.user_ids[old_users:],
        item_ids=train.item_ids[old_items:],
    )


def extend_split(
    split: TrainTestSplit,
    user_indices: np.ndarray,
    item_indices: np.ndarray,
    ratings: np.ndarray,
    *,
    n_users: int | None = None,
    n_items: int | None = None,
    user_ids: Sequence[object] | None = None,
    item_ids: Sequence[object] | None = None,
) -> SplitExtension:
    """Append dense-index train triples to a split, growing the universe as needed.

    Parameters mirror :meth:`RatingDataset.extend`; the appended triples go
    to the *train* side (new observations are training signal — held-out
    test futures stay frozen so evaluation remains comparable), and the test
    side is re-universed to keep the split's shared-universe invariant.
    """
    old_users = split.train.n_users
    old_items = split.train.n_items
    train = split.train.extend(
        user_indices,
        item_indices,
        ratings,
        n_users=n_users,
        n_items=n_items,
        user_ids=user_ids,
        item_ids=item_ids,
    )
    test = _grow_test(split.test, train)
    delta_users = train.user_indices[split.train.n_ratings:]
    return SplitExtension(
        split=TrainTestSplit(train=train, test=test),
        changed_users=np.unique(delta_users),
        new_users=np.arange(old_users, train.n_users, dtype=np.int64),
        new_items=np.arange(old_items, train.n_items, dtype=np.int64),
        n_new_ratings=int(delta_users.size),
    )


def extend_split_interactions(
    split: TrainTestSplit,
    interactions: Iterable[Interaction] | Iterable[tuple[object, object, float]],
) -> SplitExtension:
    """Append raw-id ``(user, item, rating)`` records, growing the id maps.

    Known raw identifiers resolve through the split's existing id maps;
    unseen identifiers are assigned fresh dense indices in first-appearance
    order (the same rule :meth:`RatingDataset.from_interactions` uses), so
    repeated ingestion of the same delta file is deterministic.
    """
    train = split.train
    user_map = {raw: index for index, raw in enumerate(train.user_ids)}
    item_map = {raw: index for index, raw in enumerate(train.item_ids)}
    users: list[int] = []
    items: list[int] = []
    values: list[float] = []
    new_user_ids: list[object] = []
    new_item_ids: list[object] = []
    for record in interactions:
        if isinstance(record, Interaction):
            raw_user, raw_item, rating = record.user, record.item, record.rating
        else:
            raw_user, raw_item, rating = record
        if raw_user not in user_map:
            user_map[raw_user] = len(user_map)
            new_user_ids.append(raw_user)
        if raw_item not in item_map:
            item_map[raw_item] = len(item_map)
            new_item_ids.append(raw_item)
        users.append(user_map[raw_user])
        items.append(item_map[raw_item])
        values.append(float(rating))
    return extend_split(
        split,
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(values, dtype=np.float64),
        n_users=len(user_map),
        n_items=len(item_map),
        user_ids=new_user_ids,
        item_ids=new_item_ids,
    )


def _coerce_id(token: str) -> object:
    """Raw CSV ids: integers when they parse as such (the loaders' and
    synthetic factory's default id type), verbatim strings otherwise."""
    try:
        return int(token)
    except ValueError:
        return token


def raw_id_table(tokens: Iterable[str]) -> dict[str, object]:
    """Map each distinct id token to its raw id, coercing every token once.

    The table's keys keep first-appearance order, and so do its values up to
    coercion: two tokens may coerce to one id (``01`` and ``1``), and
    ``dict.fromkeys(table.values())`` then lists each raw id at the position
    of its first row — the order a per-row ``setdefault`` would assign.
    """
    distinct = dict.fromkeys(tokens)
    try:  # the common all-integer block, without a Python call per token
        return dict(zip(distinct, list(map(int, distinct))))
    except ValueError:
        return dict(zip(distinct, map(_coerce_id, distinct)))


#: Physical lines read per parse block.  The block's line strings, tokens and
#: columns are the parser's whole working set, so this bounds its memory at
#: any file size; larger blocks ran no faster and left more heap behind.
_BLOCK_LINES = 4096


@dataclass(frozen=True)
class RatingBlock:
    """Consecutive valid rows of a ratings CSV, column by column.

    Attributes
    ----------
    line_numbers:
        Physical (1-based) line number of each row, ``int64``.
    users, items:
        The row's stripped id tokens, before :func:`raw_id_table` coercion.
    ratings:
        ``float64`` ratings; ``default_rating`` for two-field rows.
    """

    line_numbers: np.ndarray
    users: list[str]
    items: list[str]
    ratings: np.ndarray


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_block(
    path: Path, lines: list[str], first: int, default_rating: float
) -> tuple[RatingBlock, DataFormatError | None]:
    """Parse one block of physical lines, numbered from ``first``.

    Returns the valid rows before the block's earliest malformed line, and
    the error that line raises (``None`` when the whole block is valid).
    """
    stripped = list(map(str.strip, lines))
    keep = np.fromiter(map(bool, stripped), dtype=bool, count=len(stripped))
    keep &= ~np.fromiter(
        map(str.startswith, stripped, repeat("#")), dtype=bool, count=len(stripped)
    )
    numbers = np.flatnonzero(keep) + first
    rows = list(compress(stripped, keep.tolist()))
    if first == 1 and rows and numbers[0] == 1:
        header = rows[0].split(",")
        if len(header) == 3 and not _is_number(header[2].strip()):
            numbers, rows = numbers[1:], rows[1:]

    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.int64, count=len(rows))
    misshapen = np.flatnonzero((commas < 1) | (commas > 2))
    end = int(misshapen[0]) if misshapen.size else len(rows)
    error = (
        DataFormatError(
            f"{path}:{numbers[end]}: expected 'user,item[,rating]', got {rows[end]!r}"
        )
        if misshapen.size
        else None
    )
    fields = commas[:end] + 1
    tokens = np.array(
        list(map(str.strip, ",".join(rows[:end]).split(","))) if end else [],
        dtype=object,
    )
    starts = np.cumsum(fields) - fields
    rated = np.flatnonzero(fields == 3)
    rating_tokens = tokens[starts[rated] + 2].tolist()
    try:
        values = np.fromiter(map(float, rating_tokens), dtype=np.float64)
    except ValueError:
        bad = list(map(_is_number, rating_tokens)).index(False)
        end = int(rated[bad])
        error = DataFormatError(
            f"{path}:{numbers[end]}: rating {rating_tokens[bad]!r} is not a number"
        )
        values = np.fromiter(map(float, rating_tokens[:bad]), dtype=np.float64)
    ratings = np.full(starts.size, default_rating, dtype=np.float64)
    ratings[rated[: values.size]] = values
    block = RatingBlock(
        line_numbers=numbers[:end],
        users=tokens[starts[:end]].tolist(),
        items=tokens[starts[:end] + 1].tolist(),
        ratings=ratings[:end],
    )
    return block, error


def iter_rating_blocks(
    path: str | Path,
    *,
    default_rating: float = 1.0,
    description: str = "ratings file",
) -> Iterator[RatingBlock]:
    """Stream a ``user,item[,rating]`` CSV as :class:`RatingBlock` columns.

    The file is read ``_BLOCK_LINES`` physical lines at a time (split as text
    mode splits them, so ``\\r\\n`` files parse), and each block is stripped,
    filtered, split and converted with bulk string and numpy operations, so
    memory holds one block whatever the file size.  Blank lines and ``#``
    comments are skipped; a line must have two or three comma-separated
    fields, each stripped; ratings parse with Python ``float`` semantics and
    a two-field row gets ``default_rating``.  A non-numeric rating on
    physical line 1 marks a header, which is skipped.  Any other malformed
    line raises :class:`~repro.exceptions.DataFormatError` naming the file
    and line — after the valid rows before it have been yielded, so the error
    names the earliest bad line in file order.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {description} {path}: {exc}") from exc
    with handle:
        first = 1
        while lines := list(islice(handle, _BLOCK_LINES)):
            block, error = _parse_block(path, lines, first, default_rating)
            if block.ratings.size:
                yield block
            if error is not None:
                raise error
            first += len(lines)


def iter_rating_rows(
    path: str | Path,
    *,
    default_rating: float = 1.0,
    description: str = "ratings file",
) -> Iterator[tuple[int, object, object, float]]:
    """Stream ``user,item[,rating]`` rows from a CSV file, one row at a time.

    Yields ``(line_number, raw_user, raw_item, rating)`` tuples: a per-row
    view over :func:`iter_rating_blocks`, so it accepts and rejects exactly
    what the out-of-core ingestion (:mod:`repro.data.outofcore`) does and
    never holds more than one parse block of the file.  Ids are
    :func:`raw_id_table` coercions (integers when they parse as such);
    malformed lines raise :class:`~repro.exceptions.DataFormatError` naming
    the file and line, so an error in the middle of a multi-gigabyte file is
    still pinpointed.
    """
    for block in iter_rating_blocks(
        path, default_rating=default_rating, description=description
    ):
        users = raw_id_table(block.users)
        items = raw_id_table(block.items)
        yield from zip(
            block.line_numbers.tolist(),
            map(users.__getitem__, block.users),
            map(items.__getitem__, block.items),
            block.ratings.tolist(),
        )


def read_delta_csv(path: str | Path) -> list[tuple[object, object, float]]:
    """Read a delta file of ``user,item[,rating]`` lines (rating defaults to 1.0).

    The rows come from :func:`iter_rating_rows`, the same block parser as
    ``repro ingest``: a first line whose rating column does not parse as a
    number is treated as a header and skipped, and malformed lines raise
    :class:`~repro.exceptions.DataFormatError` naming the file and line.
    The file is read one parse block at a time; only the returned records
    grow with its size.
    """
    path = Path(path)
    records: list[tuple[object, object, float]] = [
        (user, item, rating)
        for _, user, item, rating in iter_rating_rows(path, description="delta file")
    ]
    if not records:
        raise DataFormatError(f"delta file {path} contains no interactions")
    return records


def consumed_delta(
    event_users: np.ndarray,
    consumed: Sequence[np.ndarray],
    *,
    rating: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense delta arrays from a simulation's per-event consumed feedback.

    ``event_users[e]`` is the dense user behind event ``e`` and
    ``consumed[e]`` the item indices that event's feedback model consumed
    (:attr:`SimulationResult.consumed <repro.simulate.SimulationResult>`);
    each consumed item becomes one implicit-rating triple, preserving event
    order and duplicates (repeat consumption is repeat evidence — exactly
    what popularity counting expects).
    """
    event_users = np.asarray(event_users, dtype=np.int64)
    if event_users.size != len(consumed):
        raise DataError(
            f"consumed_delta needs one consumed array per event, got "
            f"{event_users.size} events and {len(consumed)} arrays"
        )
    sizes = np.asarray([np.asarray(arr).size for arr in consumed], dtype=np.int64)
    users = np.repeat(event_users, sizes)
    items = (
        np.concatenate([np.asarray(arr, dtype=np.int64) for arr in consumed])
        if users.size
        else np.empty(0, dtype=np.int64)
    )
    return users, items, np.full(users.size, float(rating), dtype=np.float64)
