"""Fitted-pipeline persistence: spec JSON + fitted arrays on disk.

A saved pipeline directory contains everything needed to serve identical
top-N lists without refitting any model:

``spec.json``
    The declarative :class:`~repro.pipeline.spec.PipelineSpec`.
``split.npz``
    The exact train/test interaction arrays (dense indices), so exclusion
    masks and evaluation run against the very same split.
``state.npz``
    Every fitted array of the accuracy recommender (namespaced as
    ``recommender/<attribute>``) plus the fitted preference vector ``theta``.
``manifest.json``
    Scalar component state, class names for integrity checks, and the
    format version.

Component state is harvested generically: numpy arrays and scipy sparse
matrices go to the ``.npz``, plain scalars go to the manifest, and anything
else is rejected loudly (a component holding un-persistable state should
override what it stores, not be silently half-saved).  Coverage recommenders
are *not* persisted — their fit is a cheap, deterministic state
initialization that re-runs at load time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np
from scipy import sparse

from repro.data.dataset import RatingDataset
from repro.data.split import TrainTestSplit
from repro.exceptions import ConfigurationError, DataFormatError

#: Current on-disk format version.
FORMAT_VERSION = 1

#: Attributes never persisted: the train dataset is stored once at the split
#: level, and fit diagnostics are not needed to serve.
_SKIPPED_ATTRIBUTES = frozenset({"_train", "history_", "trace_", "last_oslg_result_"})

_SPARSE_MARKER = "__sparse_csr__"
_COVERAGE_STATE_MARKER = "__coverage_state__"


# --------------------------------------------------------------------------- #
# Generic component state
# --------------------------------------------------------------------------- #
def component_state(component: object) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Split a component's instance attributes into (arrays, scalar meta)."""
    from repro.coverage.state import CoverageState

    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {}
    for name, value in vars(component).items():
        if name in _SKIPPED_ATTRIBUTES:
            continue
        if value is None:
            meta[name] = None
        elif isinstance(value, np.ndarray):
            arrays[name] = value
        elif isinstance(value, CoverageState):
            # The scores are derived; the counts fully determine the state.
            arrays[f"{name}::counts"] = np.asarray(value.counts)
            meta[name] = {_COVERAGE_STATE_MARKER: True}
        elif sparse.issparse(value):
            csr = value.tocsr()
            arrays[f"{name}::data"] = csr.data
            arrays[f"{name}::indices"] = csr.indices
            arrays[f"{name}::indptr"] = csr.indptr
            meta[name] = {_SPARSE_MARKER: True, "shape": [int(s) for s in csr.shape]}
        elif isinstance(value, np.generic):
            meta[name] = value.item()
        elif isinstance(value, (bool, int, float, str)):
            meta[name] = value
        else:
            raise ConfigurationError(
                f"cannot persist attribute {name!r} of {type(component).__name__} "
                f"(type {type(value).__name__}); add it to the skip list or "
                "store it as arrays/scalars"
            )
    return arrays, meta


def restore_component_state(
    component: object,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any],
) -> None:
    """Inverse of :func:`component_state` (mutates ``component`` in place)."""
    from repro.coverage.state import CoverageState

    for name, value in meta.items():
        if isinstance(value, Mapping) and value.get(_SPARSE_MARKER):
            matrix = sparse.csr_matrix(
                (arrays[f"{name}::data"], arrays[f"{name}::indices"], arrays[f"{name}::indptr"]),
                shape=tuple(value["shape"]),
            )
            setattr(component, name, matrix)
        elif isinstance(value, Mapping) and value.get(_COVERAGE_STATE_MARKER):
            setattr(component, name, CoverageState(arrays[f"{name}::counts"]))
        else:
            setattr(component, name, value)
    for name, value in arrays.items():
        if "::" in name:
            continue  # part of a sparse matrix restored above
        setattr(component, name, value)
    # A component whose state layout changed converts older saves here.
    upgrade = getattr(component, "_upgrade_restored_state", None)
    if upgrade is not None:
        upgrade()


# --------------------------------------------------------------------------- #
# Split persistence
# --------------------------------------------------------------------------- #
def _ids_arrays(ids: Any, key: str) -> dict[str, np.ndarray]:
    """Raw ids as ``.npz`` arrays that :func:`_load_ids` inverts exactly.

    numpy stores a mix of int and str ids as strings, so a mixed list also
    records which entries were integers (``<key>_is_int``).
    """
    ids = list(ids)
    array = np.asarray(ids)
    if array.dtype == object:
        array = array.astype(str)
    arrays = {key: array}
    if array.dtype.kind == "U":
        is_int = np.array([isinstance(raw, (int, np.integer)) for raw in ids], dtype=bool)
        if is_int.any():
            arrays[f"{key}_is_int"] = is_int
    return arrays


def _load_ids(payload: Any, key: str) -> list:
    ids = payload[key].tolist()
    if f"{key}_is_int" in payload.files:
        ids = [int(raw) if is_int else raw for raw, is_int in zip(ids, payload[f"{key}_is_int"])]
    return ids


def _dataset_arrays(dataset: RatingDataset, prefix: str) -> dict[str, np.ndarray]:
    return {
        f"{prefix}_users": dataset.user_indices,
        f"{prefix}_items": dataset.item_indices,
        f"{prefix}_ratings": dataset.ratings,
    }


def save_split_npz(split: TrainTestSplit, path: str | Path) -> Path:
    """Write a train/test split as one compressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        **_dataset_arrays(split.train, "train"),
        **_dataset_arrays(split.test, "test"),
        "n_users": np.int64(split.train.n_users),
        "n_items": np.int64(split.train.n_items),
        **_ids_arrays(split.train.user_ids, "user_ids"),
        **_ids_arrays(split.train.item_ids, "item_ids"),
        "train_name": np.str_(split.train.name),
        "test_name": np.str_(split.test.name),
    }
    np.savez_compressed(path, **payload)
    return path


def load_split_npz(path: str | Path) -> TrainTestSplit:
    """Load a split previously written by :func:`save_split_npz`."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as payload:
            n_users = int(payload["n_users"])
            n_items = int(payload["n_items"])
            user_ids = _load_ids(payload, "user_ids")
            item_ids = _load_ids(payload, "item_ids")

            def build(prefix: str, name: str) -> RatingDataset:
                """Rebuild one side of the split from its prefixed arrays."""
                return RatingDataset(
                    payload[f"{prefix}_users"],
                    payload[f"{prefix}_items"],
                    payload[f"{prefix}_ratings"],
                    n_users=n_users,
                    n_items=n_items,
                    user_ids=user_ids,
                    item_ids=item_ids,
                    name=name,
                )

            return TrainTestSplit(
                train=build("train", str(payload["train_name"])),
                test=build("test", str(payload["test_name"])),
            )
    except OSError as exc:
        raise DataFormatError(f"cannot read split file {path}: {exc}") from exc
    except KeyError as exc:
        raise DataFormatError(f"{path} is missing split array {exc}") from exc


# --------------------------------------------------------------------------- #
# JSON helpers
# --------------------------------------------------------------------------- #
def write_json(payload: Mapping[str, Any], path: str | Path) -> Path:
    """Write a JSON document with stable key order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON document, normalizing failures onto DataFormatError."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc
