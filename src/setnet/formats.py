"""Line-oriented file formats shared by the CLI and the generators.

Every artifact starts with a metadata header embedding schema version,
config hash and seed, so runs are self-describing and diffable:

* JSONL files: first line is the header object, then one record per line
  ({"features": [...], "count": m} / {"scores": [...], "truth": [...]}).
* Box files: whitespace-separated "image_id x1 y1 x2 y2 [score]" records,
  header carried in a leading "# {...}" comment line.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from functools import partial
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .detect import BoxDetection
from .errors import DataError, NumericError
from .mlmetrics import EvalRecord, LabelSet, _mask
from .numerics import _check_count, _check_finite

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "config_hash",
    "make_header",
    "write_jsonl",
    "read_jsonl",
    "write_boxes",
    "read_boxes",
    "read_records",
    "read_counting_records",
    "read_multilabel_records",
]

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def make_header(config: dict, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "seed": int(seed),
    }


def write_jsonl(path: str, header: dict, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(header))
        fh.write("\n")
        for row in rows:
            fh.write(canonical_json(row))
            fh.write("\n")


def read_jsonl(path: str, check: Callable | None = None) -> tuple[dict | None, list[dict]]:
    """Rows of a JSONL file; a leading header object is split off.  A line
    that is not JSON is a DataError naming it, raised after ``check`` (when
    given) has seen the rows before it, so that it can raise for one first."""
    rows: list[dict] = []
    header = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as e:
                    if check is not None:
                        check(rows)
                    raise DataError(f"{path}:{ln + 1}: invalid JSON: {e}") from e
                if ln == 0 and isinstance(doc, dict) and "schema_version" in doc:
                    header = doc
                else:
                    rows.append(doc)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return header, rows


def write_boxes(
    path: str, header: dict, images: Iterable[tuple[int, np.ndarray]],
    with_score: bool,
) -> None:
    """One line per box; each image's boxes are a box table or its rows."""
    cols = 5 if with_score else 4
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {canonical_json(header)}\n")
        for image_id, boxes in images:
            rows = np.asarray(boxes, dtype=float).reshape(-1, 5)[:, :cols].tolist()
            fh.writelines(f"{image_id} {' '.join(map(repr, row))}\n" for row in rows)


def read_boxes(path: str, with_score: bool) -> dict[int, np.ndarray]:
    """Box tables by image id, rows in file order; GT files (no score column)
    get score 1.0.  The earliest bad row is a DataError naming its line."""
    expected = 6 if with_score else 5
    vals = array("d")  # x1, y1, x2, y2, score of each row in turn
    lines: list[int] = []  # the file line of each row
    rows: dict[int, list[int]] = {}  # image id -> its rows
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                try:
                    if len(parts) != expected:
                        raise ValueError(f"expected {expected} fields, got {len(parts)}")
                    image_id = int(parts[0])
                    vals.extend(map(float, parts[1:]))
                except ValueError as e:
                    _check_boxes(path, vals, lines)  # an earlier bad row first
                    raise DataError(f"{path}:{ln}: {e}") from e
                if not with_score:
                    vals.append(1.0)
                rows.setdefault(image_id, []).append(len(lines))
                lines.append(ln)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    table = _check_boxes(path, vals, lines)
    return {image_id: table[r] for image_id, r in rows.items()}


def _check_boxes(path: str, vals: array, lines: list[int]) -> np.ndarray:
    """The rows read so far as a box table; a row BoxDetection rejects is a DataError."""
    t = np.frombuffer(vals, dtype=float)[:5 * len(lines)].reshape(-1, 5)
    for i in BoxDetection.rejected_rows(t):
        try:
            BoxDetection(*t[i].tolist())
        except ValueError as e:
            raise DataError(f"{path}:{lines[i]}: {e}") from e
    return t


def _listed(value, name: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return value


def _reals(value, name: str) -> list[float]:
    for v in _listed(value, name):
        if type(v) not in (int, float):  # JSON numbers only: no bools, no strings
            raise TypeError(f"could not convert {v!r} to float: {name} must be numbers")
    try:
        return _check_finite(value, name)
    except OverflowError:  # an integer beyond the float range
        raise NumericError(f"{name} must be finite") from None


def _labels(value, name: str) -> LabelSet:
    return LabelSet(labels=tuple(_check_count(v, f"{name} label") for v in _listed(value, name)))


# Each record field's rule: (JSON value, field name) -> its value, or a TypeError
# or ValueError (NumericError included).  The column checks of _columns flag
# every record that a rule rejects, and no other.
_FIELDS = {"features": _reals, "scores": _reals, "truth": _labels,
           "count": _check_count, "mode": _check_count, "image_id": _check_count}


def read_records(path: str, *fields: str, width: int | None = None) -> list:
    """The columns of ``fields`` in the records of a JSONL file: an (n, d)
    float matrix for a vector field, which comes first; an int64 column for a
    count field; truth's labels and the record of each.  Vectors are as long
    as ``width`` (a model's input size) or, without one, as record 0's, which
    is not empty; truth labels lie below that.  An image id names one record.
    The earliest bad record, else a line that is not JSON, is a DataError
    naming it, or a NumericError if the record's vector does not fit ``width``."""
    check = partial(_check_records, path, fields, width)
    _, rows = read_jsonl(path, check)
    try:
        return _columns(rows, fields, width)
    except (KeyError, TypeError, ValueError, OverflowError):
        check(rows)  # the rules word the fault
        raise


def _ints(values: list) -> np.ndarray:
    """``values`` as an int64 column; an error unless each is a count."""
    if set(map(type, values)) - {int}:  # integral floats pass; the rest raise
        values = [_check_count(v) for v in values]
    col = np.array(values, dtype=np.int64)  # OverflowError past int64
    if (col < 0).any():
        raise ValueError("negative")
    return col


def _columns(rows: list, fields: tuple, width: int | None) -> list:
    """The columns of ``fields`` in ``rows``, each checked at once; a KeyError,
    TypeError, ValueError or OverflowError if a check flags a record."""
    out = []
    for f in fields:
        values = [row[f] for row in rows]
        if _FIELDS[f] is _check_count:
            out.append(_ints(values))
            if f == "image_id" and np.unique(out[-1]).size < len(values):
                raise ValueError("repeated image id")
            continue
        if set(map(type, values)) - {list}:
            raise TypeError("not lists")
        lengths = np.fromiter(map(len, values), np.int64, len(values))
        flat = list(chain.from_iterable(values))
        if f == "truth":
            labels, record = _ints(flat), np.repeat(np.arange(len(values)), lengths)
            if ((record[1:] == record[:-1]) & (labels[1:] <= labels[:-1])).any() or (
                    width is not None and (labels >= width).any()):
                raise ValueError("labels out of order or range")
            out.append((labels, record))
            continue
        if width is None:  # record 0's, which is not empty
            width = int(lengths[0]) if len(values) else 0
            if values and not width:
                raise ValueError("no vector")
        if (lengths != width).any() or set(map(type, flat)) - {int, float}:
            raise ValueError("ragged or not numbers")
        out.append(np.array(flat, dtype=float).reshape(len(values), width))
        if not np.isfinite(out[-1]).all():
            raise ValueError("not finite")
    return out


def _check_records(path: str, fields: tuple, width: int | None, rows: list) -> None:
    """Each record's fields by their rules in ``_FIELDS``, record by record;
    the earliest bad record raises as ``read_records`` says."""
    vector = fields[0] if _FIELDS[fields[0]] is _reals else None
    want = width
    ids: dict[int, int] = {}  # image id -> the record that names it
    for i, row in enumerate(rows):
        try:
            values = {f: _FIELDS[f](row[f], f) for f in fields}
            key = values.get("image_id")
            if key is not None and ids.setdefault(key, i) != i:
                raise ValueError(f"image_id {key} repeats record {ids[key]}")
            if "truth" in values:  # its labels lie below the number of scores
                EvalRecord(values["scores"], values["truth"])
        except (KeyError, TypeError, ValueError) as e:
            what = f"no {e} field" if isinstance(e, KeyError) else e
            raise DataError(f"{path}: record {i}: {what}") from e
        if vector is None:
            continue
        n = len(values[vector])
        if want is None:
            if not n:
                raise DataError(f"{path}: record 0 has no {vector}")
            want = n
        elif n != want:
            than = "record 0 has" if width is None else "the model takes"
            raise (DataError if width is None else NumericError)(
                f"{path}: record {i} has {n} {vector}; {than} {want}")


def read_counting_records(path: str, with_count: bool = True, width: int | None = None
                          ) -> tuple[np.ndarray, np.ndarray | None]:
    """The (n, d) features matrix of a counting JSONL file and, ``with_count``,
    its n counts (else None); ``width`` is as in ``read_records``."""
    columns = read_records(path, *(("features", "count") if with_count else ("features",)),
                           width=width)
    return columns[0], columns[1] if with_count else None


def read_multilabel_records(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, C) scores and truth mask of a multi-label JSONL file; every
    record has as many scores as record 0, which has some."""
    scores, (labels, record) = read_records(path, "scores", "truth")
    return scores, _mask(labels, record, scores.shape)
