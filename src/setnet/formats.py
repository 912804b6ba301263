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
from typing import Callable, Iterable

import numpy as np

from .detect import BoxDetection
from .errors import DataError, NumericError
from .mlmetrics import EvalRecord, LabelSet
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


def read_jsonl(path: str) -> tuple[dict | None, list[dict]]:
    """Rows of a JSONL file; a leading header object is split off."""
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
    return _check_finite(_listed(value, name), name)


def _labels(value, name: str) -> LabelSet:
    return LabelSet(labels=tuple(_check_count(v, f"{name} label") for v in _listed(value, name)))


# Each record field's rule: (JSON value, field name) -> its value, or a TypeError
# or ValueError (NumericError included).
_FIELDS = {"features": _reals, "scores": _reals, "truth": _labels,
           "count": _check_count, "mode": _check_count, "image_id": _check_count}


def read_records(path: str, *fields: str, width: int | None = None,
                 make: Callable | None = None) -> list:
    """The values of ``fields`` in each record of a JSONL file, each parsed by
    its rule in ``_FIELDS``: a list per record, or ``make(*values)``.  A vector
    field comes first; every record's is as long as ``width`` (a model's input
    size) or, without one, as record 0's, which is not empty.  An image id
    names one record.  The earliest bad record is a DataError naming it, or a
    NumericError if its vector does not fit ``width``."""
    _, rows = read_jsonl(path)
    vector = fields[0] if _FIELDS[fields[0]] is _reals else None
    key = fields.index("image_id") if "image_id" in fields else None
    fixed = width is not None
    ids: dict[int, int] = {}  # image id -> the record that names it
    out = []
    for i, row in enumerate(rows):
        try:
            values = [_FIELDS[f](row[f], f) for f in fields]
            if key is not None and ids.setdefault(values[key], i) != i:
                raise ValueError(f"image_id {values[key]} repeats record {ids[values[key]]}")
            out.append(values if make is None else make(*values))
        except (KeyError, TypeError, ValueError) as e:
            what = f"no {e} field" if isinstance(e, KeyError) else e
            raise DataError(f"{path}: record {i}: {what}") from e
        if vector is None:
            continue
        n = len(values[0])
        if width is None:
            if not n:
                raise DataError(f"{path}: record 0 has no {vector}")
            width = n
        elif n != width:
            error = NumericError if fixed else DataError
            than = "the model takes" if fixed else "record 0 has"
            raise error(f"{path}: record {i} has {n} {vector}; {than} {width}")
    return out


def read_counting_records(path: str, with_count: bool = True, width: int | None = None
                          ) -> tuple[np.ndarray, np.ndarray | None]:
    """The (n, d) features matrix of a counting JSONL file and, ``with_count``,
    its n counts (else None); ``width`` is as in ``read_records``."""
    fields = ("features", "count") if with_count else ("features",)
    records = read_records(path, *fields, width=width)
    d = len(records[0][0]) if records else width or 0
    X = np.array([r[0] for r in records], dtype=float).reshape(len(records), d)
    return X, np.array([r[1] for r in records], dtype=np.int64) if with_count else None


def read_multilabel_records(path: str) -> list[EvalRecord]:
    """Scored records; every record has as many scores as record 0, which has some."""
    return read_records(path, "scores", "truth", make=EvalRecord)
