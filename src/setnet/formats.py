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
from .errors import DataError
from .mlmetrics import EvalRecord, LabelSet

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
                except json.JSONDecodeError as e:
                    raise DataError(f"{path}:{ln + 1}: invalid JSON: {e}") from e
                if ln == 0 and isinstance(doc, dict) and "schema_version" in doc:
                    header = doc
                else:
                    rows.append(doc)
    except OSError as e:
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
    except OSError as e:
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


def read_records(path: str, parse: Callable[[dict], object]) -> list:
    """``parse`` of each record of a JSONL file, in order.  The first record it
    cannot parse is a DataError naming the record; a DataError from ``parse``
    itself passes through, so the earliest bad record wins either way."""
    _, rows = read_jsonl(path)
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(parse(row))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: record {i}: {e}") from e
    return out


def read_counting_records(path: str) -> list[tuple[tuple[float, ...], int]]:
    """(features, count) pairs from a counting JSONL file."""
    return read_records(path, lambda row: (
        tuple(float(v) for v in row["features"]), int(row["count"])))


def read_multilabel_records(path: str) -> list[EvalRecord]:
    """Scored records; every record has as many scores as record 0, which has some."""
    widths: list[int] = []  # the score count of each record parsed so far

    def parse(row: dict) -> EvalRecord:
        record = EvalRecord(scores=tuple(float(v) for v in row["scores"]),
                            truth=LabelSet(labels=tuple(int(v) for v in row["truth"])))
        widths.append(len(record.scores))
        if not widths[0]:
            raise DataError(f"{path}: record 0 has no scores")
        if widths[-1] != widths[0]:
            raise DataError(f"{path}: record {len(widths) - 1} has {widths[-1]} scores; "
                            f"record 0 has {widths[0]}")
        return record

    return read_records(path, parse)
