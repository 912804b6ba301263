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
from typing import Iterable, Iterator

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
    path: str, header: dict, images: Iterable[tuple[int, Iterable[BoxDetection]]],
    with_score: bool,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# ")
        fh.write(canonical_json(header))
        fh.write("\n")
        for image_id, boxes in images:
            for b in boxes:
                fields = [image_id, repr(b.x1), repr(b.y1), repr(b.x2), repr(b.y2)]
                if with_score:
                    fields.append(repr(b.score))
                fh.write(" ".join(str(f) for f in fields))
                fh.write("\n")


def read_boxes(path: str, with_score: bool) -> dict[int, list[BoxDetection]]:
    """Boxes grouped by image id; GT files (no score column) default to 1.0."""
    images: dict[int, list[BoxDetection]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                expected = 6 if with_score else 5
                if len(parts) != expected:
                    raise DataError(
                        f"{path}:{ln + 1}: expected {expected} fields, got {len(parts)}"
                    )
                # A field that does not parse, or a box BoxDetection rejects
                # (a NumericError, hence a ValueError), is bad data here.
                try:
                    image_id = int(parts[0])
                    vals = [float(v) for v in parts[1:]]
                    score = vals[4] if with_score else 1.0
                    box = BoxDetection(
                        x1=vals[0], y1=vals[1], x2=vals[2], y2=vals[3], score=score
                    )
                except ValueError as e:
                    raise DataError(f"{path}:{ln + 1}: {e}") from e
                images.setdefault(image_id, []).append(box)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from e
    return images


def read_counting_records(path: str) -> list[tuple[tuple[float, ...], int]]:
    """(features, count) pairs from a counting JSONL file."""
    _, rows = read_jsonl(path)
    out = []
    for i, row in enumerate(rows):
        try:
            out.append((tuple(float(v) for v in row["features"]), int(row["count"])))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: record {i}: {e}") from e
    return out


def read_multilabel_records(path: str) -> list[EvalRecord]:
    """Scored records; every record has as many scores as record 0."""
    _, rows = read_jsonl(path)
    out = []
    for i, row in enumerate(rows):
        try:
            out.append(EvalRecord(
                scores=tuple(float(v) for v in row["scores"]),
                truth=LabelSet(labels=tuple(int(v) for v in row["truth"])),
            ))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: record {i}: {e}") from e
        if len(out[i].scores) != len(out[0].scores):
            raise DataError(f"{path}: record {i} has {len(out[i].scores)} scores; "
                            f"record 0 has {len(out[0].scores)}")
    return out


def iter_feature_rows(path: str) -> Iterator[tuple[float, ...]]:
    _, rows = read_jsonl(path)
    for i, row in enumerate(rows):
        try:
            yield tuple(float(v) for v in row["features"])
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: record {i}: {e}") from e
