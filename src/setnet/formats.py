"""Line-oriented file formats shared by the CLI and the generators.

``write_lines`` writes every artifact: a first line, then its rows.  Every
artifact carries a metadata header embedding schema version, config hash and
seed, so runs are self-describing and diffable:

* JSONL files: first line is the header object, then one record per line
  ({"features": [...], "count": m} / {"scores": [...], "truth": [...]}).
  Each row kind is spelled by its command's template with the bytes
  ``canonical_json`` gives the row; that spells headers and JSON documents.
* Box files: ASCII lines "image_id x1 y1 x2 y2 [score]", an int64 id and
  floats split by whitespace, as one ``np.loadtxt`` call reads them; "#"
  starts a comment anywhere on a line, and the header is the leading
  "# {...}" comment.
* Curve CSVs: the "# {...}" header line, the column line, one row per point.
* JSON documents (metrics, gradcheck, model): one line, the whole document.

Rows go in blocks of ``_ROWS_PER_BLOCK``: ``read_records`` decodes, checks
and turns into columns one block of records at a time, and the row writers
take an array's Python values one block at a time (``_block_rows``), so the
Python objects of one block are held whatever the file's length.
``read_records`` runs with the cyclic collector paused until its rows are
dropped: decoded JSON is trees, and a collector pass over trees frees nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import warnings
from contextlib import contextmanager
from itertools import chain
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .detect import BoxDetection
from .errors import DataError, NumericError
from .mlmetrics import _mask
from .numerics import _check_count

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "config_hash",
    "make_header",
    "write_lines",
    "write_boxes",
    "read_boxes",
    "read_records",
]

SCHEMA_VERSION = 1
_ROWS_PER_BLOCK = 4096  # the rows of a block, read or written (see above)


# One encoder for every line: json.dumps would build one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_SCAN = json.JSONDecoder().scan_once  # the C scanner: (value at index 0, its end)


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def make_header(config: dict, seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config_hash": config_hash(config),
        "seed": int(seed),
    }


def write_lines(path: str, first: str, lines: Iterable[str] = ()) -> None:
    """The one writer of every artifact: ``first`` and a newline, then
    ``lines`` as they are, each with its newline, as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first)
        fh.write("\n")
        fh.writelines(lines)


def _block_rows(*columns) -> Iterator[tuple]:
    """The rows of equal-length ``columns``, zipped; an array column gives
    the Python values of ``.tolist()`` one block of ``_ROWS_PER_BLOCK`` rows
    at a time, and any other column its slice."""
    size = _ROWS_PER_BLOCK
    return chain.from_iterable(
        zip(*(c[s:s + size].tolist() if isinstance(c, np.ndarray) else c[s:s + size]
              for c in columns))
        for s in range(0, len(columns[0]), size))


def _lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, split as text mode splits them.  A line
    that is not UTF-8 raises its UnicodeDecodeError after the lines before it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            if not line.isascii():  # raises where surrogateescape stood in for bytes
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            yield line


def _blocks(path: str) -> Iterator[list]:
    """The records of a JSONL file, a leading header object split off, in
    lists of at most ``_ROWS_PER_BLOCK``.  A line that is not JSON or not
    UTF-8 is a DataError, raised after the records before it are handed out,
    so that a fault among them can be raised first."""
    rows, size = [], _ROWS_PER_BLOCK
    try:
        for ln, line in enumerate(_lines(path)):
            line = line.strip()
            if not line:
                continue
            try:
                doc, end = _SCAN(line, 0)
                if end != len(line):
                    raise ValueError(end)
            except (StopIteration, ValueError, RecursionError):
                try:  # json.loads is _SCAN plus a test for trailing text
                    doc = json.loads(line)  # so it only words the fault
                # A JSONDecodeError, or the ValueError of an integer
                # past int's digit limit.
                except (ValueError, RecursionError) as e:
                    yield rows
                    raise DataError(f"{path}:{ln + 1}: invalid JSON: {e}") from e
            if not (ln == 0 and isinstance(doc, dict) and "schema_version" in doc):
                rows.append(doc)
                if len(rows) == size:
                    yield rows
                    rows = []
    except (OSError, UnicodeDecodeError) as e:
        yield rows
        raise DataError(f"cannot read {path}: {e}") from e
    yield rows


def write_boxes(
    path: str, header: dict, images: Iterable[tuple[int, np.ndarray]],
    with_score: bool,
) -> None:
    """One line per box; each image's boxes are a box table or its rows."""
    cols = 5 if with_score else 4
    write_lines(path, f"# {canonical_json(header)}", (
        f"{image_id} {' '.join(map(repr, row))}\n" for image_id, boxes in images
        for (row,) in _block_rows(np.asarray(boxes, dtype=float).reshape(-1, 5)[:, :cols])))


def read_boxes(path: str, with_score: bool) -> dict[int, np.ndarray]:
    """Box tables by image id, in first-appearance order, rows in file order;
    GT files (no score column) get score 1.0.  The file is what one
    ``np.loadtxt`` call reads: ASCII lines of an int64 id and floats split by
    whitespace, ``#`` starting a comment.  Each image's table is a slice of
    the rows sorted by id.  A file that call cannot read, or that holds a row
    BoxDetection rejects, is the DataError of its earliest bad line."""
    width = 6 if with_score else 5
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a row numpy reads with a warning is bad
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, dtype=[("id", np.int64), ("v", float, (width - 1,))],
                              comments="#", encoding="ascii", ndmin=1)
        table = np.ones((len(rows), 5))
        table[:, :width - 1] = rows["v"]
        if BoxDetection.rejected_rows(table).size:
            raise ValueError("a row BoxDetection rejects")
    except (OSError, ValueError, Warning) as e:
        _first_bad_line(path, width, e)
    return _by_image(rows["id"], table)


def _first_bad_line(path: str, width: int, error: Exception) -> NoReturn:
    """Raise the DataError of the earliest bad line of a box file: not ASCII,
    not ``width`` fields, a field ``int`` or ``float`` rejects or only they
    read (a ``_``, an id outside int64), or a box BoxDetection rejects; else
    ``error``, what numpy met.  It builds no table."""
    try:
        for ln, line in enumerate(_lines(path), 1):
            try:
                if not line.isascii():
                    raise ValueError("not an ASCII line")
                text = line.split("#", 1)[0]
                parts = text.split()
                if not parts:
                    continue
                if len(parts) != width:
                    raise ValueError(f"expected {width} fields, got {len(parts)}")
                image_id, values = int(parts[0]), list(map(float, parts[1:]))
                if "_" in text:
                    raise ValueError("'_' in a number")
                if not -2**63 <= image_id < 2**63:
                    raise ValueError("image id outside int64")
                BoxDetection(*values)
            except ValueError as e:
                raise DataError(f"{path}:{ln}: {e}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    raise DataError(f"cannot read {path}: {error}") from error


def _by_image(ids: np.ndarray, table: np.ndarray) -> dict[int, np.ndarray]:
    """The rows of ``table`` by image id, in first-appearance order: each
    image's rows, in table order, are one slice of the table sorted by id."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.r_[len(ids) > 0, ids[1:] != ids[:-1]])
    tables, keys = np.split(table[order], starts[1:]), ids[starts].tolist()
    return {keys[g]: tables[g] for g in np.argsort(order[starts]).tolist()}


def read_records(path: str, *fields: str, width: int | None = None) -> list:
    """The columns of ``fields`` in the records of a JSONL file: an (n, d)
    float matrix for a vector field, which comes first; an int64 column for a
    count field; for truth, the (n, C) mask of its labels.  Vectors are as long
    as ``width`` (a model's input size) or, without one, as record 0's, which
    is not empty; truth labels lie below their record's score count.  An image
    id names one record.  The earliest bad record, else a line that is not
    JSON or not UTF-8, is a DataError, or a NumericError if the record's
    vector does not fit ``width``.  Each block of ``_ROWS_PER_BLOCK`` records
    is checked and turned into columns as it is decoded, so one block of
    decoded JSON is held at a time; the block columns are joined at the end."""
    blocks, start, d, seen = [], 0, width, {}
    with _gc_paused():
        for rows in _blocks(path):
            columns, d = _checked_columns(path, fields, width, rows, start, d, seen)
            if "truth" in fields:
                columns[1] = _mask(*columns[1], columns[0].shape)
            blocks.append(columns)
            start += len(rows)
            del rows  # so the next block is decoded without this one
    return [np.concatenate(column) for column in zip(*blocks)]


@contextmanager
def _gc_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _checked_columns(path: str, fields: tuple, width: int | None, rows: list, start: int,
                     d: int | None, seen: dict) -> tuple[list, int | None]:
    """The columns of ``read_records`` in the block ``rows`` from record
    ``start`` on, a vector column as its (n, d) matrix, and d; or the error of
    the earliest bad record.  The blocks before fix ``d``, the vector width
    (None before any vector), and ``seen``, each image id's first record,
    which this extends.  Only when ``_columns`` flags the whole block does it
    run on one record at a time, to find the first record n that breaks a rule
    of its own (every rule of ``_columns`` is a rule of one record, so one
    does); the rules across records are checked on the records before n."""
    n, own = len(rows), None
    try:
        columns, lengths = _columns(rows, fields)
    except (KeyError, TypeError, ValueError):
        for n, row in enumerate(rows):
            try:
                _columns([row], fields)
            except (KeyError, TypeError, ValueError) as e:
                own = e
                break
        columns, lengths = _columns(rows[:n], fields)
    # Each fault across records lies before record n; the earliest one wins.
    faults = []
    if lengths is not None:
        if d is None and n:  # the block holds record 0
            d = int(lengths[0])
            if not d:
                raise DataError(f"{path}: record 0 has no {fields[0]}")
        for i in np.flatnonzero(lengths != d)[:1].tolist():
            than = "record 0 has" if width is None else "the model takes"
            faults.append((i, (DataError if width is None else NumericError)(
                f"{path}: record {start + i} has {lengths[i]} {fields[0]}; {than} {d}")))
    if "image_id" in fields:
        for i, image_id in enumerate(columns[fields.index("image_id")].tolist()):
            first = seen.setdefault(image_id, start + i)
            if first != start + i:
                faults.append((i, DataError(f"{path}: record {start + i}: image_id "
                                            f"{image_id} repeats record {first}")))
                break
    if faults:
        raise min(faults, key=lambda fault: fault[0])[1]
    if lengths is not None:
        columns[0] = columns[0].reshape(n, d or 0)
    if own is not None:
        what = f"no {own} field" if isinstance(own, KeyError) else own
        raise DataError(f"{path}: record {start + n}: {what}") from own
    return columns, d


def _ints(values: list, name: str) -> np.ndarray:
    """``values`` as an int64 column; unless each is a count, the error of
    ``_check_count`` for the first that is not."""
    if set(map(type, values)) - {int} or values and not 0 <= min(values) <= max(values) < 2**63:
        values = [_check_count(v, name) for v in values]
    return np.array(values, dtype=np.int64)


def _columns(rows: list, fields: tuple) -> tuple[list, np.ndarray | None]:
    """The columns of ``fields`` in ``rows`` and, for a vector field (which
    comes first), the length of each record's vector.  A vector column is its
    flat floats, a count field an int64 column, truth its labels and the record
    of each.  Each field's rules check it whole, in turn; the first record that
    one flags raises that rule's KeyError, TypeError or ValueError, so on one
    record the error is its fault."""
    out, lengths = [], None
    for f in fields:
        values = [row[f] for row in rows]
        if f not in ("features", "scores", "truth"):
            out.append(_ints(values, f))
            continue
        if set(map(type, values)) - {list}:
            raise TypeError(f"{f} must be a list, got "
                            f"{next(v for v in values if type(v) is not list)!r}")
        sizes = np.fromiter(map(len, values), np.int64, len(values))
        flat = list(chain.from_iterable(values))
        if f == "truth":  # strictly increasing, each below its record's score count
            labels, record = _ints(flat, "truth label"), np.repeat(np.arange(len(values)), sizes)
            down = (record[1:] == record[:-1]) & (labels[1:] <= labels[:-1])
            if down.any():
                mine = tuple(labels[record == record[down.argmax() + 1]].tolist())
                raise NumericError(f"labels must be strictly increasing: {mine!r}")
            over = labels >= lengths[record]
            if over.any():
                r = record[over.argmax()]
                raise NumericError(f"truth label {labels[record == r][-1]} outside "
                                   f"{lengths[r]} categories")
            out.append((labels, record))
            continue
        if set(map(type, flat)) - {int, float}:  # JSON numbers only: no bools, no strings
            bad = next(v for v in flat if type(v) not in (int, float))
            raise TypeError(f"could not convert {bad!r} to float: {f} must be numbers")
        try:
            col = np.array(flat, dtype=float)
        except OverflowError:  # an integer beyond the float range
            col = np.array([np.inf])
        if not np.isfinite(col).all():
            raise NumericError(f"{f} must be finite")
        out.append(col)
        lengths = sizes
    return out, lengths
