"""Rows in blocks of ``formats._ROWS_PER_BLOCK``.

The record reader checks each block as it is decoded and carries what the
blocks before it fix: record 0's vector width, the first record of each
image id and the record numbers.  With the block size patched small, files
whose faults lie across block boundaries read as ``test_cli``'s per-record
reference reads them: the same columns, or the same error class and text.
A block that ``formats._columns`` rejects holds a record that it rejects
on its own, whatever the fault: a missing field, a wrong type, a bool, a
string, a non-finite value, an unordered or an out-of-range truth label.

Under tracemalloc, the reader, the row writers of ``synth`` and ``predict``
and ``train``'s epoch loss peak under one bound above the arrays they hold
by design, on files of 3 and of 12 blocks alike.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setnet import cardnet, cli, formats, synth
from setnet.cardloss import HeadWeights
from test_cli import READS, VALID_RECORDS, read_outcome, ref_read_records

NOT_JSON = "{not json"
# A record whose vector is one shorter than the kind's valid records'.
SHORT = {"counting": {"features": [0.1, 0.2], "count": 1},
         "features": {"features": [0.1, 0.2]},
         "multilabel": {"scores": [0.9, 0.1], "truth": [1]}}
# A record with a fault of its own.
OWN = {"counting": {"features": [0.1, -0.2, 0.3], "count": 2.5},
       "features": {"features": [0.1, "x", 0.3]},
       "multilabel": {"scores": [0.9, 0.1, 0.5], "truth": [2, 0]},
       "prediction": {"mode": -1},
       "mstar": {"image_id": 999, "count": True}}


def valid(kind, i):
    """Record i of a valid file of ``kind``: mstar records name image 100 + i."""
    if kind == "mstar":
        return {"image_id": 100 + i, "count": i % 3}
    return VALID_RECORDS[kind][i % len(VALID_RECORDS[kind])]


def repeat(i):
    """An mstar record that repeats the image of record i."""
    return {"image_id": 100 + i, "count": 0}


def block_cases(b):
    """(kind, name, lines) of files read in blocks of b records: each line a
    record, or text; a header comes first.  A fault's record or line sits at
    a block boundary, or in a later block than the record it contradicts."""
    n = 4 * b + 1
    for kind in sorted(READS):
        rows = [valid(kind, i) for i in range(n)]
        # The first record of block 1 contradicts block 0, where it can.
        odd = SHORT.get(kind, repeat(0) if kind == "mstar" else OWN[kind])
        yield kind, "valid", rows
        yield kind, "valid-full-blocks", rows[:3 * b]
        yield kind, "not-json-after-a-full-block", rows[:b] + [odd] + rows[b + 1:2 * b] + [NOT_JSON]
        yield kind, "own-fault-then-not-json", rows[:b] + [OWN[kind], NOT_JSON] + rows[b:]
        if kind in SHORT:
            for at in (2 * b, 2 * b + 1):
                yield kind, f"short-at-{at}", rows[:at] + [SHORT[kind]] + rows[at + 1:]
            yield kind, "short-then-own-fault", (rows[:b] + [SHORT[kind]]
                                                 + rows[b + 1:2 * b] + [OWN[kind]] + rows[2 * b:])
            yield kind, "short-then-not-json", rows[:b] + [SHORT[kind], NOT_JSON]
        if kind == "mstar":
            for at in (2 * b, 2 * b + 1):
                yield kind, f"repeat-at-{at}", rows[:at] + [repeat(1)] + rows[at + 1:]
            yield kind, "repeat-then-own-fault", (rows[:b + 1] + [repeat(0)]
                                                  + rows[b + 2:2 * b] + [OWN[kind]] + rows[2 * b:])
            yield kind, "repeat-in-own-block", rows[:2 * b] + [repeat(2 * b - 1)] + rows[2 * b + 1:]


CASES = [pytest.param(b, kind, lines, id=f"{kind}-{name}-b{b}")
         for b in (2, 3) for kind, name, lines in block_cases(b)]


@pytest.mark.parametrize("b,kind,lines", CASES)
def test_blocks_read_as_the_per_record_rules(tmp_path, b, kind, lines):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(f"{line if isinstance(line, str) else json.dumps(line)}\n"
                            for line in [json.dumps({"schema_version": 1}), *lines]))
    fields, width = READS[kind]
    with mock.patch.object(formats, "_ROWS_PER_BLOCK", b):
        got = read_outcome(formats.read_records, str(path), fields, width)
    assert got == read_outcome(ref_read_records, str(path), fields, width)



# -- a block is rejected only for a record's own fault ---------------------

# The faults a record can have on its own: kinds for every field, and two
# that only a truth list has.
FAULTS = ("missing", "type", "bool", "string", "non-finite")
TRUTH_FAULTS = ("unordered", "out-of-range")


@st.composite
def faulty_blocks(draw):
    """(fields, rows): a block of valid records of a kind, 0-3 of them spoilt
    by a fault of their own."""
    kind = draw(st.sampled_from(sorted(READS)))
    fields = READS[kind][0]
    rows = [dict(draw(st.sampled_from(VALID_RECORDS[kind]))) for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        field = draw(st.sampled_from(fields))
        fault = draw(st.sampled_from(FAULTS + (TRUTH_FAULTS if field == "truth" else ())))
        listed = field in ("features", "scores", "truth")
        if fault == "missing":
            row.pop(field, None)
        elif fault == "type":
            row[field] = 7 if listed else [1]
        elif fault == "unordered":
            row[field] = [2, 0]
        elif fault == "out-of-range":
            row[field] = [3]  # a valid record has 3 scores
        else:  # a bool, a string or a non-finite value in the field or one of its entries
            value = True if fault == "bool" else "1.5" if fault == "string" else draw(
                st.sampled_from([math.inf, -math.inf, math.nan, 10**400]))
            entries = row.get(field)
            if listed and isinstance(entries, list) and entries:
                entries = list(entries)
                entries[draw(st.integers(0, len(entries) - 1))] = value
                row[field] = entries
            else:
                row[field] = [value] if listed else value
    return fields, rows


def rejected(rows, fields):
    try:
        formats._columns(rows, fields)
    except (KeyError, TypeError, ValueError):
        return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(faulty_blocks())
def test_block_is_rejected_only_with_a_record_rejected_alone(block):
    """``_checked_columns`` looks for the record that breaks a rule of its
    own only when ``_columns`` rejects the whole block: one always does."""
    fields, rows = block
    assert rejected(rows, fields) == any(rejected([row], fields) for row in rows)

# -- bounded memory ---------------------------------------------------------

BLOCK = 1024  # rows per block in the memory checks
# What a block of rows may cost above the arrays that are held by design.
BOUND = 3 << 19  # 1.5 MiB


def traced_peak(fn, *args):
    """(what ``fn(*args)`` returns, the peak bytes it had traced at once)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counting_arrays(n):
    rng = np.random.default_rng(n)
    return rng.normal(size=(n, 8)), rng.integers(0, 20, size=n)


@pytest.fixture(autouse=True)
def blocks_of_1024():
    with mock.patch.object(formats, "_ROWS_PER_BLOCK", BLOCK):
        yield


@pytest.mark.parametrize("blocks", [3, 12])
@pytest.mark.parametrize("kind", ["counting", "multilabel"])
def test_reader_holds_one_block(tmp_path, kind, blocks):
    """Above its columns and the block columns they are joined from."""
    n = blocks * BLOCK
    if kind == "counting":
        x, counts = counting_arrays(n)
        text = (json.dumps({"features": f, "count": c}) + "\n"
                for f, c in zip(x.tolist(), counts.tolist()))
    else:
        scores = np.random.default_rng(n).random((n, 16))
        text = (json.dumps({"scores": s, "truth": [0, 3, 7]}) + "\n" for s in scores.tolist())
    path = tmp_path / "records.jsonl"
    formats.write_lines(str(path), json.dumps({"schema_version": 1}), text)
    columns, peak = traced_peak(formats.read_records, str(path), *READS[kind][0])
    assert len(columns[0]) == n
    assert peak - 2 * sum(c.nbytes for c in columns) < BOUND


@pytest.mark.parametrize("blocks", [3, 12])
def test_synth_writer_holds_one_block(tmp_path, blocks):
    """``synth --task counting`` on arrays drawn before the trace."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"task": "counting", "n": 1, "d": 8}))

    def run(arrays, out):
        with mock.patch.object(synth, "counting_arrays", return_value=arrays):
            assert cli.main(["synth", "--config", str(config), "--out", str(out)]) == 0

    run(counting_arrays(1), tmp_path / "warm")  # the parser is built once per process
    arrays = counting_arrays(blocks * BLOCK)
    _, peak = traced_peak(run, arrays, tmp_path / "out")
    assert peak < BOUND


@pytest.mark.parametrize("blocks", [3, 12])
def test_predict_writer_holds_one_block(tmp_path, blocks):
    n = blocks * BLOCK
    rng = np.random.default_rng(n)
    alpha, beta, mode = rng.random(n), rng.random(n), rng.integers(0, 20, size=n)
    run = cli._Run(formats.make_header({}, 0), str(tmp_path))
    _, peak = traced_peak(lambda: run.write_rows("predictions", "predictions.jsonl",
                                                 cli._prediction_lines(alpha, beta, mode)))
    assert peak < BOUND


@pytest.mark.parametrize("blocks", [3, 12])
def test_epoch_loss_holds_one_block(blocks):
    """Above the per-row arrays of training: the head outputs, the
    permutation, the per-row losses and the checked counts."""
    X, counts = counting_arrays(blocks * BLOCK)
    model = cardnet.init_model([8, 16, 2], activation="tanh", head=HeadWeights(), seed=0,
                               kind="negbin")
    cfg = cardnet.TrainConfig(epochs=1, batch_size=64, seed=0)
    _, peak = traced_peak(cardnet.train, model, (X, counts), cfg)
    assert peak - (cardnet.OUTPUT_WIDTH["negbin"] + 3) * counts.nbytes < BOUND
