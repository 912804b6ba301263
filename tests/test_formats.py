"""File format round trips and header embedding.

The box reader is checked against a reference reader that builds one
``BoxDetection`` per row: the same rows accepted, and the same error at
the same line.  The box writer is checked against a reference writer
that formats ``BoxDetection`` fields one by one.
"""

import gc
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setnet import (BoxDetection, DataError, NumericError, ParamMap, SynthConfig, cli, formats,
                    gen_boxes)
from setnet.detect import box_table
from setnet.formats import (
    canonical_json,
    config_hash,
    make_header,
    read_boxes,
    read_records,
    write_boxes,
    write_lines,
)


def write_jsonl(path, header, rows):
    """A JSONL file of ``rows`` after ``header``, each canonical JSON."""
    write_lines(path, canonical_json(header), (canonical_json(row) + "\n" for row in rows))


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "data.jsonl")
    header = make_header({"n": 3}, seed=7)
    rows = [{"features": [0.25, -1.5], "count": 2}, {"features": [0.0, 0.0], "count": 0}]
    write_jsonl(path, header, rows)
    with open(path) as fh:
        got_header = json.loads(fh.readline())
    assert got_header == header
    assert [row for block in formats._blocks(path) for row in block] == rows
    assert got_header["schema_version"] == 1
    assert got_header["seed"] == 7
    X, counts = read_records(path, "features", "count")
    assert X.tolist() == [[0.25, -1.5], [0.0, 0.0]] and counts.tolist() == [2, 0]
    assert [c.tolist() for c in read_records(path, "features")] == [X.tolist()]


def test_multilabel_round_trip(tmp_path):
    path = str(tmp_path / "records.jsonl")
    write_jsonl(path, make_header({}, 0), [
        {"scores": [0.9, 0.1, 0.4], "truth": [0, 2]},
    ])
    scores, truth = read_records(path, "scores", "truth")
    assert scores.dtype == float and scores.tolist() == [[0.9, 0.1, 0.4]]
    assert truth.dtype == bool and truth.tolist() == [[True, False, True]]


def test_boxes_round_trip(tmp_path):
    dets = [BoxDetection(x1=0.0, y1=1.0, x2=10.5, y2=11.25, score=0.75)]
    gts = [BoxDetection(x1=2.0, y1=2.0, x2=4.0, y2=4.0)]
    det_path = str(tmp_path / "dets.txt")
    gt_path = str(tmp_path / "gts.txt")
    write_boxes(det_path, make_header({}, 1), [(3, box_table(dets))], with_score=True)
    write_boxes(gt_path, make_header({}, 1), [(3, box_table(gts))], with_score=False)
    got_dets = read_boxes(det_path, with_score=True)
    got_gts = read_boxes(gt_path, with_score=False)
    assert list(got_dets) == [3] and got_dets[3].tolist() == [[0.0, 1.0, 10.5, 11.25, 0.75]]
    assert list(got_gts) == [3] and got_gts[3].tolist() == [[2.0, 2.0, 4.0, 4.0, 1.0]]
    first = open(det_path).readline()
    assert first.startswith("# ")
    assert json.loads(first[2:])["schema_version"] == 1


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.jsonl"
    for text in ["not json\n", "[" * 50000 + "]" * 50000 + "\n"]:  # too deep to decode
        bad.write_text(text)
        with pytest.raises(DataError, match=":1: invalid JSON: "):
            list(formats._blocks(str(bad)))
    badbox = tmp_path / "bad.txt"
    badbox.write_text("1 2 3\n")
    with pytest.raises(DataError):
        read_boxes(str(badbox), with_score=True)
    with pytest.raises(DataError):
        read_records(str(tmp_path / "missing.jsonl"), "features", "count")


def test_earliest_bad_record_wins(tmp_path):
    # As in read_boxes, the first bad record is reported, whatever is wrong
    # with it: here record 1 is ragged and record 3 does not parse.
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [
        {"scores": [0.5, 0.2], "truth": [0]},
        {"scores": [0.5], "truth": []},
        {"scores": [0.5, 0.2], "truth": [1]},
        {"scores": [0.5, "x"], "truth": [1]},
    ]))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: record 1 has 1 scores; "
                                        r"record 0 has 2$"):
        read_records(str(path), "scores", "truth")
    path.write_text(path.read_text().replace('[0.5], "truth": []', '[0.5, 0.1], "truth": []'))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: record 3: could not convert"):
        read_records(str(path), "scores", "truth")


def test_repeated_image_id_after_a_vector_field(tmp_path):
    # The id rule holds wherever image_id sits; of a vector that does not
    # fit and a repeated id, the earlier record's fault wins.
    path = tmp_path / "features.jsonl"

    def write(*records):
        path.write_text("".join(json.dumps({"features": f, "image_id": i}) + "\n"
                                for f, i in records))

    write(([1.0], 3), ([2.0], 3))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: record 1: image_id 3 "
                                        r"repeats record 0$"):
        read_records(str(path), "features", "image_id")
    write(([1.0], 3), ([2.0], 4), ([3.0], 3), ([4.0, 5.0], 5))
    with pytest.raises(DataError, match=r": record 2: image_id 3 repeats record 0$"):
        read_records(str(path), "features", "image_id")
    write(([1.0], 3), ([2.0, 0.0], 4), ([3.0], 3))
    with pytest.raises(DataError, match=r": record 1 has 2 features; record 0 has 1$"):
        read_records(str(path), "features", "image_id")
    with pytest.raises(NumericError, match=r": record 1 has 2 features; the model takes 1$"):
        read_records(str(path), "features", "image_id", width=1)
    write(([1.0], 3), ([2.0], 4))
    X, ids = read_records(str(path), "features", "image_id")
    assert X.tolist() == [[1.0], [2.0]] and ids.tolist() == [3, 4]


@pytest.mark.parametrize("row", [
    "4 0 0 0 5 0.5",     # zero width
    "4 0 5 5 0 0.5",     # negative height
    "4 0 0 5 5 1.5",     # score above 1
    "4 0 0 5 5 -0.1",    # score below 0
    "4 0 0 inf 5 0.5",   # non-finite coordinate
    "4 0 0 5 5 nan",     # non-finite score
    "4 0 0 1e-200 1e-200 0.5",  # area underflows to 0
])
def test_rejected_box_is_data_error_with_line(tmp_path, row):
    path = tmp_path / "boxes.txt"
    path.write_text("# {}\n1 0 0 5 5 0.5\n" + row + "\n")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: "):
        read_boxes(str(path), with_score=True)


@pytest.mark.parametrize("row, want", [
    ("1 0 0 x 5 0.5", "{path}:2049: could not convert string to float: 'x'"),
    ("1 0 0 5 5 0.5", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    ("1 0 0 0 5 0.5", "{path}:2049: box must have positive extent"),
])
def test_box_row_read_before_undecodable_bytes(tmp_path, row, want):
    # The bytes sit past the chunks of text that hold the first 2,049 rows,
    # so those rows are read first, and one that does not parse, or that
    # BoxDetection rejects, wins.
    path = tmp_path / "boxes.txt"
    good = "2 0 0 5 5 0.5\n"
    path.write_bytes((good * 2048 + row + "\n" + good * 1000).encode() + b"\xff\n")
    with pytest.raises(DataError) as info:
        read_boxes(str(path), with_score=True)
    assert str(info.value).startswith(want.format(path=path))


@pytest.mark.parametrize("row, want", [
    ("1 0 0 x 5 0.5", "{path}:3: could not convert string to float: 'x'"),
    ("1 0 0 0 5 0.5", "{path}:3: box must have positive extent"),
    ("1 0 0 5 5 0.5", "cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
])
@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"])
def test_box_row_in_the_text_chunk_of_undecodable_bytes(tmp_path, row, want, sep):
    # One small chunk holds the bad row and the bytes on the line after it:
    # the row is still read first, and its line counted as text mode splits.
    path = tmp_path / "boxes.txt"
    path.write_bytes(sep.join(["# {}", "2 0 0 5 5 0.5", row, ""]).encode() + b"\xff" + b"1\n")
    with pytest.raises(DataError) as info:
        read_boxes(str(path), with_score=True)
    assert str(info.value).startswith(want.format(path=path))


# -- the box table reader and writer against per-BoxDetection references ------


def ref_read_boxes(path, with_score):
    """One BoxDetection per row, checked as each line is read: every line is
    ASCII, ``#`` starts a comment anywhere on a line, an id lies in int64 and
    no number holds a ``_``."""
    images = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            if not line.isascii():
                raise DataError(f"{path}:{ln + 1}: not an ASCII line")
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            expected = 6 if with_score else 5
            if len(parts) != expected:
                raise DataError(
                    f"{path}:{ln + 1}: expected {expected} fields, got {len(parts)}")
            try:
                image_id = int(parts[0])
                vals = [float(v) for v in parts[1:]]
                if "_" in line:
                    raise ValueError("'_' in a number")
                if not -2**63 <= image_id < 2**63:
                    raise ValueError("image id outside int64")
                score = vals[4] if with_score else 1.0
                box = BoxDetection(x1=vals[0], y1=vals[1], x2=vals[2], y2=vals[3],
                                   score=score)
            except ValueError as e:
                raise DataError(f"{path}:{ln + 1}: {e}") from e
            images.setdefault(image_id, []).append(box)
    return images


def ref_write_boxes(path, header, images, with_score):
    """Box lines written field by field from BoxDetections."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + canonical_json(header) + "\n")
        for image_id, boxes in images:
            for b in boxes:
                fields = [image_id, repr(b.x1), repr(b.y1), repr(b.x2), repr(b.y2)]
                if with_score:
                    fields.append(repr(b.score))
                fh.write(" ".join(str(f) for f in fields) + "\n")


# Ordinary values and edge values that BoxDetection accepts: signed zeros,
# subnormals, extents of 1e-200 and 1e200 (their area underflows or
# overflows when both extents are), and scores of -0.0, 0 and 1.
COORD = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 5e-324, 1e-310])
EXTENT = st.floats(0.5, 50.0) | st.sampled_from([1e-200, 1e200])
SCORE = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0])
# Edge values it rejects, mixed with some it accepts.
BAD_COORD = st.sampled_from([1e-200, 1e200, 1e308, -1e308, math.inf, -math.inf,
                             math.nan, -0.0])
BAD_EXTENT = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-200, 1e200, 1e308])
BAD_SCORE = st.sampled_from([1.0000000000000002, -5e-324, math.nan, math.inf, 1.0])


# Tokens and separators on which numpy's C parser and Python's int/float
# may disagree: forms only Python reads (a `_` in a number, Unicode digits,
# ids beyond int64), which the box format rejects; forms both read or both
# reject; an unassigned code point that numpy's int64 parser takes for a
# digit; and whitespace that only str.split splits.  Every non-ASCII token
# or separator makes its line one the format rejects.
ODD_ID = st.sampled_from(["1_0", "\u0661", "\u2fe51", "9223372036854775808",
                          "-9223372036854775809", "1.0", "1e2", "+7", "007"])
ODD_VALUE = st.sampled_from(["1_0.5", "\u0661.\u0665", "0x1p3", "1d0", "1,5", "0.5#x",
                             "+.5e1", "Infinity", "1e400"])
ODD_SEP = st.sampled_from(["\x0c", "\xa0", "\x0b", "\x1c", "\u3000", " \t "])


@st.composite
def box_line(draw, with_score, kind):
    if kind == "comment":
        return draw(st.sampled_from(["# 1 0 0 5 5 0.5", "  #x", "#"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    coord, extent, score = ((BAD_COORD | COORD, BAD_EXTENT | EXTENT, BAD_SCORE | SCORE)
                            if kind == "edge" else (COORD, EXTENT, SCORE))
    # Few image ids, so an image's rows are often not contiguous.
    x1, y1 = draw(coord), draw(coord)
    fields = [str(draw(st.sampled_from([0, 1, 2, 7]))), repr(x1), repr(y1),
              repr(x1 + draw(extent)), repr(y1 + draw(extent))]
    if with_score:
        fields.append(repr(draw(score)))
    if kind == "fields":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["0.5"]
    elif kind == "word":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.sampled_from(["x", "1.5", "--1"]))
    elif kind == "odd":
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = draw(ODD_ID if i == 0 else ODD_VALUE)
        return draw(ODD_SEP).join(fields)
    return " ".join(fields)


@st.composite
def box_files(draw):
    """(with_score, lines); half the files hold only lines that may parse,
    half start with a header comment, and some lines end in \\r\\n."""
    with_score = draw(st.booleans())
    kinds = ["row", "row", "row", "comment", "blank"]
    if draw(st.booleans()):
        kinds += ["edge", "edge", "fields", "word", "odd"]
    lines = draw(st.lists(st.sampled_from(kinds), max_size=10))
    header = ["# {}"] if draw(st.booleans()) else []
    ends = st.sampled_from(["", "\r"])
    return with_score, header + [draw(box_line(with_score, kind)) + draw(ends) for kind in lines]


def outcome(read, path, with_score):
    try:
        return read(path, with_score)
    except DataError as e:
        return str(e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(box_files())
# A bad value before a bad field count, and the reverse: the earlier line wins.
@example((True, ["# {}", "1 0 0 5 5 0.5", "2 0 0 0 5 0.5", "1 2 3"]))
@example((True, ["1 0 0 5 5 0.5", "1 2 3", "2 0 0 0 5 0.5"]))
@example((False, ["1 0 0 5 5", "1 0 0 x 5", "2 0 nan 5 5"]))
@example((False, ["1 0 0 5 5", "1 0 0 inf 5", "2 0 0 5 5 0.5"]))
# A rejected row before a value that does not parse.
@example((True, ["2 0 0 0 5 0.5", "1 0 0 5 5 0.5", "1 0 0 x 5 0.5"]))
# Both extents negative: the area is positive, the box is not.
@example((True, ["3 5 5 0 0 0.5"]))
# Non-contiguous images with comments and blanks between their rows.
@example((True, ["1 0 0 5 5 0.5", "", "2 -0.0 5e-324 1e-200 1e200 1.0",
                 "# 1 0 0 0 5 0.5", "1 1 1 6 6 -0.0", "  ", "2 0 0 1 1 0.0"]))
# What only Python reads, after a header: an id with an underscore, one in
# Arabic-Indic digits, one beyond int64, a form-feed separator.  The first
# is a DataError naming line 2.
@example((True, ["# {}", "1_0 0 0 5 5 0.5", "\u0661 1 1 6 6 0.25",
                 "9223372036854775808 0 0 1 1 1.0", "1\x0c0 0 5 5 0.5\r"]))
# An id that numpy's int64 parser would read as 122131: not an ASCII line.
@example((True, ["# {}", "1 0 0 5 5 0.5", "\u2fe51 0 0 5 5 0.5"]))
# A header and nothing else; a comment after the header.
@example((False, ["# {}"]))
@example((False, ["# {}", "0 0 0 5 5", "#", "0 1 1 6 6"]))
def test_box_reader_agrees_with_box_detection(tmp_path_factory, case):
    with_score, lines = case
    path = tmp_path_factory.mktemp("boxes") / "boxes.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got = outcome(read_boxes, str(path), with_score)
    want = outcome(ref_read_boxes, str(path), with_score)
    if isinstance(want, str):
        assert got == want
        return
    assert list(got) == list(want)
    for image_id, boxes in want.items():
        assert [list(map(repr, row)) for row in got[image_id].tolist()] == [
            [repr(b.x1), repr(b.y1), repr(b.x2), repr(b.y2), repr(b.score)]
            for b in boxes]


@pytest.mark.parametrize("with_score", [True, False])
def test_box_writer_bytes_from_table_rows_and_boxes(tmp_path, with_score):
    images = [
        (3, [BoxDetection(-0.0, 5e-324, 1e200, 0.1, 1.0 / 3.0),
             BoxDetection(0.1, 0.2, 0.30000000000000004, 1.0, -0.0)]),
        (0, []),
        (12, [BoxDetection(-7.25, 1e-200, 2.0, 1e-199, 1.0)]),
    ]
    header = make_header({"k": 1}, 5)
    ref = tmp_path / "ref.txt"
    ref_write_boxes(str(ref), header, images, with_score)
    # A table; its rows as a list (what a caller that counts rows passes);
    # BoxDetections through box_table.
    for form in (box_table, lambda bs: list(box_table(bs))):
        path = tmp_path / "got.txt"
        write_boxes(str(path), header, [(i, form(bs)) for i, bs in images], with_score)
        assert path.read_bytes() == ref.read_bytes()


# The det-crowd benchmark scene at a smaller n.
CROWD = {"d": 8, "cell_count": 10, "box_size": 12.0, "duplicates": 8, "fp_rate": 2.0}
CROWD_MAP = {"weights": [150.0, 0.8], "bias": -64.0, "lo": 0.11, "hi": 60.0}


def test_crowd_scene_bytes_survive_read_and_write(tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"task": "boxes", "n": 40, "seed": 3,
                               "alpha_map": CROWD_MAP, **CROWD}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene")]) == 0
    images = gen_boxes(SynthConfig(n=40, seed=3, alpha_map=ParamMap(**CROWD_MAP), **CROWD))
    for name, with_score, field in (("proposals.txt", True, "proposals"),
                                    ("gt.txt", False, "ground_truth")):
        written = (tmp_path / "scene" / name).read_bytes()
        header = json.loads(written.decode().splitlines()[0][2:])
        # synth writes what the per-BoxDetection writer writes ...
        ref = tmp_path / f"ref-{name}"
        ref_write_boxes(str(ref), header, ((im.image_id, getattr(im, field))
                                           for im in images), with_score)
        assert ref.read_bytes() == written
        # ... and reading the file back and writing the tables gives it again.
        again = tmp_path / f"again-{name}"
        write_boxes(str(again), header,
                    read_boxes(str(tmp_path / "scene" / name), with_score).items(),
                    with_score)
        assert again.read_bytes() == written


def test_ordinary_box_files_skip_the_line_loop(tmp_path):
    # A synth scene's files are read by numpy's parser alone; the line loop
    # runs only to name a bad line, such as one with the id 1_0.
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"task": "boxes", "n": 40, "seed": 3,
                               "alpha_map": CROWD_MAP, **CROWD}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "scene")]) == 0
    odd = tmp_path / "odd.txt"
    odd.write_text("# {}\n1_0 0 0 5 5 0.5\n")
    with mock.patch.object(formats, "_first_bad_line", wraps=formats._first_bad_line) as loop:
        for name, with_score in (("proposals.txt", True), ("gt.txt", False)):
            assert read_boxes(str(tmp_path / "scene" / name), with_score)
        assert loop.call_count == 0
        with pytest.raises(DataError, match=rf"^{re.escape(str(odd))}:2: "):
            read_boxes(str(odd), with_score=True)
        assert loop.call_count == 1


# The box format is what np.loadtxt reads: a line after "# {}" and one good
# row, then a good row of image 2.  Forms only Python's int and float read
# are DataErrors naming line 3; a "#" comment may end a row or fill a line.
@pytest.mark.parametrize("line, want", [
    ("1_0 0 0 5 5 0.5", "'_' in a number"),
    ("1 1_0.5 0 5 5 0.5", "'_' in a number"),
    ("9223372036854775808 0 0 5 5 0.5", "image id outside int64"),
    ("\u0661 0 0 5 5 0.5", "not an ASCII line"),
    ("# caf\u00e9", "not an ASCII line"),
    ("1 0 0 5 5 0.5 # note", [[0.0, 0.0, 5.0, 5.0, 0.5]] * 2),
    ("# note", [[0.0, 0.0, 5.0, 5.0, 0.5]]),
])
def test_box_file_is_what_loadtxt_reads(tmp_path, line, want):
    path = tmp_path / "boxes.txt"
    path.write_text(f"# {{}}\n1 0 0 5 5 0.5\n{line}\n2 0 0 5 5 0.5\n", encoding="utf-8")
    if isinstance(want, list):
        got = read_boxes(str(path), with_score=True)
        assert {k: v.tolist() for k, v in got.items()} == {1: want, 2: [[0.0, 0.0, 5.0, 5.0, 0.5]]}
        return
    with pytest.raises(DataError) as info:
        read_boxes(str(path), with_score=True)
    assert str(info.value) == f"{path}:3: {want}"
    assert len(str(info.value).encode()) < 1024


def test_fault_no_line_shows_is_still_a_data_error(tmp_path):
    # A numpy fault that the line walk cannot place never reads as tables.
    path = tmp_path / "boxes.txt"
    path.write_text("# {}\n1 0 0 5 5 0.5\n")
    with mock.patch.object(formats.np, "loadtxt", side_effect=ValueError("no row 7")):
        with pytest.raises(DataError, match=rf"^cannot read {re.escape(str(path))}: no row 7$"):
            read_boxes(str(path), with_score=True)


def test_read_records_puts_the_collector_back(tmp_path):
    # read_records pauses the cyclic collector; each way out restores the
    # caller's state, so a caller's own pause outlives the read.
    good, bad, not_json = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "nj.jsonl"
    write_jsonl(str(good), make_header({}, 0), [{"features": [1.0, 2.0], "count": 1}])
    write_jsonl(str(bad), make_header({}, 0), [{"features": [1.0, 2.0], "count": -1}])
    not_json.write_text('{"features": [1.0], "count": 1}\n{"features": [\n')
    cases = [(good, None, None), (bad, None, DataError), (not_json, None, DataError),
             (tmp_path / "missing.jsonl", None, DataError), (good, 3, NumericError)]
    try:
        for enabled in (True, False):
            for path, width, error in cases:
                gc.enable() if enabled else gc.disable()
                if error is None:
                    X, counts = read_records(str(path), "features", "count", width=width)
                    assert X.tolist() == [[1.0, 2.0]] and counts.tolist() == [1]
                else:
                    with pytest.raises(error):
                        read_records(str(path), "features", "count", width=width)
                assert gc.isenabled() is enabled, (path.name, width, enabled)
    finally:
        gc.enable()


def test_read_records_runs_no_collector_pass(tmp_path):
    # Decoded rows are trees, which hold no reference cycle: a 6k-record
    # multi-label read runs with no collector pass, not one per 700 objects.
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"task": "multilabel", "n": 6000, "d": 8, "C": 16, "seed": 7}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ml")]) == 0
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        scores, truth = read_records(str(tmp_path / "ml" / "records.jsonl"), "scores", "truth")
    finally:
        gc.callbacks.remove(count)
    assert scores.shape == truth.shape == (6000, 16)
    assert passes == []


# The JSONL reader is checked against the reader it replaced, which called
# json.loads on each line: the same records, handed out before the error of
# the first bad line, and the same error text.
def ref_records(path):
    """The records before the first line that is not JSON, a leading header
    object aside, and that line's error (None when there is none)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except (ValueError, RecursionError) as e:
                return rows, DataError(f"{path}:{ln + 1}: invalid JSON: {e}")
            if not (ln == 0 and isinstance(doc, dict) and "schema_version" in doc):
                rows.append(doc)
    return rows, None


def block_records(path):
    """The records ``formats._blocks`` hands out, joined, and what it raises
    after them; AssertionError if a block is larger than ``_ROWS_PER_BLOCK``."""
    rows = []
    try:
        for block in formats._blocks(path):
            assert len(block) <= formats._ROWS_PER_BLOCK
            rows += block
    except DataError as e:
        return rows, e
    return rows, None


def jsonl_outcome(read, path):
    """repr of the records and the error text: repr, as a nan is not equal to itself."""
    rows, error = read(path)
    return repr(rows), error and (type(error), str(error))


CHARS = st.characters(exclude_categories=("Cs",))  # any text UTF-8 can encode
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(CHARS, max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(CHARS, max_size=3), inner, max_size=3)),
    max_leaves=6)
# JSON's own characters, the whitespace str.strip removes and JSON does not,
# a byte order mark and the line separators.
JSONISH = st.text(st.sampled_from('{}[]",:019.eE+-nultrfasNIiy \t\x0b\x1c\xa0\u2028\ufeff\r'),
                  max_size=10)


@st.composite
def jsonl_line(draw):
    kind = draw(st.sampled_from(["value", "value", "two", "cut", "junk", "header"]))
    if kind == "header":
        return json.dumps({"schema_version": 1, "seed": draw(st.integers(0, 3))})
    text = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    if kind == "two":  # two values on one line, as "1 2" or "{}{}"
        text += draw(st.sampled_from(["", " ", ","])) + json.dumps(draw(JSON_VALUES))
    elif kind == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif kind == "junk":
        text = draw(JSONISH)
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\x1c", "\ufeff"])
    return draw(pad) + text + draw(pad)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(jsonl_line(), max_size=6), st.sampled_from(["\n", "\r\n", "\r"]),
       st.booleans())
# A merge and a split that cancel out: three lines that, joined with commas,
# decode to three values, though line 1 is not JSON.
@example(['{"a":"}', '{","b":1}', '{"c":1},{"d":2}'], "\n", True)
@example(["null", "NaN", "-Infinity"], "\n", False)
@example(['{"schema_version": 1}', "1 2"], "\n", True)
@example(["{} x"], "\n", True)
@example(["\ufeff{}"], "\n", True)
@example(["[]", "[" * 100_000], "\n", True)  # too deep: a RecursionError
@example(['{"a": "x\u2028y"}', "[1]"], "\n", True)  # not a line break in a file
@example(['{"schema_version": 1}', "[1]", "2"], "\r", False)
@example(["[1]", "\xa0", "[2]"], "\n", True)  # a line that strips to nothing
@example(["1" * 5000], "\n", True)  # past int's digit limit: not JSON here
def test_jsonl_reader_agrees_with_json_loads_per_line(tmp_path_factory, lines, sep, last):
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    path.write_bytes((sep.join(lines) + (sep if last else "")).encode("utf-8"))
    want = jsonl_outcome(ref_records, str(path))
    for block in (1, 2, formats._ROWS_PER_BLOCK):
        with mock.patch.object(formats, "_ROWS_PER_BLOCK", block):
            assert jsonl_outcome(block_records, str(path)) == want
