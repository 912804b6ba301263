"""File format round trips and header embedding.

The box reader is checked against a reference reader that builds one
``BoxDetection`` per row: the same rows accepted, and the same error at
the same line.  The box writer is checked against a reference writer
that formats ``BoxDetection`` fields one by one.
"""

import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setnet import BoxDetection, DataError, ParamMap, SynthConfig, cli, gen_boxes
from setnet.detect import box_table
from setnet.formats import (
    canonical_json,
    config_hash,
    make_header,
    read_boxes,
    read_counting_records,
    read_jsonl,
    read_multilabel_records,
    write_boxes,
    write_jsonl,
)


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "data.jsonl")
    header = make_header({"n": 3}, seed=7)
    rows = [{"features": [0.25, -1.5], "count": 2}, {"features": [0.0, 0.0], "count": 0}]
    write_jsonl(path, header, rows)
    got_header, got_rows = read_jsonl(path)
    assert got_header == header
    assert got_rows == rows
    assert got_header["schema_version"] == 1
    assert got_header["seed"] == 7
    X, counts = read_counting_records(path)
    assert X.tolist() == [[0.25, -1.5], [0.0, 0.0]] and counts.tolist() == [2, 0]
    assert read_counting_records(path, with_count=False)[1] is None


def test_multilabel_round_trip(tmp_path):
    path = str(tmp_path / "records.jsonl")
    write_jsonl(path, make_header({}, 0), [
        {"scores": [0.9, 0.1, 0.4], "truth": [0, 2]},
    ])
    records = read_multilabel_records(path)
    assert len(records) == 1
    assert records[0].scores == (0.9, 0.1, 0.4)
    assert records[0].truth.labels == (0, 2)


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
            read_jsonl(str(bad))
    badbox = tmp_path / "bad.txt"
    badbox.write_text("1 2 3\n")
    with pytest.raises(DataError):
        read_boxes(str(badbox), with_score=True)
    with pytest.raises(DataError):
        read_counting_records(str(tmp_path / "missing.jsonl"))


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
        read_multilabel_records(str(path))
    path.write_text(path.read_text().replace('[0.5], "truth": []', '[0.5, 0.1], "truth": []'))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: record 3: could not convert"):
        read_multilabel_records(str(path))


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


# -- the box table reader and writer against per-BoxDetection references ------


def ref_read_boxes(path, with_score):
    """One BoxDetection per row, checked as each line is read."""
    images = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            expected = 6 if with_score else 5
            if len(parts) != expected:
                raise DataError(
                    f"{path}:{ln + 1}: expected {expected} fields, got {len(parts)}")
            try:
                image_id = int(parts[0])
                vals = [float(v) for v in parts[1:]]
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
    return " ".join(fields)


@st.composite
def box_files(draw):
    """(with_score, lines); half the files hold only lines that may parse."""
    with_score = draw(st.booleans())
    kinds = ["row", "row", "row", "comment", "blank"]
    if draw(st.booleans()):
        kinds += ["edge", "edge", "fields", "word"]
    lines = draw(st.lists(st.sampled_from(kinds), max_size=10))
    return with_score, [draw(box_line(with_score, kind)) for kind in lines]


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
# Both extents negative: the area is positive, the box is not.
@example((True, ["3 5 5 0 0 0.5"]))
# Non-contiguous images with comments and blanks between their rows.
@example((True, ["1 0 0 5 5 0.5", "", "2 -0.0 5e-324 1e-200 1e200 1.0",
                 "# 1 0 0 0 5 0.5", "1 1 1 6 6 -0.0", "  ", "2 0 0 1 1 0.0"]))
def test_box_reader_agrees_with_box_detection(tmp_path_factory, case):
    with_score, lines = case
    path = tmp_path_factory.mktemp("boxes") / "boxes.txt"
    path.write_text("".join(line + "\n" for line in lines))
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
