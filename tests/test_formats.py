"""File format round trips and header embedding."""

import json
import re

import pytest

from setnet import BoxDetection, DataError
from setnet.formats import (
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
    records = read_counting_records(path)
    assert records == [((0.25, -1.5), 2), ((0.0, 0.0), 0)]


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
    write_boxes(det_path, make_header({}, 1), [(3, dets)], with_score=True)
    write_boxes(gt_path, make_header({}, 1), [(3, gts)], with_score=False)
    got_dets = read_boxes(det_path, with_score=True)
    got_gts = read_boxes(gt_path, with_score=False)
    assert got_dets == {3: dets}
    assert got_gts == {3: gts}
    first = open(det_path).readline()
    assert first.startswith("# ")
    assert json.loads(first[2:])["schema_version"] == 1


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(DataError):
        read_jsonl(str(bad))
    badbox = tmp_path / "bad.txt"
    badbox.write_text("1 2 3\n")
    with pytest.raises(DataError):
        read_boxes(str(badbox), with_score=True)
    with pytest.raises(DataError):
        read_counting_records(str(tmp_path / "missing.jsonl"))


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
