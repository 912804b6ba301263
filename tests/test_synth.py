"""Generators: marginal laws, determinism, the planted-box scenarios, the
bytes ``synth`` writes, and the object views over the generators' arrays."""

import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from setnet import (
    BoxDetection,
    NegBinParams,
    NMSConfig,
    NumericError,
    ParamMap,
    SynthConfig,
    TrainingSample,
    adaptive_nms,
    cli,
    gen_boxes,
    gen_counting,
    gen_multilabel,
    greedy_nms,
    match_detections,
    nb_log_pmf,
    predicted_k_eval,
)
from setnet.detect import box_table
from setnet.mlmetrics import EvalRecord, LabelSet
from setnet.synth import _uniform, box_tables, counting_arrays, multilabel_arrays
from test_formats import CROWD, CROWD_MAP


def constant_maps(alpha, beta):
    return (ParamMap(weights=(), bias=alpha, lo=alpha, hi=alpha),
            ParamMap(weights=(), bias=beta, lo=beta, hi=beta))


class TestGenCounting:
    def test_marginal_matches_negbin(self):
        alpha, beta = 3.0, 1.5
        am, bm = constant_maps(alpha, beta)
        data = gen_counting(SynthConfig(n=10**5, d=4, seed=60,
                                        alpha_map=am, beta_map=bm))
        counts = np.array([s.count for s in data])
        p = NegBinParams(a=alpha, b=1.0 / (1.0 + beta))
        hi = int(counts.max()) + 1
        emp = np.bincount(counts, minlength=hi) / len(counts)
        exact = np.array([math.exp(nb_log_pmf(k, p)) for k in range(hi)])
        tv = 0.5 * np.abs(emp - exact).sum() + 0.5 * (1.0 - exact.sum())
        assert tv < 0.02

    def test_seed_determinism(self):
        cfg = SynthConfig(n=500, d=6, seed=61)
        assert gen_counting(cfg) == gen_counting(cfg)
        assert gen_counting(cfg) != gen_counting(SynthConfig(n=500, d=6, seed=62))

    def test_large_beta_concentrates_near_zero(self):
        # Mean of the compound law is alpha/beta.
        am, bm = constant_maps(2.0, 20.0)
        data = gen_counting(SynthConfig(n=10**5, d=4, seed=63,
                                        alpha_map=am, beta_map=bm))
        counts = np.array([s.count for s in data])
        assert counts.mean() == pytest.approx(2.0 / 20.0, rel=0.05)
        assert np.mean(counts == 0) > 0.85

    def test_param_map_validation(self):
        with pytest.raises(NumericError):
            ParamMap(weights=(1.0,), bias=0.0, lo=0.0, hi=1.0)
        with pytest.raises(NumericError):
            ParamMap(weights=(1.0,), bias=0.0, lo=2.0, hi=1.0)


class TestGenMultilabel:
    def test_no_noise_scores_rank_truth_first(self):
        cfg = SynthConfig(n=300, d=4, C=12, seed=64, noise=0.0)
        for s in gen_multilabel(cfg):
            k = len(s.record.truth)
            top = np.argsort(-np.asarray(s.record.scores), kind="stable")[:k]
            assert set(int(i) for i in top) == set(s.record.truth.labels)
            assert s.count == k

    def test_oracle_cardinality_perfect_metrics(self):
        cfg = SynthConfig(n=200, d=4, C=10, seed=65, noise=0.0)
        samples = gen_multilabel(cfg)
        summary = predicted_k_eval([s.record for s in samples],
                                   [s.count for s in samples])
        assert summary.o_f1 == 1.0
        assert summary.c_f1 == 1.0

    def test_cardinality_clamped_to_categories(self):
        am, bm = constant_maps(40.0, 1.0)  # mean 40 forces clamping
        cfg = SynthConfig(n=300, d=4, C=5, seed=66, alpha_map=am, beta_map=bm)
        for s in gen_multilabel(cfg):
            assert len(s.record.truth) <= 5
            assert s.count == len(s.record.truth)

    def test_truth_sets_valid(self):
        cfg = SynthConfig(n=300, d=4, C=9, seed=67, noise=0.3)
        for s in gen_multilabel(cfg):
            labels = s.record.truth.labels
            assert all(0 <= v < 9 for v in labels)
            assert list(labels) == sorted(set(labels))
            assert all(0.0 <= v <= 1.0 for v in s.record.scores)

    def test_seed_determinism(self):
        cfg = SynthConfig(n=200, d=4, C=8, seed=68)
        assert gen_multilabel(cfg) == gen_multilabel(cfg)


class TestGenBoxes:
    def test_exact_recovery_without_jitter_or_fps(self):
        cfg = SynthConfig(n=60, d=4, seed=69, jitter=0.0, fp_rate=0.0)
        for im in gen_boxes(cfg):
            kept = adaptive_nms(list(im.proposals), im.count, NMSConfig())
            assert len(kept) == im.count
            kept_boxes = {(b.x1, b.y1, b.x2, b.y2) for b in kept}
            gt_boxes = {(b.x1, b.y1, b.x2, b.y2) for b in im.ground_truth}
            assert kept_boxes == gt_boxes
            m = match_detections(kept, list(im.ground_truth), 0.5)
            assert (m.tp, m.fn) == (im.count, 0)

    def test_crowded_pairs_defeat_fixed_threshold(self):
        # With crowding on, a fixed 0.4 threshold merges partner boxes on
        # some images while the adaptive sweep recovers the exact count.
        cfg = SynthConfig(n=80, d=4, seed=70, jitter=0.0, fp_rate=0.0,
                          crowd_frac=1.0)
        images = gen_boxes(cfg)
        fixed_undershoots = 0
        for im in images:
            if im.count == 0:
                continue
            fixed = greedy_nms(list(im.proposals), 0.4)
            adaptv = adaptive_nms(list(im.proposals), im.count, NMSConfig())
            assert len(adaptv) == im.count
            if len(fixed) < im.count:
                fixed_undershoots += 1
        assert fixed_undershoots > 0

    def test_ground_truth_geometry(self):
        cfg = SynthConfig(n=50, d=4, seed=71, crowd_frac=0.0)
        for im in gen_boxes(cfg):
            gts = im.ground_truth
            for i in range(len(gts)):
                for j in range(i + 1, len(gts)):
                    a, b = gts[i], gts[j]
                    # The zero-overlap branch of the scalar IoU (test_detect.ref_iou).
                    assert (min(a.x2, b.x2) <= max(a.x1, b.x1)
                            or min(a.y2, b.y2) <= max(a.y1, b.y1))

    def test_seed_determinism(self):
        cfg = SynthConfig(n=40, d=4, seed=72)
        assert gen_boxes(cfg) == gen_boxes(cfg)

    def test_config_validation(self):
        with pytest.raises(NumericError):
            SynthConfig(n=0)
        with pytest.raises(NumericError):
            SynthConfig(noise=1.5)
        with pytest.raises(NumericError):
            SynthConfig(box_size=100.0, cell_count=5, image_size=200.0)


# What synth writes: the first 16 hex digits of the sha256 of each file after
# its header line, recorded before the generators drew in per-image blocks.
GOLDEN = {
    "counting-d8": ({"task": "counting", "n": 200, "d": 8, "seed": 41},
                    {"data.jsonl": "b8c20633f3ff1764"}),
    "counting-d3": ({"task": "counting", "n": 200, "d": 3, "seed": 42},
                    {"data.jsonl": "5809d62553bc4719"}),
    "multilabel-C16": ({"task": "multilabel", "n": 300, "d": 8, "C": 16, "seed": 43},
                       {"features.jsonl": "1c37dd38a0fb2493",
                        "records.jsonl": "1cf441a2265ea5c6"}),
    # C = 2 clamps most drawn cardinalities.
    "multilabel-C2": ({"task": "multilabel", "n": 300, "d": 8, "C": 2, "seed": 44},
                      {"features.jsonl": "6a9c1e89a7259064",
                       "records.jsonl": "8144037ab78cdf2f"}),
    "boxes-default": ({"task": "boxes", "n": 60, "seed": 45},
                      {"counts.jsonl": "5c3a49293b9c8a5d", "gt.txt": "678029a84b0849c8",
                       "proposals.txt": "e993ee008aafb638"}),
    "boxes-crowd": ({"task": "boxes", "n": 60, "seed": 46, "alpha_map": CROWD_MAP, **CROWD},
                    {"counts.jsonl": "d590024e5bb1858d", "gt.txt": "df807565a8ae34c4",
                     "proposals.txt": "2706817071188064"}),
    "boxes-exact": ({"task": "boxes", "n": 60, "seed": 47, "crowd_frac": 1.0,
                     "jitter": 0.0, "fp_rate": 0.0},
                    {"counts.jsonl": "58b0b4d6968e625d", "gt.txt": "76593975f8ad88ba",
                     "proposals.txt": "63dccc94f3d57397"}),
    "boxes-no-duplicates": ({"task": "boxes", "n": 60, "seed": 48, "duplicates": 0},
                            {"counts.jsonl": "c552f2e2e79b8aa6", "gt.txt": "161cfe9ed362d940",
                             "proposals.txt": "d52ecb62f8d2c8f9"}),
    # Nine cells hold at most seven boxes, so the false positives run out of
    # free cells.
    "boxes-few-cells": ({"task": "boxes", "n": 60, "seed": 49, "cell_count": 3,
                         "fp_rate": 30.0},
                        {"counts.jsonl": "234b5883a39a42e7", "gt.txt": "8a666630feca6255",
                         "proposals.txt": "79bd9d8db795857e"}),
}


def run_synth(capsys, tmp_path, cfg):
    """The stdout JSON line of ``synth`` on ``cfg``, which must succeed."""
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_synth_writes_the_pinned_bytes(capsys, tmp_path, name):
    cfg, digests = GOLDEN[name]
    files = run_synth(capsys, tmp_path, cfg)["files"].values()
    got = {}
    for path in files:
        with open(path, "rb") as fh:
            fh.readline()  # the header, which embeds the config hash
            got[path.rsplit("/", 1)[1]] = hashlib.sha256(fh.read()).hexdigest()[:16]
    assert got == digests


def test_synth_builds_no_object_per_row(capsys, tmp_path, monkeypatch):
    built = Counter()
    for cls in (BoxDetection, EvalRecord, LabelSet, TrainingSample):
        def counted(self, _check=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for cfg, _ in GOLDEN.values():
        run_synth(capsys, tmp_path, cfg)
    assert built == Counter()
    # The views, by contrast, build one per row.
    gen_boxes(SynthConfig(n=3, seed=1))
    gen_multilabel(SynthConfig(n=3, seed=1))
    gen_counting(SynthConfig(n=3, seed=1))
    assert set(built) == {"BoxDetection", "EvalRecord", "LabelSet", "TrainingSample"}


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_counting_view_is_its_arrays():
    cfg = SynthConfig(n=200, d=3, seed=74)
    x, counts = counting_arrays(cfg)
    samples = gen_counting(cfg)
    assert len(samples) == len(x) == len(counts) == cfg.n
    for s, f, m in zip(samples, x, counts.tolist()):
        assert bits(s.features) == f.tobytes() and s.count == m


def test_multilabel_view_is_its_arrays():
    cfg = SynthConfig(n=300, d=4, C=3, seed=75, alpha_map=ParamMap((), 3.0, 3.0, 3.0),
                      beta_map=ParamMap((), 1.0, 1.0, 1.0))
    x, scores, labels, n_clamped = multilabel_arrays(cfg)
    samples = gen_multilabel(cfg)
    assert 0 < n_clamped < cfg.n
    assert len(samples) == len(x) == len(scores) == len(labels) == cfg.n
    for s, f, row, t in zip(samples, x, scores, labels):
        assert bits(s.features) == f.tobytes()
        assert bits(s.record.scores) == row.tobytes()
        assert list(s.record.truth.labels) == t and s.count == len(t)


BOX_SCENES = {
    "default": SynthConfig(n=60, seed=45),
    "crowd": SynthConfig(n=60, seed=46, alpha_map=ParamMap(**CROWD_MAP), **CROWD),
    "few-cells": SynthConfig(n=60, seed=49, cell_count=3, fp_rate=30.0),
}


@pytest.mark.parametrize("name", list(BOX_SCENES))
def test_box_views_are_their_tables(name):
    cfg = BOX_SCENES[name]
    proposals, gts, _ = box_tables(cfg)
    images = gen_boxes(cfg)
    assert [im.image_id for im in images] == list(range(cfg.n))
    assert len(proposals) == len(gts) == cfg.n
    for im, p, g in zip(images, proposals, gts):
        for boxes, table in ((im.proposals, p), (im.ground_truth, g)):
            got = box_table(list(boxes))
            assert got.shape == table.shape and got.tobytes() == table.tobytes()
        assert im.count == len(g) and (g[:, 4] == 1.0).all()


# Constant maps with mean 3 draw counts on both sides of a cap of 2 or 3.
MEAN_3 = {"alpha_map": {"weights": [], "bias": 3.0, "lo": 3.0, "hi": 3.0},
          "beta_map": {"weights": [], "bias": 1.0, "lo": 1.0, "hi": 1.0}}


@pytest.mark.parametrize("task,cap,extra", [
    ("counting", None, {}),
    ("multilabel", 3, {"C": 3}),
    # Four cells hold two boxes; without partners an image's count is its cells'.
    ("boxes", 2, {"cell_count": 2, "crowd_frac": 0.0}),
])
def test_synth_reports_clamped_cardinalities(capsys, tmp_path, task, cap, extra):
    cfg = {"task": task, "n": 300, "d": 4, "seed": 76, **MEAN_3, **extra}
    out = run_synth(capsys, tmp_path, cfg)
    _, drawn = counting_arrays(SynthConfig(
        n=300, d=4, seed=76, alpha_map=ParamMap(**MEAN_3["alpha_map"]),
        beta_map=ParamMap(**MEAN_3["beta_map"])))
    counts_file = {"counting": "data", "multilabel": "features", "boxes": "counts"}[task]
    with open(out["files"][counts_file]) as fh:
        written = [json.loads(line)["count"] for line in fh.readlines()[1:]]
    if cap is None:
        assert out["n_clamped"] == 0 and written == drawn.tolist()
    else:
        assert 0 < out["n_clamped"] == int((drawn > cap).sum()) < 300
        assert written == np.minimum(drawn, cap).tolist()


@pytest.mark.parametrize("lo,hi", [
    (0.0, 1.0), (0.75, 0.95), (-0.08, 0.08), (0.0, 0.0), (-1e307, 1e307),
    (1.0, -1.0), (-1e308, 1e308), (1e308, -1e308), (math.nan, 1.0), (0.0, math.inf),
])
def test_block_draws_are_numpys_uniform(lo, hi):
    """_uniform over rng.random draws gives rng.uniform's values and leaves
    the generator where rng.uniform does, or raises rng.uniform's error."""
    want, got = np.random.default_rng(5), np.random.default_rng(5)
    try:
        expected = want.uniform(lo, hi, size=7)
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e), match=f"^{re.escape(str(e))}$"):
            _uniform(lo, hi, got.random(7))
        assert _uniform(lo, hi, got.random(0)).size == 0  # no draw, no error
        return
    assert _uniform(lo, hi, got.random(7)).tobytes() == expected.tobytes()
    assert got.random() == want.random()


def loop_multilabel_arrays(cfg):
    """multilabel_arrays as a loop over records: each draws its labels, sets
    its truth row and draws its noise by rng.uniform."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.0, 1.0, size=(cfg.n, cfg.d))
    m = rng.poisson(rng.gamma(shape=cfg.alpha_map(x), scale=1.0 / cfg.beta_map(x)))
    labels, truth, noise = [], np.zeros((cfg.n, cfg.C), dtype=bool), np.empty((cfg.n, cfg.C))
    for i, k in enumerate(np.minimum(m, cfg.C).tolist()):
        labels.append(sorted(rng.choice(cfg.C, size=k, replace=False).tolist()) if k else [])
        truth[i, labels[i]] = True
        noise[i] = rng.uniform(-1.0, 1.0, size=cfg.C)
    return x, np.clip(truth + cfg.noise * noise, 0.0, 1.0), labels, int(np.sum(m > cfg.C))


# Maps whose sizes are all 0, all above 16 (clamped), and a mix of both.
LABEL_MAPS = {"zeros": constant_maps(1e-3, 1.0), "clamped": constant_maps(80.0, 1.0),
              "mixed": (ParamMap((150.0, 0.8), -64.0, 1e-3, 60.0), ParamMap((), 1.0, 1.0, 1.0))}


@pytest.mark.parametrize("maps", list(LABEL_MAPS))
@pytest.mark.parametrize("n", [1, 50])
@pytest.mark.parametrize("noise", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("C", [1, 2, 16])
def test_multilabel_block_draws_are_the_record_loop(C, noise, n, maps):
    alpha, beta = LABEL_MAPS[maps]
    cfg = SynthConfig(n=n, d=3, C=C, noise=noise, seed=n + C, alpha_map=alpha, beta_map=beta)
    want, got = loop_multilabel_arrays(cfg), multilabel_arrays(cfg)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert got[2:] == want[2:]
    sizes = {len(t) for t in want[2]}
    assert {"zeros": sizes == {0}, "clamped": want[3] == n,
            "mixed": n == 1 or 0 in sizes and want[3] > 0}[maps]
