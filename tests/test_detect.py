"""Box geometry, NMS variants and detection metrics.

The non-monotonicity fixture uses four concrete boxes (overlaps computed
from their actual geometry): the kept count of greedy NMS is 3 at t=0.3
but only 2 at t=0.45, because the mid box B survives the higher threshold
and then shadows C and D.

The property tests compare the library against a scalar reference (one
``ref_iou`` call per pair, one greedy pass per threshold), which must
agree exactly: the same boxes, by identity, in the same order.  The
library has no one-pair IoU; its overlaps are pinned to ``ref_iou`` bit for
bit at the threshold knife edges of NMS and matching.
"""

import ast
import dataclasses
import itertools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setnet import (
    BoxDetection,
    MatchResult,
    NMSConfig,
    NumericError,
    adaptive_nms,
    detection_f1,
    greedy_nms,
    log_avg_miss_rate,
    match_detections,
)
from setnet import detect
from setnet.detect import best_f1_over_thresholds, det_scores, miss_rate_curve
from setnet.mlmetrics import f1_score


def box(x1, y1, x2, y2, score=1.0):
    return BoxDetection(x1=x1, y1=y1, x2=x2, y2=y2, score=score)


def four_box_fixture():
    """A(0.9), B(0.8), C(0.7), D(0.6) with IoU(A,B)=0.379,
    IoU(B,C)=IoU(B,D)=0.492, IoU(A,C)=IoU(A,D)=0.222, IoU(C,D)=0.175."""
    a = box(0.0, 4.5, 10.0, 14.5, 0.9)
    b = box(0.0, 0.0, 10.0, 10.0, 0.8)
    c = box(-3.0, 0.0, 6.4, 10.0, 0.7)
    d = box(3.6, 0.0, 13.0, 10.0, 0.6)
    return [a, b, c, d]


def random_cloud(rng, n_max=30):
    n = int(rng.integers(1, n_max + 1))
    out = []
    for _ in range(n):
        x1 = rng.uniform(0, 80)
        y1 = rng.uniform(0, 80)
        out.append(box(x1, y1, x1 + rng.uniform(4, 25), y1 + rng.uniform(4, 25),
                       float(rng.uniform(0.01, 1.0))))
    return out


class TestIou:
    """IoU fixtures on the scalar reference that the library must equal."""

    def test_identical(self):
        b = box(2.0, 3.0, 8.0, 9.0)
        assert ref_iou(b, b) == 1.0

    def test_disjoint(self):
        assert ref_iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        assert ref_iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1.0 / 3.0)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            a, b = random_cloud(rng, 2)[0], random_cloud(rng, 2)[0]
            assert ref_iou(a, b) == pytest.approx(ref_iou(b, a), abs=1e-15)
            assert 0.0 <= ref_iou(a, b) <= 1.0
            assert ref_iou(a, a) == 1.0

    def test_fixture_overlaps(self):
        a, b, c, d = four_box_fixture()
        assert ref_iou(a, b) == pytest.approx(55.0 / 145.0)
        assert ref_iou(b, c) == pytest.approx(64.0 / 130.0)
        assert ref_iou(b, d) == pytest.approx(64.0 / 130.0)
        assert ref_iou(c, d) == pytest.approx(28.0 / 160.0)
        assert ref_iou(a, c) == pytest.approx(35.2 / 158.8)
        assert ref_iou(a, d) == pytest.approx(35.2 / 158.8)

    def test_box_validation(self):
        with pytest.raises(NumericError):
            box(0, 0, 0, 5)
        with pytest.raises(NumericError):
            box(0, 0, 5, 5, score=1.5)
        with pytest.raises(NumericError, match="area"):
            box(0, 0, 1e-200, 1e-200)  # the area underflows to 0
        with pytest.raises(NumericError, match="area"):
            box(0, 0, 1e200, 1e200)  # the area overflows


class TestGreedyNms:
    def test_single_box(self):
        b = box(0, 0, 5, 5, 0.3)
        assert greedy_nms([b], 0.5) == [b]

    def test_identical_boxes_keep_best(self):
        hi = box(0, 0, 5, 5, 0.9)
        lo = box(0, 0, 5, 5, 0.4)
        for t in (0.0, 0.3, 0.7, 0.95):
            assert greedy_nms([lo, hi], t) == [hi]

    def test_score_tie_input_order(self):
        first = box(0, 0, 5, 5, 0.5)
        second = box(0, 0, 5, 5, 0.5)
        assert greedy_nms([first, second], 0.5) == [first]

    def test_non_monotone_kept_count(self):
        boxes = four_box_fixture()
        a, b, c, d = boxes
        assert greedy_nms(boxes, 0.3) == [a, c, d]
        assert greedy_nms(boxes, 0.45) == [a, b]

    def test_suppression_strict_at_equality(self):
        # Suppress only when IoU exceeds t; keep at exact equality.
        a = box(0, 0, 10, 10, 0.9)
        b = box(5, 0, 15, 10, 0.8)  # IoU exactly 1/3
        assert greedy_nms([a, b], 1.0 / 3.0) == [a, b]

    def test_pairwise_overlap_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            cloud = random_cloud(rng)
            t = float(rng.uniform(0.1, 0.8))
            kept = greedy_nms(cloud, t)
            scores = [k.score for k in kept]
            assert scores == sorted(scores, reverse=True)
            for i, j in itertools.combinations(range(len(kept)), 2):
                assert ref_iou(kept[i], kept[j]) <= t


class TestAdaptiveNms:
    def test_disjoint_pair(self):
        a = box(0, 0, 5, 5, 0.8)
        b = box(20, 20, 25, 25, 0.6)
        assert adaptive_nms([a, b], 2) == [a, b]

    def test_fixture_trace(self):
        boxes = four_box_fixture()
        a, _, c, _ = boxes
        cfg = NMSConfig(t0=0.3, step=0.01, t_max=0.95)
        # greedy at t0=0.3 already keeps 3 >= 2, so the top-2 come back.
        assert adaptive_nms(boxes, 2, cfg) == [a, c]

    def test_threshold_climb_recovers_count(self):
        boxes = four_box_fixture()
        cfg = NMSConfig(t0=0.3, step=0.01, t_max=0.95)
        kept = adaptive_nms(boxes, 4, cfg)
        assert len(kept) == 4

    def test_unreachable_target_returns_survivors(self):
        hi = box(0, 0, 5, 5, 0.9)
        lo = box(0, 0, 5, 5, 0.4)
        kept = adaptive_nms([hi, lo], 2, NMSConfig(t0=0.4, step=0.01, t_max=0.95))
        assert kept == [hi]
        three = [box(0, 0, 5, 5, 0.9), box(20, 0, 25, 5, 0.8), box(40, 0, 45, 5, 0.7)]
        assert len(adaptive_nms(three, 5)) == 3

    def test_zero_target(self):
        assert adaptive_nms(four_box_fixture(), 0) == []

    def test_sweep_length_is_bounded(self):
        # The longest sweep NMSConfig accepts has 10,000 thresholds; one box
        # under an unreachable m* ends at the last of them, and so do two boxes
        # of IoU 0.99 under m* = 2, whose windows walk to the last threshold.
        table = np.array([[0.0, 0.0, 5.0, 5.0, 0.5]])
        pair = np.array([[0.0, 0.0, 100.0, 1.0, 0.9], [0.0, 0.0, 99.0, 1.0, 0.8]])
        for step in [0.99 / 9999, 9.900001e-5]:
            cfg = NMSConfig(t0=0.0, step=step, t_max=0.99)
            assert detect.adaptive_nms_rows(table, 2, cfg)[1] + 1 == 10_000
            assert detect.adaptive_nms_rows(pair, 2, cfg)[1] + 1 == 10_000
        for step in [0.99 / 10_000, 1e-6, 5e-324]:
            with pytest.raises(NumericError, match=r"sweeps more than 10000 thresholds"):
                NMSConfig(t0=0.0, step=step, t_max=0.99)

    def test_unreachable_mstar_equals_greedy(self):
        # At a single threshold, an m* above the box count is never met:
        # the sweep returns every survivor of that threshold's pass.
        rng = np.random.default_rng(42)
        for _ in range(20):
            cloud = random_cloud(rng)
            t = float(rng.uniform(0.2, 0.7))
            cfg = NMSConfig(t0=t, step=0.01, t_max=t)
            assert adaptive_nms(cloud, len(cloud) + 1, cfg) == greedy_nms(cloud, t)

    def test_count_contract_randomised(self):
        rng = np.random.default_rng(43)
        cfg = NMSConfig()
        for _ in range(100):
            cloud = random_cloud(rng)
            m_star = int(rng.integers(0, 12))
            kept = adaptive_nms(cloud, m_star, cfg)
            assert len(kept) <= m_star
            n_steps = int(np.floor((cfg.t_max - cfg.t0) / cfg.step + 1e-9))
            achievable = any(
                len(greedy_nms(cloud, min(cfg.t0 + k * cfg.step, cfg.t_max)))
                >= m_star
                for k in range(n_steps + 1)
            )
            if achievable:
                assert len(kept) == m_star


class TestWalkPlan:
    """The (k, width) of each walk that ``adaptive_nms_rows`` asks of
    ``_Sweep.greedy``: the pass at t0, then, from the lapse, windows of
    ``_START`` thresholds, each next one twice as wide, at most ``_WIDTH``."""

    @staticmethod
    def walks(table, m_star, cfg=NMSConfig()):
        # autospec passes the sweep as the first argument; wraps= does not
        # reach an autospecced method on Python 3.11, side_effect does.
        with mock.patch.object(detect._Sweep, "greedy", autospec=True,
                               side_effect=detect._Sweep.greedy) as greedy:
            result = detect.adaptive_nms_rows(table, m_star, cfg)
        return result, [call.args[1:3] for call in greedy.call_args_list]

    def test_mstar_above_the_boxes_runs_only_the_last_pass(self):
        rng = np.random.default_rng(5)
        ts = NMSConfig()._thresholds
        for _ in range(10):
            cloud = random_cloud(rng)
            (rows, k), walks = self.walks(detect.box_table(cloud), len(cloud) + 1)
            assert walks == [(len(ts) - 1, 1)] and k == len(ts) - 1
            assert ids([cloud[i] for i in rows]) == ids(ref_greedy_nms(cloud, ts[-1]))

    def test_windows_after_the_lapse_follow_the_schedule(self):
        # Two pairs of IoU 6/14 and 8/12 (shifts 4 and 2 of 10-wide boxes):
        # the t0 pass keeps 2 of 4, the first pair's suppression lapses at
        # 0.43 and the second's at 0.67, so m* = 4 is met past the 16th threshold.
        table = np.array([[0, 0, 10, 1, 0.9], [4, 0, 14, 1, 0.8],
                          [30, 0, 40, 1, 0.7], [32, 0, 42, 1, 0.6]], dtype=float)
        (rows, answer), walks = self.walks(table, 4)
        n_ts = len(NMSConfig()._thresholds)
        assert rows.tolist() == [0, 1, 2, 3] and answer > 16
        assert walks[0] == (0, 1) and walks[1][0] == 3 and len(walks) >= 3  # from the lapse
        span = detect._START
        for (k, width), (k_next, _) in zip(walks[1:], walks[2:] + [(None, None)]):
            assert width == min(span, detect._WIDTH, n_ts - k)
            assert k_next is None or k_next == k + width  # contiguous, increasing
            span = 2 * width
        k, width = walks[-1]
        assert k <= answer < k + width  # the last window holds the answer



class TestThresholdTable:
    """``NMSConfig._thresholds``: one read-only table per config, with the
    bits of the expression each sweep used to rebuild."""

    @staticmethod
    def per_call(cfg):
        return np.minimum(cfg.t0 + np.arange(math.floor(cfg._span) + 1) * cfg.step, cfg.t_max)

    @pytest.mark.parametrize("cfg", [
        NMSConfig(),
        NMSConfig(t0=0.5, step=0.01, t_max=0.5),  # one threshold
        NMSConfig(t0=0.4, step=0.7, t_max=0.95),  # the first step lands past t_max
        NMSConfig(t0=0.1, step=0.1, t_max=0.7),  # the last step lands past t_max: clipped
        NMSConfig(t0=0.0, step=0.99 / 9999, t_max=0.99),  # 10,000 thresholds
    ], ids=["default", "one-threshold", "step-past-t-max", "last-step-clipped",
            "10000-thresholds"])
    def test_table_keeps_the_per_call_bits(self, cfg):
        ts, want = cfg._thresholds, self.per_call(cfg)
        assert ts.dtype == want.dtype and ts.shape == want.shape
        assert ts.tobytes() == want.tobytes()
        assert cfg._thresholds is ts  # built once

    def test_table_is_read_only(self):
        ts = NMSConfig()._thresholds
        assert not ts.flags.writeable
        with pytest.raises(ValueError):
            ts[0] = 0.0

    def test_replace_builds_its_own_table(self):
        cfg = NMSConfig()
        same, other = dataclasses.replace(cfg), dataclasses.replace(cfg, t_max=0.9)
        assert same._thresholds is not cfg._thresholds
        assert same._thresholds.tobytes() == cfg._thresholds.tobytes()
        assert other._thresholds.tobytes() == self.per_call(other).tobytes()
        assert len(other._thresholds) == 51 != len(cfg._thresholds)


# The per-image, per-walk and per-block code of detect, and the numpy
# functions written in Python that it must not call (their array methods
# and ufuncs are C entry points), and the array reductions whose methods
# numpy forwards to Python (``np.add.reduce`` is the C entry point of ``sum``).
PER_IMAGE = {"_Sweep", "adaptive_nms_rows", "greedy_nms", "match_tables", "_by_score",
             "BoxDetection.rejected_rows"}
PYTHON_WRAPPERS = {"flatnonzero", "nonzero", "argsort", "ones"}
PYTHON_METHODS = {"sum", "prod", "any", "all", "min", "max", "mean"}


def test_per_image_path_calls_no_python_wrappers():
    tree = ast.parse(pathlib.Path(detect.__file__).read_text(encoding="utf-8"))
    found = {}
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name != "_Sweep":
            found.update((f"{top.name}.{node.name}", node) for node in top.body
                         if isinstance(node, ast.FunctionDef))
        elif isinstance(top, (ast.ClassDef, ast.FunctionDef)):
            found[top.name] = top
    assert PER_IMAGE <= found.keys()
    calls = sorted(f"{name}: {ast.unparse(node.func)}" for name in PER_IMAGE
                   for node in ast.walk(found[name])
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and (node.func.attr in PYTHON_METHODS
                        or isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                        and node.func.attr in PYTHON_WRAPPERS))
    assert calls == []

class TestMatching:
    def test_perfect(self):
        gts = [box(0, 0, 5, 5), box(10, 10, 15, 15)]
        dets = [box(0, 0, 5, 5, 0.9), box(10, 10, 15, 15, 0.8)]
        m = match_detections(dets, gts, 0.5)
        assert (m.tp, m.fp, m.fn) == (2, 0, 0)
        assert m.n_gt == 2

    def test_one_to_one_rule(self):
        gt = [box(0, 0, 10, 10)]
        dets = [box(0, 0, 10, 10, 0.9), box(1, 0, 11, 10, 0.8)]
        m = match_detections(dets, gt, 0.5)
        assert (m.tp, m.fp, m.fn) == (1, 1, 0)
        assert m.flags == ((0.9, True), (0.8, False))

    def test_greedy_equals_optimal_on_fixture(self):
        gts = [box(0, 0, 10, 10), box(20, 0, 30, 10), box(40, 0, 50, 10)]
        dets = [
            box(1, 0, 11, 10, 0.95),
            box(21, 0, 31, 10, 0.90),
            box(2, 0, 12, 10, 0.85),
            box(41, 0, 51, 10, 0.80),
        ]
        m = match_detections(dets, gts, 0.5)

        def optimal_tp():
            best = 0
            for perm in itertools.permutations(range(len(gts))):
                used = 0
                taken = set()
                for di, det in enumerate(dets):
                    for gi in perm:
                        if gi not in taken and ref_iou(det, gts[gi]) >= 0.5:
                            taken.add(gi)
                            used += 1
                            break
                best = max(best, used)
            return best

        assert m.tp == optimal_tp() == 3
        assert (m.fp, m.fn) == (1, 0)

    def test_counts_balance(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            gts = random_cloud(rng, 6)
            dets = random_cloud(rng, 10)
            m = match_detections(dets, gts, 0.5)
            assert m.tp + m.fn == len(gts)
            assert m.tp + m.fp == len(dets)
            assert m.tp <= min(len(dets), len(gts))


points = detect._operating_points  # the operating points that the curve and LAMR read


class TestMissRate:
    def test_perfect_detector(self):
        gts = [box(0, 0, 5, 5)]
        dets = [box(0, 0, 5, 5, 0.9)]
        m = [match_detections(dets, gts, 0.5)]
        assert log_avg_miss_rate(points(m), 1) == pytest.approx(1e-10)

    def test_silent_detector(self):
        m = [match_detections([], [box(0, 0, 5, 5)], 0.5)]
        assert log_avg_miss_rate(points(m), 1) == 1.0

    def test_two_image_hand_trace(self):
        # Image 0: one GT matched at score 0.9 plus one FP at 0.8.
        # Image 1: one GT, no detections.
        # Curve: (fppi 0, mr 1.0) -> (0, 0.5) at t=0.9 -> (0.5, 0.5) at t=0.8.
        # All nine references sample miss rate 0.5, so the log-average is 0.5.
        img0 = match_detections(
            [box(0, 0, 5, 5, 0.9), box(50, 50, 55, 55, 0.8)],
            [box(0, 0, 5, 5)], 0.5)
        img1 = match_detections([], [box(0, 0, 5, 5)], 0.5)
        assert log_avg_miss_rate(points([img0, img1]), 2) == pytest.approx(0.5)

    def test_pure_tp_addition_never_hurts(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            matches = []
            improved = []
            for _ in range(4):
                n_det = int(rng.integers(0, 6))
                flags = tuple(
                    (float(rng.uniform(0.1, 0.9)), bool(rng.integers(0, 2)))
                    for _ in range(n_det)
                )
                tp = sum(1 for _, f in flags if f)
                fn = int(rng.integers(1, 4))
                matches.append(MatchResult(tp=tp, fp=n_det - tp, fn=fn,
                                           flags=flags))
                improved.append(MatchResult(
                    tp=tp + 1, fp=n_det - tp, fn=fn - 1,
                    flags=((1.0, True),) + flags))
            base = log_avg_miss_rate(points(matches), 4)
            better = log_avg_miss_rate(points(improved), 4)
            assert better <= base + 1e-12

    def test_requires_ground_truth(self):
        with pytest.raises(NumericError, match="undefined without ground truth"):
            log_avg_miss_rate(points([MatchResult(tp=0, fp=1, fn=0,
                                                  flags=((0.5, False),))]), 1)

    def test_curve_without_ground_truth_misses_nothing(self):
        # No ground truth: recall is 100% at every point (the 100% rule), not 0/0.
        ms = [MatchResult(0, 2, 0, ((0.5, False), (0.25, False)))]
        miss, fppi = miss_rate_curve(points(ms), 2)
        assert miss.tolist() == [0.0, 0.0, 0.0] and fppi.tolist() == [0.0, 0.5, 1.0]

    def test_det_scores_build_the_operating_points_once(self):
        # eval-det's best F1, curve and LAMR read one build of the points, and
        # each equals what its own function gives.
        img0 = match_detections([box(0, 0, 5, 5, 0.9), box(50, 50, 55, 55, 0.8)],
                                [box(0, 0, 5, 5), box(20, 20, 25, 25)], 0.5)
        ms = [img0, match_detections([box(0, 0, 5, 5, 0.7)], [box(0, 0, 5, 5)], 0.5)]
        with mock.patch.object(detect, "_operating_points", wraps=points) as build:
            best, miss, fppi, lamr = det_scores(ms, 3)
        assert build.call_count == 1
        want_miss, want_fppi = miss_rate_curve(points(ms), 3)
        assert miss.tobytes() == want_miss.tobytes() and fppi.tobytes() == want_fppi.tobytes()
        assert (best, lamr) == (best_f1_over_thresholds(ms), log_avg_miss_rate(points(ms), 3))


class TestDetectionF1:
    def test_perfect(self):
        assert detection_f1([MatchResult(tp=2, fp=0, fn=0)]) == 1.0

    def test_balanced(self):
        assert detection_f1([MatchResult(tp=1, fp=1, fn=1)]) == pytest.approx(0.5)

    def test_empty_everything_is_hundred_percent(self):
        assert detection_f1([MatchResult(tp=0, fp=0, fn=0)]) == 1.0

    def test_aggregates_across_images(self):
        ms = [MatchResult(tp=1, fp=0, fn=1), MatchResult(tp=2, fp=2, fn=0)]
        # total tp=3, fp=2, fn=1: P=0.6, R=0.75.
        assert detection_f1(ms) == pytest.approx(2 * 0.6 * 0.75 / 1.35)

    def test_best_threshold_sweep(self):
        ms = [MatchResult(tp=1, fp=1, fn=0,
                          flags=((0.9, True), (0.2, False)))]
        # Thresholding at 0.9 drops the FP: P=R=1.
        assert best_f1_over_thresholds(ms) == pytest.approx(1.0)
        assert detection_f1(ms) == pytest.approx(2 / 3)

    def test_best_threshold_sweep_without_detections(self):
        # Only the empty-output point: F1 0 with ground truth, 1 without.
        assert best_f1_over_thresholds([MatchResult(0, 0, 3)]) == 0.0
        assert best_f1_over_thresholds([MatchResult(0, 0, 0)]) == 1.0


# -- scalar reference --------------------------------------------------------


# The loop forms of detect._operating_points and best_f1_over_thresholds:
# one Python sort of the flag tuples, one f1_score call per point.
def ref_operating_points(matches):
    total_gt = sum(m.n_gt for m in matches)
    all_flags = sorted((fl for m in matches for fl in m.flags), key=lambda f: -f[0])
    scores = np.asarray([f[0] for f in all_flags], dtype=float)
    is_tp = np.asarray([f[1] for f in all_flags], dtype=float)
    last = np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0)
    return np.cumsum(is_tp)[last], np.cumsum(1.0 - is_tp)[last], total_gt


def ref_best_f1_over_thresholds(matches):
    tps, fps, total_gt = ref_operating_points(matches)
    best = f1_score(1.0, 1.0 if total_gt == 0 else 0.0)  # empty-output point
    for tp, fp in zip(tps.tolist(), fps.tolist()):
        recall = 1.0 if total_gt == 0 else tp / total_gt
        best = max(best, f1_score(tp / (tp + fp), recall))
    return best


def ref_iou(a, b):
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def ref_by_score(boxes):
    return sorted(boxes, key=lambda bx: -bx.score)


def ref_greedy_nms(boxes, t):
    kept = []
    for bx in ref_by_score(boxes):
        if all(ref_iou(bx, k) <= t for k in kept):
            kept.append(bx)
    return kept


def ref_adaptive_nms(boxes, m_star, cfg):
    if m_star == 0:
        return []
    n_steps = int(math.floor((cfg.t_max - cfg.t0) / cfg.step + 1e-9))
    kept = []
    for k in range(n_steps + 1):
        t = min(cfg.t0 + k * cfg.step, cfg.t_max)
        kept = ref_greedy_nms(boxes, t)
        if len(kept) >= m_star:
            return kept[:m_star]
    return kept


def ref_match_detections(dets, gts, iou_thresh):
    taken = [False] * len(gts)
    flags = []
    tp = 0
    for det in ref_by_score(dets):
        best_i, best_v = -1, 0.0
        for gi, gt in enumerate(gts):
            if taken[gi]:
                continue
            v = ref_iou(det, gt)
            if v > best_v:
                best_i, best_v = gi, v
        if best_i >= 0 and best_v >= iou_thresh:
            taken[best_i] = True
            tp += 1
            flags.append((det.score, True))
        else:
            flags.append((det.score, False))
    return MatchResult(tp=tp, fp=len(dets) - tp, fn=len(gts) - tp,
                       flags=tuple(flags))


# -- strategies ----------------------------------------------------------------

# Coordinates on a coarse grid make shared edges and exact duplicates
# common; arbitrary floats exercise rounding; a few scores make ties common.
COORD = st.integers(0, 24).map(lambda v: v / 2.0) | st.floats(0.0, 12.0)
EXTENT = st.integers(1, 16).map(lambda v: v / 2.0) | st.floats(0.01, 8.0)
SCORES = st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def boxes(draw):
    x1, y1 = draw(COORD), draw(COORD)
    return box(x1, y1, x1 + draw(EXTENT), y1 + draw(EXTENT), draw(SCORES))


@st.composite
def clouds(draw, max_size=16):
    base = draw(st.lists(boxes(), min_size=1, max_size=max_size))
    copies = draw(st.lists(st.sampled_from(base), max_size=6))
    return draw(st.permutations(base + copies))


def pairwise_ious(cloud):
    return sorted({ref_iou(a, b) for a, b in itertools.combinations(cloud, 2)
                   if ref_iou(a, b) < 1.0} | {0.0})


@st.composite
def cloud_and_threshold(draw):
    """A cloud and a threshold, half the time one of its own pairwise IoUs
    (the IoU == t knife edge)."""
    cloud = draw(clouds())
    if draw(st.booleans()):
        t = draw(st.sampled_from(pairwise_ious(cloud)))
    else:
        t = draw(st.floats(0.0, 0.99))
    return cloud, t


@st.composite
def sweep_configs(draw, cloud):
    if draw(st.booleans()):
        # Exact dyadic thresholds 0, 1/8, 1/4, ...: grid boxes often have an
        # IoU of exactly 1/4 or 1/2, a knife edge in the middle of the sweep.
        return NMSConfig(t0=0.0, step=draw(st.sampled_from([0.125, 0.25])),
                         t_max=0.875)
    ious = pairwise_ious(cloud)
    t0 = draw(st.sampled_from(ious) | st.floats(0.0, 0.9))
    t_max = draw(st.sampled_from([v for v in ious if v >= t0] + [0.95]))
    step = draw(st.sampled_from([0.01, 0.05, 0.1]) | st.floats(0.001, 0.5))
    return NMSConfig(t0=t0, step=step, t_max=t_max)


@st.composite
def edge_configs(draw, cloud):
    """A sweep of one threshold: t0 == t_max, or a step past t_max."""
    t0 = draw(st.sampled_from(pairwise_ious(cloud)) | st.floats(0.0, 0.9))
    if draw(st.booleans()):
        return NMSConfig(t0=t0, step=draw(st.floats(0.001, 0.5)), t_max=t0)
    return NMSConfig(t0=t0, step=draw(st.floats(1.0, 2.0)),
                     t_max=draw(st.floats(t0, max(t0, 0.95))))


@st.composite
def match_lists(draw):
    """Per-image match results: flags of tied, signed-zero or drawn scores,
    images without detections, and sometimes no ground truth at all."""
    no_gt = draw(st.booleans())
    out = []
    for flags in draw(st.lists(st.lists(st.tuples(
            st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), st.booleans()),
            max_size=6), max_size=5)):
        tp = 0 if no_gt else sum(hit for _, hit in flags)
        out.append(MatchResult(tp, len(flags) - tp, 0 if no_gt else draw(st.integers(0, 3)),
                               tuple((score, hit and not no_gt) for score, hit in flags)))
    return out


FOUR_BOX = four_box_fixture()
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)


def ids(bxs):
    return [id(b) for b in bxs]


class TestAgainstScalarReference:
    @PROPERTY
    @given(boxes(), boxes())
    @example(FOUR_BOX[0], FOUR_BOX[1])
    def test_iou_bit_identical(self, a, b):
        # Greedy NMS suppresses when IoU > t and matching needs IoU >= t, so
        # both flip exactly at the library's IoU, which must be ref_iou's.
        v = ref_iou(a, b)
        below, above = float(np.nextafter(v, 0.0)), float(np.nextafter(v, 1.0))
        for x, y in ((a, b), (b, a)):
            if v < 1.0:
                assert len(greedy_nms([x, y], v)) == 2
                assert v == 0.0 or match_detections([x], [y], v).tp == 1
            if v > 0.0:
                assert len(greedy_nms([x, y], below)) == 1
            if above < 1.0:
                assert match_detections([x], [y], above).tp == 0

    @PROPERTY
    @given(cloud_and_threshold())
    @example((FOUR_BOX, 0.3))
    @example((FOUR_BOX, 0.45))
    @example((FOUR_BOX, 64.0 / 130.0))
    def test_greedy_nms(self, case):
        cloud, t = case
        kept = greedy_nms(cloud, t)
        assert ids(kept) == ids(ref_greedy_nms(cloud, t))
        for a, b in itertools.combinations(kept, 2):
            assert ref_iou(a, b) <= t

    @PROPERTY
    @given(st.data())
    def test_adaptive_nms(self, data):
        cloud = data.draw(clouds(), label="cloud")
        cfg = data.draw(sweep_configs(cloud), label="cfg")
        # Reachable and unreachable (more than the boxes).
        m_star = data.draw(st.integers(0, len(cloud)) | st.just(len(cloud) + 1),
                           label="m_star")
        kept = adaptive_nms(cloud, m_star, cfg)
        assert ids(kept) == ids(ref_adaptive_nms(cloud, m_star, cfg))
        t_last = min(cfg.t0 + math.floor((cfg.t_max - cfg.t0) / cfg.step + 1e-9)
                     * cfg.step, cfg.t_max)
        for a, b in itertools.combinations(kept, 2):
            assert ref_iou(a, b) <= t_last

    @PROPERTY
    @given(st.data())
    def test_sweep_in_small_blocks_and_walks(self, data):
        # The sweep builds overlap rows in blocks of at most _BLOCK IoU values
        # and runs up to _WIDTH thresholds in one walk, in windows that start
        # at _START thresholds; at these sizes a cloud needs many blocks,
        # windows and walks.
        cloud = data.draw(clouds(max_size=30), label="cloud")
        cfg = data.draw(sweep_configs(cloud) | edge_configs(cloud), label="cfg")
        m_star = data.draw(st.integers(0, len(cloud) + 1), label="m_star")
        sizes = {"_BLOCK": data.draw(st.sampled_from([1, 5, 64]), label="block"),
                 "_WIDTH": data.draw(st.sampled_from([1, 2, 5]), label="width"),
                 "_START": data.draw(st.sampled_from([1, 2, 5]), label="start")}
        with mock.patch.multiple(detect, **sizes):
            kept = adaptive_nms(cloud, m_star, cfg)
            greedy = greedy_nms(cloud, cfg.t0)
        assert ids(kept) == ids(ref_adaptive_nms(cloud, m_star, cfg))
        assert ids(greedy) == ids(ref_greedy_nms(cloud, cfg.t0))

    @pytest.mark.parametrize("m_star", [None, 0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("t0", [0.3, 0.379, 0.45, 64.0 / 130.0])
    def test_adaptive_nms_four_box_fixture(self, m_star, t0):
        if m_star is None:  # no bound on the count: the greedy pass at t0
            assert ids(greedy_nms(FOUR_BOX, t0)) == ids(ref_greedy_nms(FOUR_BOX, t0))
            return
        for step in (0.01, 0.05, 0.2):
            cfg = NMSConfig(t0=t0, step=step, t_max=0.95)
            assert ids(adaptive_nms(FOUR_BOX, m_star, cfg)) == ids(
                ref_adaptive_nms(FOUR_BOX, m_star, cfg))

    def test_adaptive_nms_knife_edge_mid_sweep(self):
        # IoU(A, B) is exactly the sweep's second threshold 0.5, so B is kept
        # there (suppression needs IoU > t); X (IoU 2/3 with A) is not.
        a = box(0, 0, 4, 4, 0.9)
        x = box(0, 0, 4, 6, 0.85)
        b = box(0, 0, 4, 2, 0.8)
        cfg = NMSConfig(t0=0.25, step=0.25, t_max=0.75)
        kept = adaptive_nms([b, x, a], 2, cfg)
        assert ids(kept) == ids(ref_adaptive_nms([b, x, a], 2, cfg)) == ids([a, b])

    @PROPERTY
    @given(st.lists(boxes(), max_size=12), clouds(max_size=8) | st.just([]),
           st.sampled_from([0.5, 0.25, 1.0 / 3.0, 64.0 / 130.0])
           | st.floats(0.01, 0.99))
    # The first detection overlaps both ground truths equally (IoU 1/3) and
    # takes the lower index, which leaves the second detection unmatched.
    @example([box(2, 0, 6, 4, 0.9), box(0, 0, 4, 4, 0.8)],
             [box(0, 0, 4, 4), box(4, 0, 8, 4)], 0.3)
    def test_match_detections(self, dets, gts, iou_thresh):
        assert match_detections(dets, gts, iou_thresh) == ref_match_detections(
            dets, gts, iou_thresh)

    @PROPERTY
    @given(match_lists())
    @example([MatchResult(1, 1, 0, ((0.0, True), (-0.0, False)))])
    @example([MatchResult(0, 2, 0, ((-0.0, False), (0.0, False)))])
    @example([MatchResult(0, 0, 3)])
    @example([])
    def test_operating_points_keep_the_loop_forms_bits(self, matches):
        got, want = detect._operating_points(matches), ref_operating_points(matches)
        assert [a[0].tobytes() for a in got[:2]] == [np.float64(0.0).tobytes()] * 2
        assert [a[1:].tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
        assert got[2] == want[2]
        best = best_f1_over_thresholds(matches)
        assert type(best) is float and repr(best) == repr(ref_best_f1_over_thresholds(matches))
