"""Generators: marginal laws, determinism, and the planted-box scenarios."""

import math

import numpy as np
import pytest

from setnet import (
    NegBinParams,
    NMSConfig,
    NumericError,
    ParamMap,
    SynthConfig,
    adaptive_nms,
    gen_boxes,
    gen_counting,
    gen_multilabel,
    greedy_nms,
    match_detections,
    nb_log_pmf,
    predicted_k_eval,
)


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
