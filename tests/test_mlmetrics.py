"""Multi-label metrics: 100% conventions, aggregation, top-k sweep, MCE.

Aggregation over given prediction sets is read through ``predicted_k_eval``:
a record scoring its predicted classes 1 and the rest 0, with m* the
prediction's size, predicts exactly that set.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setnet import (
    EvalRecord,
    LabelSet,
    MetricSummary,
    NumericError,
    f1_score,
    mce,
    precision_recall,
    predicted_k_eval,
    topk_sweep,
)
from setnet.mlmetrics import top_k_labels


def ls(*labels):
    return LabelSet(labels=tuple(labels))


def eval_sets(preds, truths, n_classes):
    """The metrics of predicting ``preds`` against ``truths``, by ``predicted_k_eval``."""
    records = [EvalRecord(scores=tuple(float(c in p) for c in range(n_classes)), truth=t)
               for p, t in zip(preds, truths, strict=True)]
    return predicted_k_eval(records, [len(p) for p in preds])


class TestPrecisionRecall:
    def test_half_overlap(self):
        assert precision_recall(ls(0, 2), ls(0, 1)) == (0.5, 0.5)

    def test_both_empty_is_hundred_percent(self):
        assert precision_recall(ls(), ls()) == (1.0, 1.0)

    def test_exact_match(self):
        assert precision_recall(ls(1, 4), ls(1, 4)) == (1.0, 1.0)

    def test_empty_prediction(self):
        assert precision_recall(ls(), ls(2)) == (1.0, 0.0)

    def test_empty_truth(self):
        assert precision_recall(ls(3), ls()) == (0.0, 1.0)

    def test_bounds_randomised(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            C = 10
            pred = ls(*sorted(rng.choice(C, size=rng.integers(0, 5),
                                         replace=False)))
            truth = ls(*sorted(rng.choice(C, size=rng.integers(0, 5),
                                          replace=False)))
            p, r = precision_recall(pred, truth)
            assert 0.0 <= p <= 1.0
            assert 0.0 <= r <= 1.0


class TestF1Score:
    def test_reference_point_consistency(self):
        # A 70.1 / 68.7 precision-recall pair (percent) harmonically
        # combines to 69.4.
        assert 100.0 * f1_score(0.701, 0.687) == pytest.approx(69.4, abs=0.05)

    def test_direct_formula(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p, r = rng.uniform(0.01, 1.0, size=2)
            assert f1_score(p, r) == pytest.approx(2 * p * r / (p + r))

    def test_degenerate(self):
        assert f1_score(0.0, 0.0) == 0.0
        assert f1_score(1.0, 1.0) == 1.0


class TestAggregate:
    def test_single_perfect_record(self):
        s = eval_sets([ls(0, 2)], [ls(0, 2)], n_classes=3)
        assert s.as_dict() == {
            "C-P": 1.0, "C-R": 1.0, "C-F1": 1.0,
            "O-P": 1.0, "O-R": 1.0, "O-F1": 1.0,
        }

    def test_two_class_hand_tally(self):
        # Record 1: pred {0}, truth {0}; record 2: pred {0}, truth {1}.
        # Class 0: tp=1, pred=2, gt=1 -> P=0.5, R=1. Class 1: tp=0, pred=0,
        # gt=1 -> P=1 (never predicted), R=0.
        # Overall: tp=1, npred=2, ngt=2 -> O-P=O-R=0.5.
        s = eval_sets([ls(0), ls(0)], [ls(0), ls(1)], n_classes=2)
        assert s.c_precision == pytest.approx(0.75)
        assert s.c_recall == pytest.approx(0.5)
        assert s.o_precision == pytest.approx(0.5)
        assert s.o_recall == pytest.approx(0.5)
        assert s.o_f1 == pytest.approx(0.5)

    def test_absent_class_counts_as_perfect(self):
        s = eval_sets([ls(0)], [ls(0)], n_classes=4)
        assert s.c_precision == 1.0
        assert s.c_recall == 1.0

    def test_order_and_permutation_invariance(self):
        rng = np.random.default_rng(52)
        C = 6
        preds, truths = [], []
        for _ in range(40):
            preds.append(ls(*sorted(rng.choice(C, size=rng.integers(0, 4),
                                               replace=False))))
            truths.append(ls(*sorted(rng.choice(C, size=rng.integers(0, 4),
                                                replace=False))))
        base = eval_sets(preds, truths, C)
        order = rng.permutation(len(preds))
        shuffled = eval_sets([preds[i] for i in order],
                             [truths[i] for i in order], C)
        assert base == shuffled
        relabel = rng.permutation(C)
        mapped = eval_sets(
            [ls(*sorted(int(relabel[v]) for v in p.labels)) for p in preds],
            [ls(*sorted(int(relabel[v]) for v in t.labels)) for t in truths],
            C,
        )
        assert mapped == base

    def test_empty_input_rejected(self):
        with pytest.raises(NumericError):
            eval_sets([], [], 3)


def three_record_fixture():
    return [
        EvalRecord(scores=(0.9, 0.5, 0.2, 0.1), truth=ls(0)),
        EvalRecord(scores=(0.1, 0.8, 0.7, 0.3), truth=ls(1, 2)),
        EvalRecord(scores=(0.3, 0.2, 0.9, 0.6), truth=ls(2, 3)),
    ]


class TestTopkSweep:
    def test_k0_conventions(self):
        sweep = topk_sweep(three_record_fixture(), [0])
        _, s = sweep[0]
        assert s.o_precision == 1.0  # nothing predicted: 100% rule
        assert s.o_recall == 0.0  # no record has empty truth

    def test_full_k_recall_one(self):
        sweep = topk_sweep(three_record_fixture(), [4])
        _, s = sweep[0]
        assert s.o_recall == 1.0

    def test_hand_computed_k1_k2(self):
        records = three_record_fixture()
        by_k = dict(topk_sweep(records, [1, 2]))
        # k=1: predictions {0}, {1}, {2}; hits 3/3, ngt=5.
        assert by_k[1].o_precision == pytest.approx(1.0)
        assert by_k[1].o_recall == pytest.approx(3.0 / 5.0)
        # k=2: predictions {0,1}, {1,2}, {2,3}; hits 1+2+2=5 of 6; ngt=5.
        assert by_k[2].o_precision == pytest.approx(5.0 / 6.0)
        assert by_k[2].o_recall == pytest.approx(1.0)

    def test_recall_monotone_in_k(self):
        rng = np.random.default_rng(53)
        C = 8
        records = []
        for _ in range(50):
            k = int(rng.integers(0, 5))
            truth = ls(*sorted(rng.choice(C, size=k, replace=False)))
            records.append(EvalRecord(scores=tuple(rng.uniform(0, 1, C)),
                                      truth=truth))
        sweep = topk_sweep(records, list(range(C + 1)))
        recalls = [s.o_recall for _, s in sweep]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_score_ties_lower_index(self):
        assert top_k_labels((0.5, 0.9, 0.5), 2).labels == (0, 1)


class TestPredictedKEval:
    def test_oracle_cardinality_with_ranked_scores(self):
        records = [
            EvalRecord(scores=(0.9, 0.8, 0.1, 0.0), truth=ls(0, 1)),
            EvalRecord(scores=(0.2, 0.9, 0.1, 0.4), truth=ls(1)),
            EvalRecord(scores=(0.1, 0.2, 0.3, 0.9), truth=ls(2, 3)),
        ]
        s = predicted_k_eval(records, [len(r.truth) for r in records])
        assert s.o_f1 == 1.0
        assert s.c_f1 == 1.0

    def test_all_zero_cardinalities(self):
        records = three_record_fixture()
        s = predicted_k_eval(records, [0, 0, 0])
        assert s.o_precision == 1.0
        assert s.o_recall == 0.0  # no empty truths in the fixture
        empty_truth = [EvalRecord(scores=(0.5, 0.5), truth=ls()) for _ in range(3)]
        s2 = predicted_k_eval(empty_truth, [0, 0, 0])
        assert s2.o_precision == 1.0
        assert s2.o_recall == 1.0

    def test_oracle_dominates_fixed_k(self):
        # With scores ranking true labels first, the oracle-cardinality
        # point weakly dominates every fixed k in F1.
        rng = np.random.default_rng(54)
        C = 8
        records = []
        for _ in range(60):
            k = int(rng.integers(0, 5))
            labels = sorted(rng.choice(C, size=k, replace=False))
            scores = rng.uniform(0.0, 0.4, size=C)
            scores[labels] = rng.uniform(0.6, 1.0, size=k)
            records.append(EvalRecord(scores=tuple(scores),
                                      truth=ls(*labels)))
        oracle = predicted_k_eval(records, [len(r.truth) for r in records])
        for _, s in topk_sweep(records, list(range(C + 1))):
            assert oracle.o_f1 >= s.o_f1 - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(NumericError):
            predicted_k_eval(three_record_fixture(), [1, 2])


class TestMce:
    def test_simple(self):
        err, std = mce([2, 3], [2, 5])
        assert err == pytest.approx(1.0)
        assert std == pytest.approx(1.0)

    def test_identical(self):
        assert mce([4, 4, 4], [4, 4, 4]) == (0.0, 0.0)

    def test_against_two_pass_recomputation(self):
        rng = np.random.default_rng(55)
        pred = [int(v) for v in rng.integers(0, 20, size=500)]
        truth = [int(v) for v in rng.integers(0, 20, size=500)]
        err, std = mce(pred, truth)
        diffs = [abs(p - t) for p, t in zip(pred, truth)]
        mean_ref = sum(diffs) / len(diffs)
        var_ref = sum((d - mean_ref) ** 2 for d in diffs) / len(diffs)
        assert err == pytest.approx(mean_ref, abs=1e-12)
        assert std == pytest.approx(var_ref ** 0.5, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(NumericError):
            mce([1, 2], [1])


class TestLabelSet:
    def test_validation(self):
        with pytest.raises(NumericError):
            LabelSet(labels=(2, 1))
        with pytest.raises(NumericError):
            LabelSet(labels=(1, 1))
        with pytest.raises(NumericError):
            LabelSet(labels=(-1,))

    def test_record_bounds(self):
        with pytest.raises(NumericError):
            EvalRecord(scores=(0.5, 0.5), truth=ls(2))


# The per-record path that the rank matrix replaced, kept as the reference:
# one stable argsort per record and k, and a Python tally per record.
def ref_top_k_labels(scores, k):
    if k < 0 or k > len(scores):
        raise NumericError(f"k must lie in [0, {len(scores)}], got {k!r}")
    if k == 0:
        return LabelSet(labels=())
    order = np.argsort(-np.asarray(scores), kind="stable")
    return LabelSet(labels=tuple(sorted(int(i) for i in order[:k])))


def ref_aggregate(preds, truths, n_classes):
    tp_c = np.zeros(n_classes)
    pred_c = np.zeros(n_classes)
    gt_c = np.zeros(n_classes)
    for pred, truth in zip(preds, truths):
        t = set(truth.labels)
        for c in pred.labels:
            pred_c[c] += 1
            if c in t:
                tp_c[c] += 1
        for c in truth.labels:
            gt_c[c] += 1
    return ref_summary(tp_c, pred_c, gt_c)


def ref_summary(tp_c, pred_c, gt_c):
    prec_per_class = np.where(pred_c > 0, tp_c / np.maximum(pred_c, 1), 1.0)
    rec_per_class = np.where(gt_c > 0, tp_c / np.maximum(gt_c, 1), 1.0)
    c_p = float(prec_per_class.mean())
    c_r = float(rec_per_class.mean())
    tp, npred, ngt = tp_c.sum(), pred_c.sum(), gt_c.sum()
    o_p = 1.0 if npred == 0 else float(tp / npred)
    o_r = 1.0 if ngt == 0 else float(tp / ngt)
    return MetricSummary(c_p, c_r, f1_score(c_p, c_r), o_p, o_r,
                         f1_score(o_p, o_r))


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)
# Few distinct values, so most rows hold ties; signed zeros tie as well.
SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])


@st.composite
def label_sets(draw, n_classes):
    return ls(*sorted(draw(st.sets(st.integers(0, n_classes - 1)))))


@st.composite
def record_sets(draw):
    """(records, k_values, m_stars, preds) on one C; truths may be empty."""
    n_classes = draw(st.integers(1, 6), label="C")
    n = draw(st.integers(1, 8), label="n")
    records = [EvalRecord(scores=tuple(draw(st.lists(SCORES, min_size=n_classes,
                                                      max_size=n_classes))),
                          truth=draw(label_sets(n_classes)))
               for _ in range(n)]
    ks = st.integers(0, n_classes)
    k_values = [0, n_classes] + draw(st.lists(ks, max_size=4), label="k_values")
    # m* up to C + 2: past C the prediction is every class.
    m_stars = draw(st.lists(st.integers(0, n_classes + 2), min_size=n,
                            max_size=n), label="m_stars")
    preds = [draw(label_sets(n_classes)) for _ in range(n)]
    return records, k_values, m_stars, preds


ONE_CLASS = ([EvalRecord(scores=(0.5,), truth=ls())], [0, 1], [3], [ls(0)])
ALL_TIED = ([EvalRecord(scores=(0.5, 0.5, 0.5), truth=ls(2)),
             EvalRecord(scores=(0.0, -0.0, 0.0), truth=ls(0, 1))],
            [0, 1, 2, 3], [1, 5], [ls(), ls(0, 1, 2)])


class TestOneRankPath:
    """The rank-matrix path returns exactly what the per-record path did."""

    @PROPERTY
    @given(record_sets())
    @example(ONE_CLASS)
    @example(ALL_TIED)
    def test_topk_sweep(self, case):
        records, k_values, _, _ = case
        n_classes = len(records[0].scores)
        truths = [r.truth for r in records]
        assert topk_sweep(records, k_values) == [
            (k, ref_aggregate([ref_top_k_labels(r.scores, k) for r in records],
                              truths, n_classes))
            for k in k_values]

    @PROPERTY
    @given(record_sets())
    @example(ONE_CLASS)
    @example(ALL_TIED)
    def test_predicted_k_eval(self, case):
        records, _, m_stars, _ = case
        n_classes = len(records[0].scores)
        preds = [ref_top_k_labels(r.scores, min(m, n_classes))
                 for r, m in zip(records, m_stars)]
        assert predicted_k_eval(records, m_stars) == ref_aggregate(
            preds, [r.truth for r in records], n_classes)

    @PROPERTY
    @given(record_sets())
    @example(ONE_CLASS)
    @example(ALL_TIED)
    def test_aggregate(self, case):
        records, _, _, preds = case
        n_classes = len(records[0].scores)
        truths = [r.truth for r in records]
        assert eval_sets(preds, truths, n_classes) == ref_aggregate(
            preds, truths, n_classes)

    @PROPERTY
    @given(record_sets())
    @example(ONE_CLASS)
    @example(ALL_TIED)
    def test_top_k_labels(self, case):
        records, k_values, _, _ = case
        for r in records:
            for k in k_values:
                assert top_k_labels(r.scores, k) == ref_top_k_labels(r.scores, k)

    def test_out_of_range_k_is_rejected(self):
        records = three_record_fixture()
        for k in (-1, 5):
            with pytest.raises(NumericError):
                topk_sweep(records, [k])
            with pytest.raises(NumericError):
                top_k_labels(records[0].scores, k)
        with pytest.raises(NumericError):
            predicted_k_eval(records, [1, -1, 2])

    def test_ragged_records_are_rejected(self):
        records = three_record_fixture() + [
            EvalRecord(scores=(0.9, 0.1), truth=ls(0))]
        with pytest.raises(NumericError,
                           match="record 3 has 2 scores; record 0 has 4"):
            topk_sweep(records, [1])
        with pytest.raises(NumericError,
                           match="record 3 has 2 scores; record 0 has 4"):
            predicted_k_eval(records, [1, 1, 1, 1])


# The per-k path that the rank histograms replaced, kept as the reference
# for the (scores, truth mask) tables that eval-ml reads: each k's mask of
# the k best-ranked classes of each row, its counts summed as floats.
def ref_mask_sums(scores, truth, k):
    order = np.argsort(-scores, axis=1, kind="stable")
    pred = np.zeros_like(truth)
    np.put_along_axis(pred, order[:, :k], True, axis=1)
    return ref_summary(*(m.sum(0, dtype=float) for m in (pred & truth, pred, truth)))


@st.composite
def tables(draw):
    """(scores, truth mask, k_values): k repeated and unsorted, 0 and C among them."""
    n_classes = draw(st.integers(1, 6), label="C")
    n = draw(st.integers(1, 8), label="n")
    scores = np.array(draw(st.lists(SCORES, min_size=n * n_classes, max_size=n * n_classes)))
    truth = np.array(draw(st.lists(st.booleans(), min_size=n * n_classes,
                                   max_size=n * n_classes)))
    k_values = draw(st.permutations(
        [0, n_classes] + draw(st.lists(st.integers(0, n_classes), max_size=6))), label="k")
    return scores.reshape(n, n_classes), truth.reshape(n, n_classes), k_values


class TestTablePath:
    """``topk_sweep`` on the (scores, truth mask) pair returns, for each k in
    the order given, what each k's own mask sums gave."""

    @PROPERTY
    @given(tables())
    @example((np.array([[0.5, -0.0, 0.0, 0.5]]), np.array([[True, True, False, False]]),
              [4, 2, 0, 2, 4, 1]))
    def test_topk_sweep(self, case):
        scores, truth, k_values = case
        got = topk_sweep((scores, truth), k_values)
        assert got == [(k, ref_mask_sums(scores, truth, k)) for k in k_values]
        assert all(type(k) is int for k, _ in got)

    @pytest.mark.parametrize("bad, says", [
        (True, "k must be a non-negative integer below 2**63, got True"),
        (-1, "k must be a non-negative integer below 2**63, got -1"),
        (1.5, "k must be a non-negative integer below 2**63, got 1.5"),
        (4, "k must lie in [0, 3], got 4"),
    ])
    def test_bad_k_is_rejected_with_its_message(self, bad, says):
        scores, truth = np.array([[0.5, 0.25, 1.0]] * 2), np.ones((2, 3), dtype=bool)
        for k_values in ([bad], [0, 3, bad, 1]):
            with pytest.raises(NumericError) as err:
                topk_sweep((scores, truth), k_values)
            assert str(err.value) == says
