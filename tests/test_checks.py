"""The library's own range checks, each pinned by its message, and the one
count rule that every count it takes follows.

The CLI checks these inputs before it calls the library, so no command
reaches them; each case here calls the library directly, and deleting any
one check fails its case.
"""

import math
import re

import numpy as np
import pytest

from setnet import (
    AlphaBeta,
    BoxDetection,
    CardinalityPMF,
    DataError,
    EvalRecord,
    LabelSet,
    MatchResult,
    NegBinParams,
    NumericError,
    PredictedSet,
    ScoredElements,
    TrainConfig,
    TrainingSample,
    adaptive_nms,
    card_nll,
    greedy_nms,
    init_model,
    log_avg_miss_rate,
    map_set,
    nb_log_pmf,
    predict_batch,
    predicted_k_eval,
    regression_loss,
    topk_sweep,
    train,
)
from setnet.detect import _operating_points, adaptive_nms_rows, match_tables, miss_rate_curve
from setnet.mlmetrics import top_k_labels
from setnet.numerics import _check_count


def huge_regression():
    """A regression model whose output at x = 1 is 2**53, too large to round to a count."""
    model = init_model([1, 1], kind="regression")
    model.weights[0][:] = 2.0**53
    model.biases[0][:] = 0.0
    return model


NO_BOXES = np.zeros((0, 5))
# (id, call, error, its whole message)
CHECKS = [
    ("match-result-negative-count", lambda: MatchResult(tp=0, fp=-1, fn=0),
     NumericError, "fp must be a non-negative integer below 2**63, got -1"),
    ("greedy-nms-threshold", lambda: greedy_nms([], 1.0),
     NumericError, "threshold must lie in [0,1), got 1.0"),
    ("adaptive-nms-negative-m-star", lambda: adaptive_nms_rows(NO_BOXES, -1),
     NumericError, "m_star must be a non-negative integer below 2**63, got -1"),
    ("match-tables-iou-thresh", lambda: match_tables(NO_BOXES, NO_BOXES, 0.0),
     NumericError, "iou_thresh must lie in (0,1), got 0.0"),
    ("miss-rate-no-images",
     lambda: log_avg_miss_rate(_operating_points([MatchResult(0, 0, 1)]), 0),
     NumericError, "n_images must be >= 1"),
    ("empty-cardinality-pmf", lambda: CardinalityPMF(pmf=()),
     NumericError, "pmf must have at least one entry"),
    ("training-sample-not-finite", lambda: TrainingSample(features=(0.0, np.nan), count=1),
     NumericError, "features must be finite"),
    ("eval-record-not-finite", lambda: EvalRecord(scores=(np.inf,), truth=LabelSet(())),
     NumericError, "scores must be finite"),
    ("init-model-one-dim", lambda: init_model([3]),
     NumericError, "dims must list at least input and output sizes"),
    ("train-on-nothing", lambda: train(init_model([2, 2]), (np.zeros((0, 2)),
                                                            np.zeros(0, dtype=np.int64)),
                                       TrainConfig()),
     DataError, "training data must be non-empty"),
    ("regression-output-too-large", lambda: predict_batch(huge_regression(), [[1.0]]),
     NumericError, "regression output must be finite and below 2**53"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_check_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# Every public entry point that takes a count or an index set, as a call on
# the value v.  Each holds room for a count of 3: four classes, four elements,
# and matches with ground truth, so that only the count rule can reject v.
SCORES = (0.4, 0.1, 0.3, 0.2)
BOXES = [BoxDetection(0.0, 0.0, 1.0, 1.0, 0.9), BoxDetection(5.0, 5.0, 6.0, 6.0, 0.8)]
MATCHES = [MatchResult(1, 1, 1, ((0.9, True), (0.5, False)))]
RECORD = EvalRecord(scores=SCORES, truth=LabelSet(labels=(1,)))
COUNT_TAKERS = {
    "TrainingSample.count": lambda v: TrainingSample(features=(0.0,), count=v),
    "LabelSet.labels": lambda v: LabelSet(labels=(v,)),
    "EvalRecord.truth": lambda v: EvalRecord(scores=SCORES, truth=LabelSet(labels=(0, v))),
    "PredictedSet.indices": lambda v: PredictedSet(indices=(v,)),
    "MatchResult.tp": lambda v: MatchResult(v, 0, 0),
    "MatchResult.fp": lambda v: MatchResult(0, v, 0),
    "MatchResult.fn": lambda v: MatchResult(0, 0, v),
    "adaptive_nms": lambda v: adaptive_nms(BOXES, v),
    "adaptive_nms_rows": lambda v: adaptive_nms_rows(np.array([[0, 0, 1, 1, 0.9]]), v),
    "map_set": lambda v: map_set(ScoredElements(probs=SCORES), v),
    "top_k_labels": lambda v: top_k_labels(SCORES, v),
    "topk_sweep": lambda v: topk_sweep([RECORD], [3, v]),
    "predicted_k_eval": lambda v: predicted_k_eval([RECORD] * 2, [3, v]),
    "predicted_k_eval-array": lambda v: predicted_k_eval([RECORD], np.array([v])),
    "nb_log_pmf": lambda v: nb_log_pmf(v, NegBinParams(a=2.0, b=0.5)),
    "card_nll": lambda v: card_nll(v, AlphaBeta(alpha=2.0, beta=1.0)),
    "regression_loss": lambda v: regression_loss(v, 1.0),
    # n_images: v >= 1 or rejected.
    "log_avg_miss_rate": lambda v: log_avg_miss_rate(_operating_points(MATCHES), v),
    "miss_rate_curve": lambda v: miss_rate_curve(_operating_points(MATCHES), v),
}
# The takers whose count may also be a count array, elementwise; every other
# taker takes one count, so a count array is NumericError there.
COLUMN_TAKERS = {"regression_loss"}
COUNT_VALUES = [3, 3.0, np.int64(3), np.float64(3.0), -1, 1.5, True, np.bool_(True), "3", None,
                2**63, math.nan, math.inf, np.array([1, 2])]


def count_rule_accepts(v, column):
    try:
        _check_count(v, column=column)
    except NumericError:
        return False
    return True


@pytest.mark.parametrize("v", COUNT_VALUES, ids=map(repr, COUNT_VALUES))
@pytest.mark.parametrize("name", list(COUNT_TAKERS))
def test_a_count_is_taken_exactly_when_the_count_rule_takes_it(name, v):
    if count_rule_accepts(v, column=name in COLUMN_TAKERS):
        COUNT_TAKERS[name](v)
    else:
        with pytest.raises(NumericError):
            COUNT_TAKERS[name](v)


@pytest.mark.parametrize("v", [3.0, np.int64(3), np.float64(3.0)], ids=repr)
def test_a_stored_count_is_an_int(v):
    match = MatchResult(v, v, v)
    stored = [TrainingSample(features=(0.0,), count=v).count, LabelSet((v,)).labels[0],
              PredictedSet((v,)).indices[0], match.tp, match.fp, match.fn]
    assert [(type(s), s) for s in stored] == [(int, 3)] * 6
