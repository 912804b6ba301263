"""The library's own range checks, each pinned by its message.

The CLI checks these inputs before it calls the library, so no command
reaches them; each case here calls the library directly, and deleting any
one check fails its case.
"""

import re

import numpy as np
import pytest

from setnet import (
    CardinalityPMF,
    DataError,
    EvalRecord,
    LabelSet,
    MatchResult,
    NumericError,
    TrainConfig,
    TrainingSample,
    greedy_nms,
    init_model,
    log_avg_miss_rate,
    predict_batch,
    train,
)
from setnet.detect import adaptive_nms_rows, match_tables


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
     NumericError, "counts must be non-negative"),
    ("greedy-nms-threshold", lambda: greedy_nms([], 1.0),
     NumericError, "threshold must lie in [0,1), got 1.0"),
    ("adaptive-nms-negative-m-star", lambda: adaptive_nms_rows(NO_BOXES, -1),
     NumericError, "m_star must be >= 0, got -1"),
    ("match-tables-iou-thresh", lambda: match_tables(NO_BOXES, NO_BOXES, 0.0),
     NumericError, "iou_thresh must lie in (0,1), got 0.0"),
    ("miss-rate-no-images", lambda: log_avg_miss_rate([MatchResult(0, 0, 1)], 0),
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
