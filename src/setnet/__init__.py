"""Set prediction toolkit.

A Bayesian cardinality model (negative binomial with analytic gradients),
a trainable cardinality head, sequential set-MAP inference, random finite
set sampling, cardinality-constrained adaptive NMS, and the matching
multi-label and detection evaluation metrics.
"""

from .cardloss import (
    AlphaBeta,
    HeadWeights,
    LossGrad,
    card_grad,
    card_nll,
    card_nll_grad,
    head_backward,
    head_forward,
    regression_loss,
)
from .cardnet import (
    MLPModel,
    TrainConfig,
    TrainingSample,
    gradient_check,
    init_model,
    load_model,
    loss_and_grads,
    predict_batch,
    predict_count,
    save_model,
    train,
)
from .detect import (
    BoxDetection,
    MatchResult,
    NMSConfig,
    adaptive_nms,
    detection_f1,
    greedy_nms,
    log_avg_miss_rate,
    match_detections,
)
from .errors import ConfigError, DataError, NumericError, SetnetError
from .mlmetrics import (
    EvalRecord,
    LabelSet,
    MetricSummary,
    f1_score,
    mce,
    precision_recall,
    predicted_k_eval,
    topk_sweep,
)
from .numerics import (
    NegBinParams,
    digamma,
    log_gamma,
    nb_log_pmf,
    nb_mode,
    nb_mode_batch,
    nb_pmf_truncated,
)
from .setinfer import (
    CardinalityPMF,
    PredictedSet,
    ScoredElements,
    map_set,
    sample_rfs_with,
)
from .synth import (
    BoxImage,
    ParamMap,
    SynthConfig,
    counting_default_maps,
    gen_boxes,
    gen_counting,
    gen_multilabel,
    multilabel_default_maps,
)

__version__ = "0.1.0"
