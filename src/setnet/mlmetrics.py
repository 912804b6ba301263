"""Multi-label evaluation: per-class and overall precision/recall/F1.

Conventions (the "100% rule"): whenever a precision or recall denominator
is zero — nothing predicted, or no ground truth — the metric is defined as
1.0.  Per-class metrics (C-P, C-R) average class-level values over all
classes; overall metrics (O-P, O-R) come from corpus-level summed counts.
F1 is the harmonic mean of precision and recall at each level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError
from .numerics import _check_count, _check_finite, _check_index_set

__all__ = [
    "LabelSet",
    "EvalRecord",
    "MetricSummary",
    "f1_score",
    "precision_recall",
    "top_k_labels",
    "topk_sweep",
    "predicted_k_eval",
    "mce",
]


@dataclass(frozen=True)
class LabelSet:
    """Strictly increasing category indices, each a count by ``_check_count``."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", _check_index_set(self.labels, "labels"))

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, item: int) -> bool:
        return item in self.labels


@dataclass(frozen=True)
class EvalRecord:
    """Per-example classifier scores plus the ground-truth label set."""

    scores: tuple[float, ...]
    truth: LabelSet

    def __post_init__(self) -> None:
        scores = tuple(_check_finite(self.scores, "scores"))
        if self.truth.labels and self.truth.labels[-1] >= len(scores):
            raise NumericError(
                f"truth label {self.truth.labels[-1]} outside {len(scores)} categories"
            )
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class MetricSummary:
    """The six headline numbers of one evaluation."""

    c_precision: float
    c_recall: float
    c_f1: float
    o_precision: float
    o_recall: float
    o_f1: float

    def as_dict(self) -> dict[str, float]:
        return {
            "C-P": self.c_precision,
            "C-R": self.c_recall,
            "C-F1": self.c_f1,
            "O-P": self.o_precision,
            "O-R": self.o_recall,
            "O-F1": self.o_f1,
        }


def _rate(hits, total):
    """``hits / total`` elementwise, 1.0 where ``total`` is 0; a float for scalars."""
    rate = np.where(total > 0, hits / np.maximum(total, 1), 1.0)
    return rate if rate.ndim else float(rate)


def f1_score(precision, recall):
    """Harmonic mean, elementwise; 0 where both inputs are 0; a float for scalars."""
    p, r = np.asarray(precision, dtype=float), np.asarray(recall, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0 where p + r == 0
        f1 = np.where(p + r == 0.0, 0.0, 2.0 * p * r / (p + r))
    return f1 if f1.ndim else float(f1)


def precision_recall(pred: LabelSet, truth: LabelSet) -> tuple[float, float]:
    """Set-overlap precision and recall with the 100% rule for empty sets."""
    hits = len(set(pred.labels) & set(truth.labels))
    return _rate(hits, len(pred)), _rate(hits, len(truth))


def _summary(tp_c: np.ndarray, pred_c: np.ndarray, gt_c: np.ndarray) -> MetricSummary:
    """The six metrics from per-class tp, predicted and ground-truth counts."""
    c_p, c_r = (float(_rate(tp_c, n).mean()) for n in (pred_c, gt_c))
    o_p, o_r = (_rate(tp_c.sum(), n.sum()) for n in (pred_c, gt_c))
    return MetricSummary(c_p, c_r, f1_score(c_p, c_r), o_p, o_r, f1_score(o_p, o_r))


def _mask(labels, rows, shape: tuple[int, int]) -> np.ndarray:
    """(n, C) membership matrix: each of ``labels``, below C, in its row of ``rows``."""
    mask = np.zeros(shape, dtype=bool)
    mask[rows, labels] = True
    return mask


def _ranks(scores: np.ndarray) -> np.ndarray:
    """Each class's 0-based rank in its row of (n, C) scores, ties to the lower
    index: a stable sort orders the classes, and sorting that order inverts it."""
    return np.argsort(np.argsort(-scores, axis=1, kind="stable"), axis=1)


def _check_k(k, n_classes: int) -> int:
    """``k`` as ``_check_count`` returns it; NumericError unless it is at most C."""
    checked = _check_count(k, "k")
    if checked > n_classes:
        raise NumericError(f"k must lie in [0, {n_classes}], got {k!r}")
    return checked


def _stack(records: Sequence[EvalRecord] | tuple[np.ndarray, np.ndarray]
           ) -> tuple[np.ndarray, np.ndarray]:
    """Class ranks and truth mask, both (n, C), of a record set or of the
    (scores, truth mask) pair that ``formats.read_records`` returns."""
    if isinstance(records, tuple):
        return _ranks(records[0]), records[1]
    if not records:
        raise NumericError("records must be non-empty")
    n_classes = len(records[0].scores)
    for i, r in enumerate(records):
        if len(r.scores) != n_classes:
            raise NumericError(
                f"record {i} has {len(r.scores)} scores; record 0 has {n_classes}")
    scores = np.array([r.scores for r in records], dtype=float)
    rows = [i for i, r in enumerate(records) for _ in r.truth.labels]
    labels = [c for r in records for c in r.truth.labels]
    return _ranks(scores), _mask(labels, rows, scores.shape)


def top_k_labels(scores: Sequence[float], k: int) -> LabelSet:
    """The k highest-scored categories; ties resolve to the lower index."""
    ranks = _ranks(np.asarray(scores, dtype=float)[None])[0]
    return LabelSet(labels=tuple(np.flatnonzero(ranks < _check_k(k, len(ranks))).tolist()))


def topk_sweep(
    data: Sequence[EvalRecord] | tuple[np.ndarray, np.ndarray], k_values: Sequence[int]
) -> list[tuple[int, MetricSummary]]:
    """Fixed-k evaluation for each requested k, from one ranking: row k of the cumulative
    [rank, class] histograms of all cells and of truth cells counts predictions and hits."""
    ranks, truth = _stack(data)
    C = ranks.shape[1]
    ks = [_check_k(k, C) for k in k_values]
    cell = (ranks + 1) * C + np.arange(C)  # rank r, class c: row r + 1 of (C + 1, C)
    pred, tp = (np.bincount(c, minlength=(C + 1) * C).reshape(C + 1, C).cumsum(0)
                for c in (cell.ravel(), cell[truth]))
    return [(k, _summary(tp[k], pred[k], tp[C])) for k in ks]


def predicted_k_eval(
    data: Sequence[EvalRecord] | tuple[np.ndarray, np.ndarray], m_stars: Sequence[int]
) -> MetricSummary:
    """Evaluation at per-record cardinalities, each by ``_check_count`` and clipped to C."""
    ranks, truth = _stack(data)
    if len(ranks) != len(m_stars):
        raise NumericError(f"got {len(m_stars)} cardinalities for {len(ranks)} records")
    if not (isinstance(m_stars, np.ndarray) and m_stars.ndim == 1):  # each entry one count
        m_stars = [_check_count(v, "m*") for v in m_stars]
    m = _check_count(np.asarray(m_stars), "m*", column=True)
    pred = ranks < np.minimum(m, ranks.shape[1])[:, None]
    return _summary(*(x.sum(0, dtype=float) for x in (pred & truth, pred, truth)))


def mce(predicted: Sequence[int], truth: Sequence[int]) -> tuple[float, float]:
    """Mean absolute cardinality error and its population standard deviation."""
    if len(predicted) != len(truth) or not predicted:
        raise NumericError("predicted and truth must have equal positive length")
    err = np.abs(np.asarray(predicted, dtype=float) - np.asarray(truth, dtype=float))
    return float(err.mean()), float(err.std())
