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
from .numerics import _check_count, _check_finite

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
    """Sorted unique category indices."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(int(v) for v in self.labels)
        if any(v < 0 for v in labels):
            raise NumericError(f"labels must be >= 0: {labels!r}")
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise NumericError(f"labels must be strictly increasing: {labels!r}")
        object.__setattr__(self, "labels", labels)

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


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall(pred: LabelSet, truth: LabelSet) -> tuple[float, float]:
    """Set-overlap precision and recall with the 100% rule for empty sets."""
    hits = len(set(pred.labels) & set(truth.labels))
    precision = 1.0 if len(pred) == 0 else hits / len(pred)
    recall = 1.0 if len(truth) == 0 else hits / len(truth)
    return precision, recall


def _summary(tp_c: np.ndarray, pred_c: np.ndarray, gt_c: np.ndarray) -> MetricSummary:
    """The six metrics from per-class tp, predicted and ground-truth counts."""
    prec_per_class = np.where(pred_c > 0, tp_c / np.maximum(pred_c, 1), 1.0)
    rec_per_class = np.where(gt_c > 0, tp_c / np.maximum(gt_c, 1), 1.0)
    c_p = float(prec_per_class.mean())
    c_r = float(rec_per_class.mean())
    tp, npred, ngt = tp_c.sum(), pred_c.sum(), gt_c.sum()
    o_p = 1.0 if npred == 0 else float(tp / npred)
    o_r = 1.0 if ngt == 0 else float(tp / ngt)
    return MetricSummary(c_p, c_r, f1_score(c_p, c_r), o_p, o_r, f1_score(o_p, o_r))


def _counts(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-class (tp, predicted, ground-truth) counts of two (n, C) masks."""
    return tuple(m.sum(0, dtype=float) for m in (pred & truth, pred, truth))


def _mask(sets: Sequence[LabelSet], n_classes: int) -> np.ndarray:
    """(n, C) membership matrix of ``n`` label sets, each label below C."""
    rows = [i for i, s in enumerate(sets) for _ in s.labels]
    cols = [c for s in sets for c in s.labels]
    mask = np.zeros((len(sets), n_classes), dtype=bool)
    mask[rows, cols] = True
    return mask


def _ranks(scores: np.ndarray) -> np.ndarray:
    """Each class's 0-based rank in its row of (n, C) scores, ties to the lower
    index: a stable sort orders the classes, and sorting that order inverts it."""
    return np.argsort(np.argsort(-scores, axis=1, kind="stable"), axis=1)


def _top(ranks: np.ndarray, k) -> np.ndarray:
    """Mask of each row's k best-ranked classes; k: one count or a column of them."""
    if np.any(_check_count(k, "k") > ranks.shape[1]):
        raise NumericError(f"k must lie in [0, {ranks.shape[1]}], got {k!r}")
    return ranks < k


def _stack(records: Sequence[EvalRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Class ranks and truth mask, both (n, C), of a record set."""
    if not records:
        raise NumericError("records must be non-empty")
    n_classes = len(records[0].scores)
    for i, r in enumerate(records):
        if len(r.scores) != n_classes:
            raise NumericError(
                f"record {i} has {len(r.scores)} scores; record 0 has {n_classes}")
    scores = np.array([r.scores for r in records], dtype=float)
    return _ranks(scores), _mask([r.truth for r in records], n_classes)


def top_k_labels(scores: Sequence[float], k: int) -> LabelSet:
    """The k highest-scored categories; ties resolve to the lower index."""
    top = _top(_ranks(np.asarray(scores, dtype=float)[None]), k)[0]
    return LabelSet(labels=tuple(np.flatnonzero(top).tolist()))


def topk_sweep(
    records: Sequence[EvalRecord], k_values: Sequence[int]
) -> list[tuple[int, MetricSummary]]:
    """Fixed-k evaluation for each requested k, from one ranking."""
    ranks, truth = _stack(records)
    return [(int(k), _summary(*_counts(_top(ranks, k), truth))) for k in k_values]


def predicted_k_eval(
    records: Sequence[EvalRecord], m_stars: Sequence[int]
) -> MetricSummary:
    """Evaluation at per-record predicted cardinalities, each clipped to C."""
    if len(records) != len(m_stars):
        raise NumericError(
            f"got {len(m_stars)} cardinalities for {len(records)} records"
        )
    ranks, truth = _stack(records)
    m = np.minimum(np.asarray(m_stars), ranks.shape[1])
    return _summary(*_counts(_top(ranks, m[:, None]), truth))


def mce(predicted: Sequence[int], truth: Sequence[int]) -> tuple[float, float]:
    """Mean absolute cardinality error and its population standard deviation."""
    if len(predicted) != len(truth) or not predicted:
        raise NumericError("predicted and truth must have equal positive length")
    err = np.abs(np.asarray(predicted, dtype=float) - np.asarray(truth, dtype=float))
    return float(err.mean()), float(err.std())
