"""Box geometry, greedy and cardinality-constrained NMS, detection metrics.

The adaptive NMS sweeps the overlap threshold upward from its starting
value until the greedy pass keeps at least the requested number of boxes.
Note that the kept count of greedy NMS is *not* monotone in the threshold
(a suppressed box can shadow others), so the sweep stops at the first
qualifying threshold instead of bisecting.  An image's overlaps are
computed once, in numpy: a box's row (the lower-scored boxes it overlaps
by more than the sweep's first threshold) is built the first time the box
is kept and reused by every later threshold of the sweep.  The sweep and
matching take every IoU from one routine, ``_overlaps``, so a threshold
comparison sees the same float value whichever caller asks.
If no threshold keeps m* boxes, fewer are returned; the ``nms`` command
counts those images as ``n_short``.

The cores take an image's boxes as an (n, 5) table of x1, y1, x2, y2, score
rows; the functions on lists of BoxDetection convert with ``box_table``.

Matching and the log-average miss rate follow the usual detection
benchmark protocol: greedy one-to-one matching in descending score order,
miss rate sampled at 9 log-spaced false-positives-per-image reference
points in [1e-2, 1] and averaged in log space with a 1e-10 floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .mlmetrics import f1_score

__all__ = [
    "BoxDetection",
    "NMSConfig",
    "MatchResult",
    "box_table",
    "greedy_nms",
    "adaptive_nms",
    "adaptive_nms_rows",
    "match_detections",
    "match_tables",
    "log_avg_miss_rate",
    "miss_rate_curve",
    "detection_f1",
    "best_f1_over_thresholds",
]

MISS_RATE_FLOOR = 1e-10
FPPI_REFERENCES = tuple(10.0 ** e for e in np.linspace(-2.0, 0.0, 9))


@dataclass(frozen=True)
class BoxDetection:
    """Axis-aligned box with a confidence score in [0,1]."""

    x1: float
    y1: float
    x2: float
    y2: float
    score: float = 1.0

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2", "score"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise NumericError(f"box field {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise NumericError(f"box must have positive extent: {self!r}")
        # With a finite positive area no IoU is 0/0 or inf/inf (NaN).
        if not 0.0 < self.area < math.inf:
            raise NumericError(f"box area must be positive and finite: {self!r}")
        if not 0.0 <= self.score <= 1.0:
            raise NumericError(f"score must lie in [0,1]: {self.score!r}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @staticmethod
    def rejected_rows(table: np.ndarray) -> np.ndarray:
        """Indices of the rows of a box table that the checks above reject."""
        x1, y1, x2, y2, score = table.T
        with np.errstate(invalid="ignore", over="ignore"):
            area = (x2 - x1) * (y2 - y1)
        # Given x2 > x1, a positive area means y2 > y1; a non-finite field
        # fails a comparison or makes the area non-finite.
        ok = (x2 > x1) & (0.0 < area) & (area < np.inf) & (0.0 <= score) & (score <= 1.0)
        return np.flatnonzero(~ok)


@dataclass(frozen=True)
class NMSConfig:
    """Threshold sweep for the cardinality-constrained NMS."""

    t0: float = 0.4
    step: float = 0.01
    t_max: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 <= self.t_max < 1.0:
            raise NumericError(f"need 0 <= t0 <= t_max < 1, got {self.t0!r}, {self.t_max!r}")
        if self.step <= 0.0:
            raise NumericError(f"step must be > 0, got {self.step!r}")


@dataclass(frozen=True)
class MatchResult:
    """Per-image matching outcome.

    ``flags`` lists (score, is_true_positive) for every detection in
    descending score order; curves are built from these.
    """

    tp: int
    fp: int
    fn: int
    flags: tuple[tuple[float, bool], ...] = ()

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0:
            raise NumericError("counts must be non-negative")

    @property
    def n_gt(self) -> int:
        return self.tp + self.fn


def box_table(boxes: list[BoxDetection]) -> np.ndarray:
    """``boxes`` as an (n, 5) table of x1, y1, x2, y2, score rows."""
    rows = [(b.x1, b.y1, b.x2, b.y2, b.score) for b in boxes]
    return np.array(rows, dtype=float).reshape(-1, 5)


def _geometry(t: np.ndarray) -> np.ndarray:
    """Rows x1, y1, x2, y2, area (as BoxDetection computes it) of a box table."""
    return np.vstack([t[:, :4].T, (t[:, 2] - t[:, 0]) * (t[:, 3] - t[:, 1])])


def _by_score(table: np.ndarray) -> np.ndarray:
    return np.argsort(-table[:, 4], kind="stable")  # equal scores keep their order


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of the boxes in geometry ``a`` with those in geometry ``b`` (broadcast).

    The float operations and their order are those of a scalar Python
    IoU (min/max, then ix*iy, then inter / (area_a + area_b - inter)),
    so each value is bit-identical to it; clipping ix and iy at 0 gives
    the disjoint case its 0.
    """
    ix = np.maximum(np.minimum(a[2], b[2]) - np.maximum(a[0], b[0]), 0.0)
    iy = np.maximum(np.minimum(a[3], b[3]) - np.maximum(a[1], b[1]), 0.0)
    inter = ix * iy
    return inter / (a[4] + b[4] - inter)


class _Sweep:
    """Greedy NMS over one image's box table at any threshold >= ``floor``.

    Row i lists the (j, IoU) pairs of the boxes j after box i in score
    order whose IoU with it exceeds ``floor``; a smaller IoU cannot
    suppress at any threshold >= floor.  A row is computed the first time
    its box is kept and cached, so memory stays at the rows actually
    needed instead of a dense n x n matrix.
    """

    def __init__(self, table: np.ndarray, floor: float) -> None:
        self.order = _by_score(table)
        self._geometry = _geometry(table[self.order])
        self._floor = floor
        self._rows: list[list[tuple[int, float]] | None] = [None] * len(table)

    def _row(self, i: int) -> list[tuple[int, float]]:
        row = _overlaps(self._geometry[:, i], self._geometry[:, i + 1:])
        js = np.flatnonzero(row > self._floor)
        return list(zip((js + (i + 1)).tolist(), row[js].tolist()))

    def greedy(self, t: float, limit: int | None = None) -> np.ndarray:
        """Table rows kept, in score order: keep box i unless an earlier kept
        box has IoU > t with it; stop once ``limit`` boxes are kept."""
        suppressed = [False] * len(self.order)
        kept: list[int] = []
        for i in range(len(self.order)):
            if suppressed[i]:
                continue
            kept.append(i)
            if len(kept) == limit:
                break
            row = self._rows[i]
            if row is None:
                row = self._rows[i] = self._row(i)
            for j, v in row:
                if v > t:
                    suppressed[j] = True
        return self.order[kept]


def greedy_nms(boxes: list[BoxDetection], t: float) -> list[BoxDetection]:
    """Score-descending sweep keeping boxes whose IoU with every kept box is <= t."""
    if not 0.0 <= t < 1.0:
        raise NumericError(f"threshold must lie in [0,1), got {t!r}")
    return [boxes[i] for i in _Sweep(box_table(boxes), t).greedy(t)]


def adaptive_nms(
    boxes: list[BoxDetection], m_star: int | None, cfg: NMSConfig = NMSConfig()
) -> list[BoxDetection]:
    """Raise the NMS threshold until at least m_star boxes survive.

    Sweeps t = t0, t0+step, ... up to t_max and stops at the first
    threshold whose greedy pass keeps >= m_star boxes; the top-m_star by
    score are returned.  ``m_star=None`` lifts the constraint and returns
    the survivors of t0 unchanged.

    The result never holds more than m_star boxes, and holds exactly
    m_star whenever some threshold of the sweep keeps that many.  If none
    does, m_star was missed: all survivors of the final threshold are
    returned, fewer than m_star, and ``len(result) < m_star`` is how a
    caller tells (the ``nms`` command counts these images as ``n_short``).
    """
    return [boxes[i] for i in adaptive_nms_rows(box_table(boxes), m_star, cfg)]


def adaptive_nms_rows(table: np.ndarray, m_star: int | None,
                      cfg: NMSConfig = NMSConfig()) -> np.ndarray:
    """``adaptive_nms`` on a box table: the kept rows' indices, in score order."""
    if m_star is not None and m_star < 0:
        raise NumericError(f"m_star must be >= 0, got {m_star!r}")
    if m_star == 0:
        return np.zeros(0, dtype=np.intp)
    sweep = _Sweep(table, cfg.t0)
    n_steps = int(math.floor((cfg.t_max - cfg.t0) / cfg.step + 1e-9))
    for k in range(n_steps + 1):
        t = min(cfg.t0 + k * cfg.step, cfg.t_max)
        kept = sweep.greedy(t, m_star)
        if m_star is None or len(kept) >= m_star:
            break
    return kept


def match_detections(
    dets: list[BoxDetection], gts: list[BoxDetection], iou_thresh: float
) -> MatchResult:
    """Greedy one-to-one matching in descending score order.

    A detection is a true positive when its best-overlap unmatched ground
    truth reaches ``iou_thresh``; equal overlaps resolve to the lower
    ground-truth index.  Ground truths left unmatched count as misses.
    """
    return match_tables(box_table(dets), box_table(gts), iou_thresh)


def match_tables(dets: np.ndarray, gts: np.ndarray, iou_thresh: float) -> MatchResult:
    """``match_detections`` on two box tables."""
    if not 0.0 < iou_thresh < 1.0:
        raise NumericError(f"iou_thresh must lie in (0,1), got {iou_thresh!r}")
    ordered = dets[_by_score(dets)]
    # One row per detection: its IoU with every ground truth.
    overlaps = _overlaps(_geometry(ordered)[:, :, None], _geometry(gts)[:, None, :])
    taken = np.zeros(len(gts), dtype=bool)
    flags: list[tuple[float, bool]] = []
    for score, row in zip(ordered[:, 4].tolist(), overlaps):
        # Among the untaken ground truths, argmax picks the highest IoU and
        # the lower index on ties; a match needs IoU >= iou_thresh (> 0).
        row = np.where(taken, 0.0, row)
        best_i = int(np.argmax(row)) if len(gts) else -1
        hit = best_i >= 0 and bool(row[best_i] >= iou_thresh)
        if hit:
            taken[best_i] = True
        flags.append((score, hit))
    tp = sum(hit for _, hit in flags)
    return MatchResult(tp=tp, fp=len(dets) - tp, fn=len(gts) - tp, flags=tuple(flags))


def _operating_points(matches: list[MatchResult]) -> tuple[np.ndarray, np.ndarray, int]:
    """Cumulative TP and FP counts at each distinct score, highest first (the
    point at score s keeps every detection scored >= s), and the GT total."""
    total_gt = sum(m.n_gt for m in matches)
    all_flags = sorted((fl for m in matches for fl in m.flags), key=lambda f: -f[0])
    scores = np.asarray([f[0] for f in all_flags], dtype=float)
    is_tp = np.asarray([f[1] for f in all_flags], dtype=float)
    last = np.flatnonzero(np.diff(scores, append=-np.inf) != 0.0)
    return np.cumsum(is_tp)[last], np.cumsum(1.0 - is_tp)[last], total_gt


def miss_rate_curve(
    matches: list[MatchResult], n_images: int
) -> tuple[np.ndarray, np.ndarray]:
    """Miss rate and FPPI at every score threshold, descending by threshold."""
    tp, fp, total_gt = _operating_points(matches)
    # Prepend the empty operating point (threshold above every score).
    return (np.concatenate([[1.0], 1.0 - tp / total_gt]),
            np.concatenate([[0.0], fp / n_images]))


def log_avg_miss_rate(matches: list[MatchResult], n_images: int) -> float:
    """Geometric mean of the miss rate at 9 log-spaced FPPI references.

    For each reference the miss rate of the operating point with the
    largest FPPI not exceeding it is used; rates are floored at 1e-10
    before the log average.
    """
    if n_images < 1:
        raise NumericError("n_images must be >= 1")
    if sum(m.n_gt for m in matches) == 0:
        raise NumericError("log-average miss rate is undefined without ground truth")
    miss, fppi = miss_rate_curve(matches, n_images)
    # fppi is non-decreasing along the curve; the last point at or below a
    # reference has both the nearest FPPI and the lowest miss rate.
    idx = np.searchsorted(fppi, FPPI_REFERENCES, side="right") - 1
    sampled = np.maximum(np.where(idx < 0, 1.0, miss[idx]), MISS_RATE_FLOOR)
    return float(math.exp(np.mean(np.log(sampled))))


def detection_f1(matches: list[MatchResult]) -> float:
    """F1 from aggregated counts; empty denominators count as 100%."""
    tp, fp, fn = (sum(getattr(m, k) for m in matches) for k in ("tp", "fp", "fn"))
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    return f1_score(precision, recall)


def best_f1_over_thresholds(matches: list[MatchResult]) -> float:
    """Highest F1 along the score-threshold sweep of the matched detections.

    The fixed-threshold baseline is evaluated this way (its best operating
    point), which is the strictest comparison for the adaptive variant.
    """
    tps, fps, total_gt = _operating_points(matches)
    best = f1_score(1.0, 1.0 if total_gt == 0 else 0.0)  # empty-output point
    for tp, fp in zip(tps.tolist(), fps.tolist()):
        recall = 1.0 if total_gt == 0 else tp / total_gt
        best = max(best, f1_score(tp / (tp + fp), recall))
    return best
