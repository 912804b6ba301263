"""Box geometry, greedy and cardinality-constrained NMS, detection metrics.

The adaptive NMS sweeps the overlap threshold upward from its starting
value until the greedy pass keeps at least the requested number of boxes.
Note that the kept count of greedy NMS is *not* monotone in the threshold
(a suppressed box can shadow others), so the sweep stops at the first
qualifying threshold instead of bisecting.  After a complete pass at t0 the
sweep jumps to the first threshold where one of its suppressions lapses,
then walks windows of consecutive thresholds in increasing order: ``_START``
thresholds, then each window twice as wide as the last, at most ``_WIDTH``.
Windows grow because a walk costs what its top threshold costs (the higher
the threshold, the more boxes its pass keeps and visits), so a short first
window stops near an answer close to the jump, and doubling keeps the count
of walks small when the answer is far.  When m* exceeds the image's boxes
no pass can keep m*, and only the last threshold's pass runs.  ``_Sweep``
runs an image's passes in a few numpy calls over the overlaps they need,
and counts its walks, passes, overlap rows and IoUs in a ``SweepWork``.
Each numpy call made per image, walk or block is a C entry point (an array
method numpy writes in C, such as ``.nonzero()`` or ``.argsort()``, or a
ufunc), never one it writes in Python, such as ``np.flatnonzero`` or ``.sum()``.

The sweep and matching take every IoU from one routine, ``_overlaps``, so
a threshold comparison sees the same float value whichever caller asks.
If no threshold keeps m* boxes, fewer are returned; the ``nms`` command
counts those images as ``n_short``.

The cores take an image's boxes as an (n, 5) table of x1, y1, x2, y2, score
rows; the functions on lists of BoxDetection convert with ``box_table``.

Matching and the log-average miss rate follow the usual detection
benchmark protocol: greedy one-to-one matching in descending score order,
miss rate sampled at 9 log-spaced false-positives-per-image reference
points in [1e-2, 1] and averaged in log space with a 1e-10 floor.
``det_scores`` builds the operating points of its matches once; its best F1,
miss-rate curve and LAMR read them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import NumericError
from .mlmetrics import _rate, f1_score
from .numerics import _check_count

__all__ = [
    "BoxDetection",
    "NMSConfig",
    "MatchResult",
    "box_table",
    "greedy_nms",
    "adaptive_nms",
    "adaptive_nms_rows",
    "SweepWork",
    "match_detections",
    "match_tables",
    "det_scores",
    "miss_rate_curve",
    "log_avg_miss_rate",
    "detection_f1",
    "best_f1_over_thresholds",
]

MISS_RATE_FLOOR = 1e-10
FPPI_REFERENCES = tuple(10.0 ** e for e in np.linspace(-2.0, 0.0, 9))
_BLOCK = 1 << 16  # IoU values per block of overlap rows: bounds its temporaries
_WIDTH = 63  # the most thresholds one walk carries: the bits of a mask that an int64 holds
_START = 8  # thresholds of the first walk after the lapse jump; each next walk doubles
_MAX_THRESHOLDS = 10_000  # the longest sweep NMSConfig accepts; the default has 56


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
        return (~ok).nonzero()[0]


@dataclass(frozen=True)
class NMSConfig:
    """Threshold sweep for the cardinality-constrained NMS."""

    t0: float = 0.4
    step: float = 0.01
    t_max: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 <= self.t_max < 1.0:
            raise NumericError(f"need 0 <= t0 <= t_max < 1, got {self.t0!r}, {self.t_max!r}")
        if not 0.0 < self.step < math.inf:  # False for nan
            raise NumericError(f"step must be finite and > 0, got {self.step!r}")
        if self._span >= _MAX_THRESHOLDS:
            raise NumericError(f"step {self.step!r} sweeps more than {_MAX_THRESHOLDS} "
                               "thresholds from t0 to t_max")

    @property
    def _span(self) -> float:  # inf for a subnormal step; the sweep has floor(it) + 1 thresholds
        return (self.t_max - self.t0) / self.step + 1e-9

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """The sweep's thresholds min(t0 + k*step, t_max), k = 0 .. floor(_span), read-only."""
        ts = np.minimum(self.t0 + np.arange(math.floor(self._span) + 1) * self.step, self.t_max)
        ts.flags.writeable = False
        return ts


@dataclass
class SweepWork:
    """The work of adaptive-NMS sweeps, summed over the images it is passed for:
    ``walks``, threshold ``passes`` (the sum of the walks' widths), overlap
    ``rows`` built and the ``ious`` computed for them."""

    walks: int = 0
    passes: int = 0
    rows: int = 0
    ious: int = 0


@dataclass(frozen=True)
class MatchResult:
    """Per-image matching outcome; ``tp``, ``fp`` and ``fn`` are counts by ``_check_count``.

    ``flags`` lists (score, is_true_positive) for every detection in
    descending score order; curves are built from these."""

    tp: int
    fp: int
    fn: int
    flags: tuple[tuple[float, bool], ...] = ()

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))

    @property
    def n_gt(self) -> int:
        return self.tp + self.fn


def box_table(boxes: list[BoxDetection]) -> np.ndarray:
    """``boxes`` as an (n, 5) table of x1, y1, x2, y2, score rows."""
    rows = [(b.x1, b.y1, b.x2, b.y2, b.score) for b in boxes]
    return np.array(rows, dtype=float).reshape(-1, 5)


def _geometry(t: np.ndarray) -> np.ndarray:
    """Rows x1, y1, x2, y2, area (as BoxDetection computes it) of a box table."""
    g = np.empty((5, len(t)))
    g[:4] = t[:, :4].T
    np.multiply(g[2] - g[0], g[3] - g[1], out=g[4])
    return g


def _by_score(table: np.ndarray) -> np.ndarray:
    return (-table[:, 4]).argsort(kind="stable")  # equal scores keep their order


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
    """Greedy NMS over one image's box table at the thresholds ``ts[k]``.

    ``ts`` is non-decreasing.  Row i lists the pairs (j, K) of the boxes j
    after box i in score order whose IoU v with it exceeds ``ts[0]``, where
    K = ``searchsorted(ts, v, "left")``: the pair suppresses at ``ts[k]``
    (v > ts[k]) exactly when k < K.

    A walk runs the passes of up to ``_WIDTH`` consecutive thresholds at
    once, a window of the sweep.  Each box carries one int mask: bit b set
    where it is suppressed at the walk's b-th threshold.  A kept box's pair (j, K) sets, in j's
    mask, the bits of the thresholds where the box is kept and the pair
    suppresses.

    Rows are built once, when a walk keeps a box whose row is missing, in one
    block with the rows of the next boxes that are neither suppressed at
    every threshold of the walk nor built, at most ``_BLOCK`` IoU values.
    A walk of one threshold with a limit builds no more rows than the boxes
    it can still keep.  Only boxes that overlap in x are compared: in the
    boxes sorted by x1, row i's candidates lie from the first whose running
    maximum of x2 exceeds x1_i to the last whose x1 is below x2_i (any other
    pair has ix = 0, so IoU 0 <= ts[0]).  Each IoU comes from ``_overlaps``
    on that pair alone, so every value keeps its bits.
    """

    def __init__(self, table: np.ndarray, ts: np.ndarray, work: SweepWork | None = None) -> None:
        self.ts = ts
        self.work = SweepWork() if work is None else work
        self.order = _by_score(table)
        g = self._geometry = _geometry(table[self.order])
        self._by_x = g[0].argsort(kind="stable")
        # Row i's candidates: the positions lo[i] .. lo[i] + size[i] - 1 in x order.
        self._lo = np.maximum.accumulate(g[2][self._by_x]).searchsorted(g[0], "right")
        self._size = g[0][self._by_x].searchsorted(g[2], "left") - self._lo
        self._unbuilt = ~np.zeros(len(table), dtype=bool)
        self._rows: list[tuple[list[int], list[int]] | None] = [None] * len(table)

    def _build(self, i: int, free: np.ndarray, rows: int) -> None:
        """Build the rows of the first ``rows`` boxes from box i on that are
        ``free`` (a mask over them, true at box i) and not built, within
        ``_BLOCK`` values."""
        block = (free & self._unbuilt[i:]).nonzero()[0][:rows] + i
        size = self._size[block]
        end = size.cumsum()
        if end[-1] > _BLOCK:
            cut = int(end.searchsorted(_BLOCK, "right")) or 1
            block, size, end = block[:cut], size[:cut], end[:cut]
        own = block.repeat(size)
        j = self._by_x[(self._lo[block] - end + size).repeat(size) + np.arange(end[-1])]
        later = (j > own).nonzero()[0]
        own, j = own[later], j[later]
        self.work.rows += len(block)
        self.work.ious += len(own)
        g = self._geometry
        v = _overlaps(g.take(own, axis=1), g.take(j, axis=1))
        hit = (v > self.ts[0]).nonzero()[0]
        own, j, k = own[hit], j[hit], self.ts.searchsorted(v[hit], "left")
        ends = own.searchsorted(block, "right").tolist()
        js, ks = j.tolist(), k.tolist()
        start = 0
        for r, stop in zip(block.tolist(), ends):
            self._rows[r] = (js[start:stop], ks[start:stop])
            start = stop
        self._unbuilt[block] = False

    def greedy(self, k: int, width: int, limit: int | None = None) -> np.ndarray:
        """The greedy passes at ts[k], ..., ts[k + width - 1] in one walk: a
        pass keeps box i unless a box it kept earlier has IoU > its threshold
        with box i.  Bit b of box i's mask is set when the pass at ts[k + b]
        keeps it.  The walk stops once the pass at ts[k] keeps ``limit`` boxes."""
        n, n_ts = len(self.order), len(self.ts)
        self.work.walks += 1
        self.work.passes += width
        full = (1 << width) - 1
        # below[K]: the bits b < K - k, at whose thresholds a pair with that K suppresses.
        below = ([0] * (k + 1) + [(1 << b) - 1 for b in range(1, width)]
                 + [full] * (n_ts + 1 - k - width))
        suppressed = array("q", bytes(8 * n))
        masks = array("q", bytes(8 * n))
        rows = self._rows
        kept = 0  # boxes the pass at ts[k] keeps
        for i in range(n):
            mask = full ^ suppressed[i]
            if not mask:
                continue
            masks[i] = mask
            if mask & 1:
                kept += 1
                if kept == limit:
                    break
            if rows[i] is None:
                free = np.frombuffer(suppressed, dtype=np.int64)[i:] != full
                self._build(i, free, n if width > 1 or limit is None else limit - kept)
            for j, big_k in zip(*rows[i]):
                suppressed[j] |= mask & below[big_k]
        return np.frombuffer(masks, dtype=np.int64)

    def lapse(self, kept: np.ndarray) -> int:
        """The smallest K in the rows of the ``kept`` boxes (``len(ts)`` if
        none): the first threshold at which one of their suppressions lapses.
        If they are the boxes a complete pass keeps at ts[k] < ts[K], every
        threshold from ts[k] to below ts[K] keeps them too."""
        return min((min(self._rows[i][1], default=len(self.ts)) for i in kept.tolist()),
                   default=len(self.ts))


def greedy_nms(boxes: list[BoxDetection], t: float) -> list[BoxDetection]:
    """Score-descending sweep keeping boxes whose IoU with every kept box is <= t."""
    if not 0.0 <= t < 1.0:
        raise NumericError(f"threshold must lie in [0,1), got {t!r}")
    sweep = _Sweep(box_table(boxes), np.array([t]))
    return [boxes[i] for i in sweep.order[sweep.greedy(0, 1).nonzero()[0]]]


def adaptive_nms(
    boxes: list[BoxDetection], m_star: int, cfg: NMSConfig = NMSConfig()
) -> list[BoxDetection]:
    """Raise the NMS threshold until at least m_star boxes survive.

    Sweeps t = t0, t0+step, ... up to t_max and stops at the first
    threshold whose greedy pass keeps >= m_star boxes; the top-m_star by
    score are returned.

    The result never holds more than m_star boxes, and holds exactly
    m_star whenever some threshold of the sweep keeps that many.  If none
    does, m_star was missed: all survivors of the final threshold are
    returned, fewer than m_star, and ``len(result) < m_star`` is how a
    caller tells (the ``nms`` command counts these images as ``n_short``).
    """
    return [boxes[i] for i in adaptive_nms_rows(box_table(boxes), m_star, cfg)[0]]


def adaptive_nms_rows(table: np.ndarray, m_star: int, cfg: NMSConfig = NMSConfig(),
                      work: SweepWork | None = None) -> tuple[np.ndarray, int]:
    """``adaptive_nms`` on a box table: the kept rows' indices, in score order,
    and the index k of the threshold t0 + k*step whose pass they are (the
    first to keep m_star boxes, else the last); m_star is a count by ``_check_count``.
    The sweep's work is added to ``work``, if given."""
    m_star = _check_count(m_star, "m_star")
    if m_star == 0:
        return np.zeros(0, dtype=np.intp), 0
    ts = cfg._thresholds
    sweep = _Sweep(table, ts, work)
    if m_star > len(table):  # no pass keeps m_star boxes: the answer is the last pass
        return sweep.order[sweep.greedy(len(ts) - 1, 1).nonzero()[0]], len(ts) - 1
    k, width = 0, 1
    while True:
        kept = sweep.greedy(k, width, m_star)[:, None] >> np.arange(width) & 1 != 0
        met = (np.add.reduce(kept, axis=0) >= m_star).nonzero()[0]
        if len(met):
            return sweep.order[kept[:, met[0]].nonzero()[0][:m_star]], k + int(met[0])
        if k == 0:  # the pass at t0 was complete: skip to where it can change
            k, span = sweep.lapse(kept[:, 0].nonzero()[0]), _START
        else:  # the next window of thresholds, twice as wide
            k, span = k + width, 2 * width
        if k >= len(ts):
            return sweep.order[kept[:, -1].nonzero()[0]], len(ts) - 1
        width = min(span, _WIDTH, len(ts) - k)


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
    # Only the pairs that reach iou_thresh (> 0) can match: each detection,
    # in score order, takes its untaken one of highest IoU, the first (the
    # lower index) of equal ones.
    det, gt = (overlaps >= iou_thresh).nonzero()
    taken, hits = set(), set()
    for d, pairs in groupby(zip(det.tolist(), gt.tolist(), overlaps[det, gt].tolist()),
                            key=itemgetter(0)):
        best = max((p for p in pairs if p[1] not in taken), key=itemgetter(2), default=None)
        if best is not None:
            taken.add(best[1])
            hits.add(d)
    flags = tuple((score, d in hits) for d, score in enumerate(ordered[:, 4].tolist()))
    return MatchResult(len(hits), len(dets) - len(hits), len(gts) - len(hits), flags)


def _operating_points(matches: list[MatchResult]) -> tuple[np.ndarray, np.ndarray, int]:
    """TP and FP counts at each operating point, and the GT total.  A point keeps
    the first j of the n detections by score: j = 0 (the empty output), j = n
    and each j whose j-th and (j+1)-th scores differ, so it keeps all scored >= s."""
    total_gt = sum(m.n_gt for m in matches)
    flags = np.array([fl for m in matches for fl in m.flags], dtype=float).reshape(-1, 2)
    scores, is_tp = flags[np.argsort(-flags[:, 0], kind="stable")].T  # ties keep their order
    kept = np.flatnonzero(np.diff(scores, prepend=np.inf, append=-np.inf) != 0.0)
    tp = np.zeros(len(scores) + 1)  # tp[j]: the TPs among the first j detections
    np.cumsum(is_tp, out=tp[1:])
    return tp[kept], kept - tp[kept], total_gt


def det_scores(matches: list[MatchResult],
               n_images: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The scores ``eval-det`` reports of ``matches``, from one build of their
    operating points: ``best_f1_over_thresholds``, the ``miss_rate_curve``
    (miss rate, FPPI) and its ``log_avg_miss_rate``."""
    points = _operating_points(matches)
    miss, fppi = miss_rate_curve(points, n_images)
    lamr = log_avg_miss_rate(points, n_images)
    return _best_f1(points), miss, fppi, lamr


def miss_rate_curve(points: tuple, n_images: int) -> tuple[np.ndarray, np.ndarray]:
    """Miss rate and FPPI at each of the operating ``points`` of a list of
    matches (``det_scores`` builds them), descending by score threshold;
    ``n_images`` is a count by ``numerics._check_count``, and >= 1."""
    n_images = _check_count(n_images, "n_images")
    if n_images < 1:
        raise NumericError("n_images must be >= 1")
    tp, fp, total_gt = points
    return 1.0 - _rate(tp, total_gt), fp / n_images


def log_avg_miss_rate(points: tuple, n_images: int) -> float:
    """Geometric mean of the miss rate at 9 log-spaced FPPI references, along
    the ``miss_rate_curve`` of the operating ``points`` over ``n_images`` images.

    For each reference the miss rate of the operating point with the
    largest FPPI not exceeding it is used; rates are floored at 1e-10
    before the log average.
    """
    miss, fppi = miss_rate_curve(points, n_images)
    if points[2] == 0:
        raise NumericError("log-average miss rate is undefined without ground truth")
    # fppi is non-decreasing along the curve from the empty output's 0; the last
    # point at or below a reference has both the nearest FPPI and the lowest miss rate.
    idx = np.searchsorted(fppi, FPPI_REFERENCES, side="right") - 1
    sampled = np.maximum(miss[idx], MISS_RATE_FLOOR)
    return float(math.exp(np.mean(np.log(sampled))))


def detection_f1(matches: list[MatchResult]) -> float:
    """F1 from aggregated counts; empty denominators count as 100%."""
    tp, fp, fn = (sum(getattr(m, k) for m in matches) for k in ("tp", "fp", "fn"))
    return f1_score(_rate(tp, tp + fp), _rate(tp, tp + fn))


def best_f1_over_thresholds(matches: list[MatchResult]) -> float:
    """Highest F1 along the score-threshold sweep of the matched detections,
    the empty output included.

    The fixed-threshold baseline is evaluated this way (its best operating
    point), which is the strictest comparison for the adaptive variant.
    """
    return _best_f1(_operating_points(matches))


def _best_f1(points: tuple) -> float:
    """``best_f1_over_thresholds`` of the operating ``points`` of a list of matches."""
    tp, fp, total_gt = points
    return max(f1_score(_rate(tp, tp + fp), _rate(tp, total_gt)).tolist())
