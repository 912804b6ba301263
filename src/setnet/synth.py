"""Seed-deterministic synthetic data following the Gamma-Poisson chain.

Each generator draws features x, maps them through clipped affine
parameter maps onto (alpha(x), beta(x)), samples a rate lambda ~
Gamma(alpha, beta) and a count m ~ Poisson(lambda).  The marginal count
law is therefore exactly NB(alpha, 1/(1+beta)), which the tests verify by
Monte Carlo.

Default maps produce a bimodal population: a zero-heavy stratum (small
alpha, counts mostly 0 with occasional spill) and a high-count plateau.
This makes the count structure genuinely feature-dependent while keeping
the skewed low-count regime where distribution-aware point prediction
pays off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cardnet import TrainingSample
from .detect import BoxDetection
from .errors import NumericError
from .mlmetrics import EvalRecord, LabelSet, _mask

__all__ = [
    "ParamMap",
    "SynthConfig",
    "BoxImage",
    "counting_arrays",
    "multilabel_arrays",
    "box_tables",
    "gen_counting",
    "gen_multilabel",
    "gen_boxes",
    "counting_default_maps",
    "multilabel_default_maps",
]

@dataclass(frozen=True)
class ParamMap:
    """Clipped affine map from features to a strictly positive parameter."""

    weights: tuple[float, ...]
    bias: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and self.lo > 0.0 and self.hi >= self.lo):
            raise NumericError(f"need 0 < lo <= hi, got {self.lo!r}, {self.hi!r}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(map(math.isfinite, (*self.weights, self.bias))):
            raise NumericError(
                f"need finite weights and bias, got {self.weights!r}, {self.bias!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        w = np.zeros(x.shape[-1])
        w[: len(self.weights)] = self.weights
        return np.clip(x @ w + self.bias, self.lo, self.hi)


def counting_default_maps() -> tuple[ParamMap, ParamMap]:
    # Steep aligned ramps in x0 split the population into a zero-heavy
    # low-rate stratum (alpha ~ 0.11, beta ~ 0.13: mean 0.85 but P(0) ~ 0.8)
    # and a concentrated high-count plateau (mean 5, beta 2).
    alpha = ParamMap(weights=(150.0, 0.8), bias=-64.0, lo=0.11, hi=10.0)
    beta = ParamMap(weights=(70.0, 0.0, 0.1), bias=-28.0, lo=0.13, hi=2.0)
    return alpha, beta


def multilabel_default_maps() -> tuple[ParamMap, ParamMap]:
    alpha = ParamMap(weights=(9.0, 0.6), bias=0.8, lo=0.8, hi=10.0)
    beta = ParamMap(weights=(0.0, 0.0, 0.15), bias=1.1, lo=1.1, hi=1.25)
    return alpha, beta


@dataclass(frozen=True)
class SynthConfig:
    """Shared knobs for all three generators."""

    d: int = 8
    C: int = 16
    n: int = 1000
    seed: int = 0
    alpha_map: ParamMap = field(default_factory=lambda: counting_default_maps()[0])
    beta_map: ParamMap = field(default_factory=lambda: counting_default_maps()[1])
    noise: float = 0.2
    # box-generator knobs
    image_size: float = 200.0
    cell_count: int = 5  # cells per image side; capacity cell_count**2 boxes
    box_size: float = 24.0
    jitter: float = 0.08
    duplicates: int = 3
    fp_rate: float = 0.3
    crowd_frac: float = 0.35

    def __post_init__(self) -> None:
        for want, names, ok in (
                (">= 1", ("d", "C", "n"), lambda v: v >= 1),
                (">= 2", ("cell_count",), lambda v: v >= 2),  # a scene holds cell_count**2 - 2
                (">= 0", ("duplicates",), lambda v: v >= 0),
                ("in [0,1]", ("noise", "crowd_frac"), lambda v: 0.0 <= v <= 1.0),
                ("finite and > 0", ("image_size", "box_size"), lambda v: 0.0 < v < math.inf),
                ("finite and >= 0", ("jitter", "fp_rate"), lambda v: 0.0 <= v < math.inf)):
            for name in names:
                if not ok(getattr(self, name)):
                    raise NumericError(f"{name} must be {want}, got {getattr(self, name)!r}")
        for name, pm in (("alpha_map", self.alpha_map), ("beta_map", self.beta_map)):
            if len(pm.weights) > self.d:
                raise NumericError(
                    f"{name} has {len(pm.weights)} weights, more than d={self.d}")
        if self.box_size * 1.6 > self.image_size / self.cell_count:
            raise NumericError("box_size too large for the placement grid")


@dataclass(frozen=True)
class MultilabelSample:
    features: tuple[float, ...]
    record: EvalRecord
    count: int


@dataclass(frozen=True)
class BoxImage:
    image_id: int
    proposals: tuple[BoxDetection, ...]
    ground_truth: tuple[BoxDetection, ...]

    @property
    def count(self) -> int:
        return len(self.ground_truth)


def _draw_counts(cfg: SynthConfig) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """The seeded generator, after drawing the (n, d) features and their counts."""
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.0, 1.0, size=(cfg.n, cfg.d))
    lam = rng.gamma(shape=cfg.alpha_map(x), scale=1.0 / cfg.beta_map(x))
    return rng, x, rng.poisson(lam)


def counting_arrays(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """(n, d) feature vectors with their Gamma-Poisson counts."""
    return _draw_counts(cfg)[1:]


def gen_counting(cfg: SynthConfig) -> list[TrainingSample]:
    """``counting_arrays`` as one TrainingSample per row."""
    x, m = counting_arrays(cfg)
    return [TrainingSample(features=tuple(f), count=c) for f, c in zip(x.tolist(), m.tolist())]


def multilabel_arrays(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray, list[list[int]], int]:
    """(n, d) features, (n, C) noisy scores and the sorted true labels of
    label sets whose sizes follow the Gamma-Poisson law, and the number of
    sizes drawn above C, which are clamped to C.

    True labels score near 1, false labels near 0; additive uniform noise
    of amplitude ``cfg.noise`` is applied and clipped back to [0,1].  Each
    record draws its labels, then its C noise draws, made uniform in one block.
    """
    rng, x, m = _draw_counts(cfg)
    k = np.minimum(m, cfg.C)
    labels: list[list[int]] = []
    u = np.empty((cfg.n, cfg.C))
    for i, size in enumerate(k.tolist()):
        labels.append(sorted(rng.choice(cfg.C, size=size, replace=False).tolist()) if size else [])
        rng.random(out=u[i])
    truth = _mask([v for t in labels for v in t], np.repeat(np.arange(cfg.n), k), u.shape)
    scores = np.clip(truth + cfg.noise * _uniform(-1.0, 1.0, u), 0.0, 1.0)
    return x, scores, labels, int(np.sum(m > cfg.C))


def gen_multilabel(cfg: SynthConfig) -> list[MultilabelSample]:
    """``multilabel_arrays`` as one MultilabelSample per row."""
    x, scores, labels, _ = multilabel_arrays(cfg)
    return [MultilabelSample(features=tuple(f), count=len(t),
                             record=EvalRecord(scores=tuple(s), truth=LabelSet(labels=tuple(t))))
            for f, s, t in zip(x.tolist(), scores.tolist(), labels)]


def _uniform(lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    """What ``rng.uniform(lo, hi)`` draws in place of each ``rng.random()``
    draw in ``u``, bit for bit; for a non-empty ``u``, numpy's error when the
    range is not finite or is negative."""
    span = hi - lo
    if u.size and not 0.0 <= span < math.inf:
        raise (OverflowError("high - low range exceeds valid bounds")
               if not math.isfinite(span) else ValueError("high - low < 0"))
    return lo + span * u


def _checked(table: np.ndarray) -> np.ndarray:
    """``table``, or BoxDetection's error for the first row it rejects."""
    for i in BoxDetection.rejected_rows(table)[:1]:
        BoxDetection(*table[i].tolist())
    return table


def _in_cells(cfg: SynthConfig, cells: np.ndarray, u: np.ndarray, score) -> np.ndarray:
    """box_size squares in grid ``cells``, offset by draws ``u[:, :2]``, scored ``score``."""
    cell = cfg.image_size / cfg.cell_count
    corner = np.column_stack([cells % cfg.cell_count, cells // cfg.cell_count]) * cell
    x1y1 = corner + _uniform(0.0, cell - 1.35 * cfg.box_size, u[:, :2])
    return np.column_stack([x1y1, x1y1 + cfg.box_size, np.broadcast_to(score, len(u))])


@np.errstate(over="ignore")
def _jittered(gts: np.ndarray, scale: float, lo: float, hi: float, v: np.ndarray) -> np.ndarray:
    """The (g, s, 5) proposals around ground truths ``gts``, s per box, from
    (g, s, 3) draws ``v``: a score in [lo, hi), then a shift of each corner by
    up to ``scale`` times the box's width and height.  A shift beyond the float
    range is left infinite for the box check to report, without a warning."""
    shift = _uniform(-scale, scale, v[..., 1:]) * (gts[:, 2:4] - gts[:, :2])[:, None]
    return np.concatenate([gts[:, None, :4] + np.tile(shift, 2),
                           _uniform(lo, hi, v[..., :1])], axis=2)


def box_tables(cfg: SynthConfig) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Overcomplete proposal clouds around planted ground-truth boxes: each
    image's proposal and ground-truth tables (x1, y1, x2, y2, score rows;
    score 1.0 for a ground truth), and the number of images whose count was
    clamped to the cell_count**2 - 2 boxes a scene holds.

    Ground truths occupy distinct grid cells (pairwise disjoint); a
    fraction ``crowd_frac`` of them receives a closely overlapping partner
    (IoU about 0.5), the failure mode a fixed low NMS threshold merges.
    Each ground truth emits one high-score proposal plus ``duplicates``
    jittered copies; background false positives land in free cells with
    low scores.  An image draws its cells, a block of their offsets and
    crowd flags, a block of its proposals' scores and shifts, its number of
    false positives and a block of theirs.  The first row BoxDetection
    rejects, ground truths before proposals, raises its error.
    """
    rng, _, counts = _draw_counts(cfg)
    n_cells = cfg.cell_count * cfg.cell_count
    copies = 1 + cfg.duplicates
    proposals, gts = [], []
    for count in counts.tolist():
        k = min(count, n_cells - 2)
        cells = rng.choice(n_cells, size=k, replace=False) if k else np.empty(0, int)
        u = rng.random(3 * k).reshape(k, 3)
        crowd = u[:, 2] < cfg.crowd_frac
        # Partner shifted ~35% of the width: IoU ~ 0.48 with its mate.
        gt = np.repeat(_in_cells(cfg, cells, u, 1.0), 1 + crowd, axis=0)
        gt[np.cumsum(1 + crowd)[crowd, None] - 1, [0, 2]] += 0.35 * cfg.box_size
        gts.append(_checked(gt))
        v = rng.random(3 * copies * len(gt)).reshape(len(gt), copies, 3)
        jittered = _checked(np.concatenate([
            _jittered(gt, cfg.jitter, 0.75, 0.95, v[:, :1]),
            _jittered(gt, 2.0 * cfg.jitter, 0.55, 0.75, v[:, 1:])], axis=1).reshape(-1, 5))
        free = np.setdiff1d(np.arange(n_cells), cells, assume_unique=True)
        free = free[:int(rng.poisson(cfg.fp_rate))]
        w = rng.random(3 * len(free)).reshape(-1, 3)
        fps = _checked(_in_cells(cfg, free, w, _uniform(0.05, 0.45, w[:, 2])))
        proposals.append(np.concatenate([jittered, fps]))
    return proposals, gts, int(np.sum(counts > n_cells - 2))


def gen_boxes(cfg: SynthConfig) -> list[BoxImage]:
    """``box_tables`` as one BoxImage of BoxDetections per image."""
    proposals, gts, _ = box_tables(cfg)
    return [BoxImage(image_id=i, proposals=tuple(BoxDetection(*r) for r in p.tolist()),
                     ground_truth=tuple(BoxDetection(*r) for r in g.tolist()))
            for i, (p, g) in enumerate(zip(proposals, gts))]
