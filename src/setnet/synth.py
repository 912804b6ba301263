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

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cardnet import TrainingSample
from .detect import BoxDetection
from .errors import NumericError
from .mlmetrics import EvalRecord, LabelSet

__all__ = [
    "ParamMap",
    "SynthConfig",
    "BoxImage",
    "gen_counting",
    "gen_multilabel",
    "gen_boxes",
    "counting_default_maps",
    "multilabel_default_maps",
]

log = logging.getLogger(__name__)


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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        w = np.zeros(x.shape[-1])
        w[: len(self.weights)] = self.weights
        return np.clip(x @ w + self.bias, self.lo, self.hi)

    @staticmethod
    def from_dict(doc: dict) -> "ParamMap":
        return ParamMap(
            weights=tuple(doc["weights"]),
            bias=float(doc["bias"]),
            lo=float(doc["lo"]),
            hi=float(doc["hi"]),
        )


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
        if min(self.d, self.C, self.n, self.cell_count) < 1:
            raise NumericError("d, C, n and cell_count must all be >= 1")
        for name, pm in (("alpha_map", self.alpha_map), ("beta_map", self.beta_map)):
            if len(pm.weights) > self.d:
                raise NumericError(
                    f"{name} has {len(pm.weights)} weights, more than d={self.d}")
        if not 0.0 <= self.noise <= 1.0:
            raise NumericError(f"noise must lie in [0,1], got {self.noise!r}")
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


def _draw_counts(
    cfg: SynthConfig, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    x = rng.uniform(0.0, 1.0, size=(n, cfg.d))
    alpha = cfg.alpha_map(x)
    beta = cfg.beta_map(x)
    lam = rng.gamma(shape=alpha, scale=1.0 / beta)
    m = rng.poisson(lam)
    return x, m


def gen_counting(cfg: SynthConfig) -> list[TrainingSample]:
    """Feature vectors with Gamma-Poisson counts."""
    rng = np.random.default_rng(cfg.seed)
    x, m = _draw_counts(cfg, rng, cfg.n)
    return [
        TrainingSample(features=tuple(x[i]), count=int(m[i])) for i in range(cfg.n)
    ]


def gen_multilabel(cfg: SynthConfig) -> list[MultilabelSample]:
    """Label sets whose sizes follow the Gamma-Poisson law, plus noisy scores.

    True labels score near 1, false labels near 0; additive uniform noise
    of amplitude ``cfg.noise`` is applied and clipped back to [0,1].
    Cardinalities above C are clamped to C.
    """
    rng = np.random.default_rng(cfg.seed)
    x, m = _draw_counts(cfg, rng, cfg.n)
    clamped = int(np.sum(m > cfg.C))
    if clamped:
        log.debug("gen_multilabel: clamped %d of %d cardinalities to C=%d",
                  clamped, cfg.n, cfg.C)
    out = []
    for i in range(cfg.n):
        k = min(int(m[i]), cfg.C)
        labels = tuple(sorted(rng.choice(cfg.C, size=k, replace=False))) if k else ()
        base = np.zeros(cfg.C)
        base[list(labels)] = 1.0
        scores = base + cfg.noise * rng.uniform(-1.0, 1.0, size=cfg.C)
        np.clip(scores, 0.0, 1.0, out=scores)
        record = EvalRecord(scores=tuple(scores), truth=LabelSet(labels=labels))
        out.append(MultilabelSample(features=tuple(x[i]), record=record, count=k))
    return out


def _jittered(
    box: BoxDetection, scale: float, score: float, rng: np.random.Generator
) -> BoxDetection:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    dx, dy = rng.uniform(-scale, scale, size=2) * (w, h)
    return BoxDetection(
        x1=box.x1 + dx, y1=box.y1 + dy, x2=box.x2 + dx, y2=box.y2 + dy, score=score
    )


def _box_in_cell(
    cfg: SynthConfig, c: int, rng: np.random.Generator, score_range=None
) -> BoxDetection:
    """A box_size square at a random offset in grid cell ``c``; with
    ``score_range``, a score drawn after the offset, else the default."""
    cell = cfg.image_size / cfg.cell_count
    cx = (c % cfg.cell_count) * cell
    cy = (c // cfg.cell_count) * cell
    off = rng.uniform(0.0, cell - 1.35 * cfg.box_size, size=2)
    score = {} if score_range is None else {"score": float(rng.uniform(*score_range))}
    return BoxDetection(
        x1=cx + off[0], y1=cy + off[1],
        x2=cx + off[0] + cfg.box_size, y2=cy + off[1] + cfg.box_size, **score,
    )


def gen_boxes(cfg: SynthConfig) -> list[BoxImage]:
    """Overcomplete proposal clouds around planted ground-truth boxes.

    Ground truths occupy distinct grid cells (pairwise disjoint); a
    fraction ``crowd_frac`` of them receives a closely overlapping partner
    (IoU about 0.5), the failure mode a fixed low NMS threshold merges.
    Each ground truth emits one high-score proposal plus ``duplicates``
    jittered copies; background false positives land in free cells with
    low scores.
    """
    rng = np.random.default_rng(cfg.seed)
    n_cells = cfg.cell_count * cfg.cell_count
    _, counts = _draw_counts(cfg, rng, cfg.n)
    images = []
    for img in range(cfg.n):
        k = min(int(counts[img]), n_cells - 2)
        cells = rng.choice(n_cells, size=k, replace=False) if k else np.empty(0, int)
        free = [c for c in range(n_cells) if c not in set(int(c_) for c_ in cells)]
        gts: list[BoxDetection] = []
        for c in cells:
            base = _box_in_cell(cfg, int(c), rng)
            gts.append(base)
            if rng.uniform() < cfg.crowd_frac:
                # Partner shifted ~35% of the width: IoU ~ 0.48 with its mate.
                shift = 0.35 * cfg.box_size
                gts.append(BoxDetection(
                    x1=base.x1 + shift, y1=base.y1, x2=base.x2 + shift, y2=base.y2,
                ))
        proposals: list[BoxDetection] = []
        for gt in gts:
            proposals.append(_jittered(gt, cfg.jitter, float(rng.uniform(0.75, 0.95)), rng))
            for _ in range(cfg.duplicates):
                proposals.append(
                    _jittered(gt, 2.0 * cfg.jitter, float(rng.uniform(0.55, 0.75)), rng)
                )
        n_fp = int(rng.poisson(cfg.fp_rate))
        proposals += [_box_in_cell(cfg, c, rng, score_range=(0.05, 0.45))
                      for c in free[:n_fp]]
        images.append(BoxImage(
            image_id=img, proposals=tuple(proposals), ground_truth=tuple(gts)
        ))
    return images
