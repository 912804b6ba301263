"""Set-MAP selection and random-finite-set sampling.

Sequential set-MAP inference has two stages: the mode m* of the predicted
cardinality distribution first (``numerics.nb_mode_batch``, which
``cardnet.predict_batch`` runs on a feature matrix), then the m* elements
with the highest probabilities (``map_set``; the joint density of i.i.d.
elements is maximised element-wise).  ``map_set`` rejects an m* above the
number of elements; ``mlmetrics.predicted_k_eval`` selects for a whole
record set and clips each m* to C.  The sampler draws a cardinality from
an explicit pmf and then that many i.i.d. element values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .mlmetrics import top_k_labels
from .numerics import _check_index_set

__all__ = [
    "ScoredElements",
    "PredictedSet",
    "CardinalityPMF",
    "map_set",
    "sample_rfs_with",
]


@dataclass(frozen=True)
class ScoredElements:
    """Per-element probabilities supplied by an external scorer."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        for p in probs:
            if not math.isfinite(p) or not 0.0 <= p <= 1.0:
                raise NumericError(f"element probability out of [0,1]: {p!r}")
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class PredictedSet:
    """Strictly increasing element indices, counts by ``_check_count``; m = ``len(indices)``."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", _check_index_set(self.indices, "indices"))


@dataclass(frozen=True)
class CardinalityPMF:
    """Discrete law over set sizes m = 0..M_max; must sum to 1 within 1e-9."""

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        pmf = tuple(float(p) for p in self.pmf)
        if not pmf:
            raise NumericError("pmf must have at least one entry")
        if any(p < 0.0 or not math.isfinite(p) for p in pmf):
            raise NumericError("pmf entries must be finite and >= 0")
        if abs(sum(pmf) - 1.0) > 1e-9:
            raise NumericError(f"pmf must sum to 1 within 1e-9, got {sum(pmf)!r}")
        object.__setattr__(self, "pmf", pmf)


def map_set(scores: ScoredElements, m_star: int) -> PredictedSet:
    """Indices of the m_star highest probabilities; ties go to lower index."""
    return PredictedSet(indices=top_k_labels(scores.probs, m_star).labels)


def sample_rfs_with(
    card: CardinalityPMF,
    element_sampler: Callable[[np.random.Generator], object],
    rng: np.random.Generator,
) -> list:
    """Draw one set from ``rng``: m ~ card, then m i.i.d. element values.

    Returns the draws as a list (a multiset): duplicates produced by
    discrete element laws are preserved; deduplication is caller policy.
    """
    pmf = np.asarray(card.pmf)
    m = int(rng.choice(len(pmf), p=pmf / pmf.sum()))
    return [element_sampler(rng) for _ in range(m)]
