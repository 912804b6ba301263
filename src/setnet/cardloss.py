"""Cardinality loss, analytic gradients and the positive output heads.

The loss is the negative log likelihood of a count m under the negative
binomial obtained by marginalising a Gamma(alpha, beta) prior over a
Poisson rate:

    nll(m; alpha, beta) = -[ ln G(m+alpha) - ln G(m+1) - ln G(alpha)
                             + alpha ln beta - (alpha+m) ln(1+beta) ]

which equals -ln NB(m; a=alpha, b=1/(1+beta)).  Its partial derivatives
(of the negated, i.e. minimised, objective) are

    d nll / d alpha = -( Psi(m+alpha) - Psi(alpha) + ln(beta/(1+beta)) )
    d nll / d beta  = -( alpha - m beta ) / ( beta (1+beta) )

A pair of weighted sigmoids maps unconstrained pre-activations onto
strictly positive (alpha, beta); the weights bound the reachable range.

The loss, the sigmoid and the heads work elementwise on arrays (one entry
per sample); ``card_nll`` and ``card_grad`` wrap the loss for one sample.
``AlphaBeta`` and the heads reject an alpha or beta that is not finite and
> 0 with the positivity check of ``numerics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .numerics import _check_count, _check_positive, digamma, log_gamma

__all__ = [
    "AlphaBeta",
    "HeadWeights",
    "LossGrad",
    "card_nll_grad",
    "card_nll",
    "card_grad",
    "head_forward",
    "head_backward",
    "regression_loss",
    "sigmoid",
]


@dataclass(frozen=True)
class AlphaBeta:
    """Per-input Gamma hyperparameters predicted by the cardinality head."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_positive(self.alpha, "alpha")
        _check_positive(self.beta, "beta")


@dataclass(frozen=True)
class HeadWeights:
    """Scales of the two weighted sigmoids plus a positivity floor.

    Defaults follow the reference configuration (alpha scale 160, beta
    scale 20); the floor keeps outputs strictly positive even when the
    sigmoid saturates to 0 in floating point.
    """

    alpha_max: float = 160.0
    beta_max: float = 20.0
    floor: float = 1e-6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.floor) and self.floor >= 0.0):
            raise NumericError(f"floor must be >= 0, got {self.floor!r}")
        if not (self.floor < self.alpha_max < math.inf and self.floor < self.beta_max < math.inf):
            raise NumericError(
                "head scales must be finite and exceed the floor, got "
                f"alpha_max={self.alpha_max!r} beta_max={self.beta_max!r} floor={self.floor!r}"
            )


@dataclass(frozen=True)
class LossGrad:
    """Finite gradient of the per-sample loss w.r.t. (alpha, beta), from ``card_grad``."""

    d_alpha: float
    d_beta: float


def card_nll_grad(m, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nll, d nll/d alpha, d nll/d beta) of counts m under valid alpha=a,
    beta=b, elementwise; NumericError if a gradient is not finite."""
    m = _check_count(m)
    log_b, log1p_b = np.log(b), np.log1p(b)
    nll = -(
        log_gamma(m + a)
        - log_gamma(m + 1.0)
        - log_gamma(a)
        + a * log_b
        - (a + m) * log1p_b
    )
    d_alpha = -(digamma(m + a) - digamma(a) + log_b - log1p_b)
    d_beta = -(a - m * b) / (b * (1.0 + b))
    if not (np.isfinite(d_alpha).all() and np.isfinite(d_beta).all()):
        raise NumericError("gradients must be finite")
    return nll, d_alpha, d_beta


def card_nll(m: int, ab: AlphaBeta) -> float:
    """Negative log NB likelihood of count m under (alpha, beta)."""
    return float(card_nll_grad(m, ab.alpha, ab.beta)[0])


def card_grad(m: int, ab: AlphaBeta) -> LossGrad:
    """Analytic gradient of ``card_nll`` with respect to (alpha, beta)."""
    _, d_alpha, d_beta = card_nll_grad(m, ab.alpha, ab.beta)
    return LossGrad(float(d_alpha), float(d_beta))


def sigmoid(z) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def head_forward(z_alpha, z_beta, w: HeadWeights) -> tuple[np.ndarray, np.ndarray]:
    """Map pre-activation arrays to strictly positive (alpha, beta) arrays.

    alpha = floor + (alpha_max - floor) * sigmoid(z_alpha), same for beta.
    NumericError if an output is not finite and > 0.
    """
    alpha = w.floor + (w.alpha_max - w.floor) * sigmoid(z_alpha)
    beta = w.floor + (w.beta_max - w.floor) * sigmoid(z_beta)
    # Saturation towards the scale is representable; towards the floor the
    # sigmoid may underflow to exactly 0, which a positive floor absorbs.
    return _check_positive(alpha, "alpha"), _check_positive(beta, "beta")


def head_backward(
    z_alpha, z_beta, w: HeadWeights, d_alpha, d_beta
) -> tuple[np.ndarray, np.ndarray]:
    """Chain (d_alpha, d_beta) through the weighted sigmoids; gradients
    w.r.t. (z_alpha, z_beta), elementwise."""
    sa = sigmoid(z_alpha)
    sb = sigmoid(z_beta)
    return (
        d_alpha * (w.alpha_max - w.floor) * sa * (1.0 - sa),
        d_beta * (w.beta_max - w.floor) * sb * (1.0 - sb),
    )


def regression_loss(m, m_hat) -> tuple[np.ndarray, np.ndarray]:
    """Squared-error baseline, elementwise: (0.5*(m_hat-m)^2, d/dm_hat)."""
    r = np.asarray(m_hat, dtype=float) - _check_count(m)
    return 0.5 * r * r, r
