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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError
from .numerics import NegBinParams, _check_count, digamma, log_gamma

__all__ = [
    "AlphaBeta",
    "HeadWeights",
    "LossGrad",
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
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(v) or v <= 0.0:
                raise NumericError(f"{name} must be finite and > 0, got {v!r}")

    def negbin(self) -> NegBinParams:
        """The marginal count law NB(a=alpha, b=1/(1+beta))."""
        return NegBinParams(a=self.alpha, b=1.0 / (1.0 + self.beta))


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
        if not (self.alpha_max > self.floor and self.beta_max > self.floor):
            raise NumericError(
                "head scales must exceed the floor, got "
                f"alpha_max={self.alpha_max!r} beta_max={self.beta_max!r} floor={self.floor!r}"
            )


@dataclass(frozen=True)
class LossGrad:
    """Gradient of the per-sample loss with respect to (alpha, beta)."""

    d_alpha: float
    d_beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d_alpha) and math.isfinite(self.d_beta)):
            raise NumericError("gradients must be finite")


def card_nll(m: int, ab: AlphaBeta) -> float:
    """Negative log NB likelihood of count m under (alpha, beta)."""
    m = _check_count(m)
    a, b = ab.alpha, ab.beta
    return -(
        log_gamma(m + a)
        - log_gamma(m + 1.0)
        - log_gamma(a)
        + a * math.log(b)
        - (a + m) * math.log1p(b)
    )


def card_grad(m: int, ab: AlphaBeta) -> LossGrad:
    """Analytic gradient of ``card_nll`` with respect to (alpha, beta)."""
    m = _check_count(m)
    a, b = ab.alpha, ab.beta
    d_alpha = -(digamma(m + a) - digamma(a) + math.log(b) - math.log1p(b))
    d_beta = -(a - m * b) / (b * (1.0 + b))
    return LossGrad(d_alpha, d_beta)


def sigmoid(z: float) -> float:
    """Numerically stable logistic function."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def head_forward(z_alpha: float, z_beta: float, w: HeadWeights) -> AlphaBeta:
    """Map pre-activations to strictly positive (alpha, beta).

    alpha = floor + (alpha_max - floor) * sigmoid(z_alpha), same for beta.
    """
    alpha = w.floor + (w.alpha_max - w.floor) * sigmoid(z_alpha)
    beta = w.floor + (w.beta_max - w.floor) * sigmoid(z_beta)
    # Saturation towards the scale is representable; towards the floor the
    # sigmoid may underflow to exactly 0, which the floor absorbs.
    return AlphaBeta(alpha=alpha, beta=beta)


def head_backward(
    z_alpha: float, z_beta: float, w: HeadWeights, g: LossGrad
) -> tuple[float, float]:
    """Chain ``g`` through the weighted sigmoids; gradients w.r.t. (z_alpha, z_beta)."""
    sa = sigmoid(z_alpha)
    sb = sigmoid(z_beta)
    return (
        g.d_alpha * (w.alpha_max - w.floor) * sa * (1.0 - sa),
        g.d_beta * (w.beta_max - w.floor) * sb * (1.0 - sb),
    )


def regression_loss(m: int, m_hat: float) -> tuple[float, float]:
    """Squared-error baseline: (0.5*(m_hat-m)^2, d/dm_hat)."""
    m = _check_count(m)
    r = float(m_hat) - m
    return 0.5 * r * r, r
