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

The head is a map of (..., 2) tables, one (z_alpha, z_beta) row of
unconstrained pre-activations per sample: with s = sigmoid(z), a pair of
weighted sigmoids gives the strictly positive

    (alpha, beta) = floor + ((alpha_max, beta_max) - floor) * s,

so the weights bound the reachable range.  ``head_forward`` returns s with
(alpha, beta), and ``head_backward`` takes that s, not z, to chain
(d_alpha, d_beta) back onto the table.

The loss and the sigmoid work elementwise on arrays (one entry per sample);
``card_nll`` and ``card_grad`` wrap the loss for one sample.  ``AlphaBeta``
and ``head_forward`` reject an alpha or beta that is not finite and > 0
with the positivity check of ``numerics``.

The loss has two halves: ``_nll``, the value, from one ``log_gamma`` call,
and ``_nll_grad``, the gradient, from one ``digamma`` call.  ``card_nll_grad``
is both; training takes the gradient per batch and the value once per epoch.
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
    beta=b, elementwise; NumericError if a gradient is not finite.

    The count check comes first, then ``_nll``'s check, then ``_nll_grad``'s.
    """
    m = _check_count(m, column=True)
    return (_nll(m, a, b), *_nll_grad(m, a, b))


def _nll(m, a, b):
    """The nll of checked counts m under valid (a, b), elementwise, from one
    ``log_gamma`` call on the stacked (m+a, m+1, a)."""
    m_a = m + a
    x = np.empty((3, *np.shape(m_a)))
    x[0], x[1], x[2] = m_a, m + 1.0, a
    lg_m_a, lg_m_1, lg_a = log_gamma(x)
    return -(lg_m_a - lg_m_1 - lg_a + a * np.log(b) - (a + m) * np.log1p(b))


def _nll_grad(m, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(d nll/d alpha, d nll/d beta) of checked counts m under valid (a, b),
    elementwise, from one ``digamma`` call on the stacked (m+a, a);
    NumericError if a gradient is not finite."""
    m_a = m + a
    x = np.empty((2, *np.shape(m_a)))
    x[0], x[1] = m_a, a
    dg_m_a, dg_a = digamma(x)
    d_alpha = -(dg_m_a - dg_a + np.log(b) - np.log1p(b))
    d_beta = -(a - m * b) / (b * (1.0 + b))
    if not (np.isfinite(d_alpha).all() and np.isfinite(d_beta).all()):
        raise NumericError("gradients must be finite")
    return d_alpha, d_beta


def card_nll(m: int, ab: AlphaBeta) -> float:
    """Negative log NB likelihood of count m under (alpha, beta)."""
    return float(card_nll_grad(_check_count(m), ab.alpha, ab.beta)[0])


def card_grad(m: int, ab: AlphaBeta) -> LossGrad:
    """Analytic gradient of ``card_nll`` with respect to (alpha, beta)."""
    return LossGrad(*map(float, card_nll_grad(_check_count(m), ab.alpha, ab.beta)[1:]))


def sigmoid(z) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def _pair(u, v) -> np.ndarray:
    """``u`` and ``v`` broadcast and stacked on a last axis of 2, as floats."""
    out = np.empty(np.broadcast(u, v).shape + (2,))
    out[..., 0], out[..., 1] = u, v
    return out


def _scales(w: HeadWeights) -> np.ndarray:
    """The (alpha, beta) sigmoid weights above the floor."""
    return np.array([w.alpha_max - w.floor, w.beta_max - w.floor])


def head_forward(z, w: HeadWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, beta, s) of the pre-activation table z, as the module states.

    NumericError names the first alpha, else the first beta, that is not
    finite and > 0.
    """
    s = sigmoid(z)
    ab = w.floor + _scales(w) * s
    # Saturation towards the scale is representable; towards the floor the
    # sigmoid may underflow to exactly 0, which a positive floor absorbs.
    try:
        _check_positive(ab, "alpha and beta")
    except NumericError:  # name the column at fault
        _check_positive(ab[..., 0], "alpha"), _check_positive(ab[..., 1], "beta")
    return ab[..., 0][()], ab[..., 1][()], s


def head_backward(s, w: HeadWeights, d_alpha, d_beta) -> np.ndarray:
    """The gradient table w.r.t. z of (d_alpha, d_beta), from the sigmoids s
    that ``head_forward`` returned."""
    return _pair(d_alpha, d_beta) * _scales(w) * s * (1.0 - s)


def regression_loss(m, m_hat) -> tuple[np.ndarray, np.ndarray]:
    """Squared-error baseline, elementwise: (0.5*(m_hat-m)^2, d/dm_hat)."""
    r = np.asarray(m_hat, dtype=float) - _check_count(m, column=True)
    return 0.5 * r * r, r
