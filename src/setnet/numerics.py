"""Special functions and count-distribution primitives.

Everything here is scalar, pure and log-space stable.  The log-gamma and
digamma routines are self-contained (Lanczos approximation and a
Bernoulli-series asymptotic expansion with recurrence shift) so that the
whole cardinality model depends on one well-tested evaluation path.

Note on the negative binomial mode: near parameter settings where two
adjacent pmf values tie in exact arithmetic (e.g. a=5, b=0.5 ties m=3
against m=4), the winner in floating point depends on the last ulp of the
underlying log-gamma.  ``nb_mode`` resolves such knife edges by comparing
``nb_log_pmf`` values directly, so it agrees exactly with a brute-force
argmax over the same pmf.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import NumericError

__all__ = [
    "NegBinParams",
    "log_gamma",
    "digamma",
    "nb_log_pmf",
    "nb_mode",
    "nb_pmf_truncated",
]

_HALF_LOG_TWO_PI = 0.9189385332046727  # ln(2*pi)/2

# Lanczos approximation, g=7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise NumericError(f"{name} must be a finite positive real, got {x!r}")
    return x


def _check_count(m, name: str = "m") -> int:
    """``m`` as an int.  Python and numpy integers and integral floats pass;
    bools, negatives, fractions and non-numbers raise NumericError."""
    if type(m) is int and m >= 0:  # fast path: the loss calls this per sample
        return m
    if (not isinstance(m, bool) and isinstance(m, numbers.Real)
            and (isinstance(m, numbers.Integral) or float(m).is_integer()) and m >= 0):
        return int(m)
    raise NumericError(f"{name} must be a non-negative integer, got {m!r}")


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial with dispersion ``a`` and success probability ``b``.

    pmf: NB(m; a, b) = Gamma(m+a) / (Gamma(m+1) Gamma(a)) * (1-b)^a * b^m
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_positive(self.a, "a")
        b = float(self.b)
        if not math.isfinite(b) or not 0.0 < b < 1.0:
            raise NumericError(f"b must lie in the open interval (0,1), got {b!r}")


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 via the Lanczos approximation (g=7, n=9).

    For x < 0.5 one recurrence step ln Gamma(x) = ln Gamma(x+1) - ln x
    keeps the series well conditioned.
    """
    x = _check_positive(x, "x")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    s = _LANCZOS_COEF[0]
    for i in range(1, 9):
        s += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(s)


def digamma(x: float) -> float:
    """Psi(x) = d/dx ln Gamma(x) for x > 0.

    Recurrence Psi(x) = Psi(x+1) - 1/x shifts the argument to >= 6, then a
    Bernoulli asymptotic series (through x^-14) is applied; absolute error
    is below 1e-12 over [1e-3, 1e6].
    """
    x = _check_positive(x, "x")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (
                        1.0 / 132.0
                        - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0))
                    )
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def nb_log_pmf(m: int, p: NegBinParams) -> float:
    """ln NB(m; a, b), computed entirely in log space."""
    m = _check_count(m)
    return (
        log_gamma(m + p.a)
        - log_gamma(m + 1.0)
        - log_gamma(p.a)
        + p.a * math.log1p(-p.b)
        + m * math.log(p.b)
    )


def nb_mode(p: NegBinParams) -> int:
    """argmax_m NB(m; a, b); 0 when a <= 1, smaller m on exact ties.

    The closed-form candidate floor((a-1) b / (1-b)) locates the peak; the
    final comparison runs on ``nb_log_pmf`` values so the result matches a
    brute-force argmax of the same pmf bit for bit.
    """
    if p.a <= 1.0:
        return 0
    k = int(math.floor((p.a - 1.0) * p.b / (1.0 - p.b)))
    candidates = sorted({max(0, k - 1), max(0, k), k + 1})
    best_m = candidates[0]
    best_v = nb_log_pmf(best_m, p)
    for m in candidates[1:]:
        v = nb_log_pmf(m, p)
        if v > best_v:
            best_m, best_v = m, v
    return best_m


def nb_pmf_truncated(
    p: NegBinParams, mass: float = 1.0 - 1e-12, cap: int = 10**6
) -> list[float]:
    """pmf values over m = 0..M, M the smallest count with CDF >= ``mass``.

    Truncation is capped at ``cap`` support points.  The returned vector is
    not re-normalised; its deficit is at most 1 - ``mass``.
    """
    if not 0.0 < mass < 1.0:
        raise NumericError(f"mass must lie in (0,1), got {mass!r}")
    pmf: list[float] = []
    total = 0.0
    m = 0
    while total < mass and m <= cap:
        q = math.exp(nb_log_pmf(m, p))
        pmf.append(q)
        total += q
        m += 1
    return pmf
