"""Special functions, NB primitives and the one count validator, ``_check_count``.

Every kernel here works elementwise on numpy arrays and serves scalar callers
too (a scalar in, a float out); all of it is pure and log-space stable.  The
log-gamma and digamma routines are self-contained (Lanczos approximation and a
Bernoulli-series asymptotic expansion with recurrence shift), so the whole
cardinality model depends on one well-tested evaluation path.

Each call checks its input once and pays numpy's per-operation cost, which at
batch sizes outweighs the arithmetic.  So callers stack their arguments into one
call per kernel, and each kernel runs its series or recurrence as a loop over
whole arrays, in the same per-element order for every shape: the values are
those of separate calls, bit for bit.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "NegBinParams",
    "log_gamma",
    "digamma",
    "nb_log_pmf",
    "nb_mode",
    "nb_mode_batch",
    "nb_pmf_truncated",
]

_HALF_LOG_TWO_PI = 0.9189385332046727  # ln(2*pi)/2
_PMF_MASS = 1.0 - 1e-12  # nb_pmf_truncated stops where the CDF reaches this,
_PMF_CAP = 10**6  # or at this count,
_PMF_CHUNK = 512  # evaluating this many counts per array call.
# Bernoulli terms of the digamma asymptotic series, innermost (x^-14) first.
_DIGAMMA_SERIES = (1.0 / 12.0, 691.0 / 32760.0, 1.0 / 132.0, 1.0 / 240.0,
                   1.0 / 252.0, 1.0 / 120.0, 1.0 / 12.0)

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


def _check_positive(x, name: str):
    """``x`` as a float array, or a numpy float (cheaper than a 0-d array)
    for a scalar; NumericError names its first entry that is not > 0 and finite."""
    x = np.asarray(x, dtype=float)[()]
    ok = (x > 0.0) & (x < np.inf)  # False for nan
    if not (ok.all() if x.ndim else ok):  # a numpy bool's all() costs 2 us
        raise NumericError(
            f"{name} must be finite and > 0, got {float(np.extract(~ok, x)[0])!r}")
    return x


def _check_finite(values, name: str) -> list[float]:
    """``values`` as a list of floats; NumericError unless every one is finite."""
    values = list(map(float, values))
    if not all(map(math.isfinite, values)):
        raise NumericError(f"{name} must be finite")
    return values


def _check_count(m, name: str = "m", column: bool = False):
    """``m`` as an int, or for a ``column`` caller as an int64 array (the
    array itself when it is one) when it is an ndarray of counts.  Python and
    numpy integers and integral floats below 2**63 pass; bools, negatives,
    fractions, lists, non-numbers and, unless ``column``, an ndarray of one or
    more dimensions raise NumericError."""
    if type(m) is int and 0 <= m < 2**63:  # fast path: one record field
        return m
    if isinstance(m, (int, float, np.number, np.ndarray)) and (column or np.ndim(m) == 0):
        arr = np.asarray(m)
        kind = arr.dtype.kind  # as a float, 2**63 - 1 is 2**63: integers compare as integers
        if kind == "i" and arr.min(initial=0) >= 0 or kind == "u" and arr.max(initial=0) < 2**63 \
                or kind == "f" and np.all((arr >= 0) & (arr < 2.0**63) & (arr == np.floor(arr))):
            return int(arr) if arr.ndim == 0 else arr.astype(np.int64, copy=False)
    raise NumericError(f"{name} must be a non-negative integer below 2**63, got {m!r}")


def _check_seed(seed) -> int:
    """``seed`` as an int when numpy's generators take it as a u64: an integer,
    or an integral float, in [0, 2**64); bools and everything else raise
    NumericError.  The one seed rule, of the CLI's configs and of model files."""
    if not isinstance(seed, bool) and (isinstance(seed, int) or isinstance(seed, float)
                                       and seed.is_integer()) and 0 <= seed < 2**64:
        return int(seed)
    raise NumericError("seed must be a non-negative integer below 2**64, "
                       f"got {reprlib.repr(seed)}")


def _check_index_set(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each by ``_check_count``, strictly increasing."""
    values = tuple(_check_count(v, name) for v in values)
    if any(b <= a for a, b in zip(values, values[1:])):
        raise NumericError(f"{name} must be strictly increasing: {values!r}")
    return values


@dataclass(frozen=True)
class NegBinParams:
    """Negative binomial with dispersion ``a`` and success probability ``b``.

    pmf: NB(m; a, b) = Gamma(m+a) / (Gamma(m+1) Gamma(a)) * (1-b)^a * b^m
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_positive(self.a, "a")
        if not 0.0 < float(self.b) < 1.0:  # False for nan
            raise NumericError(f"b must lie in the open interval (0,1), got {float(self.b)!r}")


def log_gamma(x):
    """ln Gamma(x), elementwise for x > 0, via the Lanczos approximation (g=7, n=9).

    Where x < 0.5, one recurrence step ln Gamma(x) = ln Gamma(x+1) - ln x
    keeps the series well conditioned.
    """
    x = _check_positive(x, "x")
    small = x < 0.5
    # Adding a bool adds exactly 1.0 where it is set and 0.0 elsewhere.
    z = (x + small) - 1.0
    s = _LANCZOS_COEF[0]
    for i in range(1, 9):
        s = s + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(s)
    return out - small * np.log(x)


def digamma(x):
    """Psi(x) = d/dx ln Gamma(x), elementwise for x > 0.

    Up to six recurrence steps Psi(x) = Psi(x+1) - 1/x shift the argument to
    >= 6, then a Bernoulli asymptotic series (through x^-14) is applied;
    absolute error is below 1e-12 over [1e-3, 1e6].
    """
    x = _check_positive(x, "x")
    acc = 0.0
    for _ in range(6):
        step = x < 6.0
        acc = acc - step / x
        x = x + step
    inv2 = 1.0 / (x * x)
    series = _DIGAMMA_SERIES[0]
    for c in _DIGAMMA_SERIES[1:]:
        series = c - inv2 * series
    series = inv2 * series
    return acc + np.log(x) - 0.5 / x - series


def _nb_log_pmf(m, a, b):
    """ln NB(m; a, b) for broadcastable arrays of counts and valid (a, b)."""
    return (
        log_gamma(m + a)
        - log_gamma(m + 1.0)
        - log_gamma(a)
        + a * np.log1p(-b)
        + m * np.log(b)
    )


def nb_log_pmf(m: int, p: NegBinParams) -> float:
    """ln NB(m; a, b), computed entirely in log space."""
    return float(_nb_log_pmf(_check_count(m), p.a, p.b))


def nb_mode_batch(a, b) -> np.ndarray:
    """argmax_m NB(m; a, b) for each broadcast (a, b) pair; 0 where a <= 1.

    k = floor((a-1) b / (1-b)) locates the peak; the first maximum of the
    log-pmf over {k-1, k, k+1} (clipped at 0) wins, so the smaller m wins
    exact ties and a brute-force argmax of the same pmf agrees bit for bit.
    That holds on knife edges too: where two adjacent pmf values tie in exact
    arithmetic (a=5, b=0.5 ties m=3 against m=4), the winner in floating
    point depends on the last ulp of the log-gamma.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # Where a <= 1 the answer is 0; k = 0 there only keeps the candidates valid.
    k = np.floor(np.maximum(a - 1.0, 0.0) * b / (1.0 - b))
    candidates = np.maximum(k[..., None] + (-1.0, 0.0, 1.0), 0.0)
    values = _nb_log_pmf(candidates, a[..., None], b[..., None])
    best = np.maximum(k + (values.argmax(axis=-1) - 1.0), 0.0)  # the winning candidate
    return np.where(a <= 1.0, 0, best).astype(np.int64)


def nb_mode(p: NegBinParams) -> int:
    """argmax_m NB(m; a, b); 0 when a <= 1, smaller m on exact ties."""
    return int(nb_mode_batch(p.a, p.b))


def nb_pmf_truncated(p: NegBinParams) -> list[float]:
    """pmf values over m = 0..M, M the smallest count with CDF >= ``_PMF_MASS``.
    The vector is not re-normalised; its deficit is at most 1 - ``_PMF_MASS``.
    NumericError if M would exceed ``_PMF_CAP``.  The support is evaluated in
    chunks of counts; the CDF still adds one term at a time.  Where ``a`` is so
    large that ln Gamma overflows, the pmf is NaN and no CDF reaches the mass,
    so such a law ends at the cap too, without a warning, once its CDF is NaN.
    """
    pmf: list[float] = []
    total = 0.0
    for start in range(0, _PMF_CAP + 1, _PMF_CHUNK):
        m = np.arange(start, min(start + _PMF_CHUNK, _PMF_CAP + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.exp(_nb_log_pmf(m, p.a, p.b))
        cdf = np.cumsum(np.concatenate(([total], q)))[1:]
        reached = np.flatnonzero(cdf >= _PMF_MASS)
        if reached.size:
            return pmf + q[: reached[0] + 1].tolist()
        pmf += q.tolist()
        total = cdf[-1]
        if math.isnan(total):  # a NaN CDF never reaches the mass
            break
    raise NumericError(f"NB law a={p.a!r}, b={p.b!r} has more than {1.0 - _PMF_MASS:.0e} "
                       f"of its mass beyond the pmf cap of {_PMF_CAP} counts")
