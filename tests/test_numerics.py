"""Special functions and count distributions against independent oracles.

High-precision reference values were frozen from 50-digit arithmetic;
sweeps compare against scipy.special as an independent implementation.
"""

import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sstats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from setnet import (
    AlphaBeta,
    NegBinParams,
    NumericError,
    TrainingSample,
    card_grad,
    card_nll,
    card_nll_grad,
    digamma,
    log_gamma,
    nb_log_pmf,
    nb_mode,
    nb_mode_batch,
    nb_pmf_truncated,
    regression_loss,
)
from setnet.numerics import (
    _DIGAMMA_SERIES,
    _HALF_LOG_TWO_PI,
    _LANCZOS_COEF,
    _LANCZOS_G,
    _check_count,
    _nb_log_pmf,
)

# ln Gamma(0.5) = 0.5 * ln(pi), 50-digit reference rounded to double.
LGAMMA_HALF = 0.5723649429247001
# Psi(1) = -Euler-Mascheroni, Psi(5) = Psi(1) + 1 + 1/2 + 1/3 + 1/4.
DIGAMMA_1 = -0.5772156649015329
DIGAMMA_5 = 1.5061176684318005


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
        assert log_gamma(0.5) == pytest.approx(LGAMMA_HALF, abs=1e-13)

    def test_absolute_error_small_arguments(self):
        # 1e-12 absolute accuracy is promised where ln Gamma is small enough
        # for doubles to carry it; [1e-3, 100] stays well inside that zone.
        rng = np.random.default_rng(0)
        xs = np.concatenate([10 ** rng.uniform(-3, 2, 2000), [1e-3, 100.0]])
        ref = sps.gammaln(xs)
        got = np.array([log_gamma(float(x)) for x in xs])
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_full_range_mixed_tolerance(self):
        # Above |ln Gamma| ~ 1e3 a double cannot express 1e-12 absolutely;
        # there the error must stay within a few ulps of the value.
        rng = np.random.default_rng(1)
        xs = np.concatenate([10 ** rng.uniform(-3, 6, 3000), [1e6]])
        ref = sps.gammaln(xs)
        err = np.abs(np.array([log_gamma(float(x)) for x in xs]) - ref)
        assert np.all(err <= np.maximum(1e-12, 1e-13 * np.abs(ref)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(NumericError):
            log_gamma(bad)


class TestDigamma:
    def test_known_values(self):
        assert digamma(1.0) == pytest.approx(DIGAMMA_1, abs=1e-12)
        assert digamma(5.0) == pytest.approx(DIGAMMA_5, abs=1e-12)
        assert digamma(5.0) == pytest.approx(
            DIGAMMA_1 + 1.0 + 0.5 + 1.0 / 3.0 + 0.25, abs=1e-12
        )

    def test_recurrence(self):
        rng = np.random.default_rng(2)
        for x in 10 ** rng.uniform(-3, 3, 2000):
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([10 ** rng.uniform(-3, 6, 3000), [1e-3, 1e6]])
        got = np.array([digamma(float(x)) for x in xs])
        assert np.max(np.abs(got - sps.digamma(xs))) < 1e-10

    @pytest.mark.parametrize("bad", [0.0, -2.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(NumericError):
            digamma(bad)


class TestNegBin:
    def test_m0_collapses(self):
        p = NegBinParams(a=3.7, b=0.42)
        assert nb_log_pmf(0, p) == pytest.approx(3.7 * math.log1p(-0.42), abs=1e-14)

    def test_geometric_case(self):
        # a=1 is geometric: pmf(m) = (1-b) b^m; frozen from exact arithmetic.
        assert nb_log_pmf(2, NegBinParams(a=1.0, b=0.25)) == pytest.approx(
            -3.0602707946915624, abs=1e-12
        )
        assert nb_log_pmf(2, NegBinParams(a=1.0, b=0.25)) == pytest.approx(
            math.log(0.75 * 0.25 ** 2), abs=1e-12
        )

    @pytest.mark.parametrize("a,b", [(5.0, 0.5), (0.7, 0.9), (1.0, 0.25),
                                     (80.0, 0.05), (150.0, 0.95)])
    def test_normalisation(self, a, b):
        pmf = nb_pmf_truncated(NegBinParams(a=a, b=b))
        assert abs(sum(pmf) - 1.0) <= 1e-9

    @pytest.mark.parametrize("a", [1e306, 1e308])
    def test_law_whose_log_gamma_overflows_ends_at_the_cap_without_a_warning(self, a):
        # ln Gamma(a) overflows and the pmf is NaN; the RuntimeWarnings of that
        # evaluation are errors under the test settings.
        with pytest.raises(NumericError, match="beyond the pmf cap of 1000000 counts"):
            nb_pmf_truncated(NegBinParams(a=a, b=0.5))

    def test_matches_scipy(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = float(10 ** rng.uniform(-1, 2))
            b = float(rng.uniform(0.02, 0.98))
            m = int(rng.integers(0, 50))
            ref = sstats.nbinom.logpmf(m, a, 1.0 - b)
            assert nb_log_pmf(m, NegBinParams(a=a, b=b)) == pytest.approx(
                ref, abs=1e-10
            )

    def test_invalid_params(self):
        with pytest.raises(NumericError):
            NegBinParams(a=0.0, b=0.5)
        with pytest.raises(NumericError):
            NegBinParams(a=1.0, b=1.0)
        with pytest.raises(NumericError):
            NegBinParams(a=1.0, b=0.0)
        with pytest.raises(NumericError):
            nb_log_pmf(-1, NegBinParams(a=1.0, b=0.5))
        with pytest.raises(NumericError):
            nb_log_pmf(1.5, NegBinParams(a=1.0, b=0.5))


def brute_force_mode(p: NegBinParams, m_max: int = 10**4) -> int:
    """Exhaustive argmax of the NB log-pmf over 0..m_max, from one array call
    of the kernel behind nb_log_pmf; the first maximum wins on ties."""
    return int(np.argmax(_nb_log_pmf(np.arange(m_max + 1.0), p.a, p.b)))


class TestNbMode:
    def test_geometric_is_zero(self):
        assert nb_mode(NegBinParams(a=1.0, b=0.9)) == 0

    def test_small_a_is_zero(self):
        p = NegBinParams(a=0.7, b=0.9)
        assert nb_mode(p) == 0
        assert brute_force_mode(p, 2000) == 0

    def test_knife_edge_case(self):
        # (a-1) b / (1-b) = 4 exactly: pmf(3) and pmf(4) tie in exact
        # arithmetic; in floating point pmf(4) lands a hair higher and the
        # brute-force argmax picks 4.
        p = NegBinParams(a=5.0, b=0.5)
        assert brute_force_mode(p, 100) == 4
        assert nb_mode(p) == 4

    def test_matches_brute_force_randomised(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            p = NegBinParams(
                a=float(10 ** rng.uniform(-1.0, 2.0)),
                b=float(rng.uniform(0.05, 0.95)),
            )
            assert nb_mode(p) == brute_force_mode(p, 4000)


class TestNbMean:
    def test_closed_form_vs_truncated_sum(self):
        for a, b in [(5.0, 0.5), (1.0, 0.5), (12.0, 0.8), (0.4, 0.3)]:
            p = NegBinParams(a=a, b=b)
            pmf = nb_pmf_truncated(p)
            series = sum(m * q for m, q in enumerate(pmf))
            assert a * b / (1.0 - b) == pytest.approx(series, rel=1e-6)


class TestPoissonGamma:
    def test_gamma_poisson_compound_is_negbin(self):
        # Conjugacy: lambda ~ Gamma(alpha, beta), m ~ Poisson(lambda) has the
        # marginal NB(alpha, 1/(1+beta)); checked in total variation.
        rng = np.random.default_rng(8)
        alpha, beta = 3.0, 1.5
        n = 10**6
        lam = rng.gamma(shape=alpha, scale=1.0 / beta, size=n)
        m = rng.poisson(lam)
        p = NegBinParams(a=alpha, b=1.0 / (1.0 + beta))
        hi = int(m.max()) + 1
        counts = np.bincount(m, minlength=hi) / n
        exact = np.array([math.exp(nb_log_pmf(k, p)) for k in range(hi)])
        tv = 0.5 * np.abs(counts - exact).sum() + 0.5 * (1.0 - exact.sum())
        assert tv < 0.01


# Every caller of the one count validator, as a function of the count.
COUNT_CALLERS = {
    "nb_log_pmf": lambda m: nb_log_pmf(m, NegBinParams(a=2.0, b=0.5)),
    "card_nll": lambda m: card_nll(m, AlphaBeta(alpha=2.0, beta=1.0)),
    "card_grad": lambda m: card_grad(m, AlphaBeta(alpha=2.0, beta=1.0)),
    "regression_loss": lambda m: regression_loss(m, 1.5),
    "TrainingSample": lambda m: TrainingSample(features=(0.0,), count=m).count,
}


class TestCountValidator:
    @pytest.mark.parametrize("caller", sorted(COUNT_CALLERS))
    @pytest.mark.parametrize("m", [3, 3.0, np.int64(3)], ids=repr)
    def test_accepts_integral_counts(self, caller, m):
        call = COUNT_CALLERS[caller]
        assert call(m) == call(3)

    @pytest.mark.parametrize("caller", sorted(COUNT_CALLERS))
    @pytest.mark.parametrize("m", [True, 2.5, -1, "3"], ids=repr)
    def test_rejects_non_counts(self, caller, m):
        with pytest.raises(NumericError):
            COUNT_CALLERS[caller](m)

    def test_count_columns(self):
        # For a column caller, an int64 column is returned as it is, without a copy.
        counts = np.array([0, 3, 2**62])
        assert _check_count(counts, column=True) is counts
        for good, want in [(np.array([1.0, 2.0]), [1, 2]),
                           (np.array([4, 5], dtype=np.int32), [4, 5]),
                           (np.array([7], dtype=np.uint64), [7])]:
            got = _check_count(good, column=True)
            assert got.dtype == np.int64 and got.tolist() == want
        for bad, column in [(np.array([1, -1]), True), (np.array([2**63], dtype=np.uint64), True),
                            (np.array([1.5]), True), (np.array([True]), True),
                            (counts, False), (np.array([[1, 2]]), False)]:
            with pytest.raises(NumericError, match=r"^m must be a non-negative integer below "
                                                   r"2\*\*63, got array\("):
                _check_count(bad, column=column)

    # 2**63 - 1 is the largest count.  As a float it rounds up to 2**63, so
    # integer inputs are compared as integers, whatever their numpy type.
    @pytest.mark.parametrize("top", [2**63 - 1, np.int64(2**63 - 1), np.uint64(2**63 - 1),
                                     np.array(2**63 - 1, dtype=np.uint64)], ids=repr)
    def test_largest_count_passes(self, top):
        assert _check_count(top) == 2**63 - 1 and type(_check_count(top)) is int

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_largest_count_column_passes(self, dtype):
        got = _check_count(np.array([0, 2**63 - 1], dtype=dtype), column=True)
        assert got.dtype == np.int64 and got.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("over", [2**63, np.uint64(2**63), np.array([2**63], dtype=np.uint64),
                                      np.uint64(2**64 - 1), 2.0**63], ids=repr)
    def test_first_count_past_the_largest_fails(self, over):
        with pytest.raises(NumericError) as err:
            _check_count(over)
        assert str(err.value) == f"m must be a non-negative integer below 2**63, got {over!r}"


# The kernels' own loop forms, kept here as references: a kernel must give
# these bits on every input, whatever its shape.
def loop_log_gamma(x):
    x = np.asarray(x, dtype=float)[()]
    small = x < 0.5
    z = (x + small) - 1.0
    s = _LANCZOS_COEF[0]
    for i in range(1, 9):
        s = s + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(s)
    return out - small * np.log(x)


def loop_digamma(x):
    x = np.asarray(x, dtype=float)[()]
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


def loop_card_nll_grad(m, a, b):
    log_b, log1p_b = np.log(b), np.log1p(b)
    nll = -(loop_log_gamma(m + a) - loop_log_gamma(m + 1.0) - loop_log_gamma(a)
            + a * log_b - (a + m) * log1p_b)
    d_alpha = -(loop_digamma(m + a) - loop_digamma(a) + log_b - log1p_b)
    d_beta = -(a - m * b) / (b * (1.0 + b))
    return nll, d_alpha, d_beta


def loop_nb_mode_batch(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    k = np.floor(np.maximum(a - 1.0, 0.0) * b / (1.0 - b))
    candidates = np.stack([np.maximum(k - 1.0, 0.0), k, k + 1.0], axis=-1)
    values = _nb_log_pmf(candidates, a[..., None], b[..., None])
    best = np.take_along_axis(candidates, values.argmax(axis=-1)[..., None], axis=-1)
    return np.where(a <= 1.0, 0, best[..., 0]).astype(np.int64)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


STACKED = settings(max_examples=300, deadline=None, derandomize=True, database=None)
EDGES = [0.5, np.nextafter(0.5, 0.0), 6.0, np.nextafter(6.0, 0.0), 5.0, 1.0,
         np.nextafter(1.0, 0.0), 1e-300, 1e300]
# Floats with every mantissa bit drawn, in [2**-30, 8): the shift steps of
# digamma round where they cross a power of two, which simple floats do not show.
MANTISSAS = st.builds(lambda m, e: math.ldexp(1.0 + m / 2**52, e),
                      st.integers(0, 2**52 - 1), st.integers(-30, 2))
POSITIVE = st.floats(1e-300, 1e300) | st.sampled_from(EDGES) | st.floats(1e-3, 8.0) | MANTISSAS
SHAPES = st.integers(1, 20).flatmap(
    lambda n: st.sampled_from([(), (1,), (2,), (3, n), (n, 3)]))


def positive_arrays(shape):
    return hnp.arrays(float, shape, elements=POSITIVE)


class TestStackedKernels:
    @STACKED
    @given(SHAPES.flatmap(positive_arrays))
    @example(np.array(EDGES))
    @example(np.float64(6.0))
    def test_kernels_equal_their_loop_forms(self, x):
        with np.errstate(over="ignore"):  # x * x overflows past 1e154
            for kernel, loop in ((log_gamma, loop_log_gamma), (digamma, loop_digamma)):
                got = kernel(x)
                assert same_bits(got, loop(x))
                assert type(got) is type(loop(x))  # a numpy float for a 0-d input
                if np.ndim(x) == 2:
                    assert same_bits(kernel(x.T), loop(x.T))  # strided rows

    def test_large_arrays_keep_the_loop_forms_bits(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([np.ldexp(1.0 + rng.integers(0, 2**52, 6000) / 2**52,
                                     rng.integers(-30, 3, 6000)),
                            np.exp(rng.uniform(np.log(1e-300), np.log(1e300), 3000)), EDGES])
        with np.errstate(over="ignore"):
            for shape in [(x.size,), (3, x.size // 3)]:
                v = x[: np.prod(shape)].reshape(shape)
                assert same_bits(log_gamma(v), loop_log_gamma(v))
                assert same_bits(digamma(v), loop_digamma(v))

    @STACKED
    @given(SHAPES.flatmap(lambda shape: st.tuples(
        hnp.arrays(np.int64, shape, elements=st.integers(0, 10**6)),
        positive_arrays(shape), positive_arrays(shape))))
    def test_card_nll_grad_equals_its_loop_form(self, args):
        m, a, b = args
        with np.errstate(all="ignore"):
            want = loop_card_nll_grad(m, a, b)
            if not (np.isfinite(want[1]).all() and np.isfinite(want[2]).all()):
                with pytest.raises(NumericError, match="^gradients must be finite$"):
                    card_nll_grad(m, a, b)
                return
            got = card_nll_grad(m, a, b)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    @STACKED
    @given(SHAPES.flatmap(lambda shape: st.tuples(
        hnp.arrays(float, shape, elements=st.floats(1e-3, 1e3) | st.sampled_from([1.0, 5.0])),
        hnp.arrays(float, shape, elements=st.floats(1e-3, 0.999) | st.just(0.5)))))
    def test_nb_mode_batch_equals_its_candidate_table_form(self, args):
        a, b = args
        assert same_bits(nb_mode_batch(a, b), loop_nb_mode_batch(a, b))
        assert same_bits(nb_mode_batch(a, 0.5), loop_nb_mode_batch(a, 0.5))  # broadcast
