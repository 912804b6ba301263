"""Cardinality NLL, analytic gradients and the weighted-sigmoid heads."""

import math

import numpy as np
import pytest

from setnet import (
    AlphaBeta,
    HeadWeights,
    NegBinParams,
    NumericError,
    card_grad,
    card_nll,
    card_nll_grad,
    digamma,
    head_backward,
    head_forward,
    init_model,
    log_gamma,
    loss_and_grads,
    nb_log_pmf,
    regression_loss,
)

# d_alpha at (m=3, alpha=2, beta=1): -(Psi(5) - Psi(2) + ln(1/2))
#   = -(1/2 + 1/3 + 1/4 - ln 2) = -(13/12 - ln 2).
D_ALPHA_3_2_1 = -0.390186152773388


def random_triples(n, seed, alpha_range=(0.5, 150.0), beta_range=(0.1, 19.0),
                   m_max=50):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (
            int(rng.integers(0, m_max + 1)),
            float(rng.uniform(*alpha_range)),
            float(rng.uniform(*beta_range)),
        )


class TestCardNll:
    def test_zero_count(self):
        assert card_nll(0, AlphaBeta(alpha=2.0, beta=1.0)) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-14
        )

    def test_direct_five_term_evaluation(self):
        m, a, b = 3, 2.0, 1.0
        expected = -(
            math.lgamma(m + a) - math.lgamma(m + 1) - math.lgamma(a)
            + a * math.log(b) - (a + m) * math.log(1.0 + b)
        )
        assert card_nll(m, AlphaBeta(a, b)) == pytest.approx(expected, abs=1e-12)

    def test_equals_negated_nb_log_pmf(self):
        for m, a, b in random_triples(1000, seed=10):
            nll = card_nll(m, AlphaBeta(alpha=a, beta=b))
            ref = -nb_log_pmf(m, NegBinParams(a=a, b=1.0 / (1.0 + b)))
            assert nll == pytest.approx(ref, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(NumericError):
            AlphaBeta(alpha=0.0, beta=1.0)
        with pytest.raises(NumericError):
            AlphaBeta(alpha=1.0, beta=float("inf"))
        with pytest.raises(NumericError):
            card_nll(-1, AlphaBeta(1.0, 1.0))


def fd_grad(m, a, b, h=1e-6):
    """Central finite differences of card_nll in (alpha, beta)."""
    ha = h * max(1.0, abs(a))
    hb = h * max(1.0, abs(b))
    da = (card_nll(m, AlphaBeta(a + ha, b)) - card_nll(m, AlphaBeta(a - ha, b))) / (2 * ha)
    db = (card_nll(m, AlphaBeta(a, b + hb)) - card_nll(m, AlphaBeta(a, b - hb))) / (2 * hb)
    return da, db


class TestCardGrad:
    def test_zero_count_alpha_gradient(self):
        for a, b in [(2.0, 1.0), (0.7, 3.3), (42.0, 0.25)]:
            g = card_grad(0, AlphaBeta(a, b))
            assert g.d_alpha == pytest.approx(-(math.log(b) - math.log1p(b)), abs=1e-13)

    def test_reference_point(self):
        g = card_grad(3, AlphaBeta(alpha=2.0, beta=1.0))
        assert g.d_beta == pytest.approx(0.5, abs=1e-14)
        assert g.d_alpha == pytest.approx(D_ALPHA_3_2_1, abs=1e-12)
        da, db = fd_grad(3, 2.0, 1.0)
        assert g.d_alpha == pytest.approx(da, rel=1e-7)
        assert g.d_beta == pytest.approx(db, rel=1e-7)

    def test_matches_finite_differences(self):
        # Unit-floored relative error: near beta-stationary points the
        # central difference only resolves ~1e-10 absolutely in float64.
        for m, a, b in random_triples(1000, seed=11):
            g = card_grad(m, AlphaBeta(a, b))
            da, db = fd_grad(m, a, b)
            assert abs(g.d_alpha - da) / max(abs(g.d_alpha), abs(da), 1.0) < 1e-6
            assert abs(g.d_beta - db) / max(abs(g.d_beta), abs(db), 1.0) < 1e-6

    def test_beta_stationary_point(self):
        # For fixed alpha and m >= 1 the NLL is minimised at beta = alpha/m.
        for m, a in [(1, 2.0), (4, 2.0), (7, 10.5)]:
            b_star = a / m
            g = card_grad(m, AlphaBeta(a, b_star))
            assert g.d_beta == pytest.approx(0.0, abs=1e-12)
            base = card_nll(m, AlphaBeta(a, b_star))
            assert card_nll(m, AlphaBeta(a, b_star + 1e-3)) >= base
            assert card_nll(m, AlphaBeta(a, b_star - 1e-3)) >= base


class TestHead:
    def test_midpoint(self):
        w = HeadWeights(alpha_max=160.0, beta_max=20.0, floor=0.0)
        alpha, beta, _ = head_forward(np.zeros(2), w)
        assert alpha == pytest.approx(80.0)
        assert beta == pytest.approx(10.0)

    def test_monotone_saturation(self):
        w = HeadWeights(alpha_max=160.0, beta_max=20.0)
        z = np.array([-5.0, 0.0, 5.0, 20.0, 40.0])
        alpha, _, _ = head_forward(np.stack([z, z], axis=-1), w)
        assert alpha[0] > 0.0 and (np.diff(alpha) > 0.0).all()
        alpha, beta, _ = head_forward(np.array([60.0, 60.0]), w)
        assert alpha == pytest.approx(160.0, rel=1e-12)
        assert beta == pytest.approx(20.0, rel=1e-12)

    def test_outputs_always_valid(self):
        w = HeadWeights()
        z = np.array([-1e6, -745.0, -50.0, 0.0, 50.0, 745.0, 1e6])
        alpha, beta, _ = head_forward(np.stack([z, z], axis=-1), w)
        assert ((0.0 < alpha) & (alpha <= w.alpha_max)).all()
        assert ((0.0 < beta) & (beta <= w.beta_max)).all()

    def test_forward_derivative(self):
        w = HeadWeights(alpha_max=160.0, beta_max=20.0, floor=1e-6)
        h = 1e-7
        for z in (-2.0, 0.0, 1.3):
            fd = (head_forward(np.array([z + h, 0.0]), w)[0]
                  - head_forward(np.array([z - h, 0.0]), w)[0]) / (2 * h)
            s = 1.0 / (1.0 + math.exp(-z))
            analytic = (w.alpha_max - w.floor) * s * (1.0 - s)
            assert analytic == pytest.approx(fd, rel=1e-6)

    def test_backward_zero(self):
        w = HeadWeights()
        _, _, s = head_forward(np.array([0.3, -0.7]), w)
        assert head_backward(s, w, 0.0, 0.0).tolist() == [0.0, 0.0]

    def test_backward_matches_composed_finite_differences(self):
        w = HeadWeights(alpha_max=12.0, beta_max=4.0)
        m = 3
        for za, zb in [(-1.0, 0.5), (0.2, -2.0), (1.5, 1.5)]:
            alpha, beta, s = head_forward(np.array([za, zb]), w)
            g = card_grad(m, AlphaBeta(alpha, beta))
            gza, gzb = head_backward(s, w, g.d_alpha, g.d_beta)
            h = 1e-5

            def loss(za_, zb_):
                return card_nll(m, AlphaBeta(*head_forward(np.array([za_, zb_]), w)[:2]))

            fza = (loss(za + h, zb) - loss(za - h, zb)) / (2 * h)
            fzb = (loss(za, zb + h) - loss(za, zb - h)) / (2 * h)
            # Near-zero gradients (stationary beta) sit inside the finite
            # difference truncation noise, hence the absolute fallback.
            assert gza == pytest.approx(fza, rel=1e-6, abs=1e-9)
            assert gzb == pytest.approx(fzb, rel=1e-6, abs=1e-9)

    def test_saturation_underflow(self):
        w = HeadWeights()
        for z in (50.0, -50.0):
            _, _, s = head_forward(np.array([z, z]), w)
            gya, gyb = head_backward(s, w, 1.0, 1.0)
            assert abs(gya) < 1e-18
            assert abs(gyb) < 1e-18

    def test_invalid_weights(self):
        with pytest.raises(NumericError):
            HeadWeights(alpha_max=1e-7, beta_max=20.0, floor=1e-6)
        with pytest.raises(NumericError):
            HeadWeights(floor=-1.0)


def composed(m, a, b):
    """card_nll_grad as one kernel call per term, the form before the loss
    stacked its kernel inputs."""
    log_b, log1p_b = np.log(b), np.log1p(b)
    nll = -(log_gamma(m + a) - log_gamma(m + 1.0) - log_gamma(a)
            + a * log_b - (a + m) * log1p_b)
    d_alpha = -(digamma(m + a) - digamma(a) + log_b - log1p_b)
    d_beta = -(a - m * b) / (b * (1.0 + b))
    return nll, d_alpha, d_beta


def assert_same(got, want):
    """Equal bits, shapes and types, term by term."""
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def random_inputs(n, seed):
    """Counts, alphas (tiny ones included, below and above every shift
    threshold of the kernels) and betas."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 40, n)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(200.0), n))
    b = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), n))
    return m, a, b


class TestFusedLoss:
    """card_nll_grad makes one log_gamma and one digamma call on stacked
    inputs; each value must be the one a call per term gives."""

    def test_scalars_and_zero_d_arrays(self):
        for m, a, b in zip(*random_inputs(300, seed=20)):
            args = int(m), float(a), float(b)
            assert_same(card_nll_grad(*args), composed(*args))
            zero_d = tuple(map(np.asarray, args))
            assert_same(card_nll_grad(*zero_d), composed(*zero_d))

    def test_arrays_strided_and_broadcast(self):
        m, a, b = random_inputs(400, seed=21)
        assert_same(card_nll_grad(m, a, b), composed(m, a, b))
        strided = m[::4], a[1::4], b[2::4]
        assert_same(card_nll_grad(*strided), composed(*strided))
        assert_same(card_nll_grad(m, 2.5, 0.75), composed(m, 2.5, 0.75))
        assert_same(card_nll_grad(7, a, b), composed(7, a, b))
        square = m[:100].reshape(10, 10), a[:100].reshape(10, 10), b[:100].reshape(10, 10)
        assert_same(card_nll_grad(*square), composed(*square))

    @pytest.mark.parametrize("bad,shown", [
        (float("nan"), "nan"), (0.0, "0.0"), (-1.0, "-1.0"), (-5.0, "-2.0"),
        (float("inf"), "inf"), (float("-inf"), "-inf")])
    def test_bad_alpha_keeps_its_message(self, bad, shown):
        # The kernel names the first bad entry of (m + a, m + 1, a): at m = 3
        # an alpha of -5 shows as m + a = -2.
        with pytest.raises(NumericError, match=rf"^x must be finite and > 0, got {shown}$"):
            card_nll_grad(3, bad, 1.0)
        a = np.array([2.0, bad, 1.0, bad])
        with pytest.raises(NumericError, match=rf"^x must be finite and > 0, got {shown}$"):
            card_nll_grad(np.full(4, 3), a, np.ones(4))
        for ab in ((bad, 1.0), (1.0, bad)):
            name = "alpha" if ab[0] is bad else "beta"
            with pytest.raises(NumericError,
                               match=rf"^{name} must be finite and > 0, got {bad!r}$"):
                card_nll(3, AlphaBeta(*ab))

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_beta_gradient_is_not_finite(self, bad):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="^gradients must be finite$"):
                card_nll_grad(np.array([3, 3]), np.array([2.0, 2.0]), np.array([1.0, bad]))

    def test_bad_head_output_names_alpha_then_beta(self):
        nan = float("nan")
        w = HeadWeights(floor=0.0)
        for za, zb, says in [(nan, 0.0, "alpha must be finite and > 0, got nan"),
                             (0.0, nan, "beta must be finite and > 0, got nan"),
                             (nan, nan, "alpha must be finite and > 0, got nan"),
                             (-1e6, 0.0, "alpha must be finite and > 0, got 0.0"),
                             (0.0, -1e6, "beta must be finite and > 0, got 0.0")]:
            with pytest.raises(NumericError, match=f"^{says}$"):
                head_forward(np.array([za, zb]), w)
            with pytest.raises(NumericError, match=f"^{says}$"):
                head_forward(np.array([[0.0, 0.0], [za, zb], [za, 0.0]]), w)
        # The first bad alpha wins over an earlier bad beta.
        with pytest.raises(NumericError, match="^alpha must be finite and > 0, got 0.0$"):
            head_forward(np.array([[0.0, nan], [-1e6, 0.0]]), w)

    def test_loss_and_grads_names_a_bad_head_output(self):
        model = init_model([3, 2], head=HeadWeights(floor=0.0), seed=0)
        model.biases[-1][:] = [-1e6, 0.0]
        with pytest.raises(NumericError, match="^alpha must be finite and > 0, got 0.0$"):
            loss_and_grads(model, np.zeros((2, 3)), np.array([1, 2]))

    def test_backward_with_forward_sigmoids_is_the_same(self):
        # One row through head_forward and head_backward gives row i of the
        # calls on the whole table.
        rng = np.random.default_rng(22)
        for w in (HeadWeights(), HeadWeights(alpha_max=3.0, beta_max=0.5, floor=1e-3)):
            z = np.stack(rng.normal(0.0, 8.0, (2, 500)), axis=-1)
            da, db = rng.normal(0.0, 3.0, (2, 500))
            alpha, beta, s = head_forward(z, w)
            g = head_backward(s, w, da, db)
            for i in range(0, 500, 50):
                one = head_forward(z[i], w)
                assert_same(one, (alpha[i], beta[i], s[i]))
                assert_same([head_backward(one[2], w, float(da[i]), float(db[i]))], [g[i]])


class TestRegressionLoss:
    def test_exact_hit(self):
        assert regression_loss(3, 3.0) == (0.0, 0.0)

    def test_simple_values(self):
        loss, grad = regression_loss(3, 5.0)
        assert loss == pytest.approx(2.0)
        assert grad == pytest.approx(2.0)

    def test_gradient_finite_differences(self):
        h = 1e-6
        for m, mh in [(0, 0.7), (4, 2.2), (11, 11.9)]:
            _, grad = regression_loss(m, mh)
            fd = (regression_loss(m, mh + h)[0] - regression_loss(m, mh - h)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-8)
