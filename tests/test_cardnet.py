"""Feed-forward cardinality network: backprop, training, serialisation.

The network's forward pass is read through ``predict_batch``, the one
path from features to (alpha, beta, mode).

The one-path tests at the end keep the scalar kernels and the per-sample
loss loop that the array kernels replaced, as a reference: the batched loss
and gradients must match it, each array kernel must agree bit for bit with
its scalar wrapper, and the vectorised NB mode must equal a brute-force
argmax on exact ties.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setnet import (
    AlphaBeta,
    HeadWeights,
    MLPModel,
    NegBinParams,
    NumericError,
    TrainConfig,
    TrainingSample,
    card_grad,
    card_nll,
    card_nll_grad,
    digamma,
    gradient_check,
    head_backward,
    head_forward,
    init_model,
    log_gamma,
    loss_and_grads,
    nb_mode,
    nb_mode_batch,
    predict_batch,
    predict_count,
    train,
)
from setnet import cardloss, cardnet
from setnet.cardloss import sigmoid
from setnet.cardnet import model_from_json, model_to_json
from setnet.numerics import _HALF_LOG_TWO_PI, _LANCZOS_COEF, _LANCZOS_G, _nb_log_pmf
from test_numerics import MANTISSAS


def make_batch(n, d, seed, count_rate=4.0):
    rng = np.random.default_rng(seed)
    return [
        TrainingSample(
            features=tuple(rng.uniform(-1.0, 1.0, size=d)),
            count=int(rng.poisson(count_rate)),
        )
        for _ in range(n)
    ]


def as_arrays(batch):
    """The (X, counts) arrays that loss_and_grads takes."""
    return (np.asarray([s.features for s in batch], dtype=float),
            np.asarray([s.count for s in batch]))


def alpha_beta(model, x):
    """(alpha, beta) of one feature vector, from a one-row ``predict_batch``."""
    alpha, beta, _ = predict_batch(model, [x])
    return float(alpha[0]), float(beta[0])


def single_layer_model(d=3, kind="negbin", head=None, zero=True, seed=0):
    model = init_model([d, 2 if kind == "negbin" else 1],
                       head=head or HeadWeights(), seed=seed, kind=kind)
    if zero:
        for w in model.weights:
            w[:] = 0.0
    return model


class TestForward:
    def test_zero_network_equals_head_midpoint(self):
        head = HeadWeights(alpha_max=160.0, beta_max=20.0, floor=0.0)
        model = single_layer_model(head=head)
        assert alpha_beta(model, [0.4, -1.2, 3.3]) == head_forward(np.zeros(2), head)[:2]

    def test_hand_computed_fixture(self):
        head = HeadWeights(alpha_max=10.0, beta_max=4.0, floor=0.0)
        model = single_layer_model(d=2, head=head)
        model.weights[0][:] = [[1.0, 2.0], [-1.0, 0.5]]
        model.biases[0][:] = [0.1, -0.2]
        x = [0.3, 0.4]
        # z_alpha = 0.3 + 0.8 + 0.1 = 1.2; z_beta = -0.3 + 0.2 - 0.2 = -0.3
        sa = 1.0 / (1.0 + math.exp(-1.2))
        sb = 1.0 / (1.0 + math.exp(0.3))
        alpha, beta = alpha_beta(model, x)
        assert alpha == pytest.approx(10.0 * sa, rel=1e-12)
        assert beta == pytest.approx(4.0 * sb, rel=1e-12)

    def test_pure_function(self):
        model = init_model([4, 8, 2], seed=3)
        X = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, 4))
        first = predict_batch(model, X)
        for _ in range(3):
            again = predict_batch(model, X)
            for a, b in zip(again, first):
                assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        model = init_model([4, 8, 2], seed=3)
        with pytest.raises(NumericError):
            predict_batch(model, [[1.0, 2.0]])


class TestLossAndGrads:
    def test_single_sample_head_bias_chain(self):
        # With one linear layer the final-bias gradient is exactly the
        # head-backward image of the loss gradient.
        head = HeadWeights(alpha_max=12.0, beta_max=4.0)
        model = single_layer_model(d=3, head=head)
        model.biases[0][:] = [0.4, -0.3]
        _, (gw, gb) = loss_and_grads(model, np.zeros((1, 3)), np.array([2]))
        alpha, beta, s = head_forward(np.array([0.4, -0.3]), head)
        g = card_grad(2, AlphaBeta(alpha, beta))
        expected = head_backward(s, head, g.d_alpha, g.d_beta)
        assert gb[0][0] == pytest.approx(expected[0], rel=1e-12)
        assert gb[0][1] == pytest.approx(expected[1], rel=1e-12)

    def test_duplicated_batch_invariance(self):
        model = init_model([4, 8, 2], seed=5)
        batch = make_batch(6, 4, seed=6)
        loss1, (gw1, gb1) = loss_and_grads(model, *as_arrays(batch))
        loss2, (gw2, gb2) = loss_and_grads(model, *as_arrays(batch + batch))
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_empty_batch(self):
        model = init_model([4, 8, 2], seed=5)
        with pytest.raises(NumericError):
            loss_and_grads(model, np.empty((0, 4)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("kind", ["negbin", "regression"])
    def test_full_network_finite_differences(self, kind):
        model = init_model([4, 8, 2 if kind == "negbin" else 1],
                           head=HeadWeights(alpha_max=12.0, beta_max=4.0),
                           seed=7, kind=kind)
        batch = make_batch(8, 4, seed=8)
        assert gradient_check(model, batch, h=1e-5) < 1e-4


class TestGradientCheck:
    def test_truncation_sanity(self):
        model = init_model([4, 8, 2], head=HeadWeights(alpha_max=12.0, beta_max=4.0),
                           seed=9)
        batch = make_batch(8, 4, seed=10)
        fine = gradient_check(model, batch, h=1e-5)
        coarse = gradient_check(model, batch, h=1.0)
        assert fine < 1e-4
        assert coarse > fine

    def test_saturated_head_near_zero(self):
        model = single_layer_model(d=2, head=HeadWeights(alpha_max=12.0, beta_max=4.0))
        model.biases[0][:] = [50.0, 50.0]
        batch = [TrainingSample(features=(0.0, 0.0), count=3)]
        assert gradient_check(model, batch, h=1e-5) < 1e-6

    def test_rejects_bad_step(self):
        model = single_layer_model()
        with pytest.raises(NumericError):
            gradient_check(model, make_batch(2, 3, seed=0), h=0.0)

    def test_arrays_give_the_error_of_their_samples(self):
        model = init_model([4, 8, 2], head=HeadWeights(alpha_max=12.0, beta_max=4.0),
                           seed=9)
        batch = make_batch(8, 4, seed=10)
        assert gradient_check(model, as_arrays(batch)) == gradient_check(model, batch)


class TestOneSigmoidCall:
    """The head's sigmoids are computed once per batch, on the (n, 2) table,
    and the backward pass takes the forward pass's."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = []

        def counted(z):
            shapes.append(np.shape(z))
            return sigmoid(z)

        monkeypatch.setattr(cardloss, "sigmoid", counted)
        return shapes

    def test_loss_and_grads(self, calls):
        model = init_model([4, 8, 2], seed=3)
        loss_and_grads(model, *as_arrays(make_batch(16, 4, seed=4)))
        assert calls == [(16, 2)]

    def test_predict_batch(self, calls):
        model = init_model([4, 8, 2], seed=3)
        predict_batch(model, as_arrays(make_batch(16, 4, seed=4))[0])
        assert calls == [(16, 2)]


class TestTrain:
    def test_zero_learning_rate_is_identity(self):
        model = init_model([4, 8, 2], seed=11)
        data = make_batch(32, 4, seed=12)
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=1)
        out = train(model, data, cfg)
        assert model_to_json(out) == model_to_json(model)

    def test_zero_learning_rate_returns_the_input_bits_unaliased(self):
        model = init_model([4, 8, 2], seed=11)
        before = [p.copy() for p in model.weights + model.biases]
        for data in (make_batch(32, 4, seed=12), make_batch(5, 4, seed=13)):
            out = train(model, data, TrainConfig(learning_rate=0.0, epochs=2, batch_size=8))
            for got, arr, want in zip(out.weights + out.biases, model.weights + model.biases,
                                      before):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, arr)
                got += 1.0  # the trained copy is the caller's to change
            assert all(p.tobytes() == q.tobytes()
                       for p, q in zip(model.weights + model.biases, before))

    def test_deterministic(self):
        data = make_batch(64, 4, seed=13)
        cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=16, seed=2)
        runs = [
            model_to_json(train(init_model([4, 8, 2], seed=14), data, cfg))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_losses_finite_and_recorded(self):
        data = make_batch(64, 4, seed=15)
        cfg = TrainConfig(learning_rate=0.03, epochs=5, batch_size=16, seed=3)
        losses = []
        train(init_model([4, 8, 2], head=HeadWeights(alpha_max=12.0, beta_max=4.0),
                         seed=16),
              data, cfg, epoch_callback=lambda e, l: losses.append(l))
        assert len(losses) == 5
        assert all(math.isfinite(l) for l in losses)

    def test_full_batch_descent_non_increasing(self):
        # Zero features freeze every weight matrix (their gradients vanish),
        # leaving only the head biases free, where small full-batch steps
        # must descend monotonically.
        head = HeadWeights(alpha_max=12.0, beta_max=4.0)
        model = single_layer_model(d=3, head=head)
        rng = np.random.default_rng(17)
        data = [TrainingSample(features=(0.0, 0.0, 0.0), count=int(rng.poisson(3.0)))
                for _ in range(40)]
        losses = []
        cfg = TrainConfig(learning_rate=1e-3, momentum=0.0, weight_decay=0.0,
                          epochs=40, batch_size=len(data), seed=4)
        train(model, data, cfg, epoch_callback=lambda e, l: losses.append(l))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9)

    def test_head_outputs_stay_positive_during_training(self):
        data = make_batch(64, 4, seed=18, count_rate=2.0)
        cfg = TrainConfig(learning_rate=0.1, epochs=10, batch_size=16, seed=5)
        model = train(init_model([4, 8, 2], head=HeadWeights(alpha_max=12.0,
                                                             beta_max=4.0),
                                 seed=19),
                      data, cfg)
        alpha, beta, _ = predict_batch(model, [s.features for s in data])
        assert (alpha > 0.0).all() and (beta > 0.0).all()


class TestEpochLosses:
    """A batch computes only the gradient, one digamma call; the epoch's
    losses are evaluated after its last batch, in one log_gamma call on all
    its rows, whatever their number."""

    @pytest.fixture
    def calls(self, monkeypatch):
        shapes = {"digamma": [], "log_gamma": []}
        for name, shape_list in shapes.items():
            def counted(x, kernel=getattr(cardloss, name), shape_list=shape_list):
                shape_list.append(np.shape(x))
                return kernel(x)
            monkeypatch.setattr(cardloss, name, counted)
        return shapes

    @pytest.mark.parametrize("n", [1, 100, 1365, 1366, 3000])
    def test_one_epoch(self, calls, n):
        data = as_arrays(make_batch(n, 4, seed=30))
        train(init_model([4, 8, 2], seed=31), data, TrainConfig(epochs=1, batch_size=64))
        sizes = [min(64, n - s) for s in range(0, n, 64)]
        assert calls["digamma"] == [(2, k) for k in sizes]
        assert calls["log_gamma"] == [(3, n)]


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_train_checks_the_counts_before_any_update(monkeypatch, bad):
    model = init_model([4, 8, 2], seed=32)
    before = model_to_json(model)
    X, counts = as_arrays(make_batch(200, 4, seed=33))
    counts = counts.astype(float)
    counts[-1] = bad
    monkeypatch.setattr(cardnet, "_backward", lambda *args: pytest.fail("a batch ran"))
    with pytest.raises(NumericError,
                       match=r"^m must be a non-negative integer below 2\*\*63, got "):
        train(model, (X, counts), TrainConfig(batch_size=16))
    assert model_to_json(model) == before


# -- the per-batch loop that train replaced ------------------------------------
#
# Each batch evaluated its loss with its gradient; train now defers the losses
# to the epoch's end.  The trained bytes and every epoch loss must be the same.


def ref_train(model, data, cfg):
    """(trained model, epoch losses) of the per-batch loop."""
    X, counts = data
    params = model.weights + model.biases
    theta = np.concatenate([p.ravel() for p in params])
    ends = np.cumsum([p.size for p in params])
    views = [v.reshape(p.shape) for v, p in zip(np.split(theta, ends[:-1]), params)]
    n_layers, n_weights = len(model.weights), ends[len(model.weights) - 1]
    out = replace(model, weights=views[:n_layers], biases=views[n_layers:])
    vel = np.zeros_like(theta)
    rng = np.random.default_rng(cfg.seed)
    starts = range(cfg.batch_size, len(counts), cfg.batch_size)
    losses = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for idx in np.split(rng.permutation(len(counts)), starts):
            loss, (gw, gb) = loss_and_grads(out, X[idx], counts[idx])
            assert np.isfinite(loss)
            epoch_loss += loss
            vel *= cfg.momentum
            vel -= cfg.learning_rate * np.concatenate([g.ravel() for g in gw + gb])
            decay = cfg.learning_rate * cfg.weight_decay * theta[:n_weights]
            theta += vel
            theta[:n_weights] -= decay
        losses.append(epoch_loss / (len(starts) + 1))
    return out, losses


@st.composite
def training_runs(draw):
    """(n, batch size, kind, activation, seed): epochs of 1-70 rows or of 1,300-2,800,
    batch sizes 1, n and ones that leave a short last batch."""
    n = draw(st.integers(1, 70) | st.integers(1300, 2800))
    # One-row batches over a long epoch take seconds: an example covers them.
    size = draw(st.sampled_from([1, n] if n <= 70 else [n]) | st.integers(2, n + 3))
    return (n, size, draw(st.sampled_from(["negbin", "regression"])),
            draw(st.sampled_from(["tanh", "relu"])), draw(st.integers(0, 2**16)))


class TestTrainEqualsPerBatchLoop:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(training_runs())
    @example((2731, 1, "negbin", "tanh", 1))
    @example((2731, 2731, "regression", "relu", 2))
    @example((1366, 64, "negbin", "relu", 3))
    def test_same_model_bytes_and_epoch_losses(self, run):
        n, size, kind, activation, seed = run
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(n, 3))
        counts = rng.integers(0, 20, size=n)
        model = init_model([3, 4, 2 if kind == "negbin" else 1], activation=activation,
                           head=HeadWeights(alpha_max=12.0, beta_max=4.0), seed=seed,
                           kind=kind)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=size, seed=seed)
        losses = []
        got = train(model, (X, counts), cfg, epoch_callback=lambda e, l: losses.append(l))
        want, want_losses = ref_train(model, (X, counts), cfg)
        assert np.asarray(losses).tobytes() == np.asarray(want_losses).tobytes()
        for g, w in zip(got.weights + got.biases, want.weights + want.biases):
            assert g.tobytes() == w.tobytes()


class TestPredictCount:
    def test_forced_head(self):
        # sigmoid(0) = 0.5 with scales (10, 2) pins (alpha, beta) = (5, 1);
        # NB(5, 1/2) has mode 4 (brute-forced in the numerics tests).
        head = HeadWeights(alpha_max=10.0, beta_max=2.0, floor=0.0)
        model = single_layer_model(d=3, head=head)
        assert predict_count(model, [9.9, -3.0, 0.2]) == 4

    def test_small_alpha_region(self):
        head = HeadWeights(alpha_max=1.6, beta_max=2.0, floor=0.0)
        model = single_layer_model(d=3, head=head)
        # alpha = 0.8 <= 1 pins the mode at zero regardless of beta.
        assert predict_count(model, [1.0, 1.0, 1.0]) == 0

    def test_consistency_with_forward(self):
        rng = np.random.default_rng(20)
        model = init_model([4, 8, 2], head=HeadWeights(alpha_max=12.0, beta_max=4.0),
                           seed=21)
        for _ in range(50):
            x = tuple(rng.uniform(-1, 1, size=4))
            alpha, beta = alpha_beta(model, x)
            assert predict_count(model, x) == nb_mode(
                NegBinParams(a=alpha, b=1.0 / (1.0 + beta))
            )

    def test_regression_decode(self):
        model = single_layer_model(d=2, kind="regression")
        model.biases[0][0] = 3.6
        assert predict_count(model, [0.0, 0.0]) == 4
        model.biases[0][0] = -2.0
        assert predict_count(model, [0.0, 0.0]) == 0


class TestSerialization:
    def test_round_trip_bit_exact(self):
        model = init_model([4, 8, 2], seed=22)
        text = model_to_json(model)
        clone = model_from_json(text)
        X = np.random.default_rng(23).uniform(-2, 2, size=(20, 4))
        for a, b in zip(predict_batch(model, X), predict_batch(clone, X)):
            assert a.tobytes() == b.tobytes()
        assert model_to_json(clone) == text

    def test_schema_version_checked(self):
        model = init_model([3, 2], seed=24)
        doc = model_to_json(model).replace('"schema_version": 1', '"schema_version": 99')
        with pytest.raises(Exception):
            model_from_json(doc)

    def test_shape_validation(self):
        with pytest.raises(NumericError):
            MLPModel(weights=[np.zeros((2, 3)), np.zeros((2, 5))],
                     biases=[np.zeros(2), np.zeros(2)],
                     activation="tanh", head=HeadWeights())
        with pytest.raises(NumericError):
            MLPModel(weights=[np.zeros((3, 4))], biases=[np.zeros(3)],
                     activation="tanh", head=HeadWeights())


# -- one evaluation path: scalar reference ----------------------------------
#
# The per-sample path the array kernels replaced: stdlib math, one sample
# at a time.


def ref_log_gamma(x):
    if x < 0.5:
        return ref_log_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    s = _LANCZOS_COEF[0]
    for i in range(1, 9):
        s += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(s)


def ref_digamma(x):
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (
        1.0 / 12.0 - inv2 * (
            1.0 / 120.0 - inv2 * (
                1.0 / 252.0 - inv2 * (
                    1.0 / 240.0 - inv2 * (
                        1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 * (1.0 / 12.0))
                    )
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def ref_card_nll(m, a, b):
    return -(ref_log_gamma(m + a) - ref_log_gamma(m + 1.0) - ref_log_gamma(a)
             + a * math.log(b) - (a + m) * math.log1p(b))


def ref_card_grad(m, a, b):
    d_alpha = -(ref_digamma(m + a) - ref_digamma(a) + math.log(b) - math.log1p(b))
    d_beta = -(a - m * b) / (b * (1.0 + b))
    return d_alpha, d_beta


def ref_sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def ref_head(z, scale, floor):
    """(head output, its derivative) of one weighted sigmoid."""
    s = ref_sigmoid(z)
    return floor + (scale - floor) * s, (scale - floor) * s * (1.0 - s)


def ref_loss_and_grads(model, X, counts):
    acts = [X]
    for li, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        if li < len(model.weights) - 1:
            acts.append(np.tanh(z) if model.activation == "tanh" else np.maximum(z, 0.0))
    n = len(counts)
    total = 0.0
    d_out = np.zeros_like(z)
    h = model.head
    for i in range(n):
        m = int(counts[i])
        if model.kind == "negbin":
            alpha, d_za = ref_head(float(z[i, 0]), h.alpha_max, h.floor)
            beta, d_zb = ref_head(float(z[i, 1]), h.beta_max, h.floor)
            total += ref_card_nll(m, alpha, beta)
            d_alpha, d_beta = ref_card_grad(m, alpha, beta)
            d_out[i, 0], d_out[i, 1] = d_alpha * d_za, d_beta * d_zb
        else:
            r = float(z[i, 0]) - m
            total += 0.5 * r * r
            d_out[i, 0] = r
    delta = d_out / n
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.weights)
    for li in range(len(model.weights) - 1, -1, -1):
        grads_w[li] = delta.T @ acts[li]
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            upstream = delta @ model.weights[li]
            if model.activation == "tanh":
                delta = upstream * (1.0 - acts[li] * acts[li])
            else:
                delta = upstream * (acts[li] > 0.0)
    return total / n, (grads_w, grads_b)


def assert_rel_close(got, ref, rtol=1e-12):
    """Largest deviation within rtol of the largest reference magnitude."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= rtol * np.max(np.abs(ref), initial=0.0)


def same_bits(array, scalars):
    return np.asarray(array, dtype=float).tobytes() == np.asarray(scalars, dtype=float).tobytes()


ONE_PATH = settings(max_examples=200, deadline=None, derandomize=True, database=None)
HEADS = st.sampled_from([HeadWeights(), HeadWeights(alpha_max=12.0, beta_max=4.0),
                         HeadWeights(alpha_max=3.0, beta_max=0.5, floor=1e-3)])
# Saturated pre-activations: beyond |z| ~ 745 the sigmoid underflows to 0 (or
# rounds to 1) and the floor is all that keeps alpha and beta positive.  Like
# MANTISSAS (floats with every mantissa bit drawn), the last branch shows
# rounding that simple floats do not; it spans 2**-30 <= |z| < 1024.
PRE_ACTIVATIONS = (st.floats(-800.0, 800.0)
                   | st.sampled_from([-800.0, -745.5, -40.0, 0.0, 40.0, 745.5, 800.0])
                   | st.builds(lambda s, m, e: math.copysign(math.ldexp(1.0 + m / 2**52, e), s),
                               st.sampled_from([-1.0, 1.0]), st.integers(0, 2**52 - 1),
                               st.integers(-30, 9)))
COUNTS = st.integers(0, 200)
POSITIVE = (st.floats(1e-300, 1e12) | st.sampled_from([1e-3, 0.5, 1.0, 5.9999999, 6.0])
            | MANTISSAS)


@st.composite
def pre_activation_batches(draw):
    n = draw(st.integers(1, 64))
    z = draw(st.lists(PRE_ACTIVATIONS, min_size=2 * n, max_size=2 * n))
    counts = draw(st.lists(COUNTS, min_size=n, max_size=n))
    return np.reshape(z, (n, 2)), np.asarray(counts)


class TestOnePath:
    @ONE_PATH
    @given(pre_activation_batches(), HEADS)
    def test_head_and_loss_match_per_sample_reference(self, batch, head):
        # One identity layer: the network's pre-activations are the features.
        X, counts = batch
        model = single_layer_model(d=2, head=head)
        model.weights[0][:] = np.eye(2)
        loss, (gw, gb) = loss_and_grads(model, X, counts)
        ref_loss, (ref_gw, ref_gb) = ref_loss_and_grads(model, X, counts)
        assert_rel_close(loss, ref_loss)
        assert_rel_close(gw[0], ref_gw[0])
        assert_rel_close(gb[0], ref_gb[0])

    @ONE_PATH
    @given(st.sampled_from(["negbin", "regression"]), st.sampled_from(["tanh", "relu"]),
           st.integers(0, 2**16), st.floats(0.1, 400.0), st.integers(1, 64), HEADS)
    def test_network_gradients_match_per_sample_reference(
            self, kind, activation, seed, scale, n, head):
        model = init_model([3, 5, 2 if kind == "negbin" else 1], activation=activation,
                           head=head, seed=seed, kind=kind)
        model.weights[-1] *= scale  # large scales saturate the head
        rng = np.random.default_rng(seed)
        for b in model.biases:
            b[:] = rng.uniform(-1.0, 1.0, size=b.shape)
        X = rng.uniform(-2.0, 2.0, size=(n, 3))
        counts = rng.integers(0, 201, size=n)
        loss, (gw, gb) = loss_and_grads(model, X, counts)
        ref_loss, (ref_gw, ref_gb) = ref_loss_and_grads(model, X, counts)
        assert_rel_close(loss, ref_loss)
        for got, ref in zip(gw + gb, ref_gw + ref_gb):
            assert_rel_close(got, ref)

    @ONE_PATH
    @given(st.lists(POSITIVE | st.floats(1e-3, 7.0), min_size=1, max_size=40))
    def test_special_functions_match_scalar_reference(self, xs):
        # Only the last ulps of a few logs may differ from the stdlib path.
        for f, ref in ((log_gamma, ref_log_gamma), (digamma, ref_digamma)):
            expected = np.asarray([ref(v) for v in xs])
            err = np.abs(f(np.asarray(xs)) - expected) / np.maximum(np.abs(expected), 1.0)
            assert np.max(err) <= 1e-14

    @ONE_PATH
    @given(st.lists(POSITIVE, min_size=1, max_size=40))
    def test_special_functions_array_equals_scalar_bits(self, xs):
        x = np.asarray(xs)
        for f in (log_gamma, digamma):
            got = f(x)
            assert same_bits(got, [f(v) for v in xs])
            assert same_bits(f(np.repeat(x, 2)[::2]), got)  # strided input
            assert same_bits(f(x[:1]), [f(np.float64(xs[0]))])  # length 1 and 0-d

    @ONE_PATH
    @given(pre_activation_batches(), HEADS)
    def test_loss_and_head_arrays_equal_scalar_bits(self, batch, head):
        z, counts = batch
        alpha, beta, s = head_forward(z, head)
        assert same_bits(s, [sigmoid(v) for v in z.ravel()])
        rows = [head_forward(row, head) for row in z]
        assert same_bits(alpha, [r[0] for r in rows])
        assert same_bits(beta, [r[1] for r in rows])
        nll, d_alpha, d_beta = card_nll_grad(counts, alpha, beta)
        ab_rows = [AlphaBeta(float(a), float(b)) for a, b in zip(alpha, beta)]
        assert same_bits(nll, [card_nll(int(m), ab) for m, ab in zip(counts, ab_rows)])
        grads = [card_grad(int(m), ab) for m, ab in zip(counts, ab_rows)]
        assert same_bits(d_alpha, [g.d_alpha for g in grads])
        assert same_bits(d_beta, [g.d_beta for g in grads])
        back = [head_backward(r[2], head, g.d_alpha, g.d_beta) for r, g in zip(rows, grads)]
        assert same_bits(head_backward(s, head, d_alpha, d_beta), back)
        b_nb = 1.0 / (1.0 + beta)
        assert same_bits(nb_mode_batch(alpha, b_nb),
                         [nb_mode(NegBinParams(float(a), float(b)))
                          for a, b in zip(alpha, b_nb)])

    @ONE_PATH
    @given(st.integers(0, 2**16), st.integers(1, 50), st.floats(0.1, 50.0))
    def test_predict_batch_equals_one_row_wrappers(self, seed, n, scale):
        model = init_model([4, 6, 2], head=HeadWeights(alpha_max=12.0, beta_max=4.0),
                           seed=seed)
        model.weights[-1] *= scale
        rng = np.random.default_rng(seed)
        model.biases[-1][:] = rng.uniform(-2.0, 2.0, size=2)
        X = rng.uniform(-1.0, 1.0, size=(n, 4))
        alpha, beta, mode = predict_batch(model, X)
        rows = [alpha_beta(model, x) for x in X]
        # A one-row matrix product may round differently from a batched one.
        assert_rel_close(alpha, [a for a, _ in rows])
        assert_rel_close(beta, [b for _, b in rows])
        assert mode.tolist() == [predict_count(model, x) for x in X]
        assert mode.tolist() == [nb_mode(NegBinParams(a, 1.0 / (1.0 + b)))
                                 for a, b in zip(alpha.tolist(), beta.tolist())]

    def test_nb_mode_on_exact_ties_equals_brute_force(self):
        # For dyadic b, (a-1) b/(1-b) is an exact integer k when a-1 is a
        # multiple of (1-b)'s denominator over b's: NB(k-1) and NB(k) tie in
        # exact arithmetic and the last ulp of the kernel decides.
        a, b = [], []
        for b_v, period in [(0.5, 1), (0.25, 3), (0.75, 1), (0.125, 7), (0.875, 1),
                            (0.375, 5), (0.625, 3), (0.0625, 15), (0.9375, 1)]:
            for j in range(1, 41):
                if 1.0 + j * period <= 200.0:
                    a.append(1.0 + j * period)
                    b.append(b_v)
        a, b = np.asarray(a), np.asarray(b)
        k = (a - 1.0) * b / (1.0 - b)
        assert np.all(k == np.floor(k))
        brute = [int(np.argmax(_nb_log_pmf(np.arange(int(k_i) + 50), a_i, b_i)))
                 for a_i, b_i, k_i in zip(a, b, k)]
        assert nb_mode_batch(a, b).tolist() == brute
        assert nb_mode(NegBinParams(a=5.0, b=0.5)) == 4
