"""Small framework-free feed-forward network for cardinality prediction.

The network maps a feature vector through dense layers (tanh or relu
hidden units) onto either

* two pre-activations feeding the weighted-sigmoid head, trained with the
  negative binomial cardinality loss (kind="negbin"), or
* a single linear output trained with the squared-error baseline
  (kind="regression").

Training is plain mini-batch SGD with momentum and decoupled weight decay,
fully deterministic under a fixed seed: the same (seed, config, data)
always yields a byte-identical serialised model.  A batch computes only
what its update needs, the gradient.  The epoch's losses, which only
``epoch_callback`` reads, are evaluated after its last batch from the head
outputs each batch left, one loss call per block of rows; each batch's mean
keeps the bits of a per-batch evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .cardloss import (HeadWeights, _nll, _nll_grad, head_backward, head_forward,
                       regression_loss)
from .errors import DataError, NumericError
from . import formats
from .numerics import _check_count, _check_finite, _check_seed, nb_mode_batch

__all__ = [
    "TrainingSample",
    "MLPModel",
    "TrainConfig",
    "init_model",
    "loss_and_grads",
    "train",
    "predict_batch",
    "predict_count",
    "gradient_check",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

ACTIVATIONS = ("tanh", "relu")
OUTPUT_WIDTH = {"negbin": 2, "regression": 1}  # each model kind's output width
# Finite features can still overflow the network: train and predict_batch
# then raise FloatingPointError, an ArithmeticError, instead of warning.
_overflow_raises = np.errstate(over="raise", invalid="raise")


@dataclass(frozen=True)
class TrainingSample:
    """One input feature vector with its ground-truth set cardinality."""

    features: tuple[float, ...]
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(_check_finite(self.features, "features")))
        object.__setattr__(self, "count", _check_count(self.count, "count"))


@dataclass
class MLPModel:
    """Dense layers (row-major weights), hidden nonlinearity and output head."""

    weights: list[np.ndarray]  # each (n_out, n_in), float64
    biases: list[np.ndarray]  # each (n_out,), float64
    activation: str
    head: HeadWeights
    kind: str = "negbin"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise NumericError(f"unknown activation {self.activation!r}")
        if self.kind not in OUTPUT_WIDTH:
            raise NumericError(f"unknown model kind {self.kind!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise NumericError("weights and biases must be non-empty and aligned")
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise NumericError(f"layer {li} has inconsistent shapes {w.shape}/{b.shape}")
            if li > 0 and w.shape[1] != self.weights[li - 1].shape[0]:
                raise NumericError(f"layer {li} does not chain: {w.shape}")
        n_out = self.weights[-1].shape[0]
        expected = OUTPUT_WIDTH[self.kind]
        if n_out != expected:
            raise NumericError(
                f"{self.kind} model needs {expected} outputs, final layer has {n_out}"
            )

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters; the seed drives batch shuffling."""

    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-6
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.learning_rate < np.inf:  # False for nan
            raise NumericError("learning_rate must be finite and >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise NumericError("momentum must lie in [0,1)")
        if not 0.0 <= self.weight_decay < np.inf:
            raise NumericError("weight_decay must be finite and >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise NumericError("epochs and batch_size must be positive")


def init_model(
    dims: list[int],
    activation: str = "tanh",
    head: HeadWeights | None = None,
    seed: int = 0,
    kind: str = "negbin",
) -> MLPModel:
    """Seeded Glorot-uniform initialisation; ``dims`` includes in/out sizes."""
    if len(dims) < 2:
        raise NumericError("dims must list at least input and output sizes")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return MLPModel(
        weights=weights,
        biases=biases,
        activation=activation,
        head=head if head is not None else HeadWeights(),
        kind=kind,
        seed=seed,
    )


def _forward_batch(model: MLPModel, X: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Hidden activations per layer plus the final pre-activation matrix."""
    if X.ndim != 2 or X.shape[1] != model.weights[0].shape[1]:
        raise NumericError(
            f"feature dimension {X.shape} does not match first layer "
            f"{model.weights[0].shape}"
        )
    acts = [X]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = acts[-1] @ w.T + b
        acts.append(np.tanh(z) if model.activation == "tanh" else np.maximum(z, 0.0))
    return acts, acts[-1] @ model.weights[-1].T + model.biases[-1]


def _stack(
    data: list[TrainingSample] | tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The (X, counts) arrays of a list of samples; an (X, counts) tuple as it is."""
    if isinstance(data, tuple):
        return data
    X = np.asarray([s.features for s in data], dtype=float)
    return X, np.asarray([s.count for s in data], dtype=np.int64)


def _backward(
    model: MLPModel, X: np.ndarray, counts: np.ndarray
) -> tuple[tuple[list[np.ndarray], list[np.ndarray]], tuple[np.ndarray, ...]]:
    """The exact gradients (no weight decay here) of the mean loss over the
    rows of X with their checked counts, and the head's outputs: (alpha, beta)
    of a negbin model, (m_hat,) of a regression model."""
    acts, z_out = _forward_batch(model, X)
    if model.kind == "negbin":
        alpha, beta, s = head_forward(z_out, model.head)
        delta = head_backward(s, model.head, *_nll_grad(counts, alpha, beta))
        heads = alpha, beta
    else:
        m_hat = z_out[:, 0]
        heads = (m_hat,)
        delta = (m_hat - counts)[:, None]  # regression_loss's gradient
    delta = delta / len(counts)

    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    for li in range(len(model.weights) - 1, -1, -1):
        grads_w[li] = delta.T @ acts[li]
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            # acts[li] holds the post-activation; tanh' is expressible from it,
            # relu' from its sign, so no pre-activation cache is needed.
            upstream = delta @ model.weights[li]
            if model.activation == "tanh":
                delta = upstream * (1.0 - acts[li] * acts[li])
            else:
                delta = upstream * (acts[li] > 0.0)
    return (grads_w, grads_b), heads


def _losses(model: MLPModel, counts: np.ndarray, heads) -> np.ndarray:
    """The per-row losses of checked counts under the head outputs that
    ``_backward`` returned."""
    if model.kind == "negbin":
        return _nll(counts, *heads)
    return regression_loss(counts, *heads)[0]


def loss_and_grads(
    model: MLPModel, X: np.ndarray, counts: np.ndarray
) -> tuple[float, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Mean loss over the rows of X with their counts, and its exact
    gradients (no weight decay here)."""
    n = len(counts)
    if n == 0:
        raise NumericError("batch must be non-empty")
    counts = _check_count(counts, column=True)
    grads, heads = _backward(model, X, counts)
    return float(_losses(model, counts, heads).sum() / n), grads  # the mean, without its wrapper


@_overflow_raises
def train(
    model: MLPModel,
    data: list[TrainingSample] | tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> MLPModel:
    """Mini-batch SGD with momentum and decoupled weight decay, on samples or
    on the (X, counts) arrays that ``formats.read_records`` returns.

    Weight decay acts on weight matrices only (not biases) and directly on
    the parameters, so learning_rate=0 leaves the model untouched.
    Returns a trained copy; the input model is not modified.  When given,
    ``epoch_callback(epoch, mean_batch_loss)`` runs after every epoch.

    The counts are checked once, before any update.  A batch computes only
    the gradient; the epoch's losses come after its last batch, on the head
    outputs each batch left, one call per block of ``formats._ROWS_PER_BLOCK``
    rows into one per-row array, so the loss's temporaries do not grow with
    the data and each loss keeps its bits.  So a non-finite batch loss, or an
    overflow in the loss, raises after the epoch's last batch, not at its batch.
    """
    X, counts = _stack(data)
    n = len(counts)
    if not n:
        raise DataError("training data must be non-empty")
    counts = _check_count(counts, column=True)
    # One flat parameter vector, weights first; the trained model holds views of it.
    params = model.weights + model.biases
    theta = np.concatenate([p.ravel() for p in params])
    ends = np.cumsum([p.size for p in params])
    views = [v.reshape(p.shape) for v, p in zip(np.split(theta, ends[:-1]), params)]
    n_layers, n_weights = len(model.weights), ends[len(model.weights) - 1]
    out = replace(model, weights=views[:n_layers], biases=views[n_layers:])
    vel = np.zeros_like(theta)
    rng = np.random.default_rng(cfg.seed)
    batches = [(s, min(s + cfg.batch_size, n)) for s in range(0, n, cfg.batch_size)]
    heads = np.empty((OUTPUT_WIDTH[model.kind], n))  # by position in perm
    rows = np.empty(n)  # the epoch's per-row losses, by position in perm
    block = formats._ROWS_PER_BLOCK
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for s, e in batches:
            idx = perm[s:e]
            (gw, gb), heads[:, s:e] = _backward(out, X[idx], counts[idx])
            vel *= cfg.momentum
            vel -= cfg.learning_rate * np.concatenate([g.ravel() for g in gw + gb])
            decay = cfg.learning_rate * cfg.weight_decay * theta[:n_weights]
            theta += vel
            theta[:n_weights] -= decay
        for s in range(0, n, block):
            rows[s:s + block] = _losses(out, counts[perm[s:s + block]], heads[:, s:s + block])
        epoch_loss = 0.0
        for s, e in batches:
            loss = float(rows[s:e].sum() / (e - s))
            if not np.isfinite(loss):
                raise NumericError(f"non-finite training loss {loss!r}")
            epoch_loss += loss
        if epoch_callback is not None:
            epoch_callback(epoch, epoch_loss / len(batches))
    return out


@_overflow_raises
def predict_batch(
    model: MLPModel, X
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """(alpha, beta, mode) for each row of the feature matrix X: the NB mode
    for negbin models; for regression, alpha and beta are None and the mode
    is the output rounded to the nearest count (at least 0)."""
    _, z = _forward_batch(model, np.asarray(X, dtype=float))
    if model.kind == "regression":
        if not (np.abs(z) < 2.0**53).all():  # False for nan
            raise NumericError("regression output must be finite and below 2**53")
        return None, None, np.maximum(np.floor(z[:, 0] + 0.5), 0.0).astype(np.int64)
    alpha, beta, _ = head_forward(z, model.head)
    return alpha, beta, nb_mode_batch(alpha, 1.0 / (1.0 + beta))


def predict_count(model: MLPModel, x) -> int:
    """Point count prediction: NB mode for negbin, rounded output for regression."""
    return int(predict_batch(model, np.reshape(x, (1, -1)))[2][0])


def gradient_check(
    model: MLPModel,
    batch: list[TrainingSample] | tuple[np.ndarray, np.ndarray],
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients
    on a batch of samples or of (X, counts) arrays.

    Steps are scaled per parameter: h_i = h * max(1, |theta_i|).
    """
    if h <= 0.0:
        raise NumericError("h must be > 0")
    X, counts = _stack(batch)
    _, (gw, gb) = loss_and_grads(model, X, counts)
    worst = 0.0
    for arr, g in zip(model.weights + model.biases, gw + gb):
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            lp, _ = loss_and_grads(model, X, counts)
            flat[i] = orig - step
            lm, _ = loss_and_grads(model, X, counts)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(numeric), 1e-10)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def model_to_json(model: MLPModel, meta: dict | None = None) -> str:
    """Serialise to a canonical JSON document (sorted keys, repr floats)."""
    doc = {
        "schema_version": formats.SCHEMA_VERSION,
        "kind": model.kind,
        "activation": model.activation,
        "dims": model.dims,
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
        "head": asdict(model.head),
        "seed": model.seed,
    }
    if meta:
        doc.update(meta)
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> MLPModel:
    """The model of a model document; DataError if the text is not one."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DataError(f"model file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError("model document is not a JSON object")
    if doc.get("schema_version") != formats.SCHEMA_VERSION:
        raise DataError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    try:
        head = HeadWeights(**doc["head"])
        model = MLPModel(
            weights=[np.asarray(l["weights"], dtype=float) for l in doc["layers"]],
            biases=[np.asarray(l["bias"], dtype=float) for l in doc["layers"]],
            activation=doc["activation"],
            head=head,
            kind=doc["kind"],
            seed=_check_seed(doc["seed"]),
        )
        if doc["dims"] != model.dims:
            raise ValueError(f"dims {doc['dims']!r} do not match the layers' {model.dims}")
        return model
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # NumericError is a ValueError
        raise DataError(f"invalid model document: {e}") from e


def save_model(model: MLPModel, path: str, meta: dict | None = None) -> None:
    formats.write_lines(path, model_to_json(model, meta))


def load_model(path: str) -> MLPModel:
    """The model saved at ``path``; a DataError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return model_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read model {path}: {e}") from e
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
