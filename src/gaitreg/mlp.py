"""Fully connected feed-forward regressor trained by backpropagation.

Default architecture [6, 100, 100, 100, 2]: three rectifier hidden layers
of 100 units and a linear output.  The optimizer is SGD with momentum,

    v <- mu * v - lr * g        (g already includes the L2 term)
    w <- w + v

and the objective is

    L = (1 / 2n) * sum ||y_hat - y||^2  +  (lambda / 2) * sum ||W||^2

with the penalty on weights only, biases excluded.  All randomness
(initial weights, epoch shuffles) flows through gaitreg.rng streams; the
rectifier subgradient at exactly 0 is taken as 0.

train runs its own lean step instead of one loss_and_gradient + sgd_step
pair per batch.  It keeps one flat float64 buffer each for the parameters,
the gradients and the velocities (all weights, then all biases); the layers
work on reshaped views of them, and the per-batch activations live in
preallocated buffers.  The gradient is computed in loss_and_gradient's
order, by the same forward/backward core, and the momentum update is four
elementwise passes over every parameter at once.  Elementwise arithmetic
does not depend on how the arrays are grouped, so the trained weights equal
the per-layer loop's bit for bit.  The results are copied back into the
model's own arrays when training ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, TrainError
from .rng import SplitMix64, derive_seed

DEFAULT_LAYER_DIMS = (6, 100, 100, 100, 2)

# gradient_check passes when every probed relative error is below this
GRADCHECK_THRESHOLD = 1e-4


@dataclass
class MlpModel:
    """Weight matrices W_l (fan_out x fan_in) and bias vectors b_l."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def n_layers(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    learning_rate: float = 1e-4
    momentum: float = 0.9
    l2_penalty: float = 1e-2
    batch_size: int = 16
    shuffle_seed: int = 7140

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.l2_penalty < 0.0:
            raise ConfigError(f"l2_penalty must be >= 0, got {self.l2_penalty}")


@dataclass
class OptimizerState:
    """Velocity buffers mirroring every parameter, zero-initialized."""

    vel_weights: list[np.ndarray]
    vel_biases: list[np.ndarray]

    @classmethod
    def zeros_like(cls, model: MlpModel) -> "OptimizerState":
        return cls(
            [np.zeros_like(w) for w in model.weights],
            [np.zeros_like(b) for b in model.biases],
        )


def init(layer_dims: Sequence[int] = DEFAULT_LAYER_DIMS, init_seed: int = 1) -> MlpModel:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases.

    One splitmix64 stream seeded with init_seed fills the layers in order,
    each weight matrix row-major, so a seed pins every parameter.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims must list >= 2 positive sizes, got {dims}")
    stream = SplitMix64(init_seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        u = stream.uniform_block(fan_out * fan_in)
        weights.append((bound * (2.0 * u - 1.0)).reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, weights, biases)


def _buffers(layer_dims: Sequence[int], rows: int):
    """Per-layer (pre-activations, activations, deltas) for a batch of rows.

    acts[0] is left for the caller to point at the batch; the output
    layer's activation is its pre-activation buffer.
    """
    pres = [np.empty((rows, d)) for d in layer_dims[1:]]
    acts = [None] + [np.empty((rows, d)) for d in layer_dims[1:-1]] + [pres[-1]]
    deltas = [np.empty((rows, d)) for d in layer_dims[1:]]
    return pres, acts, deltas


def _forward_layers(weights, biases, acts, pres) -> None:
    """Fill pres[l] and acts[l + 1] in place from the batch in acts[0]."""
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[l], w.T, out=pres[l])
        z += b
        if not np.isfinite(z).all():
            raise TrainError(f"non-finite values at layer {l}")
        if l < last:
            np.maximum(z, 0.0, out=acts[l + 1])


def _backward_layers(weights, acts, pres, deltas, grad_w, grad_b, l2_penalty) -> None:
    """Objective gradients, L2 term included, by reverse accumulation.

    deltas[-1] holds d(data loss)/d(output) on entry; the other delta
    buffers are overwritten.  grad_w and grad_b are written in place.
    """
    delta = deltas[-1]
    for l in range(len(weights) - 1, -1, -1):
        if l < len(weights) - 1:
            delta *= pres[l] > 0.0  # rectifier subgradient, 0 at 0
        np.matmul(delta.T, acts[l], out=grad_w[l])
        grad_w[l] += l2_penalty * weights[l]
        np.add.reduce(delta, axis=0, out=grad_b[l])
        if l > 0:
            delta = np.matmul(delta, weights[l], out=deltas[l - 1])


def _forward_pass(model: MlpModel, x: np.ndarray):
    """Returns (activations per layer including input, pre-activations, deltas)."""
    pres, acts, deltas = _buffers(model.layer_dims, x.shape[0])
    acts[0] = x
    _forward_layers(model.weights, model.biases, acts, pres)
    return acts, pres, deltas


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on one input vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise TrainError("non-finite input to forward pass")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.layer_dims[0]:
        raise ConfigError(f"input width {x.shape[1]} != model input {model.layer_dims[0]}")
    acts, _, _ = _forward_pass(model, x)
    out = acts[-1]
    return out[0] if single else out


def loss_and_gradient(
    model: MlpModel, x: np.ndarray, y: np.ndarray, l2_penalty: float
) -> tuple[float, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Objective and its gradient on one batch by reverse accumulation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ConfigError(f"batch shapes {x.shape} / {y.shape} do not align")
    n = x.shape[0]
    acts, pres, deltas = _forward_pass(model, x)
    resid = np.subtract(acts[-1], y, out=deltas[-1])
    data_loss = 0.5 * float(np.sum(resid**2)) / n
    reg_loss = 0.5 * l2_penalty * sum(float(np.sum(w**2)) for w in model.weights)

    resid /= n
    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]
    _backward_layers(model.weights, acts, pres, deltas, grad_w, grad_b, l2_penalty)
    return data_loss + reg_loss, (grad_w, grad_b)


def sgd_step(
    model: MlpModel,
    state: OptimizerState,
    grads: tuple[list[np.ndarray], list[np.ndarray]],
    config: TrainConfig,
) -> tuple[MlpModel, OptimizerState]:
    """One momentum update in place; returns the same objects."""
    grad_w, grad_b = grads
    mu = config.momentum
    lr = config.learning_rate
    for l in range(model.n_layers()):
        state.vel_weights[l] *= mu
        state.vel_weights[l] -= lr * grad_w[l]
        model.weights[l] += state.vel_weights[l]
        state.vel_biases[l] *= mu
        state.vel_biases[l] -= lr * grad_b[l]
        model.biases[l] += state.vel_biases[l]
    return model, state


def train(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
) -> tuple[MlpModel, list[float]]:
    """Mini-batch SGD for the configured number of epochs.

    Rows are reshuffled every epoch with the stream seeded from
    (shuffle_seed, epoch); the final partial batch is kept.  The returned
    trace holds one value per epoch: the batch-size-weighted mean of the
    objective over that epoch's mini-batches.  The model's arrays are
    updated in place; after a TrainError they hold the weights from before
    the failing batch.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigError("training set is empty")
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ConfigError(f"training shapes {x.shape} / {y.shape} do not align")
    n = x.shape[0]
    l2 = config.l2_penalty
    layers = model.n_layers()
    params = model.weights + model.biases
    theta = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(theta)
    vel = np.zeros_like(theta)
    theta_views, grad_views = _views(theta, params), _views(grad, params)
    weights, biases = theta_views[:layers], theta_views[layers:]
    grad_w, grad_b = grad_views[:layers], grad_views[layers:]
    theta_w = theta[: sum(w.size for w in weights)]

    # every batch but a partial last one has min(batch_size, n) rows
    batch_rows = {min(config.batch_size, n), n % config.batch_size} - {0}
    spaces = {m: _buffers(model.layer_dims, m) for m in batch_rows}
    trace = []
    try:
        # a diverging fit's overflow is reported by the isfinite and loss checks
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                perm = SplitMix64(derive_seed(config.shuffle_seed, epoch)).permutation(n)
                xs, ys = x[perm], y[perm]
                epoch_loss = 0.0
                for start in range(0, n, config.batch_size):
                    xb = xs[start : start + config.batch_size]
                    m = xb.shape[0]
                    pres, acts, deltas = spaces[m]
                    acts[0] = xb
                    try:
                        _forward_layers(weights, biases, acts, pres)
                    except TrainError as exc:
                        raise TrainError(f"training diverged at epoch {epoch}: {exc}") from None
                    resid = np.subtract(pres[-1], ys[start : start + m], out=deltas[-1]).ravel()
                    # einsum, not BLAS dot: OpenBLAS threads a dot of over 10k
                    # entries, and a busy second core then stalls the step
                    loss = 0.5 * float(np.einsum("i,i->", resid, resid)) / m
                    loss += 0.5 * l2 * float(np.einsum("i,i->", theta_w, theta_w))
                    if not math.isfinite(loss):
                        raise TrainError(f"training diverged at epoch {epoch}: loss {loss}")
                    deltas[-1] /= m
                    _backward_layers(weights, acts, pres, deltas, grad_w, grad_b, l2)
                    # the momentum update in the same arithmetic as sgd_step
                    vel *= config.momentum
                    grad *= config.learning_rate
                    vel -= grad
                    theta += vel
                    epoch_loss += loss * m
                trace.append(epoch_loss / n)
    finally:
        for p, v in zip(params, theta_views):
            p[...] = v
    return model, trace


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive slices of flat, reshaped like each array in turn."""
    views = []
    start = 0
    for a in like:
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


def gradient_check(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    l2_penalty: float,
    samples_per_tensor: int = 50,
    step: float = 1e-5,
    seed: int = 99,
) -> tuple[bool, float]:
    """Compare analytic gradients to central finite differences.

    For each parameter tensor, up to samples_per_tensor entries are probed.
    Relative error per entry is |fd - g| / max(|g|, |fd|, 1e-3); the floor
    makes an absolute error of 1e-7 on a near-zero gradient count as 1e-4.
    Returns (all entries below GRADCHECK_THRESHOLD, max relative error).
    """
    _, (grad_w, grad_b) = loss_and_gradient(model, x, y, l2_penalty)
    tensors = [(model.weights[l], grad_w[l]) for l in range(model.n_layers())]
    tensors += [(model.biases[l], grad_b[l]) for l in range(model.n_layers())]
    stream = SplitMix64(seed)
    max_rel = 0.0
    for theta, grad in tensors:
        flat = theta.ravel()
        gflat = grad.ravel()
        count = min(samples_per_tensor, flat.size)
        picks = sorted(
            set(int(u * flat.size) for u in stream.uniform_block(2 * count))
        )[:count]
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + step
            lo_hi, _ = loss_and_gradient(model, x, y, l2_penalty)
            flat[idx] = orig - step
            lo_lo, _ = loss_and_gradient(model, x, y, l2_penalty)
            flat[idx] = orig
            fd = (lo_hi - lo_lo) / (2.0 * step)
            rel = abs(fd - gflat[idx]) / max(abs(gflat[idx]), abs(fd), 1e-3)
            max_rel = max(max_rel, rel)
    return max_rel < GRADCHECK_THRESHOLD, max_rel
