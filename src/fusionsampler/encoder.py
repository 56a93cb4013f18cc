"""Reference-conditioned embedding encoder and its training protocol.

ToyPromptNet maps (reference point, current noisy point, time features) to
an embedding consumed by ToyDenoiser's identity channel. Training minimizes
the denoising loss through the frozen denoiser plus an L2 penalty
lam * |S|^2 on the emitted embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import (
    N_TIME_FEATURES,
    ToyDenoiser,
    diffuse,
    time_features,
)
from fusionsampler.mixture import MixtureWorld
from fusionsampler.nets import MLP, Adam, TrainingDiverged

__all__ = [
    "ToyPromptNet",
    "TrainingConfig",
    "new_promptnet",
    "train_promptnet",
    "EncoderConditionedDenoiser",
    "augment_reference",
    "promptnet_loss_and_grads",
    "heldout_metrics",
]


class ToyPromptNet:
    """Encoder (x_ref, x_t, time) -> S in R^k: one MLP over the row
    [x_ref (d) | x_t (d) | time features (3)]."""

    def __init__(self, net: MLP, d: int, k: int, T: int):
        expected = 2 * d + N_TIME_FEATURES
        if net.d_in != expected or net.d_out != k:
            raise ValueError(
                f"net maps {net.d_in}->{net.d_out}, encoder needs {expected}->{k}"
            )
        self.net = net
        self.d = int(d)
        self.k = int(k)
        self.T = int(T)

    def inputs(self, x_ref, x_t, t) -> np.ndarray:
        x2 = np.atleast_2d(np.asarray(x_t, dtype=float))
        if x2.shape[1] != self.d:
            raise ValueError(f"x_t trailing dimension must be {self.d}, got {x2.shape[1]}")
        n = x2.shape[0]
        ref = np.asarray(x_ref, dtype=float)
        if ref.shape not in ((self.d,), (n, self.d)):
            raise ValueError(f"the reference point x_ref must have shape ({self.d},)"
                             f" or ({n}, {self.d}), got {ref.shape}")
        ref = np.broadcast_to(ref, (n, self.d))
        feats = np.broadcast_to(time_features(t, self.T), (n, N_TIME_FEATURES))
        return np.concatenate([ref, x2, feats], axis=1)

    def encode(self, x_ref, x_t, t) -> np.ndarray:
        squeeze = np.asarray(x_t).ndim == 1
        out, _ = self.net.forward(self.inputs(x_ref, x_t, t))
        return out[0] if squeeze else out

    def copy(self) -> "ToyPromptNet":
        return ToyPromptNet(self.net.copy(), self.d, self.k, self.T)

    def to_jsonable(self) -> dict:
        return {
            "net": self.net.to_jsonable(),
            "d": self.d,
            "k": self.k,
            "T": self.T,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ToyPromptNet":
        return cls(MLP.from_jsonable(obj["net"]), obj["d"], obj["k"], obj["T"])


def new_promptnet(denoiser: ToyDenoiser, hidden=(32, 32), seed: int = 0,
                  zero_head: bool = True) -> ToyPromptNet:
    """Fresh encoder sized for a denoiser; the zero head makes the initial
    embedding exactly 0, i.e. the null condition."""
    d, k = denoiser.d, denoiser.k_identity
    net = MLP((2 * d + N_TIME_FEATURES, *hidden, k), seed=seed, zero_head=zero_head)
    return ToyPromptNet(net, d, k, denoiser.T)


@dataclass(frozen=True)
class TrainingConfig:
    """Encoder training knobs. lam weighs the embedding regularizer."""

    lam: float = 0.0
    steps: int = 600
    batch: int = 128
    augment: bool = True
    lr: float = 2e-3
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be a nonnegative real, got {self.lam!r}")
        if (not isinstance(self.steps, (int, np.integer))
                or isinstance(self.steps, bool) or self.steps < 0):
            raise ValueError(f"steps must be a nonnegative integer, got {self.steps!r}")
        if (not isinstance(self.batch, (int, np.integer))
                or isinstance(self.batch, bool) or self.batch < 1):
            raise ValueError(f"batch must be a positive integer, got {self.batch!r}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive, got {self.lr!r}")


def augment_reference(x0: np.ndarray, rng: np.random.Generator,
                      scale: np.ndarray) -> np.ndarray:
    """Jittered, per-axis rescaled views of a reference batch."""
    factors = rng.uniform(0.9, 1.1, size=x0.shape)
    jitter = 0.05 * scale * rng.standard_normal(x0.shape)
    return x0 * factors + jitter


def _chained_loss(net: ToyPromptNet, denoiser: ToyDenoiser, xbar, x_t, t, eps,
                  text, lam: float):
    """Forward half of promptnet_loss_and_grads: the loss with the
    embeddings S, the residual and both nets' caches."""
    s_out, acts_e = net.net.forward(net.inputs(xbar, x_t, t))
    channels = np.concatenate([s_out, text], axis=1)
    y, acts_d = denoiser.net.forward(denoiser.inputs(x_t, channels, t))
    resid = y - eps
    loss = float(np.mean(np.sum(resid * resid, axis=1))
                 + lam * np.mean(np.sum(s_out * s_out, axis=1)))
    return loss, s_out, acts_e, resid, acts_d


def promptnet_loss_and_grads(net: ToyPromptNet, denoiser: ToyDenoiser,
                             xbar, x_t, t, eps, text, lam: float):
    """Chained loss mean|eps_hat - eps|^2 + lam mean|S|^2 on one fixed batch,
    with its gradient wrt the encoder's flat parameters (denoiser frozen)."""
    batch = x_t.shape[0]
    loss, s_out, acts_e, resid, acts_d = _chained_loss(
        net, denoiser, xbar, x_t, t, eps, text, lam)
    grad_in = denoiser.net.input_gradient(acts_d, 2.0 * resid / batch)
    g_s = grad_in[:, denoiser.identity_columns] + 2.0 * lam * s_out / batch
    return loss, net.net.backward(acts_e, g_s)


def heldout_metrics(net: ToyPromptNet, denoiser: ToyDenoiser, xbar, styles,
                    rng: np.random.Generator) -> tuple[float, float]:
    """Reconstruction error and mean embedding norm on one diffused batch.

    xbar holds the references, one row per sample, and styles their style
    indices, fed as one-hot text channels; the batch is diffused with rng.
    Forward passes only: the error is promptnet_loss_and_grads' loss at
    lam=0, and the norm is taken from the same embeddings.
    """
    x_t, t, eps = diffuse(denoiser.schedule, xbar, rng)
    text = np.eye(denoiser.k_text)[styles]
    recon, s, _, _, _ = _chained_loss(net, denoiser, xbar, x_t, t, eps, text, 0.0)
    return recon, float(np.mean(np.linalg.norm(s, axis=1)))


def train_promptnet(world: MixtureWorld, denoiser: ToyDenoiser,
                    tc: TrainingConfig) -> ToyPromptNet:
    """Fit the encoder through the frozen denoiser.

    Minimizes E|eps - eps_hat|^2 + lam |S|^2 over the world's prior, feeding
    each draw's style one-hot as the text channel and the augmented view of
    the draw as the reference. tc.steps=0 returns the initialization
    unchanged.
    """
    n_c = world.n_styles
    rng = np.random.default_rng((tc.seed, 2))
    net = new_promptnet(denoiser, seed=tc.seed)
    scale = np.sqrt(np.diag(world.data_cov()))
    opt = Adam(net.net.params.size, lr=tc.lr)
    for step in range(1, tc.steps + 1):
        x0, cells = world.sample(tc.batch, rng)
        xbar = augment_reference(x0, rng, scale) if tc.augment else x0
        x_t, t, eps = diffuse(denoiser.schedule, xbar, rng)
        text = np.eye(n_c)[cells % n_c]
        loss, grad = promptnet_loss_and_grads(
            net, denoiser, xbar, x_t, t, eps, text, tc.lam)
        if not np.isfinite(loss):
            raise TrainingDiverged(step, loss)
        opt.step(net.net.params, grad)
    return net


class EncoderConditionedDenoiser:
    """Noise predictor whose identity slot holds a reference point.

    predict_eps encodes cond.identity (interpreted as x_ref) at the current
    (x_t, t) and writes the per-row embeddings, scaled by cond.gamma, into
    the identity columns of the wrapped denoiser's condition block; the text
    slot passes through. Like its input, the embeddings are not judged.
    """

    def __init__(self, encoder: ToyPromptNet, denoiser: ToyDenoiser):
        if encoder.k != denoiser.k_identity or encoder.d != denoiser.d:
            raise ValueError("encoder output does not fit the denoiser's identity channel")
        if encoder.T != denoiser.T:
            raise ValueError(f"encoder T={encoder.T} does not match the denoiser's"
                             f" T={denoiser.T}")
        self.encoder = encoder
        self.denoiser = denoiser

    @property
    def d(self) -> int:
        return self.denoiser.d

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray:
        if cond is None or cond.identity is None:
            return self.denoiser.predict_eps(x_t, cond, t)
        n = len(np.atleast_2d(x_t))
        channels = self.denoiser.condition_channels(None, cond.text, n)
        embedding = self.encoder.encode(cond.identity, x_t, t)
        channels[:, :self.encoder.k] = cond.gamma * embedding
        return self.denoiser.channel_eps(x_t, channels, t)
