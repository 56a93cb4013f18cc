"""Small trained noise predictor over mixture worlds.

The network sees the noisy point, an identity channel, a style channel and
three timestep features, and is trained on the standard denoising loss
E||eps - eps_hat||^2 with per-slot condition dropout so the zero channel
doubles as the null condition. Channel vectors are whatever the caller
feeds through ConditionSet: one-hot class indicators here, learned
embeddings once an encoder is attached.
"""

from __future__ import annotations

import functools

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.mixture import MixtureWorld
from fusionsampler.nets import MLP, Adam, TrainingDiverged
from fusionsampler.schedule import DiffusionSchedule

__all__ = [
    "N_TIME_FEATURES",
    "time_features",
    "ToyDenoiser",
    "train_denoiser",
    "sample_training_batch",
    "diffuse",
]

N_TIME_FEATURES = 3

# train_denoiser's batch size and Adam step size, and the chance that a
# training batch drops each condition slot to the null channel
_BATCH = 256
_LR = 1.5e-3
_P_DROP = 0.15


@functools.lru_cache(maxsize=16)
def _time_table(T: int) -> np.ndarray:
    """time_features for t = 0..T, row t, read-only."""
    tau = np.arange(T + 1, dtype=float) / float(T)
    table = np.stack([tau, np.sin(np.pi * tau), np.cos(np.pi * tau)], axis=-1)
    table.setflags(write=False)
    return table


def time_features(t, T: int) -> np.ndarray:
    """Per-sample features [tau, sin(pi tau), cos(pi tau)], tau = t/T, for
    integer timesteps t in 0..T (a scalar or an array), read from a table
    built once per T."""
    table = _time_table(int(T))
    if isinstance(t, (int, np.integer)):
        if not 0 <= t <= T:
            raise ValueError(f"t must lie in 0..{T}, got {t!r}")
        return table[t].copy()
    t = np.asarray(t)
    if t.dtype.kind not in "iu" or (t.size and t.min() < 0):
        raise ValueError(f"t must hold integer timesteps in 0..{T}")
    # np.take raises on an index above T
    return np.take(table, t, axis=0)


class ToyDenoiser:
    """MLP noise predictor with (identity, style) condition channels.

    Input layout per row: [x_t (d) | identity channel (k_identity) | style
    channel (k_text) | time features (3)]. gamma scales the identity channel
    only; a null slot contributes a zero channel.
    """

    def __init__(self, net: MLP, d: int, k_identity: int, k_text: int,
                 schedule: DiffusionSchedule):
        expected = d + k_identity + k_text + N_TIME_FEATURES
        if net.d_in != expected or net.d_out != d:
            raise ValueError(
                f"net maps {net.d_in}->{net.d_out}, denoiser needs {expected}->{d}"
            )
        self.net = net
        self._d = int(d)
        self.k_identity = int(k_identity)
        self.k_text = int(k_text)
        self.schedule = schedule

    @property
    def T(self) -> int:
        return self.schedule.T

    @property
    def d(self) -> int:
        return self._d

    @property
    def identity_columns(self) -> slice:
        """Input columns holding the identity channel."""
        return slice(self._d, self._d + self.k_identity)

    def condition_channels(self, cond: ConditionSet | None, n: int) -> np.ndarray:
        """Build the (n, k_identity + k_text) condition block for a batch.

        The identity slot holds one channel vector of shape (k_identity,)
        shared by the batch, or one per row, shape (n, k_identity).
        """
        block = np.zeros((n, self.k_identity + self.k_text))
        if cond is None:
            return block
        if cond.identity is not None:
            ident = np.asarray(cond.identity, dtype=float)
            if ident.shape not in ((self.k_identity,), (n, self.k_identity)):
                raise ValueError(
                    f"identity channel must have shape ({self.k_identity},) or"
                    f" ({n}, {self.k_identity}), got {ident.shape}"
                )
            block[:, :self.k_identity] = cond.gamma * ident
        if cond.text is not None:
            text = np.asarray(cond.text, dtype=float)
            if text.shape != (self.k_text,):
                raise ValueError(
                    f"style channel must have shape ({self.k_text},), got {text.shape}"
                )
            block[:, self.k_identity:] = text
        return block

    def inputs(self, x2: np.ndarray, channels: np.ndarray, t) -> np.ndarray:
        """Network input rows [x_t | channels | time features]."""
        feats = np.broadcast_to(time_features(t, self.T), (x2.shape[0], N_TIME_FEATURES))
        return np.concatenate([x2, channels, feats], axis=1)

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray:
        x = np.asarray(x_t, dtype=float)
        self.schedule.alpha_bars(t)  # refuses a t outside 1..T
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        if x2.shape[1] != self._d:
            raise ValueError(f"x_t trailing dimension must be {self._d}, got {x2.shape[1]}")
        channels = self.condition_channels(cond, x2.shape[0])
        y, _ = self.net.forward(self.inputs(x2, channels, t))
        return y[0] if squeeze else y

    def to_jsonable(self) -> dict:
        return {
            "net": self.net.to_jsonable(),
            "d": self._d,
            "k_identity": self.k_identity,
            "k_text": self.k_text,
            "beta": self.schedule.beta.tolist(),
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "ToyDenoiser":
        return cls(MLP.from_jsonable(obj["net"]), obj["d"], obj["k_identity"],
                   obj["k_text"], DiffusionSchedule(obj["beta"]))


def diffuse(schedule: DiffusionSchedule, x0: np.ndarray, rng: np.random.Generator):
    """Forward-diffuse a clean batch at uniform random timesteps.

    Returns (x_t, t, eps); draws t first and eps second, so every caller
    consumes the generator in the same order.
    """
    t = rng.integers(1, schedule.T + 1, size=x0.shape[0])
    eps = rng.standard_normal(x0.shape)
    ab = schedule.alpha_bar[t]
    x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps
    return x_t, t, eps


def sample_training_batch(world: MixtureWorld, schedule: DiffusionSchedule,
                          rng: np.random.Generator, batch: int):
    """One denoising-loss batch with per-slot condition dropout (each slot
    is dropped with probability _P_DROP).

    Returns (x_t, channels, t, eps, cells, visible) where channels is the
    one-hot condition block after dropout, cells the true (i, c) indices and
    visible the per-slot keep flags. The draw order is fixed so the batch is
    a pure function of the generator state.
    """
    n_c = world.n_styles
    x0, cells = world.sample(batch, rng)
    x_t, t, eps = diffuse(schedule, x0, rng)
    visible = rng.random((batch, 2)) >= _P_DROP
    ident = np.eye(world.n_identities)[cells // n_c] * visible[:, 0:1]
    text = np.eye(n_c)[cells % n_c] * visible[:, 1:2]
    return x_t, np.concatenate([ident, text], axis=1), t, eps, cells, visible


def train_denoiser(world: MixtureWorld, schedule: DiffusionSchedule,
                   steps: int, seed: int, *, hidden=(64, 64)) -> ToyDenoiser:
    """Fit ToyDenoiser on the denoising loss; deterministic per seed."""
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    d, n_i, n_c = world.d, world.n_identities, world.n_styles
    sizes = (d + n_i + n_c + N_TIME_FEATURES, *hidden, d)
    net = MLP(sizes, seed=seed)
    den = ToyDenoiser(net, d, n_i, n_c, schedule)
    rng = np.random.default_rng((seed, 1))
    opt = Adam(net.params.size, lr=_LR)
    for step in range(1, steps + 1):
        x_t, channels, t, eps, _, _ = sample_training_batch(
            world, schedule, rng, _BATCH)
        y, acts = net.forward(den.inputs(x_t, channels, t))
        resid = y - eps
        loss = float(np.mean(resid * resid))
        if not np.isfinite(loss):
            raise TrainingDiverged(step, loss)
        opt.step(net.params, net.backward(acts, 2.0 * resid / _BATCH))
    return den
