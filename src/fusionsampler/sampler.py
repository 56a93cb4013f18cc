"""Sampling loops: vanilla classifier-free, independent-conditions, and the
two-stage fusion scheme.

Per-step structure of fusion mode: m fusion iterations, each computing a
joint-condition guided prediction on the gamma-scaled identity, predicting
the clean sample, stepping back to t-1, and re-noising to t again; then a
refinement step computing the independent-conditions guided prediction on the
unscaled conditions and performing one classifier-free reverse step. m=0
skips straight to the refinement step, which is exactly independent mode, and
the two share one code path so bit-identity holds structurally. Without the
refinement step a fusion step is its first joint pass alone, so that setting
takes m=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.guidance import GuidanceWeights, cfg_independent, cfg_single
from fusionsampler.posterior import predict_x0, renoise, sample_prev
from fusionsampler.predictors import NoisePredictor, predict_eps
from fusionsampler.schedule import DiffusionSchedule, SigmaProfile, sigma_at

__all__ = [
    "FusionConfig",
    "SampleStreams",
    "ddim_step",
    "fusion_step",
    "sample_trajectory",
]

_MODES = ("vanilla_cfg", "independent", "fusion")


@dataclass(frozen=True)
class FusionConfig:
    """Sampler knobs.

    gamma scales the identity slot during the fusion stage only; vanilla,
    independent, and the refinement step consume the conditions as given.
    Without refinement a step is one fusion pass and ends there, so
    use_refinement=False requires m=1: any other m would either do nothing
    (m=0) or be silently cut to one pass.
    """

    m: int = 1
    gamma: float = 0.4
    use_refinement: bool = True
    weights: GuidanceWeights = field(default_factory=GuidanceWeights)
    sigma: SigmaProfile = field(default_factory=lambda: SigmaProfile("boundary"))
    mode: str = "fusion"

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {self.m!r}")
        if not np.isfinite(self.gamma) or not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.use_refinement and self.m != 1:
            raise ValueError(
                "use_refinement=False runs exactly one fusion pass per step,"
                f" so it needs m=1, got m={self.m!r}"
            )


class SampleStreams:
    """Per-sample RNG streams derived from (seed, sample_index).

    Draws for a batch take row i from stream i, so each sample's noise
    sequence depends only on (seed, i) and the number of draws made, never on
    the batch size or on other samples.

    Values are served from a per-stream buffer that is refilled in place with
    one generator call per stream every _CHUNK values, instead of n generator
    calls per draw. Above 4096 streams the buffer is narrower, so that it
    holds at most _BUFFER_VALUES values in all. A PCG64 generator yields the
    same normals whether k values are drawn in one call or split over
    several, so the buffered sequence is bit-identical to drawing each value
    on demand. The buffer widens only when a single draw needs more than its
    width. Every draw returns a fresh array: writing to it cannot change
    later draws, and an array held across later draws keeps its values.
    """

    _CHUNK = 64  # values drawn per stream at each refill
    # 2 MB: at n = 40000 a full-width buffer would add 20 MB to the 37 MB
    # that the generators take
    _BUFFER_VALUES = 2**18

    def __init__(self, seed: int, n: int):
        if n < 1:
            raise ValueError(f"need at least one sample, got n={n}")
        self.seed = int(seed)
        self.n = int(n)
        self._gens = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            for i in range(n)
        ]
        width = min(self._CHUNK, self._BUFFER_VALUES // self.n)
        self._buf = np.empty((self.n, width))
        self._pos = width  # next unserved column; the buffer starts empty

    def standard_normal(self, shape) -> np.ndarray:
        if isinstance(shape, int) or len(shape) == 0 or shape[0] != self.n:
            raise ValueError(f"leading dimension must be n={self.n}, got {shape!r}")
        shape = tuple(shape)
        if any(dim < 0 for dim in shape[1:]):
            raise ValueError(f"negative dimensions are not allowed, got {shape!r}")
        k = math.prod(shape[1:])
        if self._pos + k > self._buf.shape[1]:
            self._refill(k)
        out = self._buf[:, self._pos:self._pos + k].reshape(shape).copy()
        self._pos += k
        return out

    def _refill(self, k: int) -> None:
        """Move the unserved values to the front, then draw each stream's
        remaining columns in place; widen first if k exceeds the buffer."""
        left = self._buf[:, self._pos:]
        kept = left.shape[1]
        if k > self._buf.shape[1]:
            self._buf = np.empty((self.n, k))
        self._buf[:, :kept] = left
        for gen, row in zip(self._gens, self._buf[:, kept:]):
            gen.standard_normal(out=row)
        self._pos = 0


def ddim_step(x_t, t: int, eps_tilde, schedule: DiffusionSchedule, sigma_t: float,
              rng) -> np.ndarray:
    """One reverse step around the guided prediction.

    x_{t-1} = sqrt(ab_prev) * x0_hat + sqrt(1 - ab_prev - sigma^2) * eps + sigma * z,
    with x0_hat from predict_x0; sigma=0 consumes no randomness.
    """
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t must lie in 1..{schedule.T}, got {t!r}")
    ab_t = float(schedule.alpha_bar[t])
    ab_prev = float(schedule.alpha_bar[t - 1])
    if not np.isfinite(sigma_t) or sigma_t < 0.0 or sigma_t * sigma_t > 1.0 - ab_prev:
        raise ValueError(
            f"infeasible sigma_t={sigma_t!r} at t={t}: need 0 <= sigma^2 <="
            f" 1 - alpha_bar[t-1] = {1.0 - ab_prev!r}"
        )
    x_t = np.asarray(x_t, dtype=float)
    eps_tilde = np.asarray(eps_tilde, dtype=float)
    x0_hat = predict_x0(x_t, eps_tilde, ab_t)
    mean = (
        np.sqrt(ab_prev) * x0_hat
        + np.sqrt(1.0 - ab_prev - sigma_t * sigma_t) * eps_tilde
    )
    if sigma_t == 0.0:
        return mean
    return mean + sigma_t * rng.standard_normal(mean.shape)


def _joint_guided_eps(predictor: NoisePredictor, x, cond: ConditionSet, t: int,
             omega: float) -> np.ndarray:
    eps_joint = predict_eps(predictor, x, cond, t)
    eps_uncond = predict_eps(predictor, x, cond.nulled(), t)
    return cfg_single(eps_joint, eps_uncond, omega)


def _split_guided_eps(predictor: NoisePredictor, x, cond: ConditionSet, t: int,
             w: GuidanceWeights) -> np.ndarray:
    eps_uncond = predict_eps(predictor, x, cond.nulled(), t)
    eps_s = predict_eps(predictor, x, cond.identity_only(), t)
    eps_c = predict_eps(predictor, x, cond.text_only(), t)
    return cfg_independent(eps_uncond, eps_s, eps_c, w)


def _refinement_step(x, t, cond, cfg, predictor, schedule, sigma_t, rng) -> np.ndarray:
    eps = _split_guided_eps(predictor, x, cond, t, cfg.weights)
    return ddim_step(x, t, eps, schedule, sigma_t, rng)


def fusion_step(x_t, t: int, cond: ConditionSet, cfg: FusionConfig,
                predictor: NoisePredictor, schedule: DiffusionSchedule,
                rng) -> np.ndarray:
    """One full timestep of the two-stage scheme; returns x_{t-1}.

    The fusion stage needs sigma_t > 0 for its re-noising draw; a zero sigma
    with m >= 1 and refinement on raises, except at t=1 where sigma is forced
    to 0 by the schedule and the fusion stage degenerates to the identity (the
    zero-sigma limit of the fused update), so only refinement runs there.
    """
    sigma_t = sigma_at(schedule, cfg.sigma, t)
    x = np.asarray(x_t, dtype=float)
    if cfg.m >= 1 and not (t == 1 and cfg.use_refinement):
        if sigma_t == 0.0 and cfg.use_refinement:
            raise ValueError(
                f"fusion stage at t={t} needs sigma_t > 0 for re-noising;"
                " use m=0 for deterministic steps"
            )
        fusion_cond = cond.with_gamma(cfg.gamma)
        ab_t = float(schedule.alpha_bar[t])
        for _ in range(cfg.m):
            eps = _joint_guided_eps(predictor, x, fusion_cond, t, cfg.weights.omega)
            x0_hat = predict_x0(x, eps, ab_t)
            x_prev = sample_prev(x, x0_hat, t, schedule, sigma_t, rng)
            if not cfg.use_refinement:
                return x_prev
            x = renoise(x_prev, x0_hat, t, schedule, sigma_t, rng)
    return _refinement_step(x, t, cond, cfg, predictor, schedule, sigma_t, rng)


def _vanilla_step(x, t, cond, cfg, predictor, schedule, rng) -> np.ndarray:
    sigma_t = sigma_at(schedule, cfg.sigma, t)
    eps = _joint_guided_eps(predictor, x, cond, t, cfg.weights.omega)
    return ddim_step(x, t, eps, schedule, sigma_t, rng)


def _independent_step(x, t, cond, cfg, predictor, schedule, rng) -> np.ndarray:
    sigma_t = sigma_at(schedule, cfg.sigma, t)
    return _refinement_step(x, t, cond, cfg, predictor, schedule, sigma_t, rng)


_STEP_FNS = {
    "vanilla_cfg": _vanilla_step,
    "independent": _independent_step,
    "fusion": fusion_step,
}


def sample_trajectory(cond: ConditionSet, cfg: FusionConfig,
                      predictor: NoisePredictor, schedule: DiffusionSchedule,
                      n_samples: int, seed: int) -> np.ndarray:
    """Run the configured per-step operator from x_T ~ Normal(0, I) down to
    x_0; returns the (n_samples, d) samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    step_fn = _STEP_FNS[cfg.mode]
    streams = SampleStreams(seed, n_samples)
    x = streams.standard_normal((n_samples, predictor.d))
    for t in range(schedule.T, 0, -1):
        x = step_fn(x, t, cond, cfg, predictor, schedule, streams)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"sampling produced non-finite state at t={t}")
    return x
