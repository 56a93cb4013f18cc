"""Discrete diffusion time: cumulative signal coefficients and per-step noise scales.

Each timestep rule has one home here: DiffusionSchedule derives alpha_bar
from beta, DiffusionSchedule.alpha_bars(t) is the one t -> (alpha_bar_t,
alpha_bar_{t-1}) lookup, and check_sigma the one bound sigma_t^2 <= 1 -
alpha_bar_{t-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_T",
    "DEFAULT_BETA_START",
    "DEFAULT_BETA_END",
    "DiffusionSchedule",
    "SigmaProfile",
    "build_schedule",
    "check_sigma",
    "sigma_at",
    "sigma_values",
]

DEFAULT_T = 100
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.08


def _float_key(values: np.ndarray) -> tuple:
    """Hash key of a float array that agrees with np.array_equal: 0.0 and
    -0.0 hash alike as Python floats."""
    return tuple(values.tolist())


@dataclass(frozen=True, eq=False)
class DiffusionSchedule:
    """Timestep grid for t = 1..T, built from the per-step variances alone.

    beta has length T; beta[i] is the step variance for timestep t = i+1.
    alpha_bar has length T+1 and is indexed 0..T with alpha_bar[0] = 1.0
    (clean data) and alpha_bar[t] = alpha_bar[t-1] * (1 - beta[t-1]).
    """

    beta: np.ndarray
    T: int = field(init=False)
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        be = np.asarray(self.beta, dtype=float)
        if be.ndim != 1 or be.size == 0:
            raise ValueError(f"beta must be a nonempty 1-d array, got shape {be.shape}")
        if not np.all(np.isfinite(be)):
            raise ValueError("beta values must be finite")
        if not np.all((be > 0.0) & (be < 1.0)):
            raise ValueError("beta values must lie in (0, 1)")
        ab = np.concatenate(([1.0], np.cumprod(1.0 - be)))
        if not (ab[-1] > 0.0 and np.all(np.diff(ab) < 0.0)):
            raise ValueError("alpha_bar must stay positive and strictly decrease;"
                             " it underflows, or 1 - beta rounds to 1")
        ab.setflags(write=False)
        be.setflags(write=False)
        object.__setattr__(self, "beta", be)
        object.__setattr__(self, "T", int(be.size))
        object.__setattr__(self, "alpha_bar", ab)

    def alpha_bars(self, t: int) -> tuple[float, float]:
        """(alpha_bar[t], alpha_bar[t-1]) as floats, for t in 1..T."""
        if not 1 <= t <= self.T:
            raise ValueError(f"t must lie in 1..{self.T}, got {t!r}")
        return float(self.alpha_bar[t]), float(self.alpha_bar[t - 1])

    # alpha_bar is a function of beta; comparing the arrays themselves with
    # the generated __eq__ would raise
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.beta, other.beta)

    def __hash__(self):
        return hash(_float_key(self.beta))


def check_sigma(sigma_t: float, alpha_bar_prev: float) -> None:
    """Refuse a sigma_t outside the reverse posterior's domain
    0 <= sigma_t^2 <= 1 - alpha_bar[t-1]."""
    gap = 1.0 - float(alpha_bar_prev)
    if not np.isfinite(sigma_t) or sigma_t < 0.0 or sigma_t * sigma_t > gap:
        raise ValueError(
            f"infeasible sigma_t={float(sigma_t)!r}: violates"
            f" 0 <= sigma^2 <= 1 - alpha_bar[t-1] = {gap!r}"
        )


@dataclass(frozen=True)
class SigmaProfile:
    """Per-step noise scale rule.

    kind "boundary" pins sigma_t = sqrt(1 - alpha_bar[t-1]); "ddim_eta"
    interpolates between deterministic (eta=0) and ancestral (eta=1)
    sampling; "custom" carries explicit values, values[i] for t = i+1.
    """

    kind: str
    eta: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("ddim_eta", "boundary", "custom"):
            raise ValueError(f"unknown sigma profile kind {self.kind!r}")
        if self.kind == "ddim_eta":
            if not np.isfinite(self.eta) or not 0.0 <= self.eta <= 1.0:
                raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.kind == "custom":
            if self.values is None:
                raise ValueError("custom sigma profile requires explicit values")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 1:
                raise ValueError("custom sigma values must be a 1-d sequence")
            if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
                raise ValueError("custom sigma values must be finite and nonnegative")
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)
        elif self.values is not None:
            raise ValueError(f"values are only valid for kind='custom', not {self.kind!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.values is None or other.values is None:
            same_values = self.values is other.values
        else:
            same_values = np.array_equal(self.values, other.values)
        return self.kind == other.kind and self.eta == other.eta and same_values

    def __hash__(self):
        values = None if self.values is None else _float_key(self.values)
        return hash((self.kind, self.eta, values))


def build_schedule(
    T: int = DEFAULT_T,
    beta_start: float = DEFAULT_BETA_START,
    beta_end: float = DEFAULT_BETA_END,
) -> DiffusionSchedule:
    """Linear-beta schedule: beta interpolated over T steps, alpha_bar by cumulative product.

    Args:
        T: number of timesteps; alpha_bar gets T+1 entries with alpha_bar[0] = 1.
        beta_start: per-step variance at t=1.
        beta_end: per-step variance at t=T.

    Returns:
        DiffusionSchedule with all invariants validated.
    """
    if not isinstance(T, (int, np.integer)) or isinstance(T, bool) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start!r}, {beta_end!r})"
        )
    return DiffusionSchedule(np.linspace(beta_start, beta_end, T))


def sigma_at(schedule: DiffusionSchedule, profile: SigmaProfile, t: int) -> float:
    """Noise scale sigma_t for one timestep; feasibility sigma_t^2 <= 1 - alpha_bar[t-1]."""
    ab_t, ab_prev = schedule.alpha_bars(t)
    if profile.kind == "boundary":
        gap = 1.0 - ab_prev
        sig = np.sqrt(gap)
        # fl(sqrt(g))^2 can land one ulp above g; step down so the returned
        # value is the largest float whose square stays feasible
        while sig * sig > gap:
            sig = np.nextafter(sig, 0.0)
        return float(sig)
    if profile.kind == "ddim_eta":
        # eta=1 recovers the ancestral posterior scale, eta=0 is deterministic DDIM
        return float(
            profile.eta
            * np.sqrt((1.0 - ab_prev) / (1.0 - ab_t))
            * np.sqrt(1.0 - ab_t / ab_prev)
        )
    vals = profile.values
    if vals.shape != (schedule.T,):
        raise ValueError(
            f"custom sigma values must have length T={schedule.T}, got {vals.shape[0]}"
        )
    sig = float(vals[t - 1])
    check_sigma(sig, ab_prev)
    return sig


def sigma_values(schedule: DiffusionSchedule, profile: SigmaProfile) -> np.ndarray:
    """All sigma_t for t = 1..T as an array of length T (index i holds t = i+1)."""
    return np.array([sigma_at(schedule, profile, t) for t in range(1, schedule.T + 1)])
