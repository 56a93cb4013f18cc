"""Discrete diffusion time: cumulative signal coefficients and per-step noise scales.

Each timestep rule has one home here: DiffusionSchedule derives alpha_bar
from beta, DiffusionSchedule.alpha_bars(t) is the one t -> (alpha_bar_t,
alpha_bar_{t-1}) lookup, check_sigma the one bound sigma_t^2 <= 1 -
alpha_bar_{t-1}, and sigma_values the one resolver of a sigma profile.
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
    "sigma_values",
]

DEFAULT_T = 100
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.08


@dataclass(frozen=True, eq=False)
class DiffusionSchedule:
    """Timestep grid for t = 1..T, built from the per-step variances alone.

    beta has length T; beta[i] is the step variance for timestep t = i+1.
    alpha_bar has length T+1 and is indexed 0..T with alpha_bar[0] = 1.0
    (clean data) and alpha_bar[t] = alpha_bar[t-1] * (1 - beta[t-1]).
    Equality and hashing are by identity (eq=False), as for ConditionSet;
    compare beta for value equality.
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


def check_sigma(sigma_t: float, alpha_bar_prev: float) -> None:
    """Refuse a sigma_t outside the reverse posterior's domain
    0 <= sigma_t^2 <= 1 - alpha_bar[t-1]."""
    gap = 1.0 - float(alpha_bar_prev)
    if not np.isfinite(sigma_t) or sigma_t < 0.0 or sigma_t * sigma_t > gap:
        raise ValueError(
            f"infeasible sigma_t={float(sigma_t)!r}: violates"
            f" 0 <= sigma^2 <= 1 - alpha_bar[t-1] = {gap!r}"
        )


@dataclass(frozen=True, eq=False)
class SigmaProfile:
    """Per-step noise scale rule.

    kind "boundary" pins sigma_t = sqrt(1 - alpha_bar[t-1]); "ddim_eta"
    interpolates between deterministic (eta=0) and ancestral (eta=1)
    sampling; "custom" carries explicit values, values[i] for t = i+1.
    Equality and hashing are by identity (eq=False), as for ConditionSet.
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


def sigma_values(schedule: DiffusionSchedule, profile: SigmaProfile) -> np.ndarray:
    """Every sigma_t of profile on schedule, as an array of length T (index i
    holds t = i+1): the one resolver of a sigma profile, run once per
    trajectory. A custom value is bounded by check_sigma; the other kinds
    are feasible by construction."""
    ab_t, ab_prev = schedule.alpha_bar[1:], schedule.alpha_bar[:-1]
    gap = 1.0 - ab_prev
    if profile.kind == "boundary":
        sig = np.sqrt(gap)
        # fl(sqrt(g))^2 can land one ulp above g; step such a value down so
        # it is the largest float whose square stays feasible
        while (over := sig * sig > gap).any():
            sig[over] = np.nextafter(sig[over], 0.0)
        return sig
    if profile.kind == "ddim_eta":
        # eta=1 recovers the ancestral posterior scale, eta=0 is deterministic DDIM
        return profile.eta * np.sqrt(gap / (1.0 - ab_t)) * np.sqrt(1.0 - ab_t / ab_prev)
    sig = profile.values
    if sig.shape != (schedule.T,):
        raise ValueError(
            f"custom sigma values must have length T={schedule.T}, got {sig.shape[0]}"
        )
    for sig_t, ab in zip(sig, ab_prev):
        check_sigma(sig_t, ab)
    return sig
