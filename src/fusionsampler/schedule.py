"""Discrete diffusion time: cumulative signal coefficients and per-step noise scales."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_T",
    "DEFAULT_BETA_START",
    "DEFAULT_BETA_END",
    "DiffusionSchedule",
    "SigmaProfile",
    "build_schedule",
    "schedule_from_betas",
    "sigma_at",
    "sigma_values",
]

DEFAULT_T = 100
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.08

_RECURRENCE_RTOL = 1e-12


def _float_key(values: np.ndarray) -> tuple:
    """Hash key of a float array that agrees with np.array_equal: 0.0 and
    -0.0 hash alike as Python floats."""
    return tuple(values.tolist())


@dataclass(frozen=True)
class DiffusionSchedule:
    """Timestep grid for t = 1..T.

    alpha_bar has length T+1 and is indexed 0..T with alpha_bar[0] = 1.0
    (clean data). beta has length T; beta[i] is the step variance for
    timestep t = i+1, so alpha_bar[t] = alpha_bar[t-1] * (1 - beta[t-1]).
    """

    T: int
    alpha_bar: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if not isinstance(self.T, (int, np.integer)) or self.T < 1:
            raise ValueError(f"T must be a positive integer, got {self.T!r}")
        ab = np.asarray(self.alpha_bar, dtype=float)
        be = np.asarray(self.beta, dtype=float)
        if ab.shape != (self.T + 1,):
            raise ValueError(f"alpha_bar must have shape ({self.T + 1},), got {ab.shape}")
        if be.shape != (self.T,):
            raise ValueError(f"beta must have shape ({self.T},), got {be.shape}")
        if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(be))):
            raise ValueError("schedule arrays must be finite")
        if ab[0] != 1.0:
            raise ValueError(f"alpha_bar[0] must be 1.0, got {ab[0]!r}")
        if not np.all((ab > 0.0) & (ab <= 1.0)):
            raise ValueError("alpha_bar values must lie in (0, 1]")
        if not np.all(np.diff(ab) < 0.0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if not np.all((be > 0.0) & (be < 1.0)):
            raise ValueError("beta values must lie in (0, 1)")
        recurrence = ab[:-1] * (1.0 - be)
        if not np.all(np.abs(ab[1:] - recurrence) <= _RECURRENCE_RTOL * np.abs(ab[1:])):
            raise ValueError("alpha_bar does not satisfy the cumulative-product recurrence")
        ab.setflags(write=False)
        be.setflags(write=False)
        object.__setattr__(self, "alpha_bar", ab)
        object.__setattr__(self, "beta", be)

    # the generated __eq__ would compare the arrays elementwise and raise
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.T == other.T and np.array_equal(self.alpha_bar, other.alpha_bar)
                and np.array_equal(self.beta, other.beta))

    def __hash__(self):
        return hash((self.T, _float_key(self.alpha_bar), _float_key(self.beta)))


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
    for name, v in (("beta_start", beta_start), ("beta_end", beta_end)):
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start!r}, {beta_end!r})"
        )
    beta = np.linspace(beta_start, beta_end, T)
    alpha_bar = np.concatenate(([1.0], np.cumprod(1.0 - beta)))
    return DiffusionSchedule(T=int(T), alpha_bar=alpha_bar, beta=beta)


def schedule_from_betas(beta) -> DiffusionSchedule:
    """Rebuild a schedule from its per-step variances (serialized runs);
    reproduces build_schedule's cumulative product bit for bit."""
    beta = np.asarray(beta, dtype=float)
    alpha_bar = np.concatenate(([1.0], np.cumprod(1.0 - beta)))
    return DiffusionSchedule(T=int(beta.shape[0]), alpha_bar=alpha_bar, beta=beta)


def sigma_at(schedule: DiffusionSchedule, profile: SigmaProfile, t: int) -> float:
    """Noise scale sigma_t for one timestep; feasibility sigma_t^2 <= 1 - alpha_bar[t-1]."""
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t must lie in 1..{schedule.T}, got {t!r}")
    ab_t = schedule.alpha_bar[t]
    ab_prev = schedule.alpha_bar[t - 1]
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
    if sig * sig > 1.0 - ab_prev:
        raise ValueError(
            f"custom sigma_t={sig!r} at t={t} violates sigma^2 <= 1 - alpha_bar[t-1]"
            f" = {1.0 - ab_prev!r}"
        )
    return sig


def sigma_values(schedule: DiffusionSchedule, profile: SigmaProfile) -> np.ndarray:
    """All sigma_t for t = 1..T as an array of length T (index i holds t = i+1)."""
    return np.array([sigma_at(schedule, profile, t) for t in range(1, schedule.T + 1)])
