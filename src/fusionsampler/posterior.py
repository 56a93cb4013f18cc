"""Gaussian posterior algebra for the reverse process, and its draws.

Everything here is isotropic: covariances are scalar multiples of I, stored
and applied as scalars. Conventions: alpha_bar_t is the signal coefficient at
the current step t, alpha_bar_prev at t-1, and sigma_t the per-step noise
scale with sigma_t^2 <= 1 - alpha_bar_prev (the reverse posterior's domain,
checked by schedule.check_sigma). The reverse draws sample_prev and
ddim_step end in one draw, which takes no noise at sigma_t = 0; renoise
draws x_t again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fusionsampler.schedule import (
    DiffusionSchedule,
    SigmaProfile,
    check_sigma,
    sigma_values,
)

__all__ = [
    "PosteriorCoefficients",
    "VarianceBoundReport",
    "predict_x0",
    "sample_prev",
    "sample_prev_mean",
    "ddim_step",
    "renoise",
    "renoise_coefficients",
    "fused_update",
    "fused_update_coefficients",
    "check_variance_bound",
]


@dataclass(frozen=True)
class PosteriorCoefficients:
    """Scalars of the re-noising conditional q(x_t | x_{t-1}, x_0).

    The conditional is Normal(Sigma * (A * L * (x_prev - b) + B * mu),
    Sigma * I) with Sigma = (1-ab_t) * sigma^2 / (1-ab_prev),
    A = sqrt(1-ab_prev-sigma^2)/sqrt(1-ab_t), L = 1/sigma^2, B = 1/(1-ab_t),
    mu = sqrt(ab_t) * x0 and b the affine offset below. All matrices in the
    underlying derivation are multiples of I, so scalars suffice.
    """

    Sigma_scale: float
    mu: np.ndarray
    b: np.ndarray
    A_scale: float
    L_scale: float
    B_scale: float

    def mean(self, x_prev) -> np.ndarray:
        """Sigma * (A * L * (x_prev - b) + B * mu)."""
        x_prev = np.asarray(x_prev, dtype=float)
        return self.Sigma_scale * (self.A_scale * self.L_scale * (x_prev - self.b)
                                   + self.B_scale * self.mu)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Per-timestep margins of the Langevin-vs-fused noise comparison."""

    lhs: np.ndarray
    rhs: np.ndarray
    margins: np.ndarray
    violations: np.ndarray

    @property
    def ok(self) -> bool:
        return self.violations.size == 0


def predict_x0(x_t, eps, alpha_bar_t: float) -> np.ndarray:
    """Predicted clean sample (x_t - sqrt(1-ab_t) * eps) / sqrt(ab_t)."""
    if not 0.0 < alpha_bar_t <= 1.0:
        raise ValueError(f"alpha_bar_t must lie in (0, 1], got {alpha_bar_t!r}")
    x_t = np.asarray(x_t, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x_t.shape != eps.shape:
        raise ValueError(f"shape mismatch: x_t {x_t.shape} vs eps {eps.shape}")
    return (x_t - np.sqrt(1.0 - alpha_bar_t) * eps) / np.sqrt(alpha_bar_t)


def sample_prev_mean(x_t, x0_hat, alpha_bar_t: float, alpha_bar_prev: float,
                     sigma_t: float) -> np.ndarray:
    """Mean of the reverse posterior q(x_{t-1} | x_t, x_0)."""
    check_sigma(sigma_t, alpha_bar_prev)
    x_t = np.asarray(x_t, dtype=float)
    x0_hat = np.asarray(x0_hat, dtype=float)
    direction = (x_t - np.sqrt(alpha_bar_t) * x0_hat) / np.sqrt(1.0 - alpha_bar_t)
    return (
        np.sqrt(alpha_bar_prev) * x0_hat
        + np.sqrt(1.0 - alpha_bar_prev - sigma_t * sigma_t) * direction
    )


def sample_prev(x_t, x0_hat, t: int, schedule: DiffusionSchedule, sigma_t: float,
                rng: np.random.Generator) -> np.ndarray:
    """Draw x_{t-1} from the reverse posterior around the predicted clean sample.

    sigma_t = 0 is the deterministic limit; no noise is consumed from rng then,
    which keeps draw order identical across stochastic and deterministic steps.
    """
    ab_t, ab_prev = schedule.alpha_bars(t)
    return _draw(sample_prev_mean(x_t, x0_hat, ab_t, ab_prev, sigma_t), sigma_t, rng)


def ddim_step(x_t, t: int, eps_tilde, schedule: DiffusionSchedule, sigma_t: float,
              rng) -> np.ndarray:
    """One reverse step around a guided eps prediction.

    x_{t-1} = sqrt(ab_prev) * x0_hat + sqrt(1 - ab_prev - sigma^2) * eps + sigma * z,
    with x0_hat from predict_x0: sample_prev with eps_tilde itself as the
    direction. sigma=0 consumes no randomness.
    """
    ab_t, ab_prev = schedule.alpha_bars(t)
    check_sigma(sigma_t, ab_prev)
    eps_tilde = np.asarray(eps_tilde, dtype=float)
    x0_hat = predict_x0(x_t, eps_tilde, ab_t)
    mean = (np.sqrt(ab_prev) * x0_hat
            + np.sqrt(1.0 - ab_prev - sigma_t * sigma_t) * eps_tilde)
    return _draw(mean, sigma_t, rng)


def _draw(mean: np.ndarray, sigma_t: float, rng) -> np.ndarray:
    """mean + sigma_t * z; at sigma_t = 0 the mean itself, with no draw."""
    if sigma_t == 0.0:
        return mean
    return mean + sigma_t * rng.standard_normal(mean.shape)


def renoise_coefficients(x0_hat, alpha_bar_t: float, alpha_bar_prev: float,
                         sigma_t: float) -> PosteriorCoefficients:
    """Coefficients of q(x_t | x_{t-1}, x_0) for a given clean sample."""
    check_sigma(sigma_t, alpha_bar_prev)
    if sigma_t == 0.0:
        raise ValueError(
            "sigma_t = 0 leaves the re-noising conditional undefined (precision"
            " L = 1/sigma^2); re-noising requires a stochastic step"
        )
    x0_hat = np.asarray(x0_hat, dtype=float)
    root_gap = np.sqrt(1.0 - alpha_bar_prev - sigma_t * sigma_t)
    return PosteriorCoefficients(
        Sigma_scale=(1.0 - alpha_bar_t) * sigma_t * sigma_t / (1.0 - alpha_bar_prev),
        mu=np.sqrt(alpha_bar_t) * x0_hat,
        b=(np.sqrt(alpha_bar_prev)
           - np.sqrt(alpha_bar_t) * root_gap / np.sqrt(1.0 - alpha_bar_t)) * x0_hat,
        A_scale=float(root_gap / np.sqrt(1.0 - alpha_bar_t)),
        L_scale=float(1.0 / (sigma_t * sigma_t)),
        B_scale=float(1.0 / (1.0 - alpha_bar_t)),
    )


def renoise(x_prev, x0_hat, t: int, schedule: DiffusionSchedule, sigma_t: float,
            rng: np.random.Generator) -> np.ndarray:
    """Draw x_t ~ q(x_t | x_{t-1}, x_0): move forward again around the prediction."""
    ab_t, ab_prev = schedule.alpha_bars(t)
    c = renoise_coefficients(x0_hat, ab_t, ab_prev, sigma_t)
    mean = c.mean(x_prev)
    return mean + np.sqrt(c.Sigma_scale) * rng.standard_normal(mean.shape)


def fused_update_coefficients(alpha_bar_t: float, alpha_bar_prev: float,
                              sigma_t: float) -> tuple[float, float]:
    """(eps drift coefficient, noise coefficient) of the single fused step.

    Valid on the wider domain sigma^2 <= 2 * (1 - alpha_bar_prev), where the
    noise radicand stays nonnegative; this exceeds the reverse posterior's own
    domain sigma^2 <= 1 - alpha_bar_prev, which the two-stage composition
    needs. The composition and the fused form agree wherever both exist.
    """
    if not np.isfinite(sigma_t) or sigma_t < 0.0:
        raise ValueError(f"sigma_t must be finite and >= 0, got {sigma_t!r}")
    gap = 1.0 - alpha_bar_prev
    if sigma_t * sigma_t > 2.0 * gap:
        raise ValueError(
            f"infeasible sigma_t={sigma_t!r}: sigma^2 must not exceed"
            f" 2 * (1 - alpha_bar_prev) = {2.0 * gap!r}"
        )
    if gap == 0.0:
        # t = 1 corner: the only feasible sigma is 0 and the ratio is 0/0.
        # The limit along sigma^2 = gap is reported, which keeps the boundary
        # reduction (both coefficients sqrt(1 - ab_t)) valid at every t.
        # fused_update itself still treats sigma = 0 as the identity step.
        w = float(np.sqrt(1.0 - alpha_bar_t))
        return w, w
    eps_coeff = sigma_t * sigma_t * np.sqrt(1.0 - alpha_bar_t) / gap
    noise_coeff = (
        np.sqrt((1.0 - alpha_bar_t) * (2.0 - 2.0 * alpha_bar_prev - sigma_t * sigma_t))
        / gap
        * sigma_t
    )
    return float(eps_coeff), float(noise_coeff)


def fused_update(x_t, eps_tilde, t: int, schedule: DiffusionSchedule, sigma_t: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One fused noise-injection step: x_t minus a guided drift plus fresh noise.

    Distributionally equal to sample_prev followed by renoise when eps_tilde
    and the clean-sample prediction are consistent. sigma_t = 0 returns x_t
    unchanged and consumes no randomness.
    """
    ab_t, ab_prev = schedule.alpha_bars(t)
    x_t = np.asarray(x_t, dtype=float)
    eps_tilde = np.asarray(eps_tilde, dtype=float)
    if x_t.shape != eps_tilde.shape:
        raise ValueError(f"shape mismatch: x_t {x_t.shape} vs eps {eps_tilde.shape}")
    eps_coeff, noise_coeff = fused_update_coefficients(ab_t, ab_prev, sigma_t)
    if sigma_t == 0.0:
        return x_t.copy()
    return x_t - eps_coeff * eps_tilde + noise_coeff * rng.standard_normal(x_t.shape)


def check_variance_bound(schedule: DiffusionSchedule,
                         sigma_profile: SigmaProfile) -> VarianceBoundReport:
    """Compare the fused step's noise variance against the matched Langevin step.

    For every t: (1-ab_t) * (2-2ab_prev-sigma^2) * sigma^2 / (1-ab_prev)^2
    must not exceed 2 * sigma^2 * (1-ab_t) / (1-ab_prev). Both sides share the
    factor f = sigma^2 * (1-ab_t) / (1-ab_prev) and the ratio q =
    (2-2ab_prev-sigma^2)/(1-ab_prev); computing lhs = f*q and rhs = 2*f keeps
    q <= 2 under rounding (fl(2-2ab) is exactly 2*fl(1-ab), subtracting
    sigma^2 only lowers it), so no violation can come from float noise.
    """
    sig = sigma_values(schedule, sigma_profile)
    ab_t = schedule.alpha_bar[1:]
    ab_prev = schedule.alpha_bar[:-1]
    gap = 1.0 - ab_prev
    with np.errstate(divide="ignore", invalid="ignore"):
        f = sig * sig * (1.0 - ab_t) / gap
        q = (2.0 - 2.0 * ab_prev - sig * sig) / gap
    # t = 1 has gap = 0 and sigma = 0; the bound degenerates to 0 <= 0 there
    f = np.where(gap == 0.0, 0.0, f)
    q = np.where(gap == 0.0, 2.0, q)
    lhs = f * q
    rhs = 2.0 * f
    margins = rhs - lhs
    violations = np.flatnonzero(lhs > rhs) + 1
    return VarianceBoundReport(lhs=lhs, rhs=rhs, margins=margins, violations=violations)
