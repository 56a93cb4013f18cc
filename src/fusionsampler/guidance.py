"""Classifier-free guidance combiners."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GuidanceWeights",
    "cfg_single",
    "cfg_independent",
]


@dataclass(frozen=True)
class GuidanceWeights:
    """Guidance strengths: omega for the joint rule, omega1/omega2 for the
    independent two-condition rule."""

    omega: float = 2.0
    omega1: float = 2.0
    omega2: float = 2.0

    def __post_init__(self):
        vals = (self.omega, self.omega1, self.omega2)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"guidance weights must be finite, got {vals!r}")


def _as_matching_arrays(*vecs: object) -> list[np.ndarray]:
    arrays = [np.asarray(v, dtype=float) for v in vecs]
    for a in arrays[1:]:
        if a.shape != arrays[0].shape:
            raise ValueError(
                f"prediction shapes disagree: {a.shape} vs {arrays[0].shape}"
            )
    return arrays


def cfg_single(eps_joint, eps_uncond, omega: float) -> np.ndarray:
    """Joint-condition guidance: (1 + omega) * eps_joint - omega * eps_uncond."""
    ej, eu = _as_matching_arrays(eps_joint, eps_uncond)
    return (1.0 + omega) * ej - omega * eu


def cfg_independent(eps_uncond, eps_S, eps_C, w: GuidanceWeights) -> np.ndarray:
    """Independent-conditions guidance with separate strengths per slot."""
    eu, es, ec = _as_matching_arrays(eps_uncond, eps_S, eps_C)
    return eu + (1.0 + w.omega1) * (es - eu) + (1.0 + w.omega2) * (ec - eu)
