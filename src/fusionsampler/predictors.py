"""Noise-predictor contract shared by the exact oracle and trained denoisers."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from fusionsampler.conditions import ConditionSet

__all__ = ["NoisePredictor", "predict_eps"]


@runtime_checkable
class NoisePredictor(Protocol):
    """Anything producing eps_hat(x_t, conditions, t) with data dimension d."""

    @property
    def d(self) -> int: ...

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray: ...


def predict_eps(predictor: NoisePredictor, x_t, cond: ConditionSet | None,
                t: int) -> np.ndarray:
    """Validated dispatch to a predictor: matching dimensions in, a finite
    prediction of the same shape out. This is the one finiteness check per
    predictor call; a non-finite input is left to the predictor itself."""
    x = np.asarray(x_t, dtype=float)
    if x.shape[-1] != predictor.d:
        raise ValueError(
            f"x_t trailing dimension {x.shape[-1]} does not match predictor d={predictor.d}"
        )
    out = np.asarray(predictor.predict_eps(x, cond, t), dtype=float)
    if out.shape != x.shape:
        raise ValueError(f"predictor returned shape {out.shape}, expected {x.shape}")
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"sampling produced non-finite state at t={t}")
    return out
