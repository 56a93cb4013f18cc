"""Noise-predictor contract shared by the exact oracle and trained denoisers."""

from __future__ import annotations

from typing import Protocol

import numpy as np

from fusionsampler.conditions import ConditionSet

__all__ = ["NoisePredictor", "announce_pass", "predict_eps"]


class NoisePredictor(Protocol):
    """Anything producing eps_hat(x_t, conditions, t) with data dimension d.

    A predictor may also define announce_pass(x_t, conds, t); see the
    module-level announce_pass."""

    @property
    def d(self) -> int: ...

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray: ...


def _checked_input(predictor: NoisePredictor, x_t) -> np.ndarray:
    x = np.asarray(x_t, dtype=float)
    if x.shape[-1] != predictor.d:
        raise ValueError(
            f"x_t trailing dimension {x.shape[-1]} does not match predictor d={predictor.d}"
        )
    return x


def announce_pass(predictor: NoisePredictor, x_t, conds, t: int) -> None:
    """Tell a predictor which conditions the next predict_eps calls of one
    guided pass ask for at (x_t, t), through its optional announce_pass
    method, so that it can evaluate them together. The predict_eps calls
    follow either way; a predictor without the method is not called."""
    announce = getattr(predictor, "announce_pass", None)
    if announce is not None:
        announce(_checked_input(predictor, x_t), conds, t)


def predict_eps(predictor: NoisePredictor, x_t, cond: ConditionSet | None,
                t: int) -> np.ndarray:
    """Validated dispatch to a predictor: matching dimensions in, a finite
    prediction of the same shape out. This is the one finiteness check per
    predictor call; a non-finite input is left to the predictor itself."""
    x = _checked_input(predictor, x_t)
    out = np.asarray(predictor.predict_eps(x, cond, t), dtype=float)
    if out.shape != x.shape:
        raise ValueError(f"predictor returned shape {out.shape}, expected {x.shape}")
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"sampling produced non-finite state at t={t}")
    return out
