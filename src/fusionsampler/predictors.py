"""Noise-predictor contract shared by the exact oracle and trained denoisers."""

from __future__ import annotations

from typing import Protocol

import numpy as np

from fusionsampler.conditions import ConditionSet

__all__ = ["NoisePredictor", "announce_pass", "predict_eps"]


class NoisePredictor(Protocol):
    """Anything mapping each row of x_t to eps_hat(x_t, conditions, t), with
    data dimension d. It checks x_t's width and judges no values: a
    non-finite row gives a non-finite eps row, which sample_trajectory's
    per-step state check reports. A predictor may also define announce_pass(x_t, conds, t); see the
    module-level announce_pass."""

    @property
    def d(self) -> int: ...

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray: ...


def announce_pass(predictor: NoisePredictor, x_t, conds, t: int) -> None:
    """Tell a predictor which conditions the next predict_eps calls of one
    guided pass ask for at (x_t, t), through its optional announce_pass
    method, so that it can evaluate them together. The predict_eps calls
    follow either way; a predictor without the method is not called."""
    announce = getattr(predictor, "announce_pass", None)
    if announce is not None:
        announce(x_t, conds, t)


def predict_eps(predictor: NoisePredictor, x_t, cond: ConditionSet | None,
                t: int) -> np.ndarray:
    """One predictor call: x_t goes in as given, and the prediction must
    come back with x_t's shape."""
    out = np.asarray(predictor.predict_eps(x_t, cond, t), dtype=float)
    if out.shape != np.shape(x_t):
        raise ValueError(f"predictor returned shape {out.shape}, expected {np.shape(x_t)}")
    return out
