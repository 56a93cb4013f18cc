"""Condition container shared by the exact oracle and the trained denoiser."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ConditionSet"]


def _frozen_array(value) -> np.ndarray | None:
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        # -inf is a legal log-weight (excluded cell); +inf and nan are not
        raise ValueError("condition arrays may contain -inf but not nan or +inf")
    if arr.flags.writeable:
        # the caller may hold this array (or its memory): freeze a copy of it;
        # an already read-only array, such as another ConditionSet's, is shared
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ConditionSet:
    """The pair (identity, style) plus the identity scaling gamma.

    A slot set to None is null and contributes the unconditional prediction.
    The predictor interprets the arrays: the mixture oracle reads log-weight
    vectors over its component grid, the trained denoiser reads embedding /
    class-channel vectors. gamma scales the identity slot only; gamma=0 makes
    it exactly unconditional, gamma=1 exactly conditional.

    Equality and hashing are by identity (eq=False), so a predictor may
    cache per-condition work by the object: sample_trajectory derives its
    pass conditions (with_gamma, nulled, identity_only, text_only) once and
    hands every step the same objects. Compare to_jsonable() forms for value
    equality.
    """

    identity: np.ndarray | None = None
    text: np.ndarray | None = None
    gamma: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.gamma) or not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        object.__setattr__(self, "identity", _frozen_array(self.identity))
        object.__setattr__(self, "text", _frozen_array(self.text))

    def with_gamma(self, gamma: float) -> "ConditionSet":
        return replace(self, gamma=gamma)

    def nulled(self) -> "ConditionSet":
        return replace(self, identity=None, text=None)

    def identity_only(self) -> "ConditionSet":
        return replace(self, text=None)

    def text_only(self) -> "ConditionSet":
        return replace(self, identity=None)

    def to_jsonable(self) -> dict:
        # nested lists keep grid shapes; -inf survives as the string "-inf"
        def enc(v):
            if isinstance(v, list):
                return [enc(u) for u in v]
            return v if np.isfinite(v) else "-inf"

        def dump(arr):
            return None if arr is None else enc(arr.tolist())

        return {
            "identity": dump(self.identity),
            "text": dump(self.text),
            "gamma": float(self.gamma),
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "ConditionSet":
        def dec(v):
            if isinstance(v, list):
                return [dec(u) for u in v]
            return -np.inf if v == "-inf" else float(v)

        def load(vals):
            return None if vals is None else np.array(dec(vals))

        return cls(
            identity=load(payload["identity"]),
            text=load(payload["text"]),
            gamma=float(payload["gamma"]),
        )
