"""Preset mixture worlds and the condition vocabulary used in experiments.

Two geometries matter for the sampling claims. The product world keeps
identity information on axis 0 and style information on axis 1 with identity
style maps, so the joint density factorizes and independent guidance is
exact. The conflict world applies a 90-degree rotation as its second style,
which geometrically entangles identity and style and correlates the prior;
joint guidance with an over-strong identity condition then collapses onto the
reference style.
"""

from __future__ import annotations

import numpy as np

from fusionsampler.mixture import MixtureWorld

__all__ = [
    "single_gaussian_world",
    "product_world",
    "conflict_world",
    "identity_condition",
    "style_condition",
    "leaky_identity_condition",
    "WORLD_PRESETS",
]


def single_gaussian_world(mean=(0.0, 0.0), s: float = 1.0) -> MixtureWorld:
    """One identity, one trivial style: data is a single Gaussian."""
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    d = mean.shape[1]
    return MixtureWorld(
        means=mean,
        s=s,
        style_A=np.eye(d)[None, :, :],
        style_b=np.zeros((1, d)),
        log_prior=np.zeros((1, 1)),
    )


def product_world(n_identities: int = 2, n_styles: int = 2,
                  identity_spacing: float = 4.0, style_offset: float = 4.0,
                  s: float = 0.35) -> MixtureWorld:
    """Orthogonal factor world: identities spaced on axis 0, styles translate
    along axis 1, uniform prior. Identity and style factorize exactly."""
    ii = np.arange(n_identities) - (n_identities - 1) / 2.0
    cc = np.arange(n_styles) - (n_styles - 1) / 2.0
    means = np.zeros((n_identities, 2))
    means[:, 0] = ii * identity_spacing
    style_b = np.zeros((n_styles, 2))
    style_b[:, 1] = cc * style_offset
    return MixtureWorld(
        means=means,
        s=s,
        style_A=np.tile(np.eye(2), (n_styles, 1, 1)),
        style_b=style_b,
        log_prior=np.zeros((n_identities, n_styles)),
    )


def conflict_world(a: float = 2.0, s: float = 0.35,
                   prior=(0.45, 0.05, 0.35, 0.15)) -> MixtureWorld:
    """Correlated two-identity world whose second style is a 90-degree
    rotation, putting the four cell means on a cross: identity and style do
    not factorize, and the prior favors (identity 0, style 0)."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    prior = np.asarray(prior, dtype=float).reshape(2, 2)
    if np.any(prior <= 0.0):
        raise ValueError("conflict world prior must be strictly positive")
    return MixtureWorld(
        means=np.array([[a, 0.0], [-a, 0.0]]),
        s=s,
        style_A=np.stack([np.eye(2), rot]),
        style_b=np.zeros((2, 2)),
        log_prior=np.log(prior / prior.sum()),
    )


def _class_condition(n: int, k: int, strength: float, axis: str) -> np.ndarray:
    """Log-weights over n classes favoring class k; strength=inf selects it
    exactly."""
    if not 0 <= k < n:
        raise ValueError(f"{axis} index {k} out of range")
    if np.isinf(strength):
        w = np.full(n, -np.inf)
        w[k] = 0.0
    else:
        w = np.zeros(n)
        w[k] = strength
    return w


def identity_condition(world: MixtureWorld, i: int, strength: float) -> np.ndarray:
    """Log-weights favoring identity i; strength=inf selects it exactly."""
    return _class_condition(world.n_identities, i, strength, "identity")


def style_condition(world: MixtureWorld, c: int, strength: float) -> np.ndarray:
    """Log-weights favoring style c; strength=inf selects it exactly."""
    return _class_condition(world.n_styles, c, strength, "style")


def leaky_identity_condition(world: MixtureWorld, i: int, c_ref: int,
                             strength: float, leak: float) -> np.ndarray:
    """Identity condition that memorized its reference's style: full-grid
    log-weights with strength on identity i plus leak on the single cell
    (i, c_ref). Models an overfit, unregularized embedding."""
    if not 0 <= i < world.n_identities:
        raise ValueError(f"identity index {i} out of range")
    if not 0 <= c_ref < world.n_styles:
        raise ValueError(f"style index {c_ref} out of range")
    if not (np.isfinite(strength) and np.isfinite(leak)):
        raise ValueError("leaky condition needs finite strength and leak")
    w = np.zeros((world.n_identities, world.n_styles))
    w[i, :] = strength
    w[i, c_ref] += leak
    return w


WORLD_PRESETS = {
    "single": single_gaussian_world,
    "product": product_world,
    "conflict": conflict_world,
}
