"""Adherence metrics over mixture worlds plus the sweep and ablation drivers.

Identity and style adherence are exact posterior responsibilities of the
target index under the clean-data mixture, marginalizing the other factor;
both live in [0, 1] and higher means closer adherence. The drivers are pure
given their configs: every random draw comes from seeds recorded in the
emitted rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import train_denoiser
from fusionsampler.encoder import (
    EncoderConditionedDenoiser,
    TrainingConfig,
    heldout_metrics,
    train_promptnet,
)
from fusionsampler.guidance import GuidanceWeights
from fusionsampler.mixture import MixtureOracle, MixtureWorld, _logsumexp
from fusionsampler.nets import TrainingDiverged
from fusionsampler.sampler import FusionConfig, sample_trajectory
from fusionsampler.schedule import DiffusionSchedule, SigmaProfile, build_schedule
from fusionsampler.worlds import (
    conflict_world,
    leaky_identity_condition,
    product_world,
    style_condition,
)

__all__ = [
    "AdherenceReport",
    "component_responsibility",
    "adherence_scores",
    "spearman",
    "SweepConfig",
    "regularization_sweep",
    "AblationConfig",
    "ablation_suite",
    "degeneration_benchmark",
    "SWEEP_COLUMNS",
    "ABLATION_COLUMNS",
]

SWEEP_COLUMNS = ["lam", "seed", "status", "recon_error", "embed_norm",
                 "identity_score", "style_score"]
ABLATION_COLUMNS = ["variant", "seed", "identity_score", "style_score"]


def _posterior_t0(world: MixtureWorld, x) -> tuple[np.ndarray, bool]:
    """Cell posterior under the clean-data mixture, shape (n, n_i, n_c)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != world.d:
        raise ValueError(f"samples must have trailing dimension {world.d}")
    m = world.cell_means()
    diff = x2[:, None, None, :] - m[None]
    loglik = -0.5 * np.sum(diff * diff, axis=-1) / (world.s ** 2)
    logits = (world.log_prior[None] + loglik).reshape(x2.shape[0], -1)
    r = np.exp(logits - _logsumexp(logits, axis=1)[:, None])
    return r.reshape(x2.shape[0], world.n_identities, world.n_styles), squeeze


def component_responsibility(world: MixtureWorld, x, index: int,
                             axis: str = "identity"):
    """Posterior probability of one identity (or style), other factor
    marginalized out; scalar for a single point, array for a batch."""
    if axis not in ("identity", "style"):
        raise ValueError(f"axis must be 'identity' or 'style', got {axis!r}")
    n = world.n_identities if axis == "identity" else world.n_styles
    if not 0 <= index < n:
        raise ValueError(f"{axis} index {index} out of range 0..{n - 1}")
    r, squeeze = _posterior_t0(world, x)
    marg = r.sum(axis=2) if axis == "identity" else r.sum(axis=1)
    # summing cells can overshoot 1 by a few ulp
    out = np.clip(marg[:, index], 0.0, 1.0)
    return float(out[0]) if squeeze else out


@dataclass(frozen=True)
class AdherenceReport:
    """Mean target responsibilities plus the per-sample rows behind them."""

    identity_score: float
    style_score: float
    rows: np.ndarray

    def to_jsonable(self) -> dict:
        return {
            "identity_score": float(self.identity_score),
            "style_score": float(self.style_score),
            "n_samples": int(self.rows.shape[0]),
        }


def adherence_scores(samples, world: MixtureWorld, target_identity: int,
                     target_style: int) -> AdherenceReport:
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("adherence_scores needs a nonempty sample set")
    ident = component_responsibility(world, samples, target_identity, "identity")
    style = component_responsibility(world, samples, target_style, "style")
    rows = np.column_stack([ident, style])
    return AdherenceReport(float(ident.mean()), float(style.mean()), rows)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j)
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """Rank correlation with average ranks on ties."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("spearman needs two equal-length 1-d arrays, n >= 2")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt(np.sum(ra * ra) * np.sum(rb * rb))
    if denom == 0.0:
        return 0.0
    return float(np.sum(ra * rb) / denom)


@dataclass(frozen=True)
class SweepConfig:
    """Protocol knobs for the regularization sweep."""

    denoiser_steps: int = 4000
    encoder_steps: int = 600
    batch: int = 128
    lr: float = 2e-3
    augment: bool = True
    n_samples: int = 300
    n_recon: int = 1000
    ref_identity: int = 0
    ref_style: int = 0
    target_style: int = 1
    fusion: FusionConfig = field(default_factory=FusionConfig)

    def to_jsonable(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "denoiser_steps", "encoder_steps", "batch", "lr", "augment",
            "n_samples", "n_recon", "ref_identity", "ref_style", "target_style")}
        out["fusion"] = self.fusion.to_jsonable()
        return out


def regularization_sweep(lambdas, seeds, config: SweepConfig,
                         world: MixtureWorld | None = None,
                         schedule: DiffusionSchedule | None = None) -> list[dict]:
    """One row per (lambda, seed): train the encoder at that regularization,
    reconstruct the reference, then sample with a conflicting style prompt.

    A failed cell is recorded in its row's status and the sweep moves on:
    "backbone failed at step N" (denoiser training diverged; every lambda of
    that seed), "failed at step N" (encoder training diverged) or "sampling
    failed: <error>" (any other RuntimeError, such as a non-finite sampling
    state; the row keeps its reconstruction columns). The reference point
    and sampling noise are shared across lambdas within a seed, so rows
    differ only through the trained encoder.
    """
    if len(lambdas) == 0 or len(seeds) == 0:
        raise ValueError("regularization_sweep needs nonempty lambdas and seeds")
    if world is None:
        # closer cells and a wider component std keep the responsibilities
        # graded, so the tradeoff shows up in the adherence columns too
        world = product_world(identity_spacing=1.5, style_offset=1.5, s=0.7)
    schedule = build_schedule() if schedule is None else schedule
    rows = []
    for seed in seeds:
        def blank(lam, note):
            return {"lam": float(lam), "seed": int(seed), "status": note,
                    "recon_error": None, "embed_norm": None,
                    "identity_score": None, "style_score": None}

        try:
            den = train_denoiser(world, schedule, config.denoiser_steps, seed=seed)
        except TrainingDiverged as err:
            rows.extend(blank(lam, f"backbone failed at step {err.step}")
                        for lam in lambdas)
            continue
        ref_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 11))))
        x_ref = world.sample(1, ref_rng, identity=config.ref_identity,
                             style=config.ref_style)[0]
        text = np.zeros(world.n_styles)
        text[config.target_style] = 1.0
        for lam in lambdas:
            tc = TrainingConfig(lam=float(lam), steps=config.encoder_steps,
                                batch=config.batch, augment=config.augment,
                                lr=config.lr, seed=seed)
            row = blank(lam, "ok")
            try:
                net = train_promptnet(world, den, tc)
                rng = np.random.Generator(
                    np.random.PCG64(np.random.SeedSequence((seed, 12))))
                row["recon_error"], row["embed_norm"] = heldout_metrics(
                    net, den, np.broadcast_to(x_ref, (config.n_recon, world.d)),
                    np.full(config.n_recon, config.ref_style), rng)
                wrapper = EncoderConditionedDenoiser(net, den)
                cond = ConditionSet(identity=x_ref, text=text)
                rec = sample_trajectory(cond, config.fusion, wrapper, schedule,
                                        config.n_samples, seed=seed)
                rep = adherence_scores(rec.samples, world, config.ref_identity,
                                       config.target_style)
                row["identity_score"] = rep.identity_score
                row["style_score"] = rep.style_score
            except TrainingDiverged as err:
                row["status"] = f"failed at step {err.step}"
            except RuntimeError as err:
                row["status"] = f"sampling failed: {err}"
            rows.append(row)
    return rows


@dataclass(frozen=True)
class AblationConfig:
    """A world, a condition pair, and the base sampler to ablate."""

    world: MixtureWorld
    condition: ConditionSet
    base: FusionConfig
    schedule: DiffusionSchedule
    n_samples: int = 500
    seeds: tuple = (0, 1, 2, 3, 4)
    target_identity: int = 0
    target_style: int = 1


def ablation_variants(base: FusionConfig) -> list[tuple[str, FusionConfig]]:
    return [
        ("vanilla_cfg", replace(base, mode="vanilla_cfg")),
        ("independent", replace(base, mode="independent")),
        ("fusion_no_refinement", replace(base, mode="fusion", use_refinement=False)),
        ("fusion_no_fusion_stage", replace(base, mode="fusion", m=0,
                                           use_refinement=True)),
        ("fusion", replace(base, mode="fusion")),
    ]


def ablation_suite(config: AblationConfig, predictor=None) -> list[dict]:
    """Adherence per sampler variant and seed on one conditioned world.

    Samples are drawn with per-seed noise shared across variants, so rows
    compare the samplers and nothing else; with m=0 the two-stage sampler is
    the independent-guidance sampler by construction, and their rows match
    bit for bit.
    """
    if predictor is None:
        predictor = MixtureOracle(config.world, config.schedule)
    rows = []
    for name, cfg in ablation_variants(config.base):
        for seed in config.seeds:
            rec = sample_trajectory(config.condition, cfg, predictor,
                                    config.schedule, config.n_samples, seed=seed)
            rep = adherence_scores(rec.samples, config.world,
                                   config.target_identity, config.target_style)
            rows.append({"variant": name, "seed": int(seed),
                         "identity_score": rep.identity_score,
                         "style_score": rep.style_score})
    return rows


def degeneration_benchmark() -> AblationConfig:
    """Reference ablation setup where single-pass joint guidance collapses.

    The identity condition is deliberately over-strong and leaks its
    reference's style (the overfit-embedding failure mode), while the style
    prompt asks for the other style; the prior also favors the leaked cell.
    Joint classifier-free guidance then ignores the prompt entirely, and the
    calibrated two-stage sampler recovers both factors: its min(identity,
    style) dominates every ablated variant by a wide margin across seeds.
    """
    world = conflict_world()
    condition = ConditionSet(
        identity=leaky_identity_condition(world, 0, 0, 10.0, 6.0),
        text=style_condition(world, 1, 4.0),
    )
    base = FusionConfig(
        m=3,
        gamma=0.06,
        use_refinement=True,
        weights=GuidanceWeights(omega=4.0, omega1=0.6, omega2=5.0),
        sigma=SigmaProfile("boundary"),
        mode="fusion",
    )
    return AblationConfig(world=world, condition=condition, base=base,
                          schedule=build_schedule(), n_samples=500,
                          seeds=(0, 1, 2, 3, 4))
