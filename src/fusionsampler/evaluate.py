"""Adherence metrics over mixture worlds plus the sweep and ablation drivers.

Identity and style adherence are exact posterior responsibilities of the
target index under the clean-data mixture, marginalizing the other factor;
both live in [0, 1] and higher means closer adherence. The drivers are pure
given their validated RunConfig: every random draw comes from seeds recorded
in the emitted rows. The protocol values below are fixed, not configured.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import train_denoiser
from fusionsampler.encoder import (
    EncoderConditionedDenoiser,
    heldout_metrics,
    train_promptnet,
)
from fusionsampler.mixture import MixtureOracle, MixtureWorld, oracle_responsibilities
from fusionsampler.nets import TrainingDiverged
from fusionsampler.runconfig import (
    ConfigError,
    RunConfig,
    require_condition,
    validate_config,
)
from fusionsampler.sampler import SampleStreams, ablation_variants, sample_trajectory
from fusionsampler.worlds import product_world

__all__ = [
    "ScoringFailed",
    "adherence_scores",
    "spearman",
    "regularization_sweep",
    "ablation_suite",
    "degeneration_benchmark",
    "SWEEP_COLUMNS",
    "ABLATION_COLUMNS",
]

SWEEP_COLUMNS = ["lam", "seed", "status", "recon_error", "embed_norm",
                 "identity_score", "style_score"]
ABLATION_COLUMNS = ["variant", "seed", "identity_score", "style_score"]

# sweep protocol: reconstruct a reference drawn from cell (REF_IDENTITY,
# REF_STYLE) over N_RECON rows, then prompt for TARGET_STYLE
N_RECON = 1000
REF_IDENTITY = 0
REF_STYLE = 0
TARGET_STYLE = 1
# (identity, style) the ablation scores adherence to
ABLATION_TARGETS = (0, 1)


def _check_index(world: MixtureWorld, index: int, axis: str) -> None:
    n = world.n_identities if axis == "identity" else world.n_styles
    if not 0 <= index < n:
        raise ValueError(f"{axis} index {index} out of range 0..{n - 1}")


def _marginal(r: np.ndarray, index: int, axis: str) -> np.ndarray:
    """Cell posterior r summed over the other factor, at one index."""
    marg = r.sum(axis=-1) if axis == "identity" else r.sum(axis=-2)
    # summing cells can overshoot 1 by a few ulp
    return np.clip(marg[..., index], 0.0, 1.0)


class ScoringFailed(RuntimeError):
    """The oracle gives no finite adherence score for a finite sample set."""


def adherence_scores(samples, world: MixtureWorld, target_identity: int,
                     target_style: int) -> tuple[float, float]:
    """(identity_score, style_score): the mean target responsibilities.
    Raises ScoringFailed when a sample lies too far from every cell to have
    any."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise ValueError("adherence_scores needs a nonempty sample set")
    _check_index(world, target_identity, "identity")
    _check_index(world, target_style, "style")
    r = oracle_responsibilities(world, samples, None, 1.0)
    scores = (float(_marginal(r, target_identity, "identity").mean()),
              float(_marginal(r, target_style, "style").mean()))
    if not all(map(math.isfinite, scores)):
        raise ScoringFailed("a sample lies too far from every cell to weigh")
    return scores


def _require_cells(world: MixtureWorld, identity: int, style: int,
                   protocol: str) -> None:
    """Refuse, before any work, a world that lacks the identity or style a
    fixed protocol scores."""
    if identity >= world.n_identities or style >= world.n_styles:
        raise ConfigError(
            f"world: the {protocol} scores identity {identity} and style {style},"
            f" but this world has {world.n_identities} identities and"
            f" {world.n_styles} styles")


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


def regularization_sweep(cfg: RunConfig) -> list[dict]:
    """One row per (lambda, seed) of cfg.lambdas x cfg.sweep_seeds: train the
    encoder at that regularization, reconstruct the reference, then sample
    with a conflicting style prompt.

    Each seed trains its own denoiser for cfg.denoiser_steps; each cell trains
    the encoder with cfg.training at that lambda and seed, and draws
    cfg.n_samples samples with cfg.fusion on cfg.schedule. cfg.world falls
    back to a product world with closer cells.

    A failed cell is recorded in its row's status and the sweep moves on:
    "backbone failed at step N" (denoiser training diverged; every lambda of
    that seed), "failed at step N" (encoder training diverged), "scoring
    failed: <error>" (ScoringFailed) or "sampling failed: <error>" (any
    other RuntimeError, such as a non-finite sampling state); the last two
    keep the reconstruction columns. The reference point
    and sampling noise are shared across lambdas within a seed, so rows
    differ only through the trained encoder.
    """
    world = cfg.world
    if world is None:
        # closer cells and a wider component std keep the responsibilities
        # graded, so the tradeoff shows up in the adherence columns too
        world = product_world(identity_spacing=1.5, style_offset=1.5, s=0.7)
    _require_cells(world, REF_IDENTITY, max(REF_STYLE, TARGET_STYLE), "lambda sweep")
    rows = []
    for seed in cfg.sweep_seeds:
        def blank(lam, note):
            return {"lam": float(lam), "seed": int(seed), "status": note,
                    "recon_error": None, "embed_norm": None,
                    "identity_score": None, "style_score": None}

        try:
            den = train_denoiser(world, cfg.schedule, cfg.denoiser_steps, seed=seed)
        except TrainingDiverged as err:
            rows.extend(blank(lam, f"backbone failed at step {err.step}")
                        for lam in cfg.lambdas)
            continue
        ref_rng = np.random.default_rng((seed, 11))
        x_ref = world.sample(1, ref_rng, identity=REF_IDENTITY, style=REF_STYLE)[0][0]
        text = np.zeros(world.n_styles)
        text[TARGET_STYLE] = 1.0
        for lam in cfg.lambdas:
            row = blank(lam, "ok")
            try:
                net = train_promptnet(world, den,
                                      replace(cfg.training, lam=float(lam), seed=seed))
                row["recon_error"], row["embed_norm"] = heldout_metrics(
                    net, den, np.broadcast_to(x_ref, (N_RECON, world.d)),
                    np.full(N_RECON, REF_STYLE), np.random.default_rng((seed, 12)))
                wrapper = EncoderConditionedDenoiser(net, den)
                cond = ConditionSet(identity=x_ref, text=text)
                # a cell that blows up is reported once, by its row's status
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    samples = sample_trajectory(cond, cfg.fusion, wrapper,
                                                cfg.schedule, cfg.n_samples, seed=seed)
                    row["identity_score"], row["style_score"] = adherence_scores(
                        samples, world, REF_IDENTITY, TARGET_STYLE)
            except TrainingDiverged as err:
                row["status"] = f"failed at step {err.step}"
            except ScoringFailed as err:
                row["status"] = f"scoring failed: {err}"
            except RuntimeError as err:
                row["status"] = f"sampling failed: {err}"
            rows.append(row)
    return rows


def ablation_suite(cfg: RunConfig) -> list[dict]:
    """Adherence to ABLATION_TARGETS per sampler variant of cfg.fusion and
    per seed of cfg.sweep_seeds, on cfg.world under cfg.condition; both
    must be set.

    Each seed's noise is drawn once and replayed to every variant, so rows
    compare the samplers and nothing else: the seed's SampleStreams record
    the first variant's draws, all of shape (n, d), the next three replay
    them, and fusion, last and the longest, replays them and then draws on.
    Each row equals a run on fresh SampleStreams(seed, n) bit for bit. Rows
    come variant-major. The independent variant is the two-stage sampler
    with m=0, so fusion_no_fusion_stage is the same sampler and its rows
    repeat independent's.
    """
    if cfg.world is None or cfg.condition is None:
        raise ValueError("ablation_suite needs a config with world and condition")
    _require_cells(cfg.world, *ABLATION_TARGETS, "ablation")
    require_condition(cfg.world, cfg.condition)
    predictor = MixtureOracle(cfg.world, cfg.schedule)
    target_identity, target_style = ABLATION_TARGETS
    variants = ablation_variants(cfg.fusion)
    scores = {}
    for seed in cfg.sweep_seeds:
        streams = SampleStreams(seed, cfg.n_samples, replay=True)
        for k, (name, fusion) in enumerate(variants):
            if k:
                streams.rewind()
            samples = sample_trajectory(cfg.condition, fusion, predictor,
                                        cfg.schedule, cfg.n_samples, seed=seed,
                                        streams=streams)
            scores[name, seed] = adherence_scores(samples, cfg.world,
                                                  target_identity, target_style)
        del streams  # freed before the next seed's streams are built
    rows = []
    for name, _ in variants:
        for seed in cfg.sweep_seeds:
            ident, style = scores[name, seed]
            rows.append({"variant": name, "seed": int(seed),
                         "identity_score": ident, "style_score": style})
    return rows


def degeneration_benchmark() -> RunConfig:
    """Reference ablation setup where single-pass joint guidance collapses.

    The identity condition is deliberately over-strong and leaks its
    reference's style (the overfit-embedding failure mode): its grid is
    leaky_identity_condition(conflict_world(), 0, 0, 10, 6). The style
    prompt, style_condition(conflict_world(), 1, 4), asks for the other
    style; the prior also favors the leaked cell. Joint classifier-free
    guidance then ignores the prompt entirely, and the calibrated two-stage
    sampler recovers both factors: its min(identity, style) dominates every
    ablated variant by a wide margin across seeds.
    """
    return validate_config({
        "world": {"preset": "conflict"},
        "condition": {"identity": [[16.0, 10.0], [0.0, 0.0]], "text": [0.0, 4.0]},
        "fusion": {"m": 3, "gamma": 0.06, "use_refinement": True, "mode": "fusion"},
        "weights": {"omega": 4.0, "omega1": 0.6, "omega2": 5.0},
        "sigma": {"kind": "boundary"},
        "sampling": {"n_samples": 500},
        "sweep": {"seeds": [0, 1, 2, 3, 4]},
    }, "ablate")
