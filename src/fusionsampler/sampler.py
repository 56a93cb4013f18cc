"""Sampling loops: vanilla classifier-free, independent-conditions, and the
two-stage fusion scheme.

Per-step structure of fusion mode: m fusion iterations, each computing a
joint-condition guided prediction on the gamma-scaled identity, predicting
the clean sample, stepping back to t-1, and re-noising to t again; then a
refinement step computing the independent-conditions guided prediction on the
unscaled conditions and performing one classifier-free reverse step. m=0
skips straight to the refinement step, which is exactly independent mode:
fusion_step, the one per-step operator of all three modes, runs independent
mode as fusion with m=0, so bit-identity holds structurally. Without the
refinement step a fusion step is its first joint pass alone, so that setting
takes m=1.

This module composes the guided predictions and owns the per-sample noise
streams; the reverse and re-noising draws themselves (ddim_step,
sample_prev, renoise) live in posterior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.guidance import GuidanceWeights, cfg_independent, cfg_single
from fusionsampler.posterior import ddim_step, predict_x0, renoise, sample_prev
from fusionsampler.predictors import NoisePredictor, announce_pass, predict_eps
from fusionsampler.schedule import DiffusionSchedule, SigmaProfile, sigma_at

__all__ = [
    "FusionConfig",
    "SampleStreams",
    "fusion_step",
    "sample_trajectory",
]

_MODES = ("vanilla_cfg", "independent", "fusion")


@dataclass(frozen=True)
class FusionConfig:
    """Sampler knobs.

    gamma scales the identity slot during the fusion stage only; vanilla,
    independent, and the refinement step consume the conditions as given.
    Without refinement a step is one fusion pass and ends there, so
    use_refinement=False requires m=1: any other m would either do nothing
    (m=0) or be silently cut to one pass.
    """

    m: int = 1
    gamma: float = 0.4
    use_refinement: bool = True
    weights: GuidanceWeights = field(default_factory=GuidanceWeights)
    sigma: SigmaProfile = field(default_factory=lambda: SigmaProfile("boundary"))
    mode: str = "fusion"

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError(f"m must be a nonnegative integer, got {self.m!r}")
        if not np.isfinite(self.gamma) or not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not self.use_refinement and self.m != 1:
            raise ValueError(
                "use_refinement=False runs exactly one fusion pass per step,"
                f" so it needs m=1, got m={self.m!r}"
            )


# SeedSequence's constants (numpy/random/bit_generator.pyx); all of its
# arithmetic is modulo 2**32
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFF_FFFF


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words SeedSequence makes of a non-negative integer entropy
    item, least significant first; 0 is one zero word."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {value!r}")
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _stream_state_words(seed: int, n: int) -> np.ndarray:
    """Row i is SeedSequence((seed, i)).generate_state(4, np.uint64), for i in
    range(n), as an (n, 4) uint64 array.

    The entropy of (seed, i) is the seed's 32-bit words followed by i's one
    word, so every row runs the same sequence of operations and the hash
    constants are the same scalars in every row: each step is one uint32
    array operation across all n rows."""
    u32 = np.uint32
    entropy = [np.full(n, w, dtype=u32) for w in _uint32_words(seed)]
    entropy.append(np.arange(n, dtype=u32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * _MULT_A & _MASK32
        value = value * u32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return out ^ (out >> _XSHIFT)

    # SeedSequence.mix_entropy with a pool of 4 words
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(n, dtype=u32))
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # SeedSequence.generate_state(4, np.uint64): 8 uint32 words cycling
    # over the pool, paired little-endian into 4 uint64 words
    const = _INIT_B
    state = np.empty((n, 8), dtype=u32)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ u32(const)
        const = const * _MULT_B & _MASK32
        value = value * u32(const)
        state[:, k] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_words_type() -> type:
    """The seed sequence type that hands its generator one precomputed row of
    _stream_state_words, defined on first use: numpy loads numpy.random only
    when it is first used, and importing it with this module would add about
    6 MB and 20 ms to every import of the package."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for generate_state(4, np.uint64)
            return self.words

    return StateWords


class SampleStreams:
    """Per-sample RNG streams derived from (seed, sample_index).

    Draws for a batch take row i from stream i, so each sample's noise
    sequence depends only on (seed, i) and the number of draws made, never on
    the batch size or on other samples.

    Stream i is a PCG64 generator in the state that
    PCG64(SeedSequence((seed, i))) starts in. PCG64 seeds itself from the
    four 64-bit words generate_state(4, np.uint64) of its seed sequence, and
    _stream_state_words computes those words for all n streams in one numpy
    pass over uint32 arrays, doing SeedSequence's own integer arithmetic in
    its order; each row is handed to PCG64 as a seed sequence that returns
    it. The streams are therefore bit-identical to the per-sample
    SeedSequence construction, without its per-sample Python mixing loops.

    Values are served from a per-stream buffer that is refilled in place with
    one generator call per stream every _CHUNK values, instead of n generator
    calls per draw. Above 4096 streams the buffer is narrower, so that it
    holds at most _BUFFER_VALUES values in all. A PCG64 generator yields the
    same normals whether k values are drawn in one call or split over
    several, so the buffered sequence is bit-identical to drawing each value
    on demand. The buffer widens only when a single draw needs more than its
    width. Every draw returns a fresh array: writing to it cannot change
    later draws, and an array held across later draws keeps its values.
    """

    _CHUNK = 64  # values drawn per stream at each refill
    # 2 MB: at n = 40000 a full-width buffer would add 20 MB to the 37 MB
    # that the generators take
    _BUFFER_VALUES = 2**18

    def __init__(self, seed: int, n: int):
        if n < 1:
            raise ValueError(f"need at least one sample, got n={n}")
        self.seed = int(seed)
        self.n = int(n)
        state_words = _state_words_type()
        self._gens = [
            np.random.Generator(np.random.PCG64(state_words(words)))
            for words in _stream_state_words(seed, self.n)
        ]
        width = min(self._CHUNK, self._BUFFER_VALUES // self.n)
        self._buf = np.empty((self.n, width))
        self._pos = width  # next unserved column; the buffer starts empty

    def standard_normal(self, shape) -> np.ndarray:
        if isinstance(shape, int) or len(shape) == 0 or shape[0] != self.n:
            raise ValueError(f"leading dimension must be n={self.n}, got {shape!r}")
        shape = tuple(shape)
        if any(dim < 0 for dim in shape[1:]):
            raise ValueError(f"negative dimensions are not allowed, got {shape!r}")
        k = math.prod(shape[1:])
        if self._pos + k > self._buf.shape[1]:
            self._refill(k)
        out = self._buf[:, self._pos:self._pos + k].reshape(shape).copy()
        self._pos += k
        return out

    def _refill(self, k: int) -> None:
        """Move the unserved values to the front, then draw each stream's
        remaining columns in place; widen first if k exceeds the buffer."""
        left = self._buf[:, self._pos:]
        kept = left.shape[1]
        if k > self._buf.shape[1]:
            self._buf = np.empty((self.n, k))
        self._buf[:, :kept] = left
        for gen, row in zip(self._gens, self._buf[:, kept:]):
            gen.standard_normal(out=row)
        self._pos = 0


def _joint_guided_eps(predictor: NoisePredictor, x, cond: ConditionSet, t: int,
             omega: float) -> np.ndarray:
    nulled = cond.nulled()
    announce_pass(predictor, x, (cond, nulled), t)
    eps_joint = predict_eps(predictor, x, cond, t)
    eps_uncond = predict_eps(predictor, x, nulled, t)
    return cfg_single(eps_joint, eps_uncond, omega)


def _split_guided_eps(predictor: NoisePredictor, x, cond: ConditionSet, t: int,
             w: GuidanceWeights) -> np.ndarray:
    conds = (cond.nulled(), cond.identity_only(), cond.text_only())
    announce_pass(predictor, x, conds, t)
    eps_uncond, eps_s, eps_c = (predict_eps(predictor, x, c, t) for c in conds)
    return cfg_independent(eps_uncond, eps_s, eps_c, w)


def fusion_step(x_t, t: int, cond: ConditionSet, cfg: FusionConfig,
                predictor: NoisePredictor, schedule: DiffusionSchedule,
                rng) -> np.ndarray:
    """One timestep of the sampler cfg.mode names; returns x_{t-1}.

    vanilla_cfg is one joint-guided reverse step on the conditions as given.
    fusion runs cfg.m fusion passes, then the refinement step; independent
    is fusion with m=0, the refinement step alone.

    The fusion stage needs sigma_t > 0 for its re-noising draw; a zero sigma
    with m >= 1 and refinement on raises, except at t=1 where sigma is forced
    to 0 by the schedule and the fusion stage degenerates to the identity (the
    zero-sigma limit of the fused update), so only refinement runs there.
    """
    sigma_t = sigma_at(schedule, cfg.sigma, t)
    x = np.asarray(x_t, dtype=float)
    if cfg.mode == "vanilla_cfg":
        eps = _joint_guided_eps(predictor, x, cond, t, cfg.weights.omega)
        return ddim_step(x, t, eps, schedule, sigma_t, rng)
    m = cfg.m if cfg.mode == "fusion" else 0
    if m >= 1 and not (t == 1 and cfg.use_refinement):
        if sigma_t == 0.0 and cfg.use_refinement:
            raise ValueError(
                f"fusion stage at t={t} needs sigma_t > 0 for re-noising;"
                " use m=0 for deterministic steps"
            )
        fusion_cond = cond.with_gamma(cfg.gamma)
        ab_t, _ = schedule.alpha_bars(t)
        for _ in range(m):
            eps = _joint_guided_eps(predictor, x, fusion_cond, t, cfg.weights.omega)
            x0_hat = predict_x0(x, eps, ab_t)
            x_prev = sample_prev(x, x0_hat, t, schedule, sigma_t, rng)
            if not cfg.use_refinement:
                return x_prev
            x = renoise(x_prev, x0_hat, t, schedule, sigma_t, rng)
    eps = _split_guided_eps(predictor, x, cond, t, cfg.weights)
    return ddim_step(x, t, eps, schedule, sigma_t, rng)


def sample_trajectory(cond: ConditionSet, cfg: FusionConfig,
                      predictor: NoisePredictor, schedule: DiffusionSchedule,
                      n_samples: int, seed: int) -> np.ndarray:
    """Run fusion_step, the per-step operator of cfg.mode, from
    x_T ~ Normal(0, I) down to x_0; returns the (n_samples, d) samples."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    streams = SampleStreams(seed, n_samples)
    x = streams.standard_normal((n_samples, predictor.d))
    for t in range(schedule.T, 0, -1):
        x = fusion_step(x, t, cond, cfg, predictor, schedule, streams)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"sampling produced non-finite state at t={t}")
    return x
