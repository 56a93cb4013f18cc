"""Sampling loops: vanilla classifier-free and the two-stage fusion scheme.

Per-step structure of fusion mode: m fusion iterations, each computing a
joint-condition guided prediction on the gamma-scaled identity, predicting
the clean sample, stepping back to t-1, and re-noising to t again; then a
refinement step computing the independent-conditions guided prediction on the
unscaled conditions and performing one classifier-free reverse step. m=0
skips straight to the refinement step: that is the independent-conditions
sampler of Composable Diffusion (Liu et al. 2022), which has no mode of its
own. Without the refinement step a fusion step is its first joint pass
alone, so that setting takes m=1.

This module composes the guided predictions, owns the per-sample noise
streams and lists the ablation's samplers (ablation_variants); the reverse
and re-noising draws themselves (ddim_step, sample_prev, renoise) live in
posterior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.guidance import GuidanceWeights, cfg_independent, cfg_single
from fusionsampler.posterior import ddim_step, predict_x0, renoise, sample_prev
from fusionsampler.predictors import NoisePredictor, announce_pass, predict_eps
from fusionsampler.schedule import DiffusionSchedule, SigmaProfile, sigma_values

__all__ = [
    "FusionConfig",
    "SampleStreams",
    "ablation_variants",
    "check_fusion_sigma",
    "sample_trajectory",
]

_MODES = ("vanilla_cfg", "fusion")


@dataclass(frozen=True)
class FusionConfig:
    """Sampler knobs.

    gamma scales the identity slot during the fusion stage only; vanilla and
    the refinement step consume the conditions as given.
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
        if (not isinstance(self.m, (int, np.integer)) or isinstance(self.m, bool)
                or self.m < 0):
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

    A stream made with replay=True lets several trajectories share its
    draws. Until its first rewind() it keeps a copy of each draw it serves,
    its tape. rewind() serves the tape again from its first draw, as often
    as asked: each draw returns a fresh copy of the next recorded one, and
    must ask for that draw's shape (ValueError otherwise). A draw past the
    tape's end comes from the buffer, which sits exactly where recording
    left it, so every replay serves the draws of a fresh
    SampleStreams(seed, n). That draw frees the tape, and a later rewind()
    raises.
    """

    _CHUNK = 64  # values drawn per stream at each refill
    # 2 MB: at n = 40000 a full-width buffer would add 20 MB to the 37 MB
    # that the generators take
    _BUFFER_VALUES = 2**18

    def __init__(self, seed: int, n: int, *, replay: bool = False):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise TypeError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"need at least one sample, got n={n}")
        self.seed = int(seed)
        self.n = int(n)
        state_words = _state_words_type()
        self._gens = [
            np.random.Generator(np.random.PCG64(state_words(words)))
            for words in _stream_state_words(seed, self.n)
        ]
        # _buf holds generated values, served from column _pos on
        self._buf = np.empty((self.n, min(self._CHUNK, self._BUFFER_VALUES // self.n)))
        self._pos = self._buf.shape[1]  # the buffer starts empty
        # the recorded draws, None on a plain stream and once a draw has run
        # past the tape's end; _next indexes the draw to replay next, None
        # until rewind()
        self._tape = [] if replay else None
        self._next = None

    def standard_normal(self, shape) -> np.ndarray:
        if isinstance(shape, int) or len(shape) == 0 or shape[0] != self.n:
            raise ValueError(f"leading dimension must be n={self.n}, got {shape!r}")
        shape = tuple(shape)
        if any(dim < 0 for dim in shape[1:]):
            raise ValueError(f"negative dimensions are not allowed, got {shape!r}")
        if self._next is not None:
            if self._next < len(self._tape):
                recorded = self._tape[self._next]
                if recorded.shape != shape:
                    raise ValueError(f"replayed draw {self._next} has shape"
                                     f" {recorded.shape}, got {shape!r}")
                self._next += 1
                return recorded.copy()
            self._tape = self._next = None  # past the tape's end: freed
        k = math.prod(shape[1:])
        if self._pos + k > self._buf.shape[1]:
            self._refill(k)
        out = self._buf[:, self._pos:self._pos + k].reshape(shape).copy()
        self._pos += k
        if self._tape is not None:
            self._tape.append(out.copy())
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

    def rewind(self) -> None:
        """Serve the tape again from its first draw (see the class
        docstring); raises RuntimeError once there is no tape."""
        if self._tape is None:
            raise RuntimeError(
                "rewind needs a tape: only a stream made with replay=True keeps"
                " one, until a draw past its end")
        self._next = 0


def _joint_guided_eps(predictor: NoisePredictor, x, conds: tuple, t: int,
                      omega: float) -> np.ndarray:
    """Joint guidance on the pass conds = (cond, cond.nulled())."""
    announce_pass(predictor, x, conds, t)
    eps_joint, eps_uncond = (predict_eps(predictor, x, c, t) for c in conds)
    return cfg_single(eps_joint, eps_uncond, omega)


def _split_guided_eps(predictor: NoisePredictor, x, conds: tuple, t: int,
                      w: GuidanceWeights) -> np.ndarray:
    """Independent-conditions guidance on the pass conds = (cond.nulled(),
    cond.identity_only(), cond.text_only())."""
    announce_pass(predictor, x, conds, t)
    eps_uncond, eps_s, eps_c = (predict_eps(predictor, x, c, t) for c in conds)
    return cfg_independent(eps_uncond, eps_s, eps_c, w)


def check_fusion_sigma(cfg: FusionConfig, sigmas: np.ndarray) -> None:
    """Refuse a sigma_t array (sigma_values of cfg.sigma) that cfg's fusion
    stage cannot run.

    The stage re-noises with sigma_t, so fusion with m >= 1 and the
    refinement step needs sigma_t > 0 at every t >= 2; it does not run at
    t = 1. Raises ValueError naming the first t where sigma_t is 0.
    """
    if cfg.mode == "fusion" and cfg.m >= 1 and cfg.use_refinement:
        zeros = np.flatnonzero(sigmas[1:] == 0.0)
        if zeros.size:
            raise ValueError(
                f"0 at t={zeros[0] + 2}, but fusion.m >= 1 with refinement"
                " needs sigma_t > 0 at every t >= 2")


def ablation_variants(base: FusionConfig) -> list[tuple[str, FusionConfig]]:
    """The samplers the ablation compares, as (name, config) built from base.

    fusion is the paper's sampler at base's m, gamma, weights and sigma, with
    the refinement step whatever base.mode and base.use_refinement say; it
    comes last. Every other variant draws the same amount of noise, no more
    than fusion does.
    """
    return [
        ("vanilla_cfg", replace(base, mode="vanilla_cfg")),
        # fusion with m=0 is independent-conditions guidance
        ("independent", replace(base, mode="fusion", m=0, use_refinement=True)),
        # without refinement a step is one fusion pass, whatever base.m is
        ("fusion_no_refinement", replace(base, mode="fusion", m=1,
                                         use_refinement=False)),
        # the same sampler as independent, kept while the benchmark's row
        # check and predictor-call count name it
        ("fusion_no_fusion_stage", replace(base, mode="fusion", m=0,
                                           use_refinement=True)),
        ("fusion", replace(base, mode="fusion", use_refinement=True)),
    ]


def _step(x, t: int, sigma_t: float, joint: tuple, split: tuple,
          cfg: FusionConfig, predictor: NoisePredictor,
          schedule: DiffusionSchedule, rng) -> np.ndarray:
    """One timestep of the sampler cfg.mode names; returns x_{t-1}.

    vanilla_cfg is one joint-guided reverse step on the pass joint, the
    conditions as given. fusion runs cfg.m fusion passes on joint, the
    gamma-scaled conditions, then the refinement step on the pass split;
    with m=0 the refinement step alone, independent-conditions guidance.

    The fusion stage's re-noising draw needs sigma_t > 0 (check_fusion_sigma;
    renoise refuses a zero sigma too), except at t=1 where sigma is forced
    to 0 by the schedule and the fusion stage degenerates to the identity
    (the zero-sigma limit of the fused update), so only refinement runs there.
    """
    if cfg.mode == "vanilla_cfg":
        eps = _joint_guided_eps(predictor, x, joint, t, cfg.weights.omega)
        return ddim_step(x, t, eps, schedule, sigma_t, rng)
    if cfg.m >= 1 and not (t == 1 and cfg.use_refinement):
        ab_t, _ = schedule.alpha_bars(t)
        for _ in range(cfg.m):
            eps = _joint_guided_eps(predictor, x, joint, t, cfg.weights.omega)
            x0_hat = predict_x0(x, eps, ab_t)
            x_prev = sample_prev(x, x0_hat, t, schedule, sigma_t, rng)
            if not cfg.use_refinement:
                return x_prev
            x = renoise(x_prev, x0_hat, t, schedule, sigma_t, rng)
    eps = _split_guided_eps(predictor, x, split, t, cfg.weights)
    return ddim_step(x, t, eps, schedule, sigma_t, rng)


def sample_trajectory(cond: ConditionSet, cfg: FusionConfig,
                      predictor: NoisePredictor, schedule: DiffusionSchedule,
                      n_samples: int, seed: int, *,
                      streams: SampleStreams | None = None) -> np.ndarray:
    """Run the sampler cfg.mode names from x_T ~ Normal(0, I) down to x_0;
    returns the (n_samples, d) samples.

    What stays fixed along the trajectory is resolved once, before the first
    step: the sigma_t array (sigma_values; check_fusion_sigma refuses a
    profile the fusion stage cannot run), and the condition tuples of the
    two guided passes, which every step hands to the predictor as the same
    objects, so that a predictor may cache per-pass work by them.

    The state check after each step is the one finiteness check on the
    sampling path: a non-finite value anywhere in step t raises RuntimeError
    naming t once the step ends.

    The noise comes from SampleStreams(seed, n_samples), or from streams when
    given: a stream of that seed and size, such as a rewound replay stream,
    whose next values the trajectory draws.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples!r}")
    sigmas = sigma_values(schedule, cfg.sigma)
    check_fusion_sigma(cfg, sigmas)
    sigmas = sigmas.tolist()
    fused = cond if cfg.mode == "vanilla_cfg" else cond.with_gamma(cfg.gamma)
    joint = (fused, fused.nulled())
    split = (cond.nulled(), cond.identity_only(), cond.text_only())
    if streams is None:
        streams = SampleStreams(seed, n_samples)
    elif (streams.seed, streams.n) != (seed, n_samples):
        raise ValueError(
            f"streams are for seed={streams.seed}, n={streams.n}, but the"
            f" trajectory has seed={seed!r}, n_samples={n_samples!r}")
    x = streams.standard_normal((n_samples, predictor.d))
    for t in range(schedule.T, 0, -1):
        x = _step(x, t, sigmas[t - 1], joint, split, cfg, predictor, schedule,
                  streams)
        if not np.isfinite(x).all():
            raise RuntimeError(f"sampling produced non-finite state at t={t}")
    return x
