"""Sampling loop tests.

The deterministic-flow oracle is derived in-test: with an exact single
Gaussian predictor every reverse step is an affine map with scalar
coefficients, so the whole trajectory collapses to x_0 = A * x_T + C * mu
with A and C computed by a two-scalar recursion independent of the sampler
code. Stochastic runs are checked against the matching mean/variance
recursion at Monte Carlo tolerances.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fusionsampler.conditions import ConditionSet
from fusionsampler.guidance import GuidanceWeights, cfg_single
from fusionsampler.mixture import MixtureOracle
from fusionsampler.runconfig import validate_config
from fusionsampler.sampler import (
    FusionConfig,
    SampleStreams,
    _stream_state_words,
    ddim_step,
    sample_trajectory,
)
from fusionsampler.schedule import SigmaProfile, build_schedule, sigma_values
from fusionsampler.worlds import (
    identity_condition,
    product_world,
    single_gaussian_world,
    style_condition,
)

SCHED_8 = build_schedule(T=8, beta_start=0.05, beta_end=0.3)
WORLD = product_world()
ORACLE_8 = MixtureOracle(WORLD, SCHED_8)


def conditioned() -> ConditionSet:
    return ConditionSet(
        identity=identity_condition(WORLD, 0, 4.0),
        text=style_condition(WORLD, 1, 3.0),
    )


def test_config_validation():
    with pytest.raises(ValueError, match="nonnegative integer"):
        FusionConfig(m=-1)
    with pytest.raises(ValueError, match="gamma"):
        FusionConfig(gamma=1.5)
    with pytest.raises(ValueError, match="mode"):
        FusionConfig(mode="ancestral")
    # without refinement a step is exactly one fusion pass
    for m in (0, 2):
        with pytest.raises(ValueError, match="needs m=1"):
            FusionConfig(m=m, use_refinement=False)


def test_config_json_round_trip():
    # a FusionConfig's JSON form is its part of the run config echo
    cfg = validate_config({
        "fusion": {"m": 3, "gamma": 0.25},
        "weights": {"omega": 1.5, "omega1": 0.5, "omega2": 4.0},
        "sigma": {"kind": "ddim_eta", "eta": 0.7},
    }).fusion
    assert (cfg.m, cfg.gamma, cfg.use_refinement, cfg.mode) == (3, 0.25, True, "fusion")
    assert cfg.weights == GuidanceWeights(omega=1.5, omega1=0.5, omega2=4.0)
    assert (cfg.sigma.kind, cfg.sigma.eta, cfg.sigma.values) == ("ddim_eta", 0.7, None)
    vals = [0.0, 0.005] + [0.05] * 6
    custom = validate_config({"schedule": {"T": 8},
                              "sigma": {"kind": "custom", "values": vals}})
    back = validate_config(json.loads(json.dumps(custom.payload))).fusion
    assert back.sigma.kind == "custom"
    assert_array_equal(back.sigma.values, vals)


def test_streams_reject_wrong_leading_dim():
    streams = SampleStreams(seed=3, n=4)
    with pytest.raises(ValueError, match="leading dimension"):
        streams.standard_normal((5, 2))
    with pytest.raises(ValueError, match="negative"):
        streams.standard_normal((4, -1))
    assert streams.standard_normal((4, 2)).shape == (4, 2)


CHUNK = SampleStreams._CHUNK
TAILS = [(), (0,), (3,), (2,), (2, 3), (CHUNK + 5,)]


class NarrowStreams(SampleStreams):
    # the large-n cap at small n: widths 7, 3, 2, 1 and 1 for n = 1..5
    _BUFFER_VALUES = 7


def _unbuffered(seed, n):
    gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            for i in range(n)]
    return lambda tail: np.stack([g.standard_normal(tail) for g in gens])


@settings(max_examples=30, deadline=None)
@given(
    cls=st.sampled_from([SampleStreams, NarrowStreams]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    tails=st.lists(st.sampled_from(TAILS), max_size=60).flatmap(
        lambda extra: st.permutations(TAILS + extra)),
)
def test_buffered_streams_equal_per_value_draws(cls, seed, n, tails):
    # every tail appears at least once, one of them wider than a refill; the
    # filler makes every sequence cross several refills
    while sum(math.prod(tail) for tail in tails) < 4 * CHUNK:
        tails.append((3,))
    streams = cls(seed, n)
    reference = _unbuffered(seed, n)
    for tail in tails:
        got = streams.standard_normal((n, *tail))
        want = reference(tail)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64), st.integers(2**96, 2**300)),
    n=st.integers(1, 600),
)
@example(seed=0, n=1)
@example(seed=2**32 - 1, n=600)
@example(seed=2**32, n=5)
@example(seed=2**96, n=3)
@example(seed=2**200 + 7, n=600)
def test_stream_state_words_equal_seed_sequence(seed, n):
    # one word of seed up to 2**32 - 1, two from 2**32; from 2**96 the
    # entropy (seed words plus i) is longer than SeedSequence's 4-word pool
    words = _stream_state_words(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    for i in range(n):
        want = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
        assert words[i].tobytes() == want.tobytes()
    got = SampleStreams(seed, n).standard_normal((n, 300))
    assert got.tobytes() == _unbuffered(seed, n)((300,)).tobytes()


def test_streams_refuse_seeds_that_seed_sequence_refuses():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SampleStreams(-1, 3)
    with pytest.raises(TypeError):
        SampleStreams(1.5, 3)


def test_streams_refuse_a_non_integer_n():
    # 2.5 built 2 streams, and the trajectory then failed at its first draw
    for n in (2.5, 2.0, True, "2"):
        with pytest.raises(TypeError, match="n must be an integer"):
            SampleStreams(3, n)
    with pytest.raises(TypeError, match="n must be an integer, got 2.5"):
        sample_trajectory(conditioned(), FusionConfig(), ORACLE_8, SCHED_8, 2.5, seed=3)


def test_stream_draws_are_fresh_arrays():
    streams = SampleStreams(6, 3)
    reference = _unbuffered(6, 3)
    held = streams.standard_normal((3, 2))
    kept = held.copy()
    assert held.tobytes() == reference((2,)).tobytes()
    scribbled = streams.standard_normal((3, 4))
    scribbled[:] = np.nan  # must not reach the values served next
    reference((4,))
    for _ in range(3 * CHUNK // 5):
        assert streams.standard_normal((3, 5)).tobytes() == reference((5,)).tobytes()
    # held across several refills, the first draw keeps its values
    assert held.tobytes() == kept.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    cls=st.sampled_from([SampleStreams, NarrowStreams]),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)),
    n=st.integers(1, 5),
    tails=st.lists(st.sampled_from(TAILS), max_size=20),
)
def test_plain_streams_keep_their_buffer_and_refuse_rewind(cls, seed, n, tails):
    streams = cls(seed, n)
    for tail in tails:
        streams.standard_normal((n, *tail))
    # the buffer widens only for a draw wider than it
    widest = max((math.prod(tail) for tail in tails), default=0)
    width = min(cls._CHUNK, cls._BUFFER_VALUES // n)
    assert streams._buf.shape == (n, max(width, widest))
    with pytest.raises(RuntimeError, match="rewind needs a tape"):
        streams.rewind()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)),
    n=st.integers(1, 40),
    passes=st.lists(st.lists(st.sampled_from(TAILS), max_size=20),
                    min_size=2, max_size=4),
)
@example(seed=2**32, n=2, passes=[[(2,)] * 20, [(2,)] * 20])
@example(seed=7, n=3, passes=[[], [(3,)]])
def test_replayed_streams_equal_fresh_streams(seed, n, passes):
    # the first pass records the tape; each later one is rewound and
    # replays at most what the first drew; the last then draws on past the
    # tape's end, which frees it
    def total(tails):
        return sum(math.prod(tail) for tail in tails)

    recorded = total(passes[0])
    # the tape at most doubles what was drawn when it last grew
    tape_bound = max(2 * recorded, CHUNK)
    streams = SampleStreams(seed, n, replay=True)
    for k, tails in enumerate(passes):
        if k:
            streams.rewind()
            while total(tails) > recorded:
                tails = tails[:-1]
        if k == len(passes) - 1:
            tails = [*tails, (tape_bound + 1,), (3,), (2, 3)]
        fresh = SampleStreams(seed, n)
        for tail in tails:
            got = streams.standard_normal((n, *tail))
            assert got.tobytes() == fresh.standard_normal((n, *tail)).tobytes()
    with pytest.raises(RuntimeError, match="rewind needs a tape"):
        streams.rewind()
    # the stream runs on live, as the fresh one does
    assert streams.standard_normal((n, 5)).tobytes() == \
        fresh.standard_normal((n, 5)).tobytes()


def test_trajectory_draws_from_given_streams_of_its_seed_and_size():
    cfg = FusionConfig(m=2, gamma=0.5)
    want = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 3, seed=5)
    got = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 3, seed=5,
                            streams=SampleStreams(5, 3))
    assert got.tobytes() == want.tobytes()
    for streams in (SampleStreams(4, 3), SampleStreams(5, 2)):
        with pytest.raises(ValueError, match="streams are for"):
            sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 3, seed=5,
                              streams=streams)


def test_same_seed_reproduces_bitwise():
    cfg = FusionConfig(m=2, gamma=0.5)
    a = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 5, seed=11)
    b = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 5, seed=11)
    assert a.tobytes() == b.tobytes()
    c = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 5, seed=12)
    assert not np.array_equal(a, c)


@settings(max_examples=15, deadline=None)
@given(n_small=st.integers(1, 3), extra=st.integers(1, 3), seed=st.integers(0, 2**20))
def test_batch_prefix_invariance(n_small, extra, seed):
    # sample i's noise comes only from (seed, i), so enlarging the batch
    # must not change the first rows
    cfg = FusionConfig(m=1, gamma=0.5)
    small = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, n_small, seed=seed)
    big = sample_trajectory(
        conditioned(), cfg, ORACLE_8, SCHED_8, n_small + extra, seed=seed
    )
    assert_array_equal(big[:n_small], small)


def _custom_profile():
    vals = np.full(SCHED_8.T, 0.12)
    vals[0] = 0.0  # t=1 admits only sigma = 0
    return SigmaProfile("custom", values=vals)


@pytest.mark.parametrize(
    "sigma, weights",
    [
        (SigmaProfile("boundary"), GuidanceWeights()),
        (SigmaProfile("ddim_eta", eta=0.7), GuidanceWeights(omega1=0.5, omega2=3.0)),
        (SigmaProfile("ddim_eta", eta=1.0), GuidanceWeights(omega1=4.0, omega2=0.0)),
        ("custom", GuidanceWeights(omega1=1.0, omega2=1.0)),
    ],
)
def test_m0_fusion_is_bitwise_independent(sigma, weights, independent_trajectory):
    """m=0 must not merely approximate independent-conditions sampling: it
    must equal that sampler written out step by step, bit for bit."""
    if sigma == "custom":
        sigma = _custom_profile()
    fusion = FusionConfig(m=0, weights=weights, sigma=sigma, mode="fusion")
    a = sample_trajectory(conditioned(), fusion, ORACLE_8, SCHED_8, 6, seed=77)
    b = independent_trajectory(conditioned(), weights, sigma, ORACLE_8, SCHED_8,
                               6, 77)
    assert a.tobytes() == b.tobytes()


def test_deterministic_flow_matches_affine_recursion():
    mu = np.array([1.5, -0.5])
    world = single_gaussian_world(mean=mu, s=0.7)
    sched = build_schedule(T=12, beta_start=0.02, beta_end=0.3)
    oracle = MixtureOracle(world, sched)
    cfg = FusionConfig(mode="vanilla_cfg", sigma=SigmaProfile("ddim_eta", eta=0.0))
    samples = sample_trajectory(ConditionSet(), cfg, oracle, sched, 64, seed=909)
    x_T = SampleStreams(909, 64).standard_normal((64, 2))
    s2 = 0.7 * 0.7
    A, C = 1.0, 0.0
    for t in range(sched.T, 0, -1):
        ab = sched.alpha_bar[t]
        abp = sched.alpha_bar[t - 1]
        v = ab * s2 + 1.0 - ab
        a = (np.sqrt(ab * abp) * s2 + np.sqrt((1.0 - ab) * (1.0 - abp))) / v
        c = (np.sqrt(abp) * (1.0 - ab) - np.sqrt(ab * (1.0 - ab) * (1.0 - abp))) / v
        A, C = a * A, a * C + c
    assert_allclose(samples, A * x_T + C * mu, rtol=1e-9, atol=1e-12)


def reverse_moments(sched, prof, s2):
    """(m, V) of x_0 = m * mu + noise of variance V per dim, for reverse runs
    from x_T ~ Normal(0, I) under any sigma profile, with the exact eps of a
    single Gaussian Normal(mu, s2 * I), sqrt(1 - ab) (x - sqrt(ab) mu) / v:
    each step x' = sqrt(abp) x0_hat + r eps + sigma z is affine in x."""
    m, V = 0.0, 1.0
    sigmas = sigma_values(sched, prof)
    for t in range(sched.T, 0, -1):
        ab = sched.alpha_bar[t]
        abp = sched.alpha_bar[t - 1]
        v = ab * s2 + 1.0 - ab
        sig = sigmas[t - 1]
        r = np.sqrt(1.0 - abp - sig * sig)
        a = (np.sqrt(abp * ab) * s2 + r * np.sqrt(1.0 - ab)) / v
        c = (np.sqrt(abp) * (1.0 - ab) - r * np.sqrt(ab * (1.0 - ab))) / v
        m = a * m + c
        V = a * a * V + sig * sig
    return m, V


def _assert_moments_match_recursion(prof):
    """Reverse runs on an exact single-Gaussian predictor follow the scalar
    mean/variance recursion; check the samples at MC tolerances."""
    mu = np.array([2.0, 0.5])
    world = single_gaussian_world(mean=mu, s=0.6)
    sched = build_schedule(T=30, beta_start=0.01, beta_end=0.25)
    oracle = MixtureOracle(world, sched)
    cfg = FusionConfig(mode="vanilla_cfg", sigma=prof)
    n = 4000
    samples = sample_trajectory(ConditionSet(), cfg, oracle, sched, n, seed=5150)
    m, V = reverse_moments(sched, prof, 0.6 * 0.6)
    want_mean = m * mu
    got_mean = samples.mean(axis=0)
    assert np.all(np.abs(got_mean - want_mean) < 4.0 * np.sqrt(V / n))
    got_var = samples.var(axis=0, ddof=1)
    assert np.all(np.abs(got_var - V) < 4.0 * V * np.sqrt(2.0 / (n - 1)))


def test_boundary_sigma_moments_match_recursion():
    _assert_moments_match_recursion(SigmaProfile("boundary"))


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_ddim_eta_moments_match_recursion(eta):
    _assert_moments_match_recursion(SigmaProfile("ddim_eta", eta=eta))


@pytest.mark.parametrize("s2", [0.1225, 1.0, 4.0])
def test_recursion_variance_against_the_data_variance(s2):
    """The variance V_0 that reverse runs reach on a single Gaussian of
    variance s2 (default beta endpoints, null condition), against s2 itself.
    ddim_eta at eta 0 and 1 close the gap as T grows; boundary drops
    ab_prev * Cov(x_0 | x_t) at every step and keeps under half of s2 at
    any T (V_0 / s2 is 0.459-0.493 at T = 100 and 1000)."""
    ratio = {}
    for T in (100, 1000):
        sched = build_schedule(T=T)
        for name, prof in (("eta0", SigmaProfile("ddim_eta", eta=0.0)),
                           ("eta1", SigmaProfile("ddim_eta", eta=1.0)),
                           ("boundary", SigmaProfile("boundary"))):
            ratio[name, T] = reverse_moments(sched, prof, s2)[1] / s2
    for name in ("eta0", "eta1"):
        assert abs(ratio[name, 1000] - 1.0) < abs(ratio[name, 100] - 1.0)
        assert ratio[name, 1000] > 0.95
    for T in (100, 1000):
        assert 0.45 < ratio["boundary", T] < 0.5


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("prof", [SigmaProfile("boundary"),
                                  SigmaProfile("ddim_eta", eta=0.5)],
                         ids=["boundary", "ddim_eta"])
def test_fusion_stage_moments_match_recursion(m, prof):
    """Fusion runs on an exact single-Gaussian predictor follow the same kind
    of scalar mean/variance recursion: per step, m passes of a reverse draw
    and a re-noising draw, then the refinement step; at t=1 only the
    refinement. Guidance is a no-op with one cell. The short schedule keeps
    alpha_bar_T near 0.76, so x_T ~ Normal(0, I) is far from the diffused
    data and every pass moves the law by more than the tolerance."""
    mu = np.array([2.0, 0.5])
    world = single_gaussian_world(mean=mu, s=0.6)
    sched = build_schedule(T=6, beta_start=0.01, beta_end=0.08)
    oracle = MixtureOracle(world, sched)
    cfg = FusionConfig(m=m, sigma=prof, mode="fusion")
    n = 4000
    samples = sample_trajectory(ConditionSet(), cfg, oracle, sched, n, seed=6160)
    s2 = 0.6 * 0.6
    mean, V = 0.0, 1.0  # x = mean * mu + noise of variance V per dim
    sigmas = sigma_values(sched, prof)
    for t in range(sched.T, 0, -1):
        ab = sched.alpha_bar[t]
        abp = sched.alpha_bar[t - 1]
        v = ab * s2 + 1.0 - ab
        sig = sigmas[t - 1]
        # exact clean-sample prediction x0_hat = p * x + q * mu
        p, q = np.sqrt(ab) * s2 / v, (1.0 - ab) / v
        if t > 1:
            # reverse draw x' = sqrt(abp) x0_hat + k (x - sqrt(ab) x0_hat) + sig z;
            # re-noising draws x from its Gaussian conditional given x' and
            # x0_hat, whose variance is S and whose mean is
            # g x' + (sqrt(ab) S / (1 - ab) - g (sqrt(abp) - k sqrt(ab))) x0_hat
            k = np.sqrt(1.0 - abp - sig * sig) / np.sqrt(1.0 - ab)
            S = (1.0 - ab) * sig * sig / (1.0 - abp)
            g = S * k / (sig * sig)
            w = np.sqrt(ab) * S / (1.0 - ab)  # x0_hat's net weight
            for _ in range(m):
                mean = (w * p + g * k) * mean + w * q
                V = (w * p + g * k) ** 2 * V + g * g * sig * sig + S
        # refinement: x = sqrt(abp) x0_hat + r eps + sig z, with the exact
        # eps = sqrt(1 - ab) (x - sqrt(ab) mu) / v
        r = np.sqrt(1.0 - abp - sig * sig)
        a = np.sqrt(abp) * p + r * np.sqrt(1.0 - ab) / v
        c = np.sqrt(abp) * q - r * np.sqrt(ab * (1.0 - ab)) / v
        mean = a * mean + c
        V = a * a * V + sig * sig
    got_mean = samples.mean(axis=0)
    assert np.all(np.abs(got_mean - mean * mu) < 4.0 * np.sqrt(V / n))
    got_var = samples.var(axis=0, ddof=1)
    assert np.all(np.abs(got_var - V) < 4.0 * V * np.sqrt(2.0 / (n - 1)))


def test_m1_no_refinement_matches_vanilla():
    # one fusion iteration that returns before re-noising is exactly a
    # joint-condition guided reverse step, up to float association
    cond = conditioned()
    fusion = FusionConfig(m=1, gamma=1.0, use_refinement=False, mode="fusion")
    vanilla = FusionConfig(mode="vanilla_cfg")
    a = sample_trajectory(cond, fusion, ORACLE_8, SCHED_8, 8, seed=21)
    b = sample_trajectory(cond, vanilla, ORACLE_8, SCHED_8, 8, seed=21)
    assert_allclose(a, b, rtol=1e-9, atol=1e-12)


class _CountingPredictor:
    """ORACLE_8's predictions, with the t of every call kept in calls."""

    d = 2

    def __init__(self):
        self.calls = []

    def predict_eps(self, x_t, cond, t):
        self.calls.append(t)
        return ORACLE_8.predict_eps(x_t, cond, t)


def test_zero_sigma_rejected_by_fusion_stage():
    # a custom sigma that is 0 at t=5 of 8 alone: the fusion stage cannot
    # re-noise there, so the trajectory is refused before any predictor call
    values = 0.5 * np.sqrt(1.0 - SCHED_8.alpha_bar[:-1])
    values[4] = 0.0
    cfg = FusionConfig(m=1, sigma=SigmaProfile("custom", values=values))
    predictor = _CountingPredictor()
    with pytest.raises(ValueError, match="0 at t=5, but fusion.m >= 1"):
        sample_trajectory(conditioned(), cfg, predictor, SCHED_8, 2, seed=0)
    assert predictor.calls == []
    # m=0 and vanilla_cfg have no fusion stage: the same sigma runs
    for cfg in (replace(cfg, m=0), replace(cfg, mode="vanilla_cfg")):
        sample_trajectory(conditioned(), cfg, predictor, SCHED_8, 2, seed=0)
    # without refinement the step never re-noises, so sigma = 0 is legal
    cfg = FusionConfig(m=1, use_refinement=False,
                       sigma=SigmaProfile("ddim_eta", eta=0.0))
    out = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 2, seed=0)
    assert np.all(np.isfinite(out))


def test_final_step_runs_refinement_only(independent_trajectory):
    # at t=1 the schedule forces sigma=0, the fusion stage degenerates, and
    # the full scheme must agree with the plain independent step bitwise: on
    # a one-step schedule the whole trajectory is that step
    sched = build_schedule(T=1)
    oracle = MixtureOracle(WORLD, sched)
    full = FusionConfig(m=2, gamma=0.3, mode="fusion")
    a = sample_trajectory(conditioned(), full, oracle, sched, 3, seed=9)
    b = independent_trajectory(conditioned(), full.weights, full.sigma, oracle,
                               sched, 3, 9)
    assert a.tobytes() == b.tobytes()


def test_vanilla_cfg_is_one_joint_guided_step_per_t():
    # vanilla_cfg is one joint-guided reverse step per t on the conditions as
    # given, whatever m and gamma say: the trajectory equals that loop
    # written out, on an oracle that evaluates every call afresh
    weights = GuidanceWeights(omega=3.0, omega1=1.5, omega2=0.5)
    vanilla = FusionConfig(m=2, gamma=0.3, weights=weights, mode="vanilla_cfg")
    cond = conditioned()
    got = sample_trajectory(cond, vanilla, ORACLE_8, SCHED_8, 3, seed=9)
    oracle = MixtureOracle(WORLD, SCHED_8)
    streams = SampleStreams(9, 3)
    x = streams.standard_normal((3, 2))
    sigmas = sigma_values(SCHED_8, vanilla.sigma)
    for t in range(SCHED_8.T, 0, -1):
        eps = cfg_single(oracle.predict_eps(x, cond, t),
                         oracle.predict_eps(x, cond.nulled(), t), weights.omega)
        x = ddim_step(x, t, eps, SCHED_8, sigmas[t - 1], streams)
    assert got.tobytes() == x.tobytes()


class _PassRecorder:
    """ORACLE_8's predictions, with every announced condition tuple kept."""

    d = 2

    def __init__(self):
        self.passes = []

    def announce_pass(self, x_t, conds, t):
        self.passes.append(conds)

    def predict_eps(self, x_t, cond, t):
        return ORACLE_8.predict_eps(x_t, cond, t)


def test_every_step_announces_the_same_two_condition_tuples():
    # the trajectory derives its pass conditions once, so a predictor's
    # cache keyed by the condition objects hits at every step
    cond = conditioned()
    recorder = _PassRecorder()
    sample_trajectory(cond, FusionConfig(m=2, gamma=0.3), recorder, SCHED_8, 2,
                      seed=0)
    joint, split = recorder.passes[0], recorder.passes[-1]
    assert {id(conds) for conds in recorder.passes} == {id(joint), id(split)}
    assert joint[0].gamma == 0.3 and joint[0].identity is cond.identity
    assert joint[1].identity is None and joint[1].text is None
    assert [c.identity is None for c in split] == [True, False, True]
    assert [c.text is None for c in split] == [True, True, False]


def test_gamma_reaches_the_predictor():
    lo = FusionConfig(m=1, gamma=0.0)
    hi = FusionConfig(m=1, gamma=1.0)
    a = sample_trajectory(conditioned(), lo, ORACLE_8, SCHED_8, 4, seed=13)
    b = sample_trajectory(conditioned(), hi, ORACLE_8, SCHED_8, 4, seed=13)
    assert not np.allclose(a, b)


class _NanPredictor:
    d = 2

    def predict_eps(self, x_t, cond, t):
        return np.full_like(np.asarray(x_t, dtype=float), np.nan)


def test_non_finite_state_is_reported():
    cfg = FusionConfig(mode="vanilla_cfg")
    with pytest.raises(RuntimeError, match="non-finite state at t="):
        sample_trajectory(ConditionSet(), cfg, _NanPredictor(), SCHED_8, 2, seed=0)


@pytest.mark.parametrize("mode, m", [("vanilla_cfg", 2), ("fusion", 0), ("fusion", 2)],
                         ids=["vanilla_cfg", "independent", "fusion"])
def test_non_finite_prediction_names_t_in_every_mode(mode, m):
    # fusion mode renoises before its refinement pass, so a check placed only
    # after the step would let the nan reach the next predictor call first
    cfg = FusionConfig(mode=mode, m=m)
    with pytest.raises(RuntimeError, match=f"non-finite state at t={SCHED_8.T}$"):
        sample_trajectory(conditioned(), cfg, _NanPredictor(), SCHED_8, 2, seed=0)


def test_step_input_validation():
    with pytest.raises(ValueError, match="n_samples"):
        sample_trajectory(conditioned(), FusionConfig(), ORACLE_8, SCHED_8, 0, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="t must lie"):
        ddim_step(np.zeros(2), 9, np.zeros(2), SCHED_8, 0.1, rng)
    with pytest.raises(ValueError, match="infeasible sigma_t"):
        ddim_step(np.zeros(2), 3, np.zeros(2), SCHED_8, 2.0, rng)


def test_random_configs_stay_finite():
    # fuzz over the config space: every legal combination must finish
    rng = np.random.default_rng(314)
    profiles = [
        SigmaProfile("boundary"),
        SigmaProfile("ddim_eta", eta=0.0),
        SigmaProfile("ddim_eta", eta=1.0),
    ]
    for trial in range(200):
        mode = ("vanilla_cfg", "fusion")[int(rng.integers(2))]
        m = int(rng.integers(0, 4))
        refine = bool(rng.integers(2))
        if mode != "fusion":
            m, refine = 1, True
        elif not refine:
            m = 1  # without refinement only m=1 is legal
        cfg = FusionConfig(
            m=m,
            gamma=float(rng.uniform(0.0, 1.0)),
            use_refinement=refine,
            mode=mode,
            weights=GuidanceWeights(
                omega=float(rng.uniform(0.0, 6.0)),
                omega1=float(rng.uniform(0.0, 6.0)),
                omega2=float(rng.uniform(0.0, 6.0)),
            ),
            sigma=profiles[int(rng.integers(3))],
        )
        if (cfg.mode == "fusion" and cfg.m >= 1 and cfg.use_refinement
                and cfg.sigma.kind == "ddim_eta" and cfg.sigma.eta == 0.0):
            continue  # fusion stage needs noise to re-inject
        samples = sample_trajectory(conditioned(), cfg, ORACLE_8, SCHED_8, 2,
                                    seed=int(rng.integers(2**31)))
        assert np.all(np.isfinite(samples))
