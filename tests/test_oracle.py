import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import fusionsampler.mixture as mixture
from fusionsampler.conditions import ConditionSet
from fusionsampler.evaluate import ablation_variants
from fusionsampler.mixture import (
    MixtureOracle,
    MixtureWorld,
    cell_log_weights,
    oracle_eps,
    oracle_log_density,
    oracle_predict_eps,
    oracle_responsibilities,
)
from fusionsampler.predictors import predict_eps
from fusionsampler.runconfig import validate_config
from fusionsampler.sampler import FusionConfig, sample_trajectory
from fusionsampler.schedule import build_schedule
from fusionsampler.worlds import (
    conflict_world,
    identity_condition,
    leaky_identity_condition,
    product_world,
    single_gaussian_world,
    style_condition,
)


def fd_eps(world, x, cond, ab, h=1e-5):
    """Finite-difference reference: -sqrt(1-ab) * grad log p per coordinate."""
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (
            oracle_log_density(world, x + e, cond, ab)
            - oracle_log_density(world, x - e, cond, ab)
        ) / (2 * h)
    return -np.sqrt(1.0 - ab) * g


def test_unit_variance_world_eps_is_scaled_x():
    w = single_gaussian_world(mean=(0.0,), s=1.0)
    x = np.array([1.0])
    assert_allclose(oracle_eps(w, x, None, 0.36), [0.8], rtol=1e-12)
    for ab in (0.1, 0.5, 0.9):
        x = np.array([-1.7])
        assert_allclose(oracle_eps(w, x, None, ab), np.sqrt(1 - ab) * x, rtol=1e-12)


def test_symmetric_components_cancel_at_origin():
    w = MixtureWorld(
        means=np.array([[2.0, 1.0], [-2.0, -1.0]]),
        s=0.5,
        style_A=np.eye(2)[None],
        style_b=np.zeros((1, 2)),
        log_prior=np.zeros((2, 1)),
    )
    assert_allclose(oracle_eps(w, np.zeros(2), None, 0.4), np.zeros(2), atol=1e-15)


def test_gamma_zero_is_exactly_unconditional():
    w = product_world()
    x = np.array([0.3, -0.9])
    cond = ConditionSet(identity=identity_condition(w, 1, 3.0), gamma=0.0)
    assert_array_equal(oracle_eps(w, x, cond, 0.5), oracle_eps(w, x, None, 0.5))


def test_uniform_weights_equal_unconditional_exactly():
    w = product_world()
    x = np.array([1.1, 0.4])
    cond = ConditionSet(
        identity=np.zeros(w.n_identities), text=np.zeros(w.n_styles), gamma=1.0
    )
    assert_array_equal(oracle_eps(w, x, cond, 0.3), oracle_eps(w, x, None, 0.3))


def test_hard_conditioning_vanishes_at_diffused_mean():
    w = product_world(identity_spacing=10.0, style_offset=10.0, s=0.35)
    ab = 0.5
    cond = ConditionSet(
        identity=identity_condition(w, 1, np.inf),
        text=style_condition(w, 0, np.inf),
    )
    x = np.sqrt(ab) * w.cell_means()[1, 0]
    assert np.max(np.abs(oracle_eps(w, x, cond, ab))) < 1e-6


def test_finite_difference_probes():
    rng = np.random.default_rng(42)
    w = conflict_world()
    sched = build_schedule()
    for _ in range(25):
        t = int(rng.integers(1, sched.T + 1))
        ab = float(sched.alpha_bar[t])
        x = rng.normal(0.0, 1.5, size=2)
        cond = rng.choice(
            [
                None,
                ConditionSet(identity=identity_condition(w, 0, 2.0)),
                ConditionSet(text=style_condition(w, 1, 1.5)),
                ConditionSet(
                    identity=leaky_identity_condition(w, 0, 0, 3.0, 2.0),
                    text=style_condition(w, 1, 2.0),
                    gamma=0.7,
                ),
            ]
        )
        got = oracle_eps(w, x, cond, ab)
        want = fd_eps(w, x, cond, ab)
        assert np.linalg.norm(got - want) < 1e-4 * max(np.linalg.norm(want), 1e-3)


def test_responsibilities_normalize_and_batch():
    w = conflict_world()
    xs = np.array([[0.1, 0.2], [2.0, -1.0], [0.0, 3.0]])
    r = oracle_responsibilities(w, xs, None, 0.6)
    assert r.shape == (3, 2, 2)
    assert_allclose(r.sum(axis=(1, 2)), np.ones(3), rtol=1e-12)
    single = oracle_responsibilities(w, xs[1], None, 0.6)
    assert_allclose(single, r[1], rtol=1e-12)


def test_empty_cell_subset_rejected():
    w = product_world()
    cond = ConditionSet(identity=np.full(w.n_identities, -np.inf))
    with pytest.raises(ValueError, match="empty subset"):
        cell_log_weights(w, cond)


def test_data_moments_match_monte_carlo():
    w = conflict_world(a=2.0, s=0.35)
    rng = np.random.default_rng(9)
    draws, _ = w.sample(200_000, rng)
    assert_allclose(draws.mean(axis=0), w.data_mean(), atol=0.02)
    assert_allclose(np.cov(draws.T), w.data_cov(), atol=0.05)


def test_conditioned_sampling_masks_cells():
    w = conflict_world()
    rng = np.random.default_rng(3)
    draws, _ = w.sample(4000, rng, identity=0, style=1)
    target = w.cell_means()[0, 1]
    assert np.linalg.norm(draws.mean(axis=0) - target) < 0.05


def _choice_sample(world, rng, n, identity=None, style=None):
    """MixtureWorld.sample as written with Generator.choice: the prior
    masked to the pin, normalized, then the cells and the noise."""
    pi = world.prior()
    if identity is not None:
        mask = np.zeros_like(pi)
        mask[identity, :] = pi[identity, :]
        pi = mask
    if style is not None:
        mask = np.zeros_like(pi)
        mask[:, style] = pi[:, style]
        pi = mask
    flat = (pi / pi.sum()).reshape(-1)
    cells = rng.choice(flat.size, size=n, p=flat)
    x0 = world.cell_means().reshape(-1, world.d)[cells] \
        + world.s * rng.standard_normal((n, world.d))
    return x0, cells


def _skewed_world():
    """3 x 3 product world with an uneven prior and three zero-prior cells
    (flat indices 1, 3 and 8)."""
    base = product_world(3, 3)
    lp = np.log(np.arange(1.0, 10.0)).reshape(3, 3)
    lp[0, 1] = lp[2, 2] = lp[1, 0] = -np.inf
    return MixtureWorld(means=base.means, s=0.5, style_A=base.style_A,
                        style_b=base.style_b, log_prior=lp)


def test_world_sample_equals_the_generator_choice_draw():
    skewed = _skewed_world()
    # (identity, style) pins: none, identity only, style only, one cell
    pins = [(None, None), (1, None), (None, 1), (1, 1), (0, 0)]
    for world in (product_world(), product_world(4, 3), skewed):
        n_c = world.n_styles
        for identity, style in pins:
            for seed in range(25):
                for n in (1, 7, 256, 1000):
                    a = np.random.Generator(np.random.PCG64(seed))
                    b = np.random.Generator(np.random.PCG64(seed))
                    x0, cells = world.sample(n, a, identity, style)
                    ref_x0, ref_cells = _choice_sample(world, b, n, identity, style)
                    assert cells.dtype == ref_cells.dtype
                    assert cells.tobytes() == ref_cells.tobytes()
                    assert x0.tobytes() == ref_x0.tobytes()
                    assert a.random() == b.random()
            _, cells = world.sample(5000, np.random.default_rng(0), identity, style)
            if identity is not None:
                assert np.all(cells // n_c == identity)
            if style is not None:
                assert np.all(cells % n_c == style)
    _, cells = skewed.sample(5000, np.random.default_rng(0))
    assert not np.isin(cells, [1, 3, 8]).any()  # the zero-prior cells


def test_world_sample_refuses_pins_outside_the_world():
    w = product_world(2, 3)
    rng = np.random.default_rng(0)
    for pin in ({"identity": -1}, {"identity": 2}, {"style": -1}, {"style": 3},
                {"identity": 0.5}, {"identity": 1, "style": 3}):
        with pytest.raises(ValueError, match="pin must lie in"):
            w.sample(4, rng, **pin)
    with pytest.raises(ValueError, match="zero prior mass"):
        _skewed_world().sample(4, rng, identity=0, style=1)


def test_oracle_predictor_wraps_schedule():
    w = product_world()
    sched = build_schedule(T=10, beta_start=0.01, beta_end=0.3)
    oracle = MixtureOracle(w, sched)
    x = np.array([0.2, 0.4])
    for t in (1, 5, 10):
        want = oracle_eps(w, x, None, float(sched.alpha_bar[t]))
        assert_array_equal(oracle.predict_eps(x, None, t), want)
        assert_array_equal(predict_eps(oracle, x, None, t), want)
    with pytest.raises(ValueError, match="t must lie"):
        oracle_predict_eps(w, x, None, 11, sched)


def test_predict_eps_dispatch_validation():
    w = product_world()
    oracle = MixtureOracle(w, build_schedule(T=5, beta_start=0.1, beta_end=0.3))
    with pytest.raises(ValueError, match="finite"):
        predict_eps(oracle, np.array([np.nan, 0.0]), None, 1)
    with pytest.raises(ValueError, match="trailing dimension"):
        predict_eps(oracle, np.zeros(3), None, 1)


def test_world_validation_and_serialization():
    # a world's JSON form is the world section of the run config echo
    w = conflict_world()
    echo = json.loads(json.dumps(validate_config({"world": {"preset": "conflict"}})
                                 .payload))
    back = validate_config(echo).world
    assert_allclose(back.means, w.means)
    assert_allclose(back.log_prior, w.log_prior)
    assert_allclose(back.data_cov(), w.data_cov())
    with pytest.raises(ValueError, match="positive std"):
        single_gaussian_world(s=0.0)
    with pytest.raises(ValueError, match="style_A"):
        MixtureWorld(
            means=np.zeros((1, 2)),
            s=1.0,
            style_A=np.zeros((1, 3, 3)),
            style_b=np.zeros((1, 2)),
            log_prior=np.zeros((1, 1)),
        )


def test_world_rejects_a_log_prior_with_no_finite_cell():
    # used to normalize -inf - (-inf) into a NaN prior with only a
    # RuntimeWarning, after which every oracle call blamed the condition
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one cell with finite"):
            MixtureWorld(
                means=np.zeros((1, 2)),
                s=1.0,
                style_A=np.eye(2)[None],
                style_b=np.zeros((1, 2)),
                log_prior=np.array([[-np.inf]]),
            )


def test_condition_set_helpers():
    cond = ConditionSet(identity=np.ones(2), text=np.zeros(3), gamma=0.5)
    assert cond.identity_only().text is None
    assert cond.text_only().identity is None
    nulled = cond.nulled()
    assert nulled.identity is None and nulled.text is None
    assert cond.with_gamma(0.0).gamma == 0.0
    with pytest.raises(ValueError, match="gamma"):
        ConditionSet(gamma=1.5)
    with pytest.raises(ValueError, match="-inf"):
        ConditionSet(identity=np.array([np.inf]))


def test_condition_set_derives_each_set_once():
    cond = ConditionSet(identity=np.ones(2), text=np.zeros(3), gamma=0.5)
    for derive in (ConditionSet.nulled, ConditionSet.identity_only,
                   ConditionSet.text_only, lambda c: c.with_gamma(0.25)):
        assert derive(cond) is derive(cond)
    assert cond.with_gamma(0.25) is not cond.with_gamma(0.75)
    # equal gammas that serialize differently stay different sets
    assert repr(cond.with_gamma(1)) == repr(replace(cond, gamma=1))
    assert repr(cond.with_gamma(1.0)) == repr(replace(cond, gamma=1.0))
    assert cond.with_gamma(-0.0).to_jsonable()["gamma"] == -0.0
    assert str(cond.with_gamma(-0.0).to_jsonable()["gamma"]) == "-0.0"
    assert str(cond.with_gamma(0.0).to_jsonable()["gamma"]) == "0.0"
    # the cache is not a field: repr and the JSON form are unchanged
    assert repr(cond) == repr(replace(cond))
    assert cond.to_jsonable() == replace(cond).to_jsonable()


def test_condition_set_and_world_compare_and_hash_by_identity():
    # value equality over array fields raised ValueError, and hash() TypeError
    cond = ConditionSet(identity=np.ones(2), text=np.zeros(3))
    twin = ConditionSet(identity=np.ones(2), text=np.zeros(3))
    world, world_twin = product_world(), product_world()
    for a, b in ((cond, twin), (world, world_twin)):
        assert a == a and a != b
        assert hash(a) == hash(a)
        table = {a: "a", b: "b"}
        assert table[a] == "a" and table[b] == "b"


def test_condition_set_leaves_the_callers_array_writeable():
    a = np.array([1.0, 0.0])
    cond = ConditionSet(identity=a)
    a[0] = 2.0  # raised "assignment destination is read-only" when frozen in place
    assert_array_equal(cond.identity, [1.0, 0.0])
    assert not cond.identity.flags.writeable
    # derived sets share the frozen array instead of copying it again
    assert cond.with_gamma(0.5).identity is cond.identity
    assert ConditionSet(identity=cond.identity).identity is cond.identity


def test_condition_set_json_round_trip():
    cond = ConditionSet(
        identity=np.array([0.0, -np.inf, 3.5]),
        text=np.array([1.25, -2.0]),
        gamma=0.3,
    )
    back = ConditionSet.from_jsonable(json.loads(json.dumps(cond.to_jsonable())))
    assert back.identity.tobytes() == cond.identity.tobytes()
    assert back.text.tobytes() == cond.text.tobytes()
    assert back.gamma == cond.gamma

    null_back = ConditionSet.from_jsonable(ConditionSet().to_jsonable())
    assert null_back.identity is None and null_back.text is None

    # full-grid log-weights must come back with their shape intact
    grid = ConditionSet(identity=np.array([[10.0, 16.0], [0.0, -np.inf]]))
    grid_back = ConditionSet.from_jsonable(
        json.loads(json.dumps(grid.to_jsonable())))
    assert grid_back.identity.shape == (2, 2)
    assert grid_back.identity.tobytes() == grid.identity.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    ab=st.floats(min_value=0.01, max_value=0.99),
    gamma=st.floats(min_value=0.0, max_value=1.0),
)
def test_oracle_batch_matches_per_sample(seed, ab, gamma):
    rng = np.random.default_rng(seed)
    w = conflict_world(a=float(rng.uniform(0.5, 3.0)), s=float(rng.uniform(0.1, 1.0)))
    cond = ConditionSet(
        identity=identity_condition(w, int(rng.integers(2)), float(rng.uniform(-2, 4))),
        text=style_condition(w, int(rng.integers(2)), float(rng.uniform(-2, 4))),
        gamma=gamma,
    )
    xs = rng.normal(0.0, 2.0, size=(5, 2))
    batch = oracle_eps(w, xs, cond, ab)
    assert np.all(np.isfinite(batch))
    for k in range(5):
        assert_allclose(batch[k], oracle_eps(w, xs[k], cond, ab), rtol=1e-12, atol=1e-14)


# Row-major reference: the oracle formulas as they stood before the
# cell-major layout, with numpy's own reductions over the cell and dim axes.
def _ref_logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return out if axis is None else np.squeeze(out, axis=axis)


def _ref_slot_grid(world, values, slot):
    n_i, n_c = world.n_identities, world.n_styles
    if values.shape == (n_i, n_c):
        return values
    if slot == "identity":
        return np.broadcast_to(values[:, None], (n_i, n_c))
    return np.broadcast_to(values[None, :], (n_i, n_c))


def _ref_cell_log_weights(world, cond):
    w = world.log_prior
    if cond is not None:
        if cond.identity is not None and cond.gamma != 0.0:
            w = w + cond.gamma * _ref_slot_grid(world, cond.identity, "identity")
        if cond.text is not None:
            w = w + _ref_slot_grid(world, cond.text, "text")
    if not np.any(w > -np.inf):
        raise ValueError("condition selects an empty subset of mixture cells")
    return w - _ref_logsumexp(w.reshape(-1))


def _ref_oracle(world, x, cond, ab):
    """(eps, responsibilities, log density) by the row-major formulas."""
    logw = _ref_cell_log_weights(world, cond).reshape(-1)
    x2 = np.atleast_2d(x)
    v = ab * world.s**2 + 1.0 - ab
    m = (np.einsum("cde,ie->icd", world.style_A, world.means)
         + world.style_b[None, :, :]).reshape(-1, world.d)
    diff = x2[:, None, :] - np.sqrt(ab) * m[None, :, :]
    loglik = -0.5 * np.sum(diff * diff, axis=-1) / v \
        - 0.5 * world.d * np.log(2.0 * np.pi * v)
    logits = logw[None, :] + loglik
    lse = _ref_logsumexp(logits, axis=1)
    r = np.exp(logits - lse[:, None])
    post_mean = np.sum(r[:, :, None] * m[None, :, :], axis=1)
    eps = np.sqrt(1.0 - ab) * (x2 - np.sqrt(ab) * post_mean) / v
    resp = r.reshape(x2.shape[0], world.n_identities, world.n_styles)
    if x.ndim == 1:
        return eps[0], resp[0], float(lse[0])
    return eps, resp, lse


def _excluding(rng, values, share, keep_one=False):
    # set a random share of the log-weights to -inf (excluded cells),
    # optionally keeping one entry finite
    values = values.copy()
    values[rng.random(values.shape) < share] = -np.inf
    if keep_one:
        values.flat[rng.integers(values.size)] = 0.0
    return values


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_i=st.integers(min_value=1, max_value=4),
    n_c=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=9),
    n=st.one_of(st.none(), st.integers(min_value=1, max_value=600)),
    # ab = 1 is the clean-data posterior the adherence scores read
    ab=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0,
                                         exclude_min=True, exclude_max=True)),
    gamma=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
    grid_identity=st.booleans(),
)
# a subnormal responsibility one ulp off the reference
@example(seed=2257, n_i=4, n_c=3, d=9, n=188, ab=1.0, gamma=0.0,
         grid_identity=False)
def test_oracle_matches_row_major_reference(seed, n_i, n_c, d, n, ab, gamma,
                                            grid_identity):
    # n=None is a single point of shape (d,)
    rng = np.random.default_rng(seed)
    world = MixtureWorld(
        means=rng.normal(0.0, 2.0, (n_i, d)),
        s=float(rng.uniform(0.2, 1.5)),
        style_A=rng.normal(0.0, 0.7, (n_c, d, d)),
        style_b=rng.normal(0.0, 1.0, (n_c, d)),
        log_prior=_excluding(rng, rng.normal(0.0, 1.0, (n_i, n_c)), 0.2, keep_one=True),
    )
    id_shape = (n_i, n_c) if grid_identity else (n_i,)
    cond = ConditionSet(
        identity=_excluding(rng, rng.normal(0.0, 2.0, id_shape), 0.2),
        text=_excluding(rng, rng.normal(0.0, 2.0, n_c), 0.2),
        gamma=gamma,
    )
    x = rng.normal(0.0, 3.0, d if n is None else (n, d))
    try:
        ref = _ref_oracle(world, x, cond, ab)
    except ValueError:
        # every cell excluded: the oracle must refuse it as well
        with pytest.raises(ValueError, match="empty subset"):
            cell_log_weights(world, cond)
        return
    for c in (None, cond):
        assert cell_log_weights(world, c).tobytes() == \
            _ref_cell_log_weights(world, c).tobytes()
    got = (oracle_eps(world, x, cond, ab),
           oracle_responsibilities(world, x, cond, ab),
           oracle_log_density(world, x, cond, ab))
    for new, old in zip(got, ref):
        assert np.shape(new) == np.shape(old)
    if n_i * n_c < 8 and d < 8:
        # cells and dims summed in index order, as numpy does below 8 terms
        for new, old in zip(got, ref):
            assert np.asarray(new).tobytes() == np.asarray(old).tobytes()
    else:
        # numpy sums 8 or more terms pairwise, so last bits may differ; eps
        # is a difference x - sqrt(ab) * post_mean, so it also gets an
        # absolute slack at the scale of its two terms, and a subnormal
        # responsibility, whose last bit alone is a relative error near
        # 1e-11, gets one at the subnormal scale
        scale = np.sqrt(1.0 - ab) / (ab * world.s**2 + 1.0 - ab) \
            * (np.abs(x).max() + np.abs(world.cell_means()).max())
        assert_allclose(got[0], ref[0], rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(got[1], ref[1], rtol=1e-12,
                        atol=np.finfo(float).smallest_normal)
        assert_allclose(got[2], ref[2], rtol=1e-12)


# MixtureOracle keeps one pass entry, the eps of the conditions last
# announced at one (t, x), and caches the log-weights of each tuple of
# conditions; every result must equal a fresh oracle_predict_eps bit for bit.
_MEMO_T = 12
_MEMO_SCHEDULE = build_schedule(T=_MEMO_T, beta_end=0.2)


def _assert_fresh(oracle, x, cond, t):
    got = oracle.predict_eps(x, cond, t)
    want = oracle_predict_eps(oracle.world, np.array(x), cond, t, oracle.schedule)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def _step_conditions(world, rng):
    cond = ConditionSet(
        identity=identity_condition(world, int(rng.integers(world.n_identities)), 2.0),
        text=style_condition(world, int(rng.integers(world.n_styles)), 2.0),
    )
    fused = cond.with_gamma(0.4)
    # a hard style condition: every other style's cells are -inf
    hard = ConditionSet(text=style_condition(world, int(rng.integers(world.n_styles)),
                                             np.inf))
    return [cond, fused, fused.nulled(), cond.nulled(), cond.identity_only(),
            cond.text_only(), None, hard]


_MEMO_OPS = ("repeat", "condition", "new_t", "nudge", "in_place", "resize",
             "fresh_condition", "announce", "pass")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    shape=st.sampled_from([(2, 2), (4, 3), (1, 1)]),
    ops=st.lists(st.sampled_from(_MEMO_OPS), min_size=1, max_size=14),
    sizes=st.lists(st.one_of(st.none(), st.integers(min_value=1, max_value=600)),
                   min_size=1, max_size=4),
)
def test_oracle_memo_matches_fresh_calls(seed, shape, ops, sizes):
    # n=None is a single point of shape (d,)
    rng = np.random.default_rng(seed)
    world = product_world(*shape)
    oracle = MixtureOracle(world, _MEMO_SCHEDULE)
    conds = _step_conditions(world, rng)

    def draw(n):
        return rng.normal(0.0, 2.0, world.d if n is None else (n, world.d))

    def check(cond):
        # the caller owns each result: scribbling over it must not reach a
        # later call
        _assert_fresh(oracle, x, cond, t)[...] = np.nan

    x, cond, t = draw(sizes[0]), conds[0], _MEMO_T
    check(cond)
    for i, op in enumerate(ops):
        if op == "condition":
            cond = conds[int(rng.integers(len(conds)))]
        elif op == "new_t":
            t = int(rng.integers(1, _MEMO_T + 1))
        elif op == "nudge":
            x = x.copy()
            x.flat[int(rng.integers(x.size))] += float(rng.normal())
        elif op == "in_place":
            x.flat[int(rng.integers(x.size))] = float(rng.normal())
        elif op == "resize":
            x = draw(sizes[i % len(sizes)])
        elif op == "fresh_condition":
            # new objects with equal contents: the cache must key on identity
            # and survive eviction
            conds = _step_conditions(world, rng)
            cond = conds[int(rng.integers(len(conds)))]
        elif op in ("announce", "pass"):
            # a guided pass: announce a random subset in a random order
            k = int(rng.integers(1, len(conds) + 1))
            announced = [conds[j] for j in rng.permutation(len(conds))[:k]]
            oracle.announce_pass(x, announced, t)
            if op == "announce":
                # the next op asks for an announced condition, at a changed
                # x or t if that op changes them
                cond = announced[int(rng.integers(k))]
                continue
            # a pass asks for each of them, in another order, then for one
            # more condition that may or may not have been announced
            for j in rng.permutation(k):
                check(announced[j])
            cond = conds[int(rng.integers(len(conds)))]
        check(cond)


def test_oracle_memo_sees_an_in_place_change():
    world = product_world()
    oracle = MixtureOracle(world, _MEMO_SCHEDULE)
    cond = ConditionSet(identity=identity_condition(world, 0, 2.0))
    x = np.random.default_rng(3).normal(size=(7, 2))
    before = _assert_fresh(oracle, x, cond, 5).copy()
    x[3, 1] += 0.5
    assert _assert_fresh(oracle, x, cond, 5).tobytes() != before.tobytes()
    # one point: its (d, n) copy must not alias the caller's array either
    point = np.array([0.3, -1.2])
    kept = point.copy()
    _assert_fresh(oracle, point, cond, 5)
    point[:] = (2.0, 2.0)
    _assert_fresh(oracle, kept, cond, 5)
    _assert_fresh(oracle, point, cond, 5)


def test_oracle_memo_tells_signed_zeros_apart():
    # every cell mean has a zero first coordinate, so the posterior mean
    # there is +0.0 and eps keeps the sign of x's zero; == would take one
    # zero for the other
    world = MixtureWorld(
        means=np.array([[0.0, 1.0], [0.0, -1.0]]),
        s=0.5,
        style_A=np.eye(2)[None],
        style_b=np.zeros((1, 2)),
        log_prior=np.zeros((2, 1)),
    )
    oracle = MixtureOracle(world, _MEMO_SCHEDULE)
    pos = _assert_fresh(oracle, np.array([[0.0, 0.4]]), None, 4)
    neg = _assert_fresh(oracle, np.array([[-0.0, 0.4]]), None, 4)
    assert np.signbit(neg[0, 0]) and not np.signbit(pos[0, 0])


def test_oracle_memo_does_not_hide_a_non_finite_input():
    world = product_world()
    oracle = MixtureOracle(world, _MEMO_SCHEDULE)
    x = np.array([[0.5, -0.5], [1.0, 2.0]])
    _assert_fresh(oracle, x, None, 6)
    bad = x.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="x must be finite"):
        oracle.predict_eps(bad, None, 6)
    x[1, 0] = np.nan  # the same array, changed in place
    with pytest.raises(ValueError, match="x must be finite"):
        oracle.predict_eps(x, None, 6)


def test_one_likelihood_pass_per_announcement(monkeypatch):
    # the five ablation variants through one oracle: every predict_eps call
    # is served from its pass's announcement, so the x-half runs once per
    # pass, and the log-weights run once per condition of each distinct
    # tuple: (cond, nulled), (fused, fused nulled) and (nulled,
    # identity_only, text_only)
    counts = {"_diffused_stats": 0, "cell_log_weights": 0, "announce": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_diffused_stats", "cell_log_weights"):
        monkeypatch.setattr(mixture, name, counted(name, getattr(mixture, name)))
    monkeypatch.setattr(MixtureOracle, "announce_pass",
                        counted("announce", MixtureOracle.announce_pass))
    world = product_world()
    T, m, seeds = 6, 2, (0, 1)
    schedule = build_schedule(T=T, beta_end=0.2)
    oracle = MixtureOracle(world, schedule)
    cond = ConditionSet(identity=identity_condition(world, 0, 2.0),
                        text=style_condition(world, 1, 2.0))
    for _, cfg in ablation_variants(FusionConfig(m=m, gamma=0.4)):
        for seed in seeds:
            sample_trajectory(cond, cfg, oracle, schedule, 3, seed=seed)
    # vanilla, independent, no refinement and m=0: one pass per step; fusion:
    # m + 1 per step, but one at t=1
    passes = len(seeds) * (4 * T + (T - 1) * (m + 1) + 1)
    assert counts == {"_diffused_stats": passes, "cell_log_weights": 7,
                      "announce": passes}
