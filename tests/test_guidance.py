import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from fusionsampler.guidance import (
    GuidanceWeights,
    cfg_independent,
    cfg_single,
)

finite_vec = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=5),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


def test_cfg_single_arithmetic():
    assert_allclose(cfg_single(np.array([1.0]), np.array([0.5]), 1.0), [1.5])


def test_cfg_single_identity_and_cancellation():
    ej = np.array([0.3, -0.7])
    eu = np.array([1.1, 0.2])
    assert_allclose(cfg_single(ej, eu, 0.0), ej)
    assert_allclose(cfg_single(ej, eu, -1.0), eu)


def test_cfg_independent_arithmetic():
    w = GuidanceWeights(omega1=0.0, omega2=0.0)
    out = cfg_independent(np.array([0.0]), np.array([1.0]), np.array([2.0]), w)
    assert_allclose(out, [3.0])


def test_cfg_independent_cancellation_and_zero_deltas():
    eu = np.array([0.4, -0.1])
    w = GuidanceWeights(omega1=-1.0, omega2=-1.0)
    assert_allclose(cfg_independent(eu, np.array([9.0, 9.0]), np.array([-9.0, 0.0]), w), eu)
    w2 = GuidanceWeights(omega1=5.0, omega2=-3.0)
    assert_allclose(cfg_independent(eu, eu, eu, w2), eu)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="shapes disagree"):
        cfg_single(np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="shapes disagree"):
        cfg_independent(np.zeros(2), np.zeros(2), np.zeros(1), GuidanceWeights())


def test_nonfinite_weights_rejected():
    with pytest.raises(ValueError, match="finite"):
        GuidanceWeights(omega=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        GuidanceWeights(omega2=float("inf"))


@settings(max_examples=60, deadline=None)
@given(
    eu=finite_vec,
    scale=st.floats(min_value=-3.0, max_value=3.0),
    om=st.floats(min_value=-5.0, max_value=5.0),
)
def test_combiners_are_homogeneous(eu, scale, om):
    # scaling every eps input by a constant scales the output by the same constant
    ej = np.linspace(-1.0, 1.0, eu.size)
    w = GuidanceWeights(omega1=om, omega2=-om)
    assert_allclose(
        cfg_single(scale * ej, scale * eu, om),
        scale * cfg_single(ej, eu, om),
        rtol=1e-9,
        atol=1e-6,
    )
    assert_allclose(
        cfg_independent(scale * eu, scale * ej, scale * eu, w),
        scale * cfg_independent(eu, ej, eu, w),
        rtol=1e-9,
        atol=1e-6,
    )


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0), om=st.floats(min_value=-4.0, max_value=4.0))
def test_cfg_single_affine_in_joint_input(t, om):
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 3.0])
    eu = np.array([0.1, 0.1])
    mix = cfg_single(t * a + (1 - t) * b, eu, om)
    want = t * cfg_single(a, eu, om) + (1 - t) * cfg_single(b, eu, om)
    assert_allclose(mix, want, rtol=1e-10, atol=1e-10)


def test_independent_rule_matches_joint_rule_on_product_world():
    # when identity and style factorize, the independent-conditions rule with
    # equal weights must coincide with joint guidance at the same strength
    from fusionsampler.conditions import ConditionSet
    from fusionsampler.mixture import oracle_eps
    from fusionsampler.worlds import identity_condition, product_world, style_condition

    w = product_world()
    cid = identity_condition(w, 1, 2.0)
    csty = style_condition(w, 0, 1.5)
    omega = 2.0
    weights = GuidanceWeights(omega=omega, omega1=omega, omega2=omega)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(0.0, 2.0, size=2)
        ab = float(rng.uniform(0.05, 0.95))
        e_u = oracle_eps(w, x, None, ab)
        e_s = oracle_eps(w, x, ConditionSet(identity=cid), ab)
        e_c = oracle_eps(w, x, ConditionSet(text=csty), ab)
        e_joint = oracle_eps(w, x, ConditionSet(identity=cid, text=csty), ab)
        got = cfg_independent(e_u, e_s, e_c, weights)
        want = cfg_single(e_joint, e_u, omega)
        assert_allclose(got, want, rtol=1e-8, atol=1e-10)


def test_independent_rule_fails_on_correlated_world():
    # the same equality must break when the style map geometrically couples
    # the two factors: this failure motivates the two-stage sampling scheme
    from fusionsampler.conditions import ConditionSet
    from fusionsampler.mixture import oracle_eps
    from fusionsampler.worlds import conflict_world, identity_condition, style_condition

    w = conflict_world()
    cid = identity_condition(w, 0, 2.0)
    csty = style_condition(w, 1, 2.0)
    omega = 2.0
    weights = GuidanceWeights(omega=omega, omega1=omega, omega2=omega)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(0.0, 2.0, size=2)
        ab = float(rng.uniform(0.2, 0.8))
        e_u = oracle_eps(w, x, None, ab)
        e_s = oracle_eps(w, x, ConditionSet(identity=cid), ab)
        e_c = oracle_eps(w, x, ConditionSet(text=csty), ab)
        e_joint = oracle_eps(w, x, ConditionSet(identity=cid, text=csty), ab)
        got = cfg_independent(e_u, e_s, e_c, weights)
        want = cfg_single(e_joint, e_u, omega)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst > 1e-3
