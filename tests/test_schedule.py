from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fusionsampler.schedule import (
    DiffusionSchedule,
    SigmaProfile,
    build_schedule,
    sigma_at,
    sigma_values,
)

# Independent arbitrary-precision product over the same float betas,
# frozen from an exact-Fraction script.
ALPHA_BAR_1000_LINEAR = 4.035829765375685e-05


def test_single_step_cumulative_product():
    s = build_schedule(T=1, beta_start=0.1, beta_end=0.1)
    assert_allclose(s.alpha_bar, [1.0, 0.9], rtol=1e-15)


def test_two_step_cumulative_product():
    s = build_schedule(T=2, beta_start=0.1, beta_end=0.1)
    assert_allclose(s.alpha_bar, [1.0, 0.9, 0.81], rtol=1e-15)


def test_long_schedule_matches_independent_product():
    s = build_schedule(T=1000, beta_start=1e-4, beta_end=0.02)
    assert_allclose(s.alpha_bar[1000], ALPHA_BAR_1000_LINEAR, rtol=1e-12)


def test_recurrence_exact_under_rational_arithmetic():
    # alpha_bar must track the exact product of its own stored betas
    s = build_schedule(T=200, beta_start=1e-4, beta_end=0.05)
    prod = Fraction(1)
    for t in range(1, s.T + 1):
        prod *= 1 - Fraction(float(s.beta[t - 1]))
        assert abs(float(prod) - s.alpha_bar[t]) <= 1e-12 * s.alpha_bar[t]


def test_monotonicity_and_bounds():
    s = build_schedule()
    assert s.T == 100
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert np.all(s.alpha_bar > 0) and np.all(s.alpha_bar <= 1)
    assert s.alpha_bar[s.T] < s.alpha_bar[1]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=0),
        dict(T=2.5),
        dict(beta_start=0.0),
        dict(beta_start=-0.1),
        dict(beta_end=1.0),
        dict(beta_start=0.3, beta_end=0.2),
        dict(beta_start=float("nan")),
        dict(beta_end=float("inf")),
    ],
)
def test_build_schedule_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        build_schedule(**kwargs)


def test_schedule_derives_alpha_bar_from_beta():
    beta = np.linspace(1e-4, 0.08, 30)
    s = DiffusionSchedule(beta)
    assert s.T == 30
    assert_array_equal(s.alpha_bar, np.concatenate(([1.0], np.cumprod(1.0 - beta))))
    assert s == build_schedule(T=30)
    assert DiffusionSchedule([0.2, 0.375]).alpha_bar.tolist() == [1.0, 0.8, 0.5]


@pytest.mark.parametrize("beta, fragment", [
    ([], "nonempty 1-d"),
    ([[0.1, 0.2]], "nonempty 1-d"),
    (0.1, "nonempty 1-d"),
    ([0.1, float("nan")], "finite"),
    ([0.1, float("inf")], "finite"),
    ([0.0, 0.1], r"\(0, 1\)"),
    ([0.1, 1.0], r"\(0, 1\)"),
    ([0.1, -0.2], r"\(0, 1\)"),
    ([0.1, 1e-17], "1 - beta rounds to 1"),
    ([0.9] * 400, "underflows"),
])
def test_schedule_rejects_bad_beta(beta, fragment):
    with pytest.raises(ValueError, match=fragment):
        DiffusionSchedule(beta)


def test_alpha_bars_lookup():
    s = build_schedule(T=6, beta_start=0.05, beta_end=0.3)
    for t in range(1, s.T + 1):
        ab_t, ab_prev = s.alpha_bars(t)
        assert type(ab_t) is float and type(ab_prev) is float
        assert ab_t == s.alpha_bar[t] and ab_prev == s.alpha_bar[t - 1]
    for t in (0, s.T + 1, -1):
        with pytest.raises(ValueError, match="t must lie"):
            s.alpha_bars(t)


def test_schedule_arrays_are_read_only():
    s = build_schedule(T=5, beta_start=0.1, beta_end=0.2)
    with pytest.raises(ValueError):
        s.alpha_bar[0] = 0.5


def test_sigma_boundary_value():
    # alpha_bar = [1, 0.75, 0.375]
    s = build_schedule(T=2, beta_start=0.25, beta_end=0.5)
    assert sigma_at(s, SigmaProfile("boundary"), 2) == 0.5
    assert sigma_at(s, SigmaProfile("boundary"), 1) == 0.0


def test_sigma_ddim_eta_zero_is_deterministic():
    s = build_schedule()
    prof = SigmaProfile("ddim_eta", eta=0.0)
    assert np.all(sigma_values(s, prof) == 0.0)


def test_sigma_ddim_eta_one_formula_value():
    # alpha_bar = [1, 0.8, 0.5]
    s = build_schedule(T=2, beta_start=0.2, beta_end=0.375)
    assert_allclose(s.alpha_bar, [1.0, 0.8, 0.5], rtol=1e-15)
    sig = sigma_at(s, SigmaProfile("ddim_eta", eta=1.0), 2)
    assert_allclose(sig, 0.3872983346207417, rtol=1e-12)


def test_sigma_custom_roundtrip_and_validation():
    s = build_schedule(T=3, beta_start=0.1, beta_end=0.3)
    ok = SigmaProfile("custom", values=np.array([0.0, 0.1, 0.2]))
    assert sigma_at(s, ok, 2) == 0.1
    bad = SigmaProfile("custom", values=np.array([0.5, 0.1, 0.2]))
    with pytest.raises(ValueError, match="violates"):
        sigma_at(s, bad, 1)
    short = SigmaProfile("custom", values=np.array([0.0, 0.1]))
    with pytest.raises(ValueError, match="length"):
        sigma_at(s, short, 1)


def test_sigma_rejects_out_of_range_t():
    s = build_schedule(T=4, beta_start=0.1, beta_end=0.2)
    prof = SigmaProfile("boundary")
    for t in (0, 5, -1):
        with pytest.raises(ValueError, match="t must lie"):
            sigma_at(s, prof, t)


def test_profile_validation():
    with pytest.raises(ValueError, match="unknown sigma profile"):
        SigmaProfile("cosine")
    with pytest.raises(ValueError, match="eta"):
        SigmaProfile("ddim_eta", eta=1.5)
    with pytest.raises(ValueError, match="requires explicit values"):
        SigmaProfile("custom")
    with pytest.raises(ValueError, match="only valid"):
        SigmaProfile("boundary", values=np.array([0.1]))


@settings(max_examples=50, deadline=None)
@given(
    T=st.integers(min_value=1, max_value=300),
    beta_start=st.floats(min_value=1e-6, max_value=0.4),
    spread=st.floats(min_value=0.0, max_value=0.5),
    eta=st.floats(min_value=0.0, max_value=1.0),
)
def test_feasibility_radicand_property(T, beta_start, spread, eta):
    # every profile must keep both radicands nonnegative:
    # 1 - alpha_bar[t-1] - sigma^2 and 2 - 2*alpha_bar[t-1] - sigma^2
    beta_end = min(beta_start * (1.0 + spread), 0.6)
    s = build_schedule(T=T, beta_start=beta_start, beta_end=beta_end)
    for prof in (SigmaProfile("boundary"), SigmaProfile("ddim_eta", eta=eta)):
        sig = sigma_values(s, prof)
        ab_prev = s.alpha_bar[:-1]
        assert np.all(sig >= 0.0)
        assert np.all(sig**2 <= (1.0 - ab_prev) * (1.0 + 1e-12))
        assert np.all(2.0 - 2.0 * ab_prev - sig**2 >= -1e-15)


def test_schedules_and_profiles_compare_by_value():
    assert build_schedule() == build_schedule()
    assert hash(build_schedule()) == hash(build_schedule())
    assert build_schedule() != build_schedule(T=50)
    assert build_schedule() != build_schedule(beta_end=0.09)
    a = SigmaProfile("custom", values=np.array([0.0, 0.1]))
    b = SigmaProfile("custom", values=np.array([-0.0, 0.1]))
    assert a == b and hash(a) == hash(b)
    assert a != SigmaProfile("custom", values=np.array([0.0, 0.2]))
    assert a != SigmaProfile("custom", values=np.array([0.0, 0.1, 0.2]))
    assert a != SigmaProfile("boundary")
    assert SigmaProfile("ddim_eta", eta=0.5) == SigmaProfile("ddim_eta", eta=0.5)
    assert SigmaProfile("ddim_eta", eta=0.5) != SigmaProfile("ddim_eta", eta=0.6)
    assert len({a, b, SigmaProfile("boundary"), SigmaProfile("boundary")}) == 2
