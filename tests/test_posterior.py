import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fusionsampler.posterior import (
    check_variance_bound,
    fused_update,
    fused_update_coefficients,
    predict_x0,
    renoise,
    renoise_coefficients,
    sample_prev,
    sample_prev_mean,
)
from fusionsampler.schedule import SigmaProfile, build_schedule

# alpha_bar = [1, 0.8, 0.5]: the reference probe point used throughout
SCHED_58 = build_schedule(T=2, beta_start=0.2, beta_end=0.375)


def conditioned_renoise_oracle(x_prev, x0, ab_t, ab_prev, sigma):
    """Independent check: build the joint Gaussian of (x_prev, x_t) given x0
    coordinate-wise from the forward marginal and the reverse posterior, then
    condition on x_prev numerically."""
    k = np.sqrt(1.0 - ab_prev - sigma**2) / np.sqrt(1.0 - ab_t)
    var_t = 1.0 - ab_t
    var_prev = k**2 * var_t + sigma**2
    cov = k * var_t
    mean_t = np.sqrt(ab_t) * x0
    mean_prev = np.sqrt(ab_prev) * x0
    gain = cov / var_prev
    cond_mean = mean_t + gain * (x_prev - mean_prev)
    cond_var = var_t - cov**2 / var_prev
    return cond_mean, cond_var


def test_predict_x0_arithmetic():
    got = predict_x0(np.array([1.0]), np.array([0.5]), 0.25)
    assert_allclose(got, [(1.0 - np.sqrt(0.75) * 0.5) / 0.5])
    assert_allclose(got, [1.1339745962155614], rtol=1e-12)


def test_predict_x0_zero_eps_and_identity():
    x = np.array([0.3, -2.0])
    assert_allclose(predict_x0(x, np.zeros(2), 0.49), x / 0.7)
    assert_allclose(predict_x0(x, np.array([5.0, -5.0]), 1.0), x)


def test_predict_x0_domain():
    with pytest.raises(ValueError, match="alpha_bar_t"):
        predict_x0(np.array([1.0]), np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="alpha_bar_t"):
        predict_x0(np.array([1.0]), np.array([1.0]), 1.2)
    with pytest.raises(ValueError, match="shape mismatch"):
        predict_x0(np.zeros(2), np.zeros(3), 0.5)


def test_sample_prev_deterministic_at_zero_sigma():
    rng = np.random.default_rng(0)
    x_t = np.array([0.4, -1.1])
    x0 = np.array([0.2, 0.3])
    got = sample_prev(x_t, x0, 2, SCHED_58, 0.0, rng)
    assert_allclose(got, sample_prev_mean(x_t, x0, 0.5, 0.8, 0.0))
    # no draw consumed: the generator state is untouched
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()


def test_sample_prev_boundary_mean_is_scaled_x0():
    # dyadic probe: 1 - 0.75 - 0.5^2 is exactly zero in floats
    x_t = np.array([3.0])
    x0 = np.array([-0.7])
    mean = sample_prev_mean(x_t, x0, 0.5, 0.75, 0.5)
    assert_allclose(mean, np.sqrt(0.75) * x0, rtol=0, atol=0)


def test_sample_prev_monte_carlo_moments():
    rng = np.random.default_rng(7)
    n = 100_000
    x_t = np.full((n, 2), [0.9, -0.4])
    x0 = np.full((n, 2), [0.1, 0.5])
    sigma = 0.3
    draws = sample_prev(x_t, x0, 2, SCHED_58, sigma, rng)
    want = sample_prev_mean(x_t[0], x0[0], 0.5, 0.8, sigma)
    se_mean = sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - want) < 4 * se_mean)
    se_var = sigma**2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(draws.var(axis=0) - sigma**2) < 4 * se_var)


def test_sample_prev_rejects_infeasible_sigma():
    with pytest.raises(ValueError, match="infeasible sigma"):
        sample_prev_mean(np.zeros(1), np.zeros(1), 0.5, 0.8, 0.5)


def test_renoise_matches_joint_conditioning_oracle():
    ab_t, ab_prev, sigma = 0.5, 0.8, 0.1
    x0 = np.array([0.7, -0.2])
    for x_prev in (np.array([-0.3, 0.9]), np.array([1.5, 0.0]), np.array([0.0, 0.0])):
        want_mean, want_var = conditioned_renoise_oracle(x_prev, x0, ab_t, ab_prev, sigma)
        c = renoise_coefficients(x0, ab_t, ab_prev, sigma)
        got_mean, got_var = c.mean(x_prev), c.Sigma_scale
        assert_allclose(got_mean, want_mean, rtol=1e-8)
        assert_allclose(got_var, want_var, rtol=1e-8)


def test_renoise_boundary_drops_x_prev_dependence():
    # dyadic probe: the vanishing coefficient is exactly zero only when the
    # radicand 1 - ab_prev - sigma^2 is float-exact; 0.75 and 0.5 are
    x0 = np.array([0.4])
    c = renoise_coefficients(x0, 0.5, 0.75, 0.5)
    assert_allclose(c.mean(np.array([10.0])), c.mean(np.array([-10.0])), rtol=0, atol=0)
    assert c.A_scale == 0.0
    # non-dyadic boundaries land within sqrt(ulp) of zero instead
    sig = np.sqrt(1.0 - 0.8)
    c = renoise_coefficients(x0, 0.5, 0.8, sig)
    assert abs(c.A_scale) < 1e-7


def test_renoise_zero_inputs_zero_mean():
    c = renoise_coefficients(np.zeros(3), 0.5, 0.8, 0.1)
    assert_allclose(c.mean(np.zeros(3)), np.zeros(3), atol=1e-15)


def test_renoise_requires_stochastic_sigma():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sigma_t = 0"):
        renoise(np.zeros(1), np.zeros(1), 2, SCHED_58, 0.0, rng)


def test_renoise_monte_carlo_moments():
    rng = np.random.default_rng(11)
    n = 100_000
    ab_t, ab_prev, sigma = 0.5, 0.8, 0.1
    x_prev = np.full((n, 1), 0.25)
    x0 = np.full((n, 1), -0.6)
    draws = renoise(x_prev, x0, 2, SCHED_58, sigma, rng)
    want_mean, want_var = conditioned_renoise_oracle(0.25, -0.6, ab_t, ab_prev, sigma)
    assert abs(draws.mean() - want_mean) < 4 * np.sqrt(want_var / n)
    assert abs(draws.var() - want_var) < 4 * want_var * np.sqrt(2.0 / (n - 1))


def test_fused_coefficients_remark_values():
    eps_c, noise_c = fused_update_coefficients(0.5, 0.75, 0.5)
    assert_allclose(eps_c, 0.7071067811865475, rtol=1e-14)
    assert_allclose(noise_c, 0.7071067811865475, rtol=1e-14)


def test_fused_boundary_reduction_every_t():
    # at sigma = sqrt(1 - ab_prev) both coefficients collapse to sqrt(1 - ab_t)
    s = build_schedule(T=100)
    for t in range(1, s.T + 1):
        ab_t, ab_prev = s.alpha_bar[t], s.alpha_bar[t - 1]
        sig = np.sqrt(1.0 - ab_prev)
        eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev, sig)
        want = np.sqrt(1.0 - ab_t)
        assert_allclose(eps_c, want, rtol=1e-14)
        assert_allclose(noise_c, want, rtol=1e-14)


def test_fused_zero_sigma_is_identity_and_consumes_no_noise():
    rng = np.random.default_rng(3)
    x = np.array([1.0, -2.0])
    out = fused_update(x, np.array([9.0, 9.0]), 2, SCHED_58, 0.0, rng)
    assert_allclose(out, x)
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


def test_fused_accepts_wider_sigma_domain():
    gap = 1.0 - 0.8
    mid = np.sqrt(1.5 * gap)  # feasible for fused, not for the reverse posterior
    eps_c, noise_c = fused_update_coefficients(0.5, 0.8, mid)
    assert np.isfinite(eps_c) and np.isfinite(noise_c)
    with pytest.raises(ValueError, match="infeasible sigma"):
        sample_prev_mean(np.zeros(1), np.zeros(1), 0.5, 0.8, mid)
    with pytest.raises(ValueError, match="infeasible sigma"):
        fused_update_coefficients(0.5, 0.8, np.sqrt(2.0 * gap) + 1e-6)


def test_fused_final_step_limit():
    # at ab_prev = 1 the only feasible sigma is 0 (a 0/0 corner); the
    # coefficients report the along-boundary limit sqrt(1 - ab_t)
    w = np.sqrt(1.0 - 0.5)
    assert fused_update_coefficients(0.5, 1.0, 0.0) == (w, w)
    with pytest.raises(ValueError, match="infeasible sigma"):
        fused_update_coefficients(0.5, 1.0, 0.1)
    # the update itself stays the deterministic identity there
    rng = np.random.default_rng(1)
    x = np.array([0.2, 0.9])
    s1 = build_schedule(T=1, beta_start=0.5, beta_end=0.5)
    assert_allclose(fused_update(x, np.ones(2), 1, s1, 0.0, rng), x)


def two_path_moments(x_t, x0, ab_t, ab_prev, sigma):
    """Analytic mean/variance of renoise(sample_prev(x_t))."""
    m1 = sample_prev_mean(x_t, x0, ab_t, ab_prev, sigma)
    c = renoise_coefficients(x0, ab_t, ab_prev, sigma)
    gain = c.Sigma_scale * c.A_scale * c.L_scale
    mean = c.mean(m1)
    var = gain**2 * sigma**2 + c.Sigma_scale
    return mean, var


def test_two_path_equivalence_reference_point():
    ab_t, ab_prev, sigma = 0.5, 0.8, 0.1
    x_t = np.array([0.45, -1.2])
    x0 = np.array([-0.2, 0.6])
    eps = (x_t - np.sqrt(ab_t) * x0) / np.sqrt(1.0 - ab_t)
    want_mean, want_var = two_path_moments(x_t, x0, ab_t, ab_prev, sigma)
    eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev, sigma)
    assert_allclose(x_t - eps_c * eps, want_mean, rtol=1e-8)
    assert_allclose(noise_c**2, want_var, rtol=1e-8)


@settings(max_examples=80, deadline=None)
@given(
    ab_t=st.floats(min_value=0.01, max_value=0.97),
    prev_frac=st.floats(min_value=0.02, max_value=0.98),
    sig_frac=st.floats(min_value=1e-3, max_value=1.0),
    x_t=st.floats(min_value=-3.0, max_value=3.0),
    x0=st.floats(min_value=-3.0, max_value=3.0),
)
def test_two_path_equivalence_random_probes(ab_t, prev_frac, sig_frac, x_t, x0):
    ab_prev = ab_t + (1.0 - ab_t) * prev_frac  # ab_prev > ab_t always
    sigma = sig_frac * np.sqrt(1.0 - ab_prev)
    # sig_frac=1 can round sigma^2 one ulp past the feasible gap
    while sigma * sigma > 1.0 - ab_prev:
        sigma = np.nextafter(sigma, 0.0)
    xt = np.array([x_t])
    x0v = np.array([x0])
    eps = (xt - np.sqrt(ab_t) * x0v) / np.sqrt(1.0 - ab_t)
    want_mean, want_var = two_path_moments(xt, x0v, ab_t, ab_prev, sigma)
    eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev, sigma)
    assert_allclose(xt - eps_c * eps, want_mean, rtol=1e-8, atol=1e-10)
    assert_allclose(noise_c**2, want_var, rtol=1e-8)


def test_two_path_equivalence_monte_carlo():
    rng = np.random.default_rng(23)
    n = 100_000
    ab_t, ab_prev, sigma = 0.5, 0.8, 0.1
    x_t = np.full((n, 1), 0.45)
    x0 = np.full((n, 1), -0.2)
    eps = (x_t - np.sqrt(ab_t) * x0) / np.sqrt(1.0 - ab_t)
    prev = sample_prev(x_t, x0, 2, SCHED_58, sigma, rng)
    back = renoise(prev, x0, 2, SCHED_58, sigma, rng)
    fused = fused_update(x_t, eps, 2, SCHED_58, sigma, rng)
    want_mean, want_var = two_path_moments(x_t[0], x0[0], ab_t, ab_prev, sigma)
    se_mean = np.sqrt(want_var / n)
    se_var = want_var * np.sqrt(2.0 / (n - 1))
    for draws in (back, fused):
        assert abs(draws.mean() - want_mean[0]) < 4 * se_mean
        assert abs(draws.var() - want_var) < 4 * se_var


def langevin_update(x_t, eps_tilde, alpha_bar_t, lam, rng):
    """One Langevin step x + lam * score + sqrt(2 * lam) * z at noise level t:
    the single-step alternative the fused update is compared against."""
    if not np.isfinite(lam) or lam <= 0.0:
        raise ValueError(f"step size lam must be positive, got {lam!r}")
    x_t = np.asarray(x_t, dtype=float)
    score = -np.asarray(eps_tilde, dtype=float) / np.sqrt(1.0 - alpha_bar_t)
    if x_t.shape != score.shape:
        raise ValueError(f"shape mismatch: x_t {x_t.shape} vs eps {score.shape}")
    return x_t + lam * score + np.sqrt(2.0 * lam) * rng.standard_normal(x_t.shape)


def test_langevin_zero_drift():
    rng = np.random.default_rng(5)
    x = np.array([0.7, 0.7])
    out = langevin_update(x, np.zeros(2), 0.5, 0.02, rng)
    want = x + np.sqrt(0.04) * np.random.default_rng(5).standard_normal(2)
    assert_allclose(out, want)


def test_langevin_matches_fused_drift_at_matched_step_size():
    ab_t, ab_prev, sigma = 0.5, 0.8, 0.1
    lam = sigma**2 * (1.0 - ab_t) / (1.0 - ab_prev)
    eps = np.array([1.3, -0.4])
    eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev, sigma)
    # drift lam * score equals the fused drift -eps_c * eps
    drift = lam * (-eps / np.sqrt(1.0 - ab_t))
    assert_allclose(drift, -eps_c * eps, rtol=1e-12)
    # and the Langevin noise variance 2*lam dominates the fused one
    assert 2 * lam >= noise_c**2


def test_langevin_rejects_bad_step_size():
    rng = np.random.default_rng(0)
    for lam in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="lam"):
            langevin_update(np.zeros(1), np.zeros(1), 0.5, lam, rng)


def test_variance_bound_reference_values():
    prof = SigmaProfile("custom", values=np.array([0.0, 0.1]))
    report = check_variance_bound(SCHED_58, prof)
    assert_allclose(report.lhs[1], 0.04875, rtol=1e-12)
    assert_allclose(report.rhs[1], 0.05, rtol=1e-12)
    assert report.ok
    # sigma = 0 rows give exact equality
    assert report.margins[0] == 0.0


def test_variance_bound_zero_sigma_everywhere():
    s = build_schedule(T=30)
    report = check_variance_bound(s, SigmaProfile("ddim_eta", eta=0.0))
    assert report.ok
    assert np.all(report.margins == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    T=st.integers(min_value=1, max_value=64),
    eta=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_variance_bound_never_violated(T, eta, seed):
    s = build_schedule(T=T, beta_start=5e-4, beta_end=0.06)
    rng = np.random.default_rng(seed)
    fracs = rng.uniform(0.0, 1.0, size=T)
    custom = SigmaProfile("custom", values=fracs * np.sqrt(1.0 - s.alpha_bar[:-1]))
    for prof in (SigmaProfile("boundary"), SigmaProfile("ddim_eta", eta=eta), custom):
        report = check_variance_bound(s, prof)
        assert report.ok
        assert np.all(report.margins >= 0.0)
