"""Acceptance gate: every core guarantee exercised end to end.

One test per criterion, each printing a single PASS or FAIL line (visible
under pytest -s) with the measured margin next to the pinned tolerance.
Tolerances are fixed here, not imported, so a regression cannot loosen them.
"""

import json
import time

import numpy as np

from fusionsampler.artifacts import render_json
from fusionsampler.cli import main as cli_main
from fusionsampler.conditions import ConditionSet
from fusionsampler.evaluate import ablation_suite, degeneration_benchmark, spearman
from fusionsampler.guidance import GuidanceWeights
from fusionsampler.mixture import MixtureOracle, oracle_eps, oracle_log_density
from fusionsampler.posterior import (
    check_variance_bound,
    fused_update_coefficients,
    predict_x0,
    renoise,
    renoise_moments,
    sample_prev,
    sample_prev_mean,
)
from fusionsampler.sampler import FusionConfig, sample_trajectory
from fusionsampler.schedule import DiffusionSchedule, SigmaProfile, build_schedule
from fusionsampler.worlds import identity_condition, product_world, style_condition


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _clamp_to_gap(sigma, gap):
    """Largest float(s) at or below the feasible boundary sigma^2 <= gap."""
    sigma = np.asarray(sigma, dtype=float)
    while np.any(bad := sigma * sigma > gap):
        sigma = np.where(bad, np.nextafter(sigma, 0.0), sigma)
    return sigma


def test_fused_step_equals_two_stage_composition():
    started = time.perf_counter()
    rng = _rng(11)
    worst = 0.0
    for _ in range(50):
        ab_t = float(rng.uniform(0.02, 0.97))
        ab_prev = ab_t + (1.0 - ab_t) * float(rng.uniform(0.02, 0.98))
        gap = 1.0 - ab_prev
        sigma = float(_clamp_to_gap(rng.uniform(0.05, 1.0) * np.sqrt(gap), gap))
        x_t = 2.0 * rng.standard_normal(4)
        eps = rng.standard_normal(4)
        x0 = predict_x0(x_t, eps, ab_t)
        m1 = sample_prev_mean(x_t, x0, ab_t, ab_prev, sigma)
        mean_two, gain, var = renoise_moments(m1, x0, ab_t, ab_prev, sigma)
        var_two = gain ** 2 * sigma ** 2 + var
        eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev, sigma)
        mean_fused = x_t - eps_c * eps
        scale = max(np.max(np.abs(mean_fused)), 1e-12)
        worst = max(worst,
                    np.max(np.abs(mean_two - mean_fused)) / scale,
                    abs(var_two - noise_c ** 2) / noise_c ** 2)

    # Monte Carlo confirmation on a fixed step: alpha_bar 0.8 -> 0.5
    sched = DiffusionSchedule([0.2, 0.375])
    n = 100_000
    ab_t, ab_prev, sigma = 0.5, 0.8, 0.1
    x_t = np.full((n, 1), 0.45)
    x0 = np.full((n, 1), -0.2)
    eps = (x_t - np.sqrt(ab_t) * x0) / np.sqrt(1.0 - ab_t)
    rng_mc = _rng(12)
    back = renoise(sample_prev(x_t, x0, 2, sched, sigma, rng_mc),
                   x0, 2, sched, sigma, rng_mc)
    eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev, sigma)
    want_mean = float(x_t[0, 0] - eps_c * eps[0, 0])
    want_var = noise_c ** 2
    se_mean = np.sqrt(want_var / n)
    se_var = want_var * np.sqrt(2.0 / (n - 1))
    mc_gap = max(abs(back.mean() - want_mean) / se_mean,
                 abs(back.var() - want_var) / se_var)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and mc_gap < 4.0 and elapsed < 30.0
    _report("fused step equals two-stage composition", ok,
            f"50 probes max rel err {worst:.2e} (tol 1e-8); MC worst gap"
            f" {mc_gap:.2f} SE (tol 4); {elapsed:.1f}s (budget 30s)")


def test_boundary_noise_collapses_coefficients():
    sched = build_schedule()
    worst = 0.0
    for t in range(1, sched.T + 1):
        ab_t = float(sched.alpha_bar[t])
        ab_prev = float(sched.alpha_bar[t - 1])
        eps_c, noise_c = fused_update_coefficients(ab_t, ab_prev,
                                                   float(np.sqrt(1.0 - ab_prev)))
        target = np.sqrt(1.0 - ab_t)
        worst = max(worst, abs(eps_c - target) / target,
                    abs(noise_c - target) / target)
    ok = worst <= 1e-14
    _report("boundary noise collapses both coefficients", ok,
            f"max rel err {worst:.2e} over T={sched.T} steps (tol 1e-14)")


def test_feasible_profiles_never_violate_variance_bound():
    sched = build_schedule()
    gaps = np.sqrt(1.0 - sched.alpha_bar[:-1])
    rng = _rng(33)
    violations = 0
    min_margin = np.inf
    for _ in range(20):
        values = _clamp_to_gap(rng.uniform(0.0, 1.0, size=sched.T) * gaps,
                               1.0 - sched.alpha_bar[:-1])
        report = check_variance_bound(sched, SigmaProfile("custom", values=values))
        violations += int(report.violations.size)
        min_margin = min(min_margin, float(np.min(report.margins)))
    ok = violations == 0
    _report("feasible noise profiles satisfy the variance bound", ok,
            f"20 random profiles; {violations} violations"
            f" (tol 0); min margin {min_margin:.3e}")


def test_oracle_agrees_with_finite_differences_and_ddim_moments():
    world = product_world()
    conds = [None, ConditionSet(identity=identity_condition(world, 0, 2.5),
                                text=style_condition(world, 1, 2.0))]
    rng = _rng(44)
    h = 1e-5
    worst_fd = 0.0
    probes = 0
    for cond in conds:
        for ab in (0.95, 0.7, 0.5, 0.25, 0.05):
            for _ in range(10):
                x = world.data_mean() + 2.5 * rng.standard_normal(world.d)
                eps = oracle_eps(world, x, cond, ab)
                grad = np.zeros(world.d)
                for i in range(world.d):
                    step = np.zeros(world.d)
                    step[i] = h
                    grad[i] = (oracle_log_density(world, x + step, cond, ab)
                               - oracle_log_density(world, x - step, cond, ab)) \
                        / (2 * h)
                eps_fd = -np.sqrt(1.0 - ab) * grad
                worst_fd = max(worst_fd,
                               np.max(np.abs(eps - eps_fd))
                               / max(np.max(np.abs(eps)), 1e-12))
                probes += 1

    sched = build_schedule()
    cfg = FusionConfig(m=1, gamma=0.4, use_refinement=True,
                       weights=GuidanceWeights(omega=1.0),
                       sigma=SigmaProfile("ddim_eta", eta=0.0),
                       mode="vanilla_cfg")
    samples = sample_trajectory(ConditionSet(), cfg, MixtureOracle(world, sched),
                                sched, 100_000, seed=45)
    mean_target = world.data_mean()
    cov_target = world.data_cov()
    scale = float(np.sqrt(np.max(np.diag(cov_target))))
    mean_err = float(np.max(np.abs(samples.mean(axis=0) - mean_target)))
    cov_emp = np.cov(samples.T)
    cov_err = float(np.max(np.abs(cov_emp - cov_target)))
    cov_tol = 0.05 * float(np.max(np.abs(cov_target)))
    ok = worst_fd < 1e-4 and mean_err <= 0.02 * scale and cov_err <= cov_tol
    _report("oracle matches finite differences and deterministic moments", ok,
            f"{probes} probes max rel err {worst_fd:.2e} (tol 1e-4);"
            f" mean err {mean_err:.3f} (tol {0.02 * scale:.3f});"
            f" cov err {cov_err:.3f} (tol {cov_tol:.3f})")


def test_zero_fusion_iterations_reduce_to_independent_sampling():
    world = product_world()
    sched = build_schedule(T=14, beta_end=0.2)
    predictor = MixtureOracle(world, sched)
    rng = _rng(55)
    gaps = np.sqrt(1.0 - sched.alpha_bar[:-1])
    mismatches = 0
    for i in range(10):
        w = GuidanceWeights(omega=float(rng.uniform(0.5, 4.0)),
                            omega1=float(rng.uniform(0.5, 4.0)),
                            omega2=float(rng.uniform(0.5, 4.0)))
        kind = i % 3
        if kind == 0:
            profile = SigmaProfile("boundary")
        elif kind == 1:
            profile = SigmaProfile("ddim_eta", eta=float(rng.uniform(0.0, 1.0)))
        else:
            values = _clamp_to_gap(rng.uniform(0.0, 1.0, size=sched.T) * gaps,
                                   1.0 - sched.alpha_bar[:-1])
            profile = SigmaProfile("custom", values=values)
        cond = ConditionSet(
            identity=identity_condition(world, int(rng.integers(2)),
                                        float(rng.uniform(1.0, 3.0))),
            text=style_condition(world, int(rng.integers(2)),
                                 float(rng.uniform(1.0, 3.0))))
        a = sample_trajectory(cond, FusionConfig(m=0, use_refinement=True,
                                                 weights=w, sigma=profile,
                                                 mode="fusion"),
                              predictor, sched, 5, seed=700 + i)
        b = sample_trajectory(cond, FusionConfig(m=0, use_refinement=True,
                                                 weights=w, sigma=profile,
                                                 mode="independent"),
                              predictor, sched, 5, seed=700 + i)
        mismatches += int(a.tobytes() != b.tobytes())
    ok = mismatches == 0
    _report("zero fusion iterations reduce to independent sampling", ok,
            f"10 random configurations; {mismatches} byte mismatches (tol 0)")


def test_conflicting_conditions_benchmark_ordering():
    started = time.perf_counter()
    rows = ablation_suite(degeneration_benchmark())
    variants = []
    for row in rows:
        if row["variant"] not in variants:
            variants.append(row["variant"])
    means = {}
    for name in variants:
        ids = np.mean([r["identity_score"] for r in rows if r["variant"] == name])
        sty = np.mean([r["style_score"] for r in rows if r["variant"] == name])
        means[name] = (float(ids), float(sty))
    fus_id, fus_sty = means["fusion"]
    van_id, van_sty = means["vanilla_cfg"]
    mins = {name: min(pair) for name, pair in means.items()}
    runner_up = max(v for k, v in mins.items() if k != "fusion")
    elapsed = time.perf_counter() - started
    ok = (fus_sty > van_sty
          and fus_id >= van_id - 0.05
          and all(mins["fusion"] > v for k, v in mins.items() if k != "fusion")
          and elapsed < 300.0)
    _report("conflicting-conditions benchmark ordering", ok,
            f"fusion id/style {fus_id:.3f}/{fus_sty:.3f} vs vanilla"
            f" {van_id:.3f}/{van_sty:.3f} (id within 0.05, style higher);"
            f" min {mins['fusion']:.3f} vs runner-up {runner_up:.3f};"
            f" {elapsed:.0f}s (budget 300s)")


def test_regularization_rank_correlations(acceptance_sweep_rows):
    # lambda in {0, 0.01, 0.1, 1, 10}, 300 samples (tests/conftest.py)
    seeds = [0, 1, 2]
    rows = acceptance_sweep_rows
    failed = [r for r in rows if r["status"] != "ok"]
    rec_trend, norm_trend = [], []
    for seed in seeds:
        cells = [r for r in rows if r["seed"] == seed and r["status"] == "ok"]
        lams = np.array([r["lam"] for r in cells])
        rec_trend.append(spearman(lams, np.array([r["recon_error"]
                                                  for r in cells])))
        norm_trend.append(spearman(lams, np.array([r["embed_norm"]
                                                   for r in cells])))
    rec_mean = float(np.mean(rec_trend))
    norm_mean = float(np.mean(norm_trend))
    ok = not failed and rec_mean >= 0.9 and norm_mean <= -0.9
    _report("regularization rank correlations", ok,
            f"{len(rows)} cells ({len(failed)} failed); reconstruction trend"
            f" {rec_mean:+.3f} (tol >= +0.9); embedding norm trend"
            f" {norm_mean:+.3f} (tol <= -0.9)")


def test_repeated_runs_emit_identical_bytes(tmp_path):
    sampler = {
        "seed": 0,
        "world": {"preset": "product"},
        "schedule": {"T": 20},
        "fusion": {"m": 2, "gamma": 0.3},
        "sampling": {"n_samples": 12},
    }
    condition = {"identity": [3.0, 0.0], "text": [0.0, 3.0]}
    training = {"training": {"steps": 8, "batch": 16}, "denoiser": {"steps": 40}}
    # each mode's payload holds only the keys that mode reads
    payloads = {
        "sample": {**sampler, "condition": condition},
        "train-encoder": {"seed": 0, "world": {"preset": "product"},
                          "schedule": {"T": 20}, **training},
        "sweep-lambda": {**sampler, **training,
                         "sweep": {"lambdas": [0.0, 1.0], "seeds": [0]}},
        "ablate": {**sampler, "condition": condition, "sweep": {"seeds": [0]}},
    }
    modes = ["sample", "train-encoder", "sweep-lambda", "ablate"]
    compared = 0
    mismatched = []
    for mode in modes:
        cfg_path = tmp_path / f"{mode}.json"
        cfg_path.write_text(json.dumps(payloads[mode]))
        dirs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{mode}-{attempt}"
            rc = cli_main(["run", "--config", str(cfg_path), "--mode", mode,
                           "--out", str(out)])
            assert rc == 0, f"{mode} run failed"
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            compared += 1
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatched.append(f"{mode}/{name}")
    ok = not mismatched
    _report("repeated runs emit identical bytes", ok,
            f"{len(modes)} modes, {compared} files compared;"
            f" mismatches: {mismatched if mismatched else 'none'}")
