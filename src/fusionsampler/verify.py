"""Self-checks for the numerical core, runnable as a batch.

Each check is a named function returning pass/fail plus a one-line detail;
run_checks() executes them in a fixed order so the command-line front end can
print one row per check. The checks cross-validate independent code paths
(closed-form score vs finite differences, fused step vs two-stage
composition) rather than re-asserting constants. Each property is checked
once, and every bit-exactness check runs its trajectories through one
helper, _rows_mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.encoder import (
    EncoderConditionedDenoiser,
    new_promptnet,
    promptnet_loss_and_grads,
)
from fusionsampler.denoiser import N_TIME_FEATURES, ToyDenoiser
from fusionsampler.mixture import (
    MixtureOracle,
    oracle_eps,
    oracle_log_density,
)
from fusionsampler.nets import MLP, fd_gradient
from fusionsampler.posterior import (
    check_variance_bound,
    fused_update_coefficients,
    predict_x0,
    renoise_moments,
    sample_prev_mean,
)
from fusionsampler.predictors import announce_pass
from fusionsampler.sampler import FusionConfig, sample_trajectory
from fusionsampler.schedule import SigmaProfile, build_schedule
from fusionsampler.worlds import identity_condition, product_world, style_condition

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named self-check."""

    name: str
    passed: bool
    detail: str


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-12)


def _check_oracle_score_fd():
    """Closed-form eps against central differences of the log density."""
    world = product_world()
    conds = [
        None,
        ConditionSet(identity=identity_condition(world, 0, 2.5),
                     text=style_condition(world, 1, 2.0)),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    probes = 0
    for cond in conds:
        for ab in (0.9, 0.5, 0.1):
            for _ in range(4):
                x = world.data_mean() + 2.0 * rng.standard_normal(world.d)
                eps = oracle_eps(world, x, cond, ab)
                grad = fd_gradient(lambda y: oracle_log_density(world, y, cond, ab), x)
                eps_fd = -np.sqrt(1.0 - ab) * grad
                worst = max(worst, _rel(np.max(np.abs(eps - eps_fd)),
                                        np.max(np.abs(eps))))
                probes += 1
    return worst < 1e-6, f"max rel err {worst:.2e} over {probes} probes"


def _check_posterior_two_path():
    """Fused step vs reverse-then-renoise composition: same mean and variance."""
    schedule = build_schedule()
    rng = np.random.default_rng(202)
    worst_mean = 0.0
    worst_var = 0.0
    for _ in range(20):
        t = int(rng.integers(2, schedule.T + 1))
        ab_t, ab_prev = schedule.alpha_bars(t)
        sigma = float(rng.uniform(0.25, 0.95)) * np.sqrt(1.0 - ab_prev)
        x_t = 2.0 * rng.standard_normal(3)
        eps_tilde = rng.standard_normal(3)
        x0 = predict_x0(x_t, eps_tilde, ab_t)
        m1 = sample_prev_mean(x_t, x0, ab_t, ab_prev, sigma)
        mean_two, gain, var = renoise_moments(m1, x0, ab_t, ab_prev, sigma)
        var_two = gain ** 2 * sigma ** 2 + var
        eps_coeff, noise_coeff = fused_update_coefficients(ab_t, ab_prev, sigma)
        mean_fused = x_t - eps_coeff * eps_tilde
        worst_mean = max(worst_mean, _rel(np.max(np.abs(mean_two - mean_fused)),
                                          np.max(np.abs(mean_fused))))
        worst_var = max(worst_var, _rel(abs(var_two - noise_coeff ** 2),
                                        noise_coeff ** 2))
    passed = worst_mean < 1e-9 and worst_var < 1e-9
    return passed, (f"max rel err mean {worst_mean:.2e}"
                    f" var {worst_var:.2e} over 20 probes")


def _check_boundary_sigma_collapse():
    """At sigma = sqrt(1 - alpha_bar_prev) both fused coefficients collapse
    to sqrt(1 - alpha_bar_t), every timestep."""
    schedule = build_schedule()
    worst = 0.0
    for t in range(1, schedule.T + 1):
        ab_t, ab_prev = schedule.alpha_bars(t)
        sigma_b = float(np.sqrt(1.0 - ab_prev))
        eps_coeff, noise_coeff = fused_update_coefficients(ab_t, ab_prev, sigma_b)
        target = np.sqrt(1.0 - ab_t)
        worst = max(worst, abs(eps_coeff - target) / target,
                    abs(noise_coeff - target) / target)
    return worst < 5e-15, f"max rel err {worst:.2e} across T={schedule.T} steps"


def _check_variance_bound():
    """Feasible noise profiles keep the fused noise at or above the
    matched-drift single-step alternative."""
    schedule = build_schedule()
    rng = np.random.default_rng(303)
    profiles = [SigmaProfile("boundary"), SigmaProfile("ddim_eta", eta=0.3),
                SigmaProfile("ddim_eta", eta=1.0)]
    gaps = np.sqrt(1.0 - schedule.alpha_bar[:-1])
    for _ in range(4):
        u = rng.uniform(0.0, 0.999, size=schedule.T)
        profiles.append(SigmaProfile("custom", values=u * gaps))
    min_margin = np.inf
    bad = []
    for profile in profiles:
        report = check_variance_bound(schedule, profile)
        min_margin = min(min_margin, float(np.min(report.margins)))
        if not report.ok:
            bad.append(profile.kind)
    if bad:
        return False, f"violations under profiles: {' '.join(bad)}"
    return True, f"{len(profiles)} profiles clean; min margin {min_margin:.3e}"


class _FirstRows:
    """Predictor wrapper that keeps the bytes of the first n rows of every
    prediction it passes on, and passes on pass announcements too."""

    def __init__(self, inner, n: int):
        self.inner, self.n, self.rows = inner, n, []

    @property
    def d(self) -> int:
        return self.inner.d

    def announce_pass(self, x_t, conds, t):
        announce_pass(self.inner, x_t, conds, t)

    def predict_eps(self, x_t, cond, t):
        eps = self.inner.predict_eps(x_t, cond, t)
        self.rows.append(eps[:self.n].tobytes())
        return eps


def _rows_mismatch(cond, schedule, seed: int, runs) -> str | None:
    """Run one trajectory per (label, predictor, cfg, size) of runs. None when
    the first n rows of every run's samples and of each of its predictions
    are bit-identical to the first run's, whose size is n; else which run
    differs and how. The predictions are compared too because a last-bit
    difference in eps is often rounded away in the next state."""
    n = runs[0][3]
    ref = None
    for label, predictor, cfg, size in runs:
        calls = _FirstRows(predictor, n)
        samples = sample_trajectory(cond, cfg, calls, schedule, size, seed=seed)
        if ref is None:
            ref, ref_calls = samples[:n].tobytes(), calls.rows
            continue
        same = samples[:n].tobytes() == ref
        # a missing or an extra call counts as one that differs
        differ = (sum(a != b for a, b in zip(calls.rows, ref_calls))
                  + abs(len(calls.rows) - len(ref_calls)))
        if not same or differ:
            return (f"first {n} rows differ through {label}: samples"
                    f" {'equal' if same else 'differ'}; eps differs in {differ}"
                    f" of {len(ref_calls)} calls")
    return None


class _MemoFreeOracle:
    """The mixture oracle without MixtureOracle's caches: every call is a
    fresh oracle_eps."""

    def __init__(self, world, schedule):
        self.world, self.schedule = world, schedule

    @property
    def d(self) -> int:
        return self.world.d

    def predict_eps(self, x_t, cond, t):
        return oracle_eps(self.world, x_t, cond, self.schedule.alpha_bars(t)[0])


class _ShiftedAnnounce(MixtureOracle):
    """MixtureOracle whose passes are announced at x + 1.0 instead of the x
    their calls then ask for, so every one of those calls must be served
    with a fresh evaluation."""

    def announce_pass(self, x_t, conds, t):
        super().announce_pass(x_t + 1.0, conds, t)


def _check_oracle_rows_exact():
    """An oracle row's bits depend on that row alone: sample i's noise comes
    from (seed, i) alone and the oracle treats rows independently. So the
    first n rows of a fusion trajectory, and of every oracle call in it,
    must equal those of memo-free oracle_eps calls at n samples, bit for
    bit: through memo-free calls at n_big, through MixtureOracle (which
    evaluates the 2 or 3 conditions a guided pass announces as one stack,
    serves the pass's calls at the announced (t, x) from that entry, and
    caches each condition tuple's cell log-weights) at n and n_big, and
    through one whose passes are announced at a shifted x, where no call may
    be served from the entry. With m=2 each t sees three inputs. Two cases:
    - the 2x2 product world at n=5 and n_big=8: m=2 and T=40 draw about 400
      values per stream, so every stream refills its noise buffer several
      times;
    - a 4x3 product world at n=1 and n_big=4: for a lone row numpy would sum
      its 12 cells pairwise instead of in order, if the oracle let it; a
      stack of conditions over one row is not a lone row to numpy."""
    schedule = build_schedule(T=40, beta_end=0.15)
    cfg = FusionConfig(m=2, gamma=0.5)
    for world, n, n_big in ((product_world(), 5, 8), (product_world(4, 3), 1, 4)):
        cond = ConditionSet(identity=identity_condition(world, 0, 2.0),
                            text=style_condition(world, 1, 2.0))
        runs = [(f"{label} at n={size}", oracle(world, schedule), cfg, size)
                for label, oracle, size in (
                    ("memo-free calls", _MemoFreeOracle, n),
                    ("memo-free calls", _MemoFreeOracle, n_big),
                    ("MixtureOracle", MixtureOracle, n),
                    ("MixtureOracle", MixtureOracle, n_big),
                    ("MixtureOracle announced at x + 1", _ShiftedAnnounce, n))]
        detail = _rows_mismatch(cond, schedule, 77, runs)
        if detail:
            return False, f"{world.n_identities}x{world.n_styles} world: {detail}"
    return True, ("first rows of samples and every eps bit-identical to memo-free"
                  " calls at n: 2x2 world n=5 vs 8 and 4x3 world n=1 vs 4;"
                  f" stacked and announced at x + 1; fusion m={cfg.m} T={schedule.T}")


def _check_learned_batch_prefix_invariance():
    """The learned predictors must keep rows apart as well: the first n rows
    of a fusion trajectory through ToyDenoiser, and through the encoder
    wrapper, and of every eps in it, must not depend on how many samples run
    beside them, bit for bit. Untrained nets of the sizes the sweep trains
    are enough, since a row's bits depend on the matmul shapes, not on the
    weights. n=5 vs 8 and n=1 vs 4 on the 2x2 product world."""
    world = product_world()
    schedule = build_schedule(T=20, beta_end=0.15)
    cfg = FusionConfig(m=2, gamma=0.5)
    d, n_i, n_c = world.d, world.n_identities, world.n_styles
    den = ToyDenoiser(MLP((d + n_i + n_c + N_TIME_FEATURES, 64, 64, d), seed=12),
                      d, n_i, n_c, schedule)
    enc = new_promptnet(den, seed=13, zero_head=False)
    text = style_condition(world, 1, 1.0)
    cases = (
        ("denoiser", den,
         ConditionSet(identity=identity_condition(world, 0, 1.0), text=text)),
        ("encoder", EncoderConditionedDenoiser(enc, den),
         ConditionSet(identity=world.cell_means()[0, 0], text=text)),
    )
    for name, predictor, cond in cases:
        for n, n_big in ((5, 8), (1, 4)):
            runs = [(f"{name} at n={size}", predictor, cfg, size) for size in (n, n_big)]
            detail = _rows_mismatch(cond, schedule, 79, runs)
            if detail:
                return False, detail
    return True, ("first rows of samples and predictor calls bit-identical:"
                  " denoiser and encoder wrapper at n=5 vs 8 and 1 vs 4;"
                  f" fusion m={cfg.m} T={schedule.T}")


def _check_mlp_gradient_fd():
    """Backprop through the plain net against finite differences."""
    net = MLP((4, 7, 3), seed=5)
    x = np.random.default_rng(404).standard_normal((5, 4))
    y, acts = net.forward(x)
    g = net.backward(acts, y)

    def loss(flat):
        probe = net.copy()
        probe.params[:] = flat
        out, _ = probe.forward(x)
        return 0.5 * float(np.sum(out * out))

    g_fd = fd_gradient(loss, net.params)
    worst = _rel(np.max(np.abs(g - g_fd)), np.max(np.abs(g)))
    return worst < 1e-6, f"max rel err {worst:.2e} over {g.size} parameters"


def _check_encoder_chain_gradient_fd():
    """Encoder gradients chained through the frozen denoiser against finite
    differences on the encoder parameters."""
    world = product_world()
    schedule = build_schedule(T=16, beta_end=0.15)
    d, n_i, n_c = world.d, world.n_identities, world.n_styles
    den_net = MLP((d + n_i + n_c + N_TIME_FEATURES, 8, d), seed=11)
    den = ToyDenoiser(den_net, d, n_i, n_c, schedule)
    enc = new_promptnet(den, hidden=(6,), seed=7, zero_head=False)
    rng = np.random.default_rng(505)
    xbar = rng.standard_normal(d)
    x_t = rng.standard_normal((5, d))
    eps = rng.standard_normal((5, d))
    text = np.eye(n_c)[rng.integers(0, n_c, size=5)]
    t = rng.integers(1, schedule.T + 1, size=5)
    lam = 0.37
    _, g = promptnet_loss_and_grads(enc, den, xbar, x_t, t, eps, text, lam)

    def loss(flat):
        probe = enc.copy()
        probe.net.params[:] = flat
        value, _ = promptnet_loss_and_grads(probe, den, xbar, x_t, t, eps, text, lam)
        return value

    g_fd = fd_gradient(loss, enc.net.params)
    worst = _rel(np.max(np.abs(g - g_fd)), np.max(np.abs(g)))
    return worst < 1e-6, f"max rel err {worst:.2e} over {g.size} parameters"


# order matters for the printed report: cheap algebra first, nets last
_CHECKS = (
    ("oracle_score_fd", _check_oracle_score_fd),
    ("posterior_two_path", _check_posterior_two_path),
    ("boundary_sigma_collapse", _check_boundary_sigma_collapse),
    ("variance_bound", _check_variance_bound),
    ("oracle_rows_exact", _check_oracle_rows_exact),
    ("mlp_gradient_fd", _check_mlp_gradient_fd),
    ("encoder_chain_gradient_fd", _check_encoder_chain_gradient_fd),
    ("learned_batch_prefix_invariance", _check_learned_batch_prefix_invariance),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run every check whose name contains name_filter (all when None).

    A check that raises is reported as failed with the exception in the
    detail column rather than aborting the batch.
    """
    results = []
    for name, fn in _CHECKS:
        if name_filter is not None and name_filter not in name:
            continue
        try:
            passed, detail = fn()
        except Exception as err:  # noqa: BLE001 - the batch must survive any check
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name=name, passed=bool(passed),
                                   detail=detail.replace(",", ";")))
    return results
