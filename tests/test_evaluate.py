"""Adherence metric examples, the sweep drivers, and the ablation table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionsampler.evaluate as evaluate
from fusionsampler.artifacts import render_csv
from fusionsampler.evaluate import (
    ABLATION_COLUMNS,
    ABLATION_TARGETS,
    SWEEP_COLUMNS,
    ablation_suite,
    adherence_scores,
    degeneration_benchmark,
    regularization_sweep,
    spearman,
)
from fusionsampler.mixture import oracle_responsibilities
from fusionsampler.nets import TrainingDiverged
from fusionsampler.runconfig import ConfigError, validate_config
from fusionsampler.worlds import (
    conflict_world,
    identity_condition,
    leaky_identity_condition,
    product_world,
    style_condition,
)

WORLD = product_world()


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_responsibility_saturates_at_a_separated_mean():
    m = WORLD.cell_means()[1, 0]
    ident, style = adherence_scores(m, WORLD, 1, 0)
    assert ident > 1.0 - 1e-6
    assert style > 1.0 - 1e-6


def test_responsibility_is_half_on_the_symmetry_axis():
    # identities sit at axis0 = -2 and +2; axis0 = 0 is equidistant
    for x in ([0.0, 1.3], [0.0, -7.0], [0.0, 0.0]):
        ident, _ = adherence_scores(np.array(x), WORLD, 0, 0)
        assert abs(ident - 0.5) <= 1e-12


def test_responsibilities_sum_to_one():
    for p in _rng(5).normal(size=(40, 2)) * 3.0:
        ident = sum(adherence_scores(p, WORLD, i, 0)[0]
                    for i in range(WORLD.n_identities))
        style = sum(adherence_scores(p, WORLD, 0, c)[1]
                    for c in range(WORLD.n_styles))
        assert abs(ident - 1.0) <= 1e-12 and abs(style - 1.0) <= 1e-12


def test_responsibility_batch_matches_single():
    pts = _rng(6).normal(size=(7, 2))
    batch = oracle_responsibilities(WORLD, pts, None, 1.0)
    singles = [oracle_responsibilities(WORLD, p, None, 1.0) for p in pts]
    assert np.array_equal(batch, singles)


def test_responsibility_validation():
    with pytest.raises(ValueError, match="identity index 2 out of range"):
        adherence_scores(np.zeros(2), WORLD, 2, 0)
    with pytest.raises(ValueError, match="style index 2 out of range"):
        adherence_scores(np.zeros(2), WORLD, 0, 2)
    with pytest.raises(ValueError, match="trailing dimension"):
        adherence_scores(np.zeros(3), WORLD, 0, 0)


def test_adherence_on_target_component_draws():
    x, _ = WORLD.sample(500, _rng(0), identity=1, style=0)
    ident, style = adherence_scores(x, WORLD, 1, 0)
    assert ident > 0.95
    assert style > 0.95


def test_adherence_right_identity_wrong_style():
    x, _ = WORLD.sample(500, _rng(1), identity=0, style=0)
    ident, style = adherence_scores(x, WORLD, 0, 1)
    assert ident > 0.95
    assert style < 0.05


def test_adherence_single_sample_equals_its_row():
    x, _ = WORLD.sample(1, _rng(2), identity=0, style=1)
    ident, style = adherence_scores(x, WORLD, 0, 1)
    assert (ident, style) == adherence_scores(x[0], WORLD, 0, 1)
    r = oracle_responsibilities(WORLD, x[0], None, 1.0)
    assert ident == pytest.approx(r[0, :].sum(), rel=0, abs=1e-15)
    assert style == pytest.approx(r[:, 1].sum(), rel=0, abs=1e-15)


def test_adherence_scores_one_posterior_both_ways(monkeypatch):
    x, _ = WORLD.sample(50, _rng(4))
    r = oracle_responsibilities(WORLD, x, None, 1.0)
    want = (r[:, 1, :].sum(axis=-1).mean(), r[:, :, 0].sum(axis=-1).mean())
    calls = []
    real = evaluate.oracle_responsibilities
    monkeypatch.setattr(evaluate, "oracle_responsibilities",
                        lambda *args: calls.append(args) or real(*args))
    assert adherence_scores(x, WORLD, 1, 0) == pytest.approx(want, rel=0, abs=1e-15)
    assert len(calls) == 1


def test_adherence_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        adherence_scores(np.zeros((0, 2)), WORLD, 0, 0)


def test_adherence_prior_draws_score_one_over_classes():
    x, _ = WORLD.sample(4000, _rng(3))
    ident, style = adherence_scores(x, WORLD, 0, 1)
    assert abs(ident - 0.5) < 0.05
    assert abs(style - 0.5) < 0.05


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                min_size=1, max_size=16))
def test_adherence_scores_stay_in_unit_interval(pts):
    x = np.array(pts)
    ident, style = adherence_scores(x, WORLD, 0, 0)
    assert 0.0 <= ident <= 1.0
    assert 0.0 <= style <= 1.0
    for p in x:
        per_point = adherence_scores(p, WORLD, 0, 0)
        assert all(0.0 <= score <= 1.0 for score in per_point)


def test_spearman_known_values():
    assert spearman([1, 2, 3, 4], [10, 20, 21, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [5, 4, 3, -1]) == pytest.approx(-1.0)
    # tied pair gets the average rank 0.5, giving sqrt(3)/2
    assert spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
        np.sqrt(3) / 2)
    assert spearman([1.0, 2.0], [7.0, 7.0]) == 0.0


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


def _fast_ablation_config():
    return validate_config({
        "world": {"preset": "product"},
        "condition": {"identity": identity_condition(WORLD, 0, 3.0).tolist(),
                      "text": style_condition(WORLD, 1, 3.0).tolist()},
        "schedule": {"T": 20},
        "fusion": {"m": 2, "gamma": 0.3},
        "sampling": {"n_samples": 40},
        "sweep": {"seeds": [0, 1]},
    })


def test_ablation_table_shape_and_names():
    rows = ablation_suite(_fast_ablation_config())
    assert len(rows) == 10
    names = [r["variant"] for r in rows]
    assert sorted(set(names)) == sorted([
        "vanilla_cfg", "independent", "fusion_no_refinement",
        "fusion_no_fusion_stage", "fusion"])
    assert all(names.count(v) == 2 for v in set(names))
    lines = render_csv(rows, columns=ABLATION_COLUMNS).splitlines()
    assert lines[0] == ",".join(ABLATION_COLUMNS)
    assert len(lines) == 11


def test_ablation_m0_rows_equal_independent_rows():
    rows = ablation_suite(_fast_ablation_config())
    ind = {r["seed"]: r for r in rows if r["variant"] == "independent"}
    m0 = {r["seed"]: r for r in rows if r["variant"] == "fusion_no_fusion_stage"}
    for seed in (0, 1):
        assert m0[seed]["identity_score"] == ind[seed]["identity_score"]
        assert m0[seed]["style_score"] == ind[seed]["style_score"]


def test_ablation_deterministic():
    cfg = _fast_ablation_config()
    assert ablation_suite(cfg) == ablation_suite(cfg)


def test_ablation_needs_world_and_condition():
    with pytest.raises(ValueError, match="world and condition"):
        ablation_suite(validate_config({"world": {"preset": "product"}}))


def test_degeneration_benchmark_shape():
    bench = degeneration_benchmark()
    assert bench.n_samples == 500
    assert bench.sweep_seeds == (0, 1, 2, 3, 4)
    assert bench.schedule.T == 100
    assert bench.fusion.m == 3
    assert bench.fusion.use_refinement
    assert bench.fusion.mode == "fusion"
    # the conflicting pair: identity condition leaks style 0, prompt wants 1
    world = conflict_world()
    assert bench.world.means.tolist() == world.means.tolist()
    assert bench.condition.identity.tolist() == \
        leaky_identity_condition(world, 0, 0, 10.0, 6.0).tolist()
    assert bench.condition.text.tolist() == style_condition(world, 1, 4.0).tolist()
    assert ABLATION_TARGETS == (0, 1)


def test_degeneration_benchmark_ordering_reduced():
    """Cut-down run of the reference benchmark (2 seeds x 200 samples): the
    full sampler must already dominate every ablation in min(identity, style).
    Pilot margins: fusion 0.49 vs independent 0.33 vs no-refinement 0.29 vs
    vanilla 0.00."""
    payload = degeneration_benchmark().payload
    rows = ablation_suite(validate_config({
        **payload, "sampling": {"n_samples": 200},
        "sweep": {**payload["sweep"], "seeds": [0, 1]}}))
    mins = {}
    for name in {r["variant"] for r in rows}:
        sub = [r for r in rows if r["variant"] == name]
        mi = np.mean([r["identity_score"] for r in sub])
        ms = np.mean([r["style_score"] for r in sub])
        mins[name] = min(mi, ms)
    best = max(mins, key=mins.get)
    assert best == "fusion"
    runner_up = max(v for k, v in mins.items() if k != "fusion")
    assert mins["fusion"] > runner_up + 0.05
    # vanilla joint guidance is the degenerate arm: prompt fully ignored
    vanilla = [r for r in rows if r["variant"] == "vanilla_cfg"]
    assert np.mean([r["style_score"] for r in vanilla]) < 0.05
    assert np.mean([r["identity_score"] for r in vanilla]) > 0.95


def test_sweep_rejects_empty_inputs():
    # the sweep's grid is checked once, where its config is validated
    with pytest.raises(ConfigError, match="sweep.lambdas: expected a nonempty"):
        validate_config({"sweep": {"lambdas": []}})
    with pytest.raises(ConfigError, match="sweep.seeds: expected a nonempty"):
        validate_config({"sweep": {"seeds": []}})


def _small_sweep(lambdas, seeds):
    return validate_config({
        "sweep": {"lambdas": lambdas, "seeds": seeds},
        "denoiser": {"steps": 40},
        "training": {"steps": 5, "batch": 16},
        "sampling": {"n_samples": 4},
    })


def test_sweep_records_cell_failures_and_continues(monkeypatch):
    import fusionsampler.evaluate as ev
    real = ev.train_promptnet

    def sometimes(world, denoiser, tc, **kw):
        if tc.lam == 5.0:
            raise TrainingDiverged(3, float("inf"))
        return real(world, denoiser, tc, **kw)

    monkeypatch.setattr(ev, "train_promptnet", sometimes)
    rows = regularization_sweep(_small_sweep([0.5, 5.0], [0]))
    assert len(rows) == 2
    ok, failed = rows
    assert ok["status"] == "ok" and ok["recon_error"] is not None
    assert failed["status"] == "failed at step 3"
    assert failed["recon_error"] is None
    assert failed["identity_score"] is None


def test_sweep_records_backbone_failures_per_seed(monkeypatch):
    import fusionsampler.evaluate as ev
    real = ev.train_denoiser

    def fragile(world, schedule, steps, seed):
        if seed == 1:
            raise TrainingDiverged(9, float("nan"))
        return real(world, schedule, steps, seed=seed)

    monkeypatch.setattr(ev, "train_denoiser", fragile)
    rows = regularization_sweep(_small_sweep([0.0, 1.0], [0, 1]))
    assert len(rows) == 4
    by_seed = {s: [r for r in rows if r["seed"] == s] for s in (0, 1)}
    assert all(r["status"] == "ok" for r in by_seed[0])
    assert all(r["status"] == "backbone failed at step 9" for r in by_seed[1])


def test_sweep_records_a_sampling_failure_and_keeps_going(monkeypatch):
    import fusionsampler.evaluate as ev
    real = ev.sample_trajectory
    calls = []

    def fragile(cond, cfg, predictor, schedule, n_samples, seed):
        calls.append(seed)
        if len(calls) == 2:
            raise RuntimeError("sampling produced non-finite state at t=7")
        return real(cond, cfg, predictor, schedule, n_samples, seed=seed)

    monkeypatch.setattr(ev, "sample_trajectory", fragile)
    rows = regularization_sweep(_small_sweep([0.0, 1.0, 10.0], [0]))
    assert [r["lam"] for r in rows] == [0.0, 1.0, 10.0]
    assert [r["status"] for r in rows] == [
        "ok", "sampling failed: sampling produced non-finite state at t=7", "ok"]
    failed = rows[1]
    # the cell's reconstruction was measured before sampling failed
    assert failed["recon_error"] is not None and failed["embed_norm"] is not None
    assert failed["identity_score"] is None and failed["style_score"] is None
    assert rows[2]["identity_score"] is not None


def test_sweep_rows_depend_only_on_their_cell():
    # a 3-lambda sweep's rows are the matching rows of a 5-lambda sweep, so
    # the sweep tests below can share one 5-lambda sweep (tests/conftest.py)
    config = {"denoiser": {"steps": 40}, "training": {"steps": 20, "batch": 16},
              "sampling": {"n_samples": 8}}
    full = regularization_sweep(validate_config({
        **config, "sweep": {"lambdas": [0.0, 0.01, 0.1, 1.0, 10.0],
                            "seeds": [0, 1]}}))
    part = regularization_sweep(validate_config({
        **config, "sweep": {"lambdas": [0.0, 1.0, 10.0], "seeds": [0, 1]}}))
    assert len(part) == 6 and all(r["status"] == "ok" for r in full)
    assert part == [r for r in full if r["lam"] in (0.0, 1.0, 10.0)]
    # the cells differ, so the equality above compares real work
    assert len({r["recon_error"] for r in full}) == len(full)


def test_sweep_tradeoff_trends(acceptance_sweep_rows):
    """Aggregate identity adherence is maximal with no regularization and
    drops sharply at the top of the grid; style adherence moves the other
    way. Margins from the pilot: identity 0.705 / 0.697 / 0.550 and style
    0.846 / 0.928 / 0.928 over lam in {0, 1, 10}, 3 seeds."""
    lambdas = [0.0, 1.0, 10.0]
    seeds = [0, 1, 2]
    # 300 samples; the {0, 1, 10} rows of the shared 5-lambda sweep equal a
    # sweep over lambdas (test_sweep_rows_depend_only_on_their_cell)
    rows = [r for r in acceptance_sweep_rows if r["lam"] in lambdas]
    assert len(rows) == len(lambdas) * len(seeds)
    assert all(r["status"] == "ok" for r in rows)
    ids = [np.mean([r["identity_score"] for r in rows if r["lam"] == l])
           for l in lambdas]
    sty = [np.mean([r["style_score"] for r in rows if r["lam"] == l])
           for l in lambdas]
    # ties within 0.02 count as maximal; the far ends must differ for real
    assert ids[0] >= max(ids) - 0.02
    assert ids[0] - ids[-1] >= 0.05
    assert sty[-1] >= max(sty) - 0.02
    assert sty[-1] - sty[0] >= 0.03
    lines = render_csv(rows, columns=SWEEP_COLUMNS).splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + len(rows)
