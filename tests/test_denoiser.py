"""Trained denoiser: determinism, serialization, and the Bayes-error bound."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import (
    ToyDenoiser,
    sample_training_batch,
    time_features,
    train_denoiser,
)
from fusionsampler.mixture import oracle_eps
from fusionsampler.nets import MLP, TrainingDiverged
from fusionsampler.schedule import build_schedule
from fusionsampler.worlds import (
    identity_condition,
    product_world,
    single_gaussian_world,
    style_condition,
)

WORLD = product_world()
SCHED = build_schedule()


def test_steps_must_be_positive():
    with pytest.raises(ValueError, match="steps"):
        train_denoiser(WORLD, SCHED, 0, seed=0)
    with pytest.raises(ValueError, match="steps"):
        train_denoiser(WORLD, SCHED, -3, seed=0)


def test_same_seed_is_bit_identical():
    a = train_denoiser(WORLD, SCHED, 40, seed=5)
    b = train_denoiser(WORLD, SCHED, 40, seed=5)
    assert a.net.params.tobytes() == b.net.params.tobytes()
    c = train_denoiser(WORLD, SCHED, 40, seed=6)
    assert c.net.params.tobytes() != a.net.params.tobytes()


def test_gamma_zero_equals_null_identity_exactly():
    den = train_denoiser(WORLD, SCHED, 30, seed=1)
    x = np.array([[0.4, -1.2], [2.0, 0.3]])
    scaled = ConditionSet(identity=np.array([1.0, 0.0]), gamma=0.0)
    nulled = ConditionSet()
    a = den.predict_eps(x, scaled, 10)
    b = den.predict_eps(x, nulled, 10)
    assert a.tobytes() == b.tobytes()


def test_gamma_scales_the_identity_channel():
    den = train_denoiser(WORLD, SCHED, 30, seed=1)
    half = ConditionSet(identity=np.array([1.0, 0.0]), gamma=0.5)
    full = ConditionSet(identity=np.array([0.5, 0.0]), gamma=1.0)
    x = np.array([0.4, -1.2])
    assert den.predict_eps(x, half, 7).tobytes() == den.predict_eps(x, full, 7).tobytes()


def test_channel_shape_validation():
    den = train_denoiser(WORLD, SCHED, 10, seed=0)
    with pytest.raises(ValueError, match="identity channel"):
        den.predict_eps(np.zeros(2), ConditionSet(identity=np.zeros(5)), 3)
    with pytest.raises(ValueError, match="style channel"):
        den.predict_eps(np.zeros(2), ConditionSet(text=np.zeros(5)), 3)
    with pytest.raises(ValueError, match="t must lie"):
        den.predict_eps(np.zeros(2), None, 0)


def test_json_round_trip_predicts_identically():
    den = train_denoiser(WORLD, SCHED, 50, seed=2)
    back = ToyDenoiser.from_jsonable(json.loads(json.dumps(den.to_jsonable())))
    x = np.array([[0.1, 0.2], [-1.0, 1.5]])
    cond = ConditionSet(identity=np.array([0.0, 1.0]), text=np.array([1.0, 0.0]))
    assert back.predict_eps(x, cond, 33).tobytes() == den.predict_eps(x, cond, 33).tobytes()


def test_batch_and_single_row_agree():
    den = train_denoiser(WORLD, SCHED, 30, seed=3)
    x = np.array([[0.1, 0.2], [-1.0, 1.5], [0.0, 0.0]])
    cond = ConditionSet(text=np.array([0.0, 1.0]))
    batch = den.predict_eps(x, cond, 12)
    for k in range(3):
        assert_allclose(batch[k], den.predict_eps(x[k], cond, 12), rtol=1e-12)


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_reports_step_index():
    # pure linear head on absurdly scaled data overflows the loss immediately
    big = single_gaussian_world(mean=(1e200, 1e200))
    with pytest.raises(TrainingDiverged, match="step 1"):
        train_denoiser(big, SCHED, 5, seed=0, hidden=())


def test_heldout_mse_within_1p2x_of_bayes():
    den = train_denoiser(WORLD, SCHED, 4000, seed=0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0, 99))))
    n = 2500
    x_t, channels, t, eps, cells, visible = sample_training_batch(WORLD, SCHED, rng, n)
    y, _ = den.net.forward(den.inputs(x_t, channels, t))
    mse = float(np.mean(np.sum((y - eps) ** 2, axis=1)))

    # Bayes floor on the same draws: exact posterior mean of eps given the
    # visible slots, via the closed-form oracle with hard selection
    n_c = WORLD.n_styles
    bayes = 0.0
    for k in range(n):
        i, c = cells[k] // n_c, cells[k] % n_c
        cond = ConditionSet(
            identity=identity_condition(WORLD, i, np.inf) if visible[k, 0] else None,
            text=style_condition(WORLD, c, np.inf) if visible[k, 1] else None,
        )
        e = oracle_eps(WORLD, x_t[k], cond, float(SCHED.alpha_bar[t[k]]))
        bayes += float(np.sum((e - eps[k]) ** 2))
    bayes /= n
    assert mse < 1.2 * bayes, f"held-out mse {mse:.4f} vs bayes {bayes:.4f}"


def _per_call_time_features(t, T):
    tau = np.asarray(t, dtype=float) / float(T)
    return np.stack([tau, np.sin(np.pi * tau), np.cos(np.pi * tau)], axis=-1)


@pytest.mark.parametrize("T", [1, 16, 20, 100, 1000])
def test_time_feature_table_equals_the_per_call_formula(T):
    for t in range(T + 1):
        assert time_features(t, T).tobytes() == _per_call_time_features(t, T).tobytes()
        assert time_features(np.int64(t), T).tobytes() == \
            _per_call_time_features(t, T).tobytes()
    rng = np.random.default_rng(T)
    for shape in [(T + 1,), (257,), (3, 4), ()]:
        t = rng.integers(0, T + 1, size=shape)
        got = time_features(t, T)
        assert got.shape == (*shape, 3)
        assert got.tobytes() == _per_call_time_features(t, T).tobytes()


def test_time_features_reject_steps_outside_the_table():
    for bad in (-1, 101, np.array([-1, 3]), np.array([0.5])):
        with pytest.raises((ValueError, IndexError)):
            time_features(bad, 100)
    feats = time_features(5, 100)
    feats[0] = 9.0  # a fresh row: writing to it leaves the table alone
    assert time_features(5, 100)[0] == 0.05
