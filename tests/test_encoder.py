"""Encoder training: chained gradients, regularization trends, the wrapper."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import ToyDenoiser, diffuse, train_denoiser
from fusionsampler.encoder import (
    EncoderConditionedDenoiser,
    ToyPromptNet,
    TrainingConfig,
    heldout_metrics,
    new_promptnet,
    promptnet_loss_and_grads,
    train_promptnet,
)
from fusionsampler.nets import MLP, fd_gradient
from fusionsampler.runconfig import validate_config
from fusionsampler.schedule import build_schedule
from fusionsampler.worlds import product_world

WORLD = product_world()
SCHED = build_schedule()
DEN = train_denoiser(WORLD, SCHED, 800, seed=0)


def _recon_and_norm(net):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((123, 9))))
    x0, cells = WORLD.sample(1000, rng)
    return heldout_metrics(net, DEN, x0, cells % WORLD.n_styles, rng)


def test_encode_is_deterministic_and_zero_at_init():
    net = new_promptnet(DEN, seed=4)
    x_ref = np.array([2.0, -2.0])
    x_t = np.array([[0.1, 0.2], [1.0, -1.0]])
    a = net.encode(x_ref, x_t, 10)
    b = net.encode(x_ref, x_t, 10)
    assert a.tobytes() == b.tobytes()
    assert np.all(a == 0.0)
    single = net.encode(x_ref, x_t[0], 10)
    assert single.shape == (2,)


def test_chained_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for probe in range(20):
        den = ToyDenoiser(MLP((2 + 2 + 2 + 3, 8, 2), seed=probe), 2, 2, 2, SCHED)
        net = new_promptnet(den, hidden=(6,), seed=probe + 50, zero_head=False)
        n = 3
        xbar = rng.normal(size=(n, 2))
        x_t = rng.normal(size=(n, 2))
        t = rng.integers(1, SCHED.T + 1, size=n)
        eps = rng.normal(size=(n, 2))
        text = np.eye(2)[rng.integers(0, 2, size=n)]
        lam = float(rng.uniform(0.0, 2.0))
        _, analytic = promptnet_loss_and_grads(net, den, xbar, x_t, t, eps, text, lam)

        def loss_of(flat):
            saved = net.net.params.copy()
            net.net.params[:] = flat
            val, _ = promptnet_loss_and_grads(net, den, xbar, x_t, t, eps, text, lam)
            net.net.params[:] = saved
            return val

        numeric = fd_gradient(loss_of, net.net.params.copy())
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_steps_zero_returns_initialization():
    tc = TrainingConfig(steps=0, seed=7)
    net = train_promptnet(WORLD, DEN, tc)
    fresh = new_promptnet(DEN, seed=7)
    assert net.net.params.tobytes() == fresh.net.params.tobytes()


def test_training_is_deterministic_per_seed():
    tc = TrainingConfig(steps=40, seed=11)
    a = train_promptnet(WORLD, DEN, tc)
    b = train_promptnet(WORLD, DEN, tc)
    assert a.net.params.tobytes() == b.net.params.tobytes()
    c = train_promptnet(WORLD, DEN, TrainingConfig(steps=40, seed=12))
    assert c.net.params.tobytes() != a.net.params.tobytes()


def test_regularization_shrinks_norm_and_costs_reconstruction():
    r0, n0 = _recon_and_norm(train_promptnet(WORLD, DEN, TrainingConfig(lam=0.0, steps=200, seed=3)))
    r10, n10 = _recon_and_norm(train_promptnet(WORLD, DEN, TrainingConfig(lam=10.0, steps=200, seed=3)))
    _, nbig = _recon_and_norm(train_promptnet(WORLD, DEN, TrainingConfig(lam=1e4, steps=200, seed=3)))
    assert n10 < n0
    assert r0 < r10
    assert nbig < 1e-2


def test_training_config_validation_and_round_trip():
    with pytest.raises(ValueError, match="lam"):
        TrainingConfig(lam=-0.1)
    # True is an int to isinstance, but not a count
    for steps in (-1, True, False):
        with pytest.raises(ValueError, match="steps must be"):
            TrainingConfig(steps=steps)
    for batch in (0, True, False):
        with pytest.raises(ValueError, match="batch must be"):
            TrainingConfig(batch=batch)
    with pytest.raises(ValueError, match="lr"):
        TrainingConfig(lr=0.0)
    # a TrainingConfig's JSON form is the training section of the config
    # echo; the seed comes from the config's top-level seed
    tc = TrainingConfig(lam=0.5, steps=10, batch=16, augment=False, lr=1e-3, seed=9)
    cfg = validate_config({"seed": 9, "training": {"lam": 0.5, "steps": 10,
                                                   "batch": 16, "augment": False,
                                                   "lr": 1e-3}})
    assert cfg.training == tc
    assert validate_config(json.loads(json.dumps(cfg.payload))).training == tc


def test_promptnet_json_round_trip():
    net = train_promptnet(WORLD, DEN, TrainingConfig(steps=30, seed=6))
    back = ToyPromptNet.from_jsonable(json.loads(json.dumps(net.to_jsonable())))
    x_t = np.array([[0.5, -0.5]])
    assert back.encode(np.ones(2), x_t, 8).tobytes() == net.encode(np.ones(2), x_t, 8).tobytes()


def test_wrapper_gamma_zero_equals_null_identity():
    net = train_promptnet(WORLD, DEN, TrainingConfig(steps=40, seed=8))
    wrap = EncoderConditionedDenoiser(net, DEN)
    x = np.array([[0.3, 0.4], [-1.0, 2.0]])
    ref = np.array([2.0, -2.0])
    a = wrap.predict_eps(x, ConditionSet(identity=ref, gamma=0.0), 15)
    b = wrap.predict_eps(x, ConditionSet(), 15)
    assert a.tobytes() == b.tobytes()
    c = wrap.predict_eps(x, ConditionSet(identity=ref, gamma=1.0), 15)
    assert c.tobytes() != a.tobytes()


def test_wrapper_is_the_denoiser_fed_the_embedding():
    # the wrapper adds nothing to the denoiser beyond encoding the reference:
    # its eps is the denoiser net's output on the rows that encoder training
    # feeds it, [x_t | gamma * embedding | text | time features]
    tc = TrainingConfig(lam=0.1, steps=30, batch=16, seed=3)
    net = train_promptnet(WORLD, DEN, tc)
    wrap = EncoderConditionedDenoiser(net, DEN)
    ref = np.array([2.0, -2.0])
    text = np.array([0.0, 1.0])
    x = np.random.default_rng(1).standard_normal((6, 2))
    for gamma in (0.0, 0.4, 1.0):
        for t in (1, 37, SCHED.T):
            for x_t in (x, x[2]):
                got = wrap.predict_eps(
                    x_t, ConditionSet(identity=ref, text=text, gamma=gamma), t)
                x2 = np.atleast_2d(x_t)
                channels = np.concatenate(
                    [gamma * net.encode(ref, x2, t),
                     np.broadcast_to(text, (len(x2), text.size))], axis=1)
                want, _ = DEN.net.forward(DEN.inputs(x2, channels, t))
                assert got.shape == np.shape(x_t)
                assert got.tobytes() == want[0 if x_t.ndim == 1 else slice(None)].tobytes()


def test_wrapper_validation_and_shapes():
    net = new_promptnet(DEN, seed=0)
    wrap = EncoderConditionedDenoiser(net, DEN)
    assert wrap.d == 2
    with pytest.raises(ValueError, match="reference point"):
        wrap.predict_eps(np.zeros(2), ConditionSet(identity=np.zeros(5)), 3)
    with pytest.raises(ValueError, match="style channel"):
        wrap.predict_eps(np.zeros(2), ConditionSet(text=np.zeros(7)), 3)
    single = wrap.predict_eps(np.zeros(2), None, 3)
    batch = wrap.predict_eps(np.zeros((3, 2)), None, 3)
    assert single.shape == (2,) and batch.shape == (3, 2)
    assert_allclose(batch[0], single, rtol=1e-15)


def test_wrapper_refuses_an_encoder_of_another_T():
    # a T=40 encoder would read t as t/40 over a T=100 denoiser
    net = ToyPromptNet(new_promptnet(DEN, seed=0).net, 2, 2, 40)
    with pytest.raises(ValueError, match=r"encoder T=40 .* T=100"):
        EncoderConditionedDenoiser(net, DEN)


def test_heldout_metrics_equal_the_loss_at_lam_zero_and_the_encoder_norm():
    net = train_promptnet(WORLD, DEN, TrainingConfig(lam=0.3, steps=30, seed=5))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((123, 9))))
    x0, cells = WORLD.sample(1000, rng)
    styles = cells % WORLD.n_styles
    state = rng.bit_generator.state
    recon, norm = heldout_metrics(net, DEN, x0, styles, rng)
    # replay the diffusion draw, then run the two passes that the metrics
    # once made: the full loss and gradients, and a second encoder forward
    rng.bit_generator.state = state
    x_t, t, eps = diffuse(DEN.schedule, x0, rng)
    text = np.eye(DEN.k_text)[styles]
    want_recon, _ = promptnet_loss_and_grads(net, DEN, x0, x_t, t, eps, text, 0.0)
    want_norm = float(np.mean(np.linalg.norm(net.encode(x0, x_t, t), axis=1)))
    assert type(recon) is float and type(norm) is float
    assert recon.hex() == want_recon.hex()
    assert norm.hex() == want_norm.hex()


def test_predictions_survive_later_calls_on_the_same_nets():
    wrap = EncoderConditionedDenoiser(new_promptnet(DEN, seed=2, zero_head=False), DEN)
    cond = ConditionSet(identity=np.array([2.0, -2.0]), text=np.array([0.0, 1.0]))
    rng = np.random.default_rng(8)
    for predictor in (DEN, wrap):
        eps = predictor.predict_eps(rng.normal(size=(50, 2)), cond, 20)
        kept = eps.copy()
        for n in (50, 3, 80):
            predictor.predict_eps(rng.normal(size=(n, 2)), cond, 7)
        assert eps.tobytes() == kept.tobytes()
