"""Encoder training: chained gradients, regularization trends, customization."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fusionsampler.conditions import ConditionSet
from fusionsampler.denoiser import ToyDenoiser, train_denoiser
from fusionsampler.encoder import (
    EncoderConditionedDenoiser,
    ToyPromptNet,
    TrainingConfig,
    default_anchor,
    finetune_customize,
    new_promptnet,
    promptnet_loss_and_grads,
    train_promptnet,
)
from fusionsampler.nets import MLP, fd_gradient
from fusionsampler.schedule import build_schedule
from fusionsampler.worlds import product_world

WORLD = product_world()
SCHED = build_schedule()
DEN = train_denoiser(WORLD, SCHED, 800, seed=0)


def _heldout_batch(seed, n=1000):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 9))))
    flat = WORLD.prior().reshape(-1)
    cells = rng.choice(flat.size, size=n, p=flat)
    x0 = WORLD.cell_means().reshape(-1, 2)[cells] + WORLD.s * rng.standard_normal((n, 2))
    t = rng.integers(1, SCHED.T + 1, size=n)
    eps = rng.standard_normal((n, 2))
    ab = SCHED.alpha_bar[t]
    x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps
    return x0, x_t, t, eps, np.eye(2)[cells % 2]


def _recon_and_norm(net):
    x0, x_t, t, eps, text = _heldout_batch(123)
    loss, _ = promptnet_loss_and_grads(net, DEN, x0, x_t, t, eps, text, 0.0)
    s = net.net.forward(net.inputs(x0, x_t, t))[0]
    return loss, float(np.mean(np.linalg.norm(s, axis=1)))


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
            saved = net.net.get_flat()
            net.net.set_flat(flat)
            val, _ = promptnet_loss_and_grads(net, den, xbar, x_t, t, eps, text, lam)
            net.net.set_flat(saved)
            return val

        numeric = fd_gradient(loss_of, net.net.get_flat())
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_steps_zero_returns_initialization():
    tc = TrainingConfig(steps=0, seed=7)
    net = train_promptnet(WORLD, DEN, tc)
    fresh = new_promptnet(DEN, seed=7)
    assert net.net.get_flat().tobytes() == fresh.net.get_flat().tobytes()


def test_training_is_deterministic_per_seed():
    tc = TrainingConfig(steps=40, seed=11)
    a = train_promptnet(WORLD, DEN, tc)
    b = train_promptnet(WORLD, DEN, tc)
    assert a.net.get_flat().tobytes() == b.net.get_flat().tobytes()
    c = train_promptnet(WORLD, DEN, TrainingConfig(steps=40, seed=12))
    assert c.net.get_flat().tobytes() != a.net.get_flat().tobytes()


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
    with pytest.raises(ValueError, match="steps"):
        TrainingConfig(steps=-1)
    with pytest.raises(ValueError, match="batch"):
        TrainingConfig(batch=0)
    with pytest.raises(ValueError, match="lr"):
        TrainingConfig(lr=0.0)
    tc = TrainingConfig(lam=0.5, steps=10, batch=16, augment=False, lr=1e-3, seed=9)
    assert TrainingConfig.from_jsonable(json.loads(json.dumps(tc.to_jsonable()))) == tc


def test_free_embedding_variant():
    x_ref = np.array([2.0, -2.0])
    with pytest.raises(ValueError, match="x_ref"):
        train_promptnet(WORLD, DEN, TrainingConfig(steps=5), free_embedding=True)
    # steps=0 keeps the starting point, which is the anchor
    anchor = default_anchor(WORLD, DEN, x_ref)
    net0 = train_promptnet(WORLD, DEN, TrainingConfig(steps=0, seed=2),
                           free_embedding=True, x_ref=x_ref)
    assert net0.constant.tobytes() == anchor.tobytes()
    # x_ref sits in identity 1's half-plane (means at x = +2)
    assert_allclose(anchor, [0.0, 1.0])
    net = train_promptnet(WORLD, DEN, TrainingConfig(steps=30, lam=0.5, seed=2),
                          free_embedding=True, x_ref=x_ref)
    out = net.encode(None, np.zeros((4, 2)), 10)
    assert out.shape == (4, 2)
    assert np.all(out == net.constant)
    with pytest.raises(ValueError, match="anchor"):
        train_promptnet(WORLD, DEN, TrainingConfig(steps=5), free_embedding=True,
                        x_ref=x_ref, anchor=np.zeros(5))


def test_promptnet_json_round_trip():
    net = train_promptnet(WORLD, DEN, TrainingConfig(steps=30, seed=6))
    back = ToyPromptNet.from_jsonable(json.loads(json.dumps(net.to_jsonable())))
    x_t = np.array([[0.5, -0.5]])
    assert back.encode(np.ones(2), x_t, 8).tobytes() == net.encode(np.ones(2), x_t, 8).tobytes()
    const = ToyPromptNet.from_jsonable(json.loads(json.dumps(
        train_promptnet(WORLD, DEN, TrainingConfig(steps=0), free_embedding=True,
                        x_ref=np.ones(2)).to_jsonable())))
    assert const.constant is not None


def test_finetune_touches_only_condition_rows_of_the_denoiser():
    net = train_promptnet(WORLD, DEN, TrainingConfig(steps=40, seed=1))
    before_e = net.net.get_flat().copy()
    before_d = DEN.net.get_flat().copy()
    net2, den2 = finetune_customize(net, DEN, np.array([2.0, -2.0]), steps=10, seed=5)
    # originals untouched
    assert net.net.get_flat().tobytes() == before_e.tobytes()
    assert DEN.net.get_flat().tobytes() == before_d.tobytes()
    # encoder moved, denoiser moved only inside the condition-interaction rows
    assert net2.net.get_flat().tobytes() != before_e.tobytes()
    changed = np.flatnonzero(den2.net.get_flat() != before_d)
    assert changed.size > 0
    h = DEN.net.sizes[1]
    allowed = set()
    for row in range(2, 2 + DEN.k_identity + DEN.k_text):
        allowed.update(range(row * h, (row + 1) * h))
    assert set(changed.tolist()) <= allowed


def test_finetune_validation():
    net = new_promptnet(DEN, seed=0)
    with pytest.raises(ValueError, match="steps"):
        finetune_customize(net, DEN, np.zeros(2), steps=0)
    const = train_promptnet(WORLD, DEN, TrainingConfig(steps=0), free_embedding=True,
                            x_ref=np.zeros(2))
    with pytest.raises(ValueError, match="constant"):
        finetune_customize(const, DEN, np.zeros(2), steps=5)


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
    # the wrapper adds nothing to the denoiser beyond encoding the reference
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
                want = DEN.predict_eps(
                    x_t, ConditionSet(identity=net.encode(ref, x_t, t), text=text,
                                      gamma=gamma), t)
                assert got.shape == np.shape(x_t)
                assert got.tobytes() == want.tobytes()


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


def _identity_adherence(world, net, den, x_ref, text, n, seed):
    from fusionsampler.evaluate import adherence_scores
    from fusionsampler.sampler import FusionConfig, sample_trajectory

    wrapper = EncoderConditionedDenoiser(net, den)
    cond = ConditionSet(identity=x_ref, text=text)
    rec = sample_trajectory(cond, FusionConfig(), wrapper, SCHED, n, seed=seed)
    return adherence_scores(rec.samples, world, 0, 1).identity_score


def test_finetune_improves_identity_adherence():
    """Paired before/after runs: the 50-step customization pass strictly
    raises identity adherence of reference-conditioned samples (same eval
    seed both sides). Pilot margins: +0.21 at seed 1, +0.11 at seed 2."""
    world = product_world(identity_spacing=1.5, style_offset=1.5, s=0.7)
    for seed in (1, 2):
        den = train_denoiser(world, SCHED, 4000, seed=seed)
        enc = train_promptnet(world, den,
                              TrainingConfig(lam=1.0, steps=600, seed=seed))
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed, 11))))
        x_ref = world.sample(1, rng, identity=0, style=0)[0]
        before = _identity_adherence(world, enc, den, x_ref, None, 500,
                                     seed + 100)
        net2, den2 = finetune_customize(enc, den, x_ref, seed=seed)
        after = _identity_adherence(world, net2, den2, x_ref, None, 500,
                                    seed + 100)
        assert after > before


def test_finetune_augmentation_helps_on_held_out_styles():
    """Augmented customization generalizes better: identity adherence under
    style prompts never seen in fine-tuning (which uses a null text channel)
    is at least the unaugmented run's, averaged over the two held-out styles
    and two eval seeds. Pilot margin: +0.07."""
    from fusionsampler.evaluate import adherence_scores
    from fusionsampler.sampler import FusionConfig, sample_trajectory

    world = product_world(n_styles=3, identity_spacing=1.5, style_offset=1.5,
                          s=0.7)
    seed = 0
    den = train_denoiser(world, SCHED, 4000, seed=seed)
    enc = train_promptnet(world, den,
                          TrainingConfig(lam=1.0, steps=600, seed=seed))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 11))))
    x_ref = world.sample(1, rng, identity=0, style=0)[0]

    def held_out_identity(net, d):
        wrapper = EncoderConditionedDenoiser(net, d)
        vals = []
        for c in (1, 2):
            text = np.zeros(3)
            text[c] = 1.0
            cond = ConditionSet(identity=x_ref, text=text)
            for es in (seed + 100, seed + 200):
                rec = sample_trajectory(cond, FusionConfig(), wrapper, SCHED,
                                        300, seed=es)
                vals.append(
                    adherence_scores(rec.samples, world, 0, c).identity_score)
        return float(np.mean(vals))

    net_a, den_a = finetune_customize(enc, den, x_ref, seed=seed)
    net_n, den_n = finetune_customize(enc, den, x_ref, augment=False, seed=seed)
    assert held_out_identity(net_a, den_a) >= held_out_identity(net_n, den_n)


def test_finetune_defaults_follow_the_protocol():
    import inspect

    sig = inspect.signature(finetune_customize)
    assert sig.parameters["steps"].default == 50
    assert sig.parameters["batch"].default == 8
    assert sig.parameters["augment"].default is True
