"""Gradient and optimizer checks for the hand-rolled network layer."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fusionsampler.nets import MLP, Adam, TrainingDiverged, fd_gradient, flatten_grads


def _loss_at(net, flat, x, target):
    saved = net.get_flat()
    net.set_flat(flat)
    y, _ = net.forward(x)
    net.set_flat(saved)
    return float(np.sum((y - target) ** 2))


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for probe in range(20):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(1, 4)))
        net = MLP(sizes, seed=probe)
        x = rng.normal(size=(4, sizes[0]))
        target = rng.normal(size=(4, sizes[-1]))
        y, acts = net.forward(x)
        grads, _ = net.backward(acts, 2.0 * (y - target))
        analytic = flatten_grads(grads)
        numeric = fd_gradient(lambda p: _loss_at(net, p, x, target), net.get_flat())
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = MLP((3, 6, 2), seed=1)
    x = rng.normal(size=(2, 3))
    target = rng.normal(size=(2, 2))
    y, acts = net.forward(x)
    _, grad_x = net.backward(acts, 2.0 * (y - target))

    def loss_of_input(xf):
        yy, _ = net.forward(xf.reshape(2, 3))
        return float(np.sum((yy - target) ** 2))

    numeric = fd_gradient(loss_of_input, x.ravel()).reshape(2, 3)
    assert_allclose(grad_x, numeric, rtol=1e-5, atol=1e-7)


def test_zero_head_outputs_zero():
    net = MLP((4, 8, 3), seed=3, zero_head=True)
    y, _ = net.forward(np.ones((5, 4)))
    assert np.all(y == 0.0)


def test_flat_round_trip_and_json():
    net = MLP((3, 5, 2), seed=9)
    flat = net.get_flat()
    assert flat.shape == (net.n_params,)
    other = MLP((3, 5, 2), seed=100)
    other.set_flat(flat)
    assert other.get_flat().tobytes() == flat.tobytes()
    back = MLP.from_jsonable(json.loads(json.dumps(net.to_jsonable())))
    assert back.get_flat().tobytes() == flat.tobytes()
    with pytest.raises(ValueError, match="parameters"):
        net.set_flat(np.zeros(3))


def test_same_seed_same_init():
    a = MLP((4, 6, 2), seed=5)
    b = MLP((4, 6, 2), seed=5)
    assert a.get_flat().tobytes() == b.get_flat().tobytes()
    c = MLP((4, 6, 2), seed=6)
    assert c.get_flat().tobytes() != a.get_flat().tobytes()


def test_adam_minimizes_a_quadratic():
    target = np.array([1.5, -2.0, 0.25])
    p = np.zeros(3)
    opt = Adam(3, lr=0.05)
    for _ in range(400):
        p = opt.step(p, 2.0 * (p - target))
    assert_allclose(p, target, atol=1e-3)


def test_diverged_carries_step_index():
    err = TrainingDiverged(17, float("nan"))
    assert err.step == 17
    assert "step 17" in str(err)


def test_bad_construction_rejected():
    with pytest.raises(ValueError, match="sizes"):
        MLP((3,))
    with pytest.raises(ValueError, match="lr"):
        Adam(4, lr=0.0)
    with pytest.raises(ValueError, match="input"):
        MLP((3, 4, 2)).forward(np.zeros((2, 5)))


def _allocating_forward(net, x, tile=16):
    """Forward as written before the scratch buffers, on rows zero-padded to
    the row tile as MLP.forward pads them: returns the unpadded acts."""
    n = x.shape[0]
    a = np.zeros((-(-n // tile) * tile, net.d_in))
    a[:n] = x
    acts = [a]
    last = len(net.W) - 1
    for l, (w, b) in enumerate(zip(net.W, net.b)):
        z = a @ w + b
        a = z if l == last else np.tanh(z)
        acts.append(a)
    return [act[:n] for act in acts]


def _allocating_backward(net, acts, grad_out):
    """Backward as written before the scratch buffers."""
    delta = grad_out
    grads = [None] * len(net.W)
    for l in range(len(net.W) - 1, -1, -1):
        grads[l] = (acts[l].T @ delta, delta.sum(axis=0))
        delta = delta @ net.W[l].T
        if l > 0:
            delta = delta * (1.0 - acts[l] ** 2)
    return grads, delta


@settings(max_examples=30, deadline=None)
@given(hidden=st.lists(st.integers(1, 40), min_size=0, max_size=3),
       rows=st.lists(st.integers(1, 70), min_size=2, max_size=6),
       seed=st.integers(0, 2**16))
def test_scratch_passes_match_the_allocating_formulas(hidden, rows, seed):
    # rows rise and fall across calls on one net, so a pass that read a
    # stale or too-short buffer would show up here
    rng = np.random.default_rng(seed)
    net = MLP((3, *hidden, 2), seed=seed)
    for n in rows:
        x = rng.normal(size=(n, 3))
        g = rng.normal(size=(n, 2))
        ref_acts = _allocating_forward(net, x)
        ref_grads, ref_gx = _allocating_backward(net, ref_acts, g)
        y, acts = net.forward(x)
        assert y.tobytes() == ref_acts[-1].tobytes()
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in ref_acts]
        grads, gx = net.backward(acts, g)
        assert flatten_grads(grads).tobytes() == flatten_grads(ref_grads).tobytes()
        assert gx.tobytes() == ref_gx.tobytes()
        assert net.input_gradient(acts, g).tobytes() == ref_gx.tobytes()


def test_repeated_passes_allocate_less_than_one_hidden_layer():
    n, h = 500, 64
    net = MLP((9, h, h, 2), seed=0)
    x = np.random.default_rng(0).normal(size=(n, 9))
    g = np.random.default_rng(1).normal(size=(n, 2))

    def forward_only():
        net.forward(x)

    def forward_backward():
        _, acts = net.forward(x)
        net.backward(acts, g)

    for step in (forward_only, forward_backward):
        step()  # sizes the scratch
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * h * 8, f"{step.__name__} peaked at {peak} bytes"


def test_outputs_survive_later_calls_on_the_same_net():
    rng = np.random.default_rng(3)
    net = MLP((3, 8, 8, 2), seed=2)
    y, acts = net.forward(rng.normal(size=(20, 3)))
    grads, gx = net.backward(acts, rng.normal(size=(20, 2)))
    kept = [y.copy(), gx.copy(), flatten_grads(grads)]
    for n in (20, 5, 40):
        _, later = net.forward(rng.normal(size=(n, 3)))
        net.backward(later, rng.normal(size=(n, 2)))
    assert y.tobytes() == kept[0].tobytes()
    assert gx.tobytes() == kept[1].tobytes()
    assert flatten_grads(grads).tobytes() == kept[2].tobytes()


def test_copies_keep_their_own_scratch():
    rng = np.random.default_rng(4)
    net = MLP((3, 6, 2), seed=1)
    x = rng.normal(size=(7, 3))
    _, acts = net.forward(x)
    dup = net.copy()
    dup.forward(rng.normal(size=(7, 3)))
    assert acts[1].tobytes() == _allocating_forward(net, x)[1].tobytes()


def test_adam_matches_the_allocating_update():
    rng = np.random.default_rng(5)
    opt = Adam(6, lr=0.01)
    m, v = np.zeros(6), np.zeros(6)
    p = rng.normal(size=6)
    for t in range(1, 30):
        g = rng.normal(size=6)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        want = p - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        got = opt.step(p, g)
        assert got.tobytes() == want.tobytes()
        assert got is not p
        p = got
