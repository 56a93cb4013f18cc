"""Gradient and optimizer checks for the hand-rolled network layer."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fusionsampler.nets import MLP, Adam, TrainingDiverged, fd_gradient


def _loss_at(net, flat, x, target):
    saved = net.params.copy()
    net.params[:] = flat
    y, _ = net.forward(x)
    net.params[:] = saved
    return float(np.sum((y - target) ** 2))


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for probe in range(20):
        sizes = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(1, 4)))
        net = MLP(sizes, seed=probe)
        x = rng.normal(size=(4, sizes[0]))
        target = rng.normal(size=(4, sizes[-1]))
        y, acts = net.forward(x)
        analytic = net.backward(acts, 2.0 * (y - target))
        numeric = fd_gradient(lambda p: _loss_at(net, p, x, target), net.params.copy())
        denom = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = MLP((3, 6, 2), seed=1)
    x = rng.normal(size=(2, 3))
    target = rng.normal(size=(2, 2))
    y, acts = net.forward(x)
    grad_x = net.input_gradient(acts, 2.0 * (y - target))

    def loss_of_input(xf):
        yy, _ = net.forward(xf.reshape(2, 3))
        return float(np.sum((yy - target) ** 2))

    numeric = fd_gradient(loss_of_input, x.ravel()).reshape(2, 3)
    assert_allclose(grad_x, numeric, rtol=1e-5, atol=1e-7)


def test_zero_head_outputs_zero():
    net = MLP((4, 8, 3), seed=3, zero_head=True)
    y, _ = net.forward(np.ones((5, 4)))
    assert np.all(y == 0.0)


def _layer_order(pairs):
    """Concatenation W0, b0, W1, b1, ... of per-layer (W, b) pairs."""
    return np.concatenate([p.ravel() for pair in pairs for p in pair])


def test_flat_round_trip_and_json():
    net = MLP((3, 5, 2), seed=9)
    assert net.params.shape == (3 * 5 + 5 + 5 * 2 + 2,)
    back = MLP.from_jsonable(json.loads(json.dumps(net.to_jsonable())))
    assert back.params.tobytes() == net.params.tobytes()
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert back.forward(x)[0].tobytes() == net.forward(x)[0].tobytes()


def test_views_share_memory_with_params_in_json_order():
    net = MLP((3, 5, 4, 2), seed=2)
    for p in (*net.W, *net.b):
        assert np.shares_memory(p, net.params)
    assert _layer_order(zip(net.W, net.b)).tobytes() == net.params.tobytes()
    assert net.to_jsonable()["params"] == net.params.tolist()
    # a write through params is seen through every view, in that order
    net.params[:] = np.arange(net.params.size)
    assert _layer_order(zip(net.W, net.b)).tolist() == list(range(net.params.size))
    assert net.W[0][0, 1] == 1.0 and net.b[0][0] == 15.0 and net.W[1][0, 0] == 20.0


def test_copy_shares_no_memory_with_the_original():
    net = MLP((3, 5, 2), seed=4)
    dup = net.copy()
    assert dup.params.tobytes() == net.params.tobytes()
    for p in (dup.params, *dup.W, *dup.b):
        assert not np.shares_memory(p, net.params)
    for p in (*dup.W, *dup.b):
        assert np.shares_memory(p, dup.params)
    saved = net.params.copy()
    dup.params += 1.0
    assert net.params.tobytes() == saved.tobytes()


def test_from_jsonable_rejects_a_params_list_of_the_wrong_length():
    obj = MLP((3, 5, 2), seed=9).to_jsonable()
    for params in (obj["params"][:-1], obj["params"] + [0.0], []):
        with pytest.raises(ValueError, match="parameters"):
            MLP.from_jsonable({"sizes": obj["sizes"], "params": params})


def test_same_seed_same_init():
    a = MLP((4, 6, 2), seed=5)
    b = MLP((4, 6, 2), seed=5)
    assert a.params.tobytes() == b.params.tobytes()
    c = MLP((4, 6, 2), seed=6)
    assert c.params.tobytes() != a.params.tobytes()


def test_adam_minimizes_a_quadratic():
    target = np.array([1.5, -2.0, 0.25])
    p = np.zeros(3)
    opt = Adam(3, lr=0.05)
    for _ in range(400):
        opt.step(p, 2.0 * (p - target))
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
        grad = net.backward(acts, g)
        assert grad.tobytes() == _layer_order(ref_grads).tobytes()
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
    g = rng.normal(size=(20, 2))
    grad, gx = net.backward(acts, g), net.input_gradient(acts, g)
    kept = [y.copy(), gx.copy(), grad.copy()]
    for n in (20, 5, 40):
        _, later = net.forward(rng.normal(size=(n, 3)))
        net.backward(later, rng.normal(size=(n, 2)))
        net.input_gradient(later, rng.normal(size=(n, 2)))
    assert y.tobytes() == kept[0].tobytes()
    assert gx.tobytes() == kept[1].tobytes()
    assert grad.tobytes() == kept[2].tobytes()


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
        held = p
        assert opt.step(p, g) is None
        assert p is held
        assert p.tobytes() == want.tobytes()
