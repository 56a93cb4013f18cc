"""Dense tanh networks with hand-rolled reverse-mode gradients and Adam.

Training code in this package never touches an autodiff framework. Each
network owns one flat float64 parameter vector, params; its per-layer
weights W[l] and biases b[l] are views into it, laid out W0, b0, W1, b1, ...
as to_jsonable writes them. backward returns the parameter gradient as one
flat vector in the same layout, and Adam updates params in place, so
gradient checks stay honest and results are bit-reproducible per seed.

Each MLP keeps per-net scratch buffers that only grow: forward writes its
padded input and hidden activations there, and backward its delta chain and
tanh-derivative temporaries, so repeated passes at one batch size allocate
no n x h array. The cache that forward returns holds views of that scratch
and is valid until the same net's next forward. The output y that forward
returns, and every gradient, is a fresh array that no later call touches.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MLP",
    "Adam",
    "TrainingDiverged",
    "fd_gradient",
]


class TrainingDiverged(RuntimeError):
    """Loss stopped being finite; .step records where."""

    def __init__(self, step: int, loss):
        super().__init__(f"training diverged at step {step}: loss={loss!r}")
        self.step = step


# forward() pads its rows with zeros up to a multiple of this many rows.
# OpenBLAS dgemm computes the rows of an M-tail with other kernels than full
# tiles of its M-unroll, and numpy hands a single row to gemv, so unpadded,
# the bits of a row depend on the batch size. 16 rows are assumed to cover
# the dgemm M-unroll of every CPU this runs on (4 on Haswell, 16 on
# SkylakeX); verify's learned_batch_prefix_invariance check fails on a box
# where they do not.
_ROW_TILE = 16


class MLP:
    """Fully-connected net: tanh hidden layers, linear output head.

    sizes = (d_in, h1, ..., d_out). Layer l maps activations a to
    tanh(a @ W[l] + b[l]) except the last layer, which stays linear.
    zero_head=True zeroes the head so the initial output is exactly 0.
    """

    # scratch buffers and the rows they hold; each instance grows its own
    _fwd = ()
    _fwd_rows = 0
    _bwd = ()
    _bwd_rows = 0

    def __init__(self, sizes, seed: int = 0, zero_head: bool = False):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"sizes must list >= 2 positive widths, got {sizes!r}")
        self.sizes = sizes
        self.params = np.zeros(sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:])))
        self.W, self.b = self._views(self.params)
        rng = np.random.default_rng(seed)
        for w in self.W:
            fan_in, fan_out = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        if zero_head:
            self.W[-1][:] = 0.0

    def _views(self, flat: np.ndarray) -> tuple[list, list]:
        """Per-layer weight and bias views of a params-sized vector, laid
        out W0, b0, W1, b1, ..."""
        W, b, pos = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            W.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            b.append(flat[pos:pos + fan_out])
            pos += fan_out
        return W, b

    @property
    def d_in(self) -> int:
        return self.sizes[0]

    @property
    def d_out(self) -> int:
        return self.sizes[-1]

    def forward(self, x):
        """Returns (y, cache) for a (n, d_in) batch; cache feeds backward().

        The rows run padded with zeros to a multiple of _ROW_TILE (16, taken
        to cover the dgemm M-unroll), so a row's bits do not depend on n. y
        is fresh; the cache holds views of this net's scratch and is valid
        until its next forward.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ValueError(f"input must be (n, {self.d_in}), got shape {x.shape}")
        n = x.shape[0]
        rows = -(-n // _ROW_TILE) * _ROW_TILE
        if rows > self._fwd_rows:
            self._fwd = [np.empty((rows, w)) for w in self.sizes]
            self._fwd_rows = rows
        a = self._fwd[0][:rows]
        a[:n] = x
        a[n:] = 0.0
        acts = [a[:n]]
        last = len(self.W) - 1
        for l, (w, b) in enumerate(zip(self.W, self.b)):
            z = np.matmul(a, w, out=self._fwd[l + 1][:rows])
            z += b
            if l < last:
                np.tanh(z, out=z)
            a = z
            acts.append(a[:n])
        acts[-1] = acts[-1].copy()
        return acts[-1], acts

    def backward(self, acts, grad_out) -> np.ndarray:
        """Gradient of a summed loss wrt params, as one fresh flat vector
        laid out like params. grad_out is dL/dy with y = acts[-1]."""
        grad = np.empty_like(self.params)
        self._backprop(acts, grad_out, self._views(grad))
        return grad

    def input_gradient(self, acts, grad_out) -> np.ndarray:
        """dL/dx alone, for a frozen net: backward without the parameter
        gradients."""
        return self._backprop(acts, grad_out, None)

    def _backprop(self, acts, grad_out, grads):
        """The delta chain from the head down to the input. With grads, the
        (dW, db) view lists of backward's flat gradient, writes the parameter
        gradients there and skips dL/dx; without, returns dL/dx."""
        delta = np.asarray(grad_out, dtype=float)
        n = delta.shape[0]
        if n > self._bwd_rows:
            self._bwd = [(np.empty((n, w)), np.empty((n, w)))
                         for w in self.sizes[1:-1]]
            self._bwd_rows = n
        for l in range(len(self.W) - 1, -1, -1):
            if grads is not None:
                dW, db = grads
                np.matmul(acts[l].T, delta, out=dW[l])
                np.sum(delta, axis=0, out=db[l])
            if l == 0:
                return delta @ self.W[0].T if grads is None else None
            nxt, deriv = (buf[:n] for buf in self._bwd[l - 1])
            np.matmul(delta, self.W[l].T, out=nxt)
            # tanh' = 1 - tanh^2, and acts[l] already stores the tanh
            np.multiply(acts[l], acts[l], out=deriv)
            np.subtract(1.0, deriv, out=deriv)
            delta = np.multiply(nxt, deriv, out=nxt)

    def copy(self) -> "MLP":
        dup = MLP.__new__(MLP)
        dup.sizes = self.sizes
        dup.params = self.params.copy()
        dup.W, dup.b = dup._views(dup.params)
        return dup

    def to_jsonable(self) -> dict:
        return {"sizes": list(self.sizes), "params": self.params.tolist()}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "MLP":
        net = cls(obj["sizes"])
        params = np.asarray(obj["params"], dtype=float)
        if params.shape != net.params.shape:
            raise ValueError(
                f"expected {net.params.size} parameters, got shape {params.shape}"
            )
        net.params[:] = params
        return net


# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class Adam:
    """Adam on a flat parameter vector, bias-corrected."""

    def __init__(self, n: int, lr: float = 1e-3):
        if not (np.isfinite(lr) and lr > 0.0):
            raise ValueError(f"lr must be positive, got {lr!r}")
        self.lr = float(lr)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._tmp = np.empty((2, n))
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Updates params in place, and the moment vectors with them."""
        self.t += 1
        scaled, denom = self._tmp
        self.m *= _BETA1
        self.m += np.multiply(1.0 - _BETA1, grad, out=scaled)
        self.v *= _BETA2
        np.multiply(1.0 - _BETA2, grad, out=scaled)
        scaled *= grad
        self.v += scaled
        np.divide(self.v, 1.0 - _BETA2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += _EPS
        np.divide(self.m, 1.0 - _BETA1 ** self.t, out=scaled)
        scaled *= self.lr
        scaled /= denom
        params -= scaled


def fd_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one probe per entry."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        g[i] = (f(x + step.reshape(x.shape)) - f(x - step.reshape(x.shape))) / (2.0 * h)
    return g.reshape(x.shape)
