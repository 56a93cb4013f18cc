"""Gaussian-mixture data world and its exact noise-prediction oracle.

The world has identity components i with means mu_i and shared isotropic
variance s^2, and styles c acting as affine maps (A_c, b_c) on the means:
data for cell (i, c) is Normal(A_c mu_i + b_c, s^2 I). Forward noising at
signal level alpha_bar diffuses cell (i, c) to
Normal(sqrt(alpha_bar) m_ic, (alpha_bar s^2 + 1 - alpha_bar) I), so scores,
densities and responsibilities all have closed forms.

The oracle works cell-major: for a batch of n points and K = n_i * n_c
cells, x is copied once to (d, n), the per-cell log-likelihoods are (K, n)
and every reduction over cells or dims is a Python loop over the short axis
whose body is a vector op across n. numpy's reductions over a short inner
axis cost several times the arithmetic at these sizes.

Every sum over cells goes through _cell_sum, which adds them in index order.
np.add.reduce(a, axis=0) is not used: for a lone row numpy makes the cell
axis its inner loop and sums 8 or more cells pairwise, so a row's bits would
depend on the batch size. The squared dims are likewise added in index
order. Below 8 cells and below 8 dims that is also the order numpy used in
the earlier row-major formulas, so the results are bit-identical to them;
with 8 or more cells or dims the last bits can differ from those formulas,
but never with the batch size.

The oracle front has two halves. The x-half, _diffused_stats, validates x,
copies it to (d, n) and builds the (K, n) log-likelihoods; it depends on x
and t only. The condition half, _cell_logits, adds the flat cell
log-weights of one condition and takes the log-sum over cells. A guided
sampler step asks for 2 or 3 conditions at the same (x, t), so
MixtureOracle.predict_eps keeps two caches in front of the shared eps tail:

- a one-entry memo of the last call's x-half, keyed by t and the bits of x
  (its shape and bytes). It is stored only after x has passed validation,
  and its (d, n) array is a copy, so a caller that changes its array in
  place cannot be served a stale entry. The key compares bits, not values:
  == takes -0.0 for 0.0, and the sign of a zero can reach eps through
  xT - sqrt(alpha_bar) * post_mean;
- the flat cell log-weights of each condition object seen, keyed by object
  identity and holding the object, so that its id cannot be reused. This is
  safe because a ConditionSet is frozen and its arrays are read-only;
  ConditionSet returns the same derived objects on repeated calls, so a
  trajectory uses at most 5 of them, and the cache is cleared above 8.

Every result is bit-identical to a fresh oracle_predict_eps call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fusionsampler.conditions import ConditionSet
from fusionsampler.schedule import DiffusionSchedule

__all__ = [
    "MixtureWorld",
    "MixtureOracle",
    "oracle_eps",
    "oracle_log_density",
    "oracle_responsibilities",
    "oracle_predict_eps",
]


@dataclass(frozen=True, eq=False)
class MixtureWorld:
    """means: (n_i, d); s: isotropic std; style_A: (n_c, d, d);
    style_b: (n_c, d); log_prior: (n_i, n_c), normalized at construction.

    Equality and hashing are by identity (eq=False), as for ConditionSet;
    compare the arrays for value equality.
    """

    means: np.ndarray
    s: float
    style_A: np.ndarray
    style_b: np.ndarray
    log_prior: np.ndarray
    # cell means flattened to (n_i * n_c, d), computed once at construction
    _flat_means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.ndim != 2 or means.shape[0] < 1:
            raise ValueError(f"means must be (n_i, d), got shape {means.shape}")
        n_i, d = means.shape
        A = np.asarray(self.style_A, dtype=float)
        b = np.asarray(self.style_b, dtype=float)
        if A.ndim != 3 or A.shape[1:] != (d, d):
            raise ValueError(f"style_A must be (n_c, {d}, {d}), got {A.shape}")
        n_c = A.shape[0]
        if b.shape != (n_c, d):
            raise ValueError(f"style_b must be ({n_c}, {d}), got {b.shape}")
        lp = np.asarray(self.log_prior, dtype=float)
        if lp.shape != (n_i, n_c):
            raise ValueError(f"log_prior must be ({n_i}, {n_c}), got {lp.shape}")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(A))
                and np.all(np.isfinite(b))):
            raise ValueError("world parameters must be finite")
        if np.any(np.isnan(lp)) or np.any(lp == np.inf):
            raise ValueError("log_prior may contain -inf but not nan or +inf")
        if not (lp > -np.inf).any():
            raise ValueError(
                "log_prior must leave at least one cell with finite log-weight")
        if not (np.isfinite(self.s) and self.s > 0.0):
            raise ValueError(f"s must be a positive std, got {self.s!r}")
        lp = lp - _logsumexp(lp.reshape(-1))
        flat = (np.einsum("cde,ie->icd", A, means) + b[None, :, :]).reshape(-1, d)
        for arr in (means, A, b, lp, flat):
            arr.setflags(write=False)
        object.__setattr__(self, "_flat_means", flat)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "style_A", A)
        object.__setattr__(self, "style_b", b)
        object.__setattr__(self, "log_prior", lp)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def n_identities(self) -> int:
        return self.means.shape[0]

    @property
    def n_styles(self) -> int:
        return self.style_A.shape[0]

    def cell_means(self) -> np.ndarray:
        """Means of all (i, c) cells, shape (n_i, n_c, d), read-only."""
        return self._flat_means.reshape(self.n_identities, self.n_styles, self.d)

    def prior(self) -> np.ndarray:
        return np.exp(self.log_prior)

    def data_mean(self) -> np.ndarray:
        pi = self.prior()
        return np.einsum("ic,icd->d", pi, self.cell_means())

    def data_cov(self) -> np.ndarray:
        pi = self.prior()
        m = self.cell_means()
        mean = np.einsum("ic,icd->d", pi, m)
        second = np.einsum("ic,icd,ice->de", pi, m, m)
        return self.s**2 * np.eye(self.d) + second - np.outer(mean, mean)

    def sample(self, n: int, rng: np.random.Generator,
               identity: int | None = None, style: int | None = None) -> np.ndarray:
        """Draw n data points, optionally pinned to one identity and/or style."""
        pi = self.prior()
        if identity is not None:
            mask = np.zeros_like(pi)
            mask[identity, :] = pi[identity, :]
            pi = mask
        if style is not None:
            mask = np.zeros_like(pi)
            mask[:, style] = pi[:, style]
            pi = mask
        total = pi.sum()
        if total <= 0.0:
            raise ValueError("requested identity/style pair has zero prior mass")
        flat = (pi / total).reshape(-1)
        cells = rng.choice(flat.size, size=n, p=flat)
        m = self.cell_means().reshape(-1, self.d)
        return m[cells] + self.s * rng.standard_normal((n, self.d))


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return out if axis is None else np.squeeze(out, axis=axis)


def _slot_grid(world: MixtureWorld, values: np.ndarray, slot: str) -> np.ndarray:
    """A slot's log-weights shaped to broadcast against the (n_i, n_c) grid."""
    n_i, n_c = world.n_identities, world.n_styles
    if values.shape == (n_i, n_c):
        return values
    if slot == "identity" and values.shape == (n_i,):
        return values[:, None]
    if slot == "text" and values.shape == (n_c,):
        return values[None, :]
    raise ValueError(
        f"{slot} log-weights must have shape ({n_i},)"
        f" / ({n_c},) / ({n_i}, {n_c}) as appropriate, got {values.shape}"
    )


def cell_log_weights(world: MixtureWorld, cond: ConditionSet | None) -> np.ndarray:
    """Normalized log-weights over the (i, c) grid: prior plus condition terms.

    gamma scales the identity slot's log-weights; gamma=0 contributes nothing
    (exactly the prior), so excluded cells (-inf) are never multiplied by 0.
    """
    w = world.log_prior
    if cond is not None:
        if cond.identity is not None and cond.gamma != 0.0:
            w = w + cond.gamma * _slot_grid(world, cond.identity, "identity")
        if cond.text is not None:
            w = w + _slot_grid(world, cond.text, "text")
    if not (w > -np.inf).any():
        raise ValueError("condition selects an empty subset of mixture cells")
    return w - _logsumexp(w.reshape(-1))


def _cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the leading (cell) axis, adding the cells in index order.

    Not np.add.reduce(a, axis=0): when the trailing axes hold one element,
    numpy makes the cell axis its inner loop and sums 8 or more cells
    pairwise, so a row's bits would depend on the batch size. Starting from
    +0.0 matches numpy's own in-order reduction, signed zeros included.
    """
    acc = a[0] + 0.0
    for k in range(1, a.shape[0]):
        acc += a[k]
    return acc


def _diffused_stats(world: MixtureWorld, x, alpha_bar_t: float):
    """The x-half of the oracle: validate x; return (squeeze, v, xT, loglik)
    with x transposed to (d, n) and the per-cell log-likelihoods of the
    diffused cells as (K, n). Nothing here depends on the condition."""
    if not 0.0 < alpha_bar_t < 1.0:
        raise ValueError(f"alpha_bar_t must lie in (0, 1), got {alpha_bar_t!r}")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.ndim != 2 or x2.shape[1] != world.d:
        raise ValueError(f"x must have trailing dimension {world.d}, got shape {x.shape}")
    if not np.all(np.isfinite(x2)):
        raise ValueError("x must be finite")
    v = alpha_bar_t * world.s**2 + 1.0 - alpha_bar_t
    xT = x2.T.copy()  # a copy even for one row: the memo must not alias x
    diff = xT[None, :, :] - np.sqrt(alpha_bar_t) * world._flat_means[:, :, None]
    sq = diff[:, 0] * diff[:, 0]
    for j in range(1, world.d):
        sq += diff[:, j] * diff[:, j]
    loglik = -0.5 * sq / v - 0.5 * world.d * np.log(2.0 * np.pi * v)
    return squeeze, v, xT, loglik


def _cell_logits(logw: np.ndarray, loglik: np.ndarray):
    """The condition half: cell logits log w_k + log N_k(x) as (K, n) from the
    flat cell log-weights (K,), and their log-sum over cells as (n,)."""
    logits = logw[:, None] + loglik
    top = logits.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    lse = np.log(_cell_sum(np.exp(logits - top))) + top
    return logits, lse


def _cell_posterior(world: MixtureWorld, x, cond: ConditionSet | None,
                    alpha_bar_t: float):
    """Both halves for one call: (squeeze, logits, lse)."""
    logw = cell_log_weights(world, cond).reshape(-1)
    squeeze, _, _, loglik = _diffused_stats(world, x, alpha_bar_t)
    return (squeeze, *_cell_logits(logw, loglik))


def _eps(world: MixtureWorld, logw: np.ndarray, stats, alpha_bar_t: float) -> np.ndarray:
    """eps from the flat cell log-weights and the x-half's stats."""
    squeeze, v, xT, loglik = stats
    logits, lse = _cell_logits(logw, loglik)
    r = np.exp(logits - lse)
    # in-order cell sum instead of a matmul: BLAS picks kernels by batch
    # shape, which would make a row's bits depend on the batch size
    post_mean = _cell_sum(r[:, None, :] * world._flat_means[:, :, None])
    eps = np.sqrt(1.0 - alpha_bar_t) * (xT - np.sqrt(alpha_bar_t) * post_mean) / v
    return eps[:, 0] if squeeze else np.ascontiguousarray(eps.T)


def oracle_log_density(world: MixtureWorld, x, cond: ConditionSet | None,
                       alpha_bar_t: float):
    """log p_t(x | cond), the diffused mixture density under condition weights."""
    squeeze, _, lse = _cell_posterior(world, x, cond, alpha_bar_t)
    return float(lse[0]) if squeeze else lse


def oracle_responsibilities(world: MixtureWorld, x, cond: ConditionSet | None,
                            alpha_bar_t: float) -> np.ndarray:
    """Posterior cell probabilities r_ic(x) at noise level alpha_bar_t,
    shape (n_i, n_c) for a single x or (n, n_i, n_c) for a batch."""
    squeeze, logits, lse = _cell_posterior(world, x, cond, alpha_bar_t)
    r = np.exp(logits - lse).T.reshape(-1, world.n_identities, world.n_styles)
    return r[0] if squeeze else r


def oracle_eps(world: MixtureWorld, x, cond: ConditionSet | None,
               alpha_bar_t: float) -> np.ndarray:
    """Exact eps = -sqrt(1 - alpha_bar) * grad log p_t(x | cond)."""
    logw = cell_log_weights(world, cond).reshape(-1)
    return _eps(world, logw, _diffused_stats(world, x, alpha_bar_t), alpha_bar_t)


def _alpha_bar_at(schedule: DiffusionSchedule, t: int) -> float:
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t must lie in 1..{schedule.T}, got {t!r}")
    return float(schedule.alpha_bar[t])


def oracle_predict_eps(world: MixtureWorld, x_t, cond: ConditionSet | None, t: int,
                       schedule: DiffusionSchedule) -> np.ndarray:
    """Timestep-indexed oracle prediction (the NoisePredictor entry point)."""
    return oracle_eps(world, x_t, cond, _alpha_bar_at(schedule, t))


def _input_key(t, x: np.ndarray):
    """Memo key of one oracle input: equal keys mean the same t and the same
    bits of x. Not ==, which takes -0.0 for 0.0."""
    return t, x.shape, x.tobytes()


class MixtureOracle:
    """NoisePredictor realization backed by the closed-form mixture score.

    Shares work across the calls of one guided step: the x-half of the last
    call is reused while (t, x) repeats bit for bit, and each condition's
    flat cell log-weights are computed once (see the module docstring).
    """

    # a trajectory uses at most 5 condition objects
    _MAX_CONDITIONS = 8

    def __init__(self, world: MixtureWorld, schedule: DiffusionSchedule):
        self.world = world
        self.schedule = schedule
        self._last_key = None
        self._last_stats = None
        # id(cond) -> (cond, flat log-weights); holding cond keeps its id
        # from being reused while the entry lives
        self._log_weights: dict[int, tuple] = {}

    @property
    def d(self) -> int:
        return self.world.d

    def _flat_log_weights(self, cond: ConditionSet | None) -> np.ndarray:
        hit = self._log_weights.get(id(cond))
        if hit is not None:
            return hit[1]
        logw = cell_log_weights(self.world, cond).reshape(-1)
        if len(self._log_weights) >= self._MAX_CONDITIONS:
            self._log_weights.clear()
        self._log_weights[id(cond)] = (cond, logw)
        return logw

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray:
        alpha_bar_t = _alpha_bar_at(self.schedule, t)
        logw = self._flat_log_weights(cond)
        x = np.asarray(x_t, dtype=float)
        key = _input_key(t, x)
        if key != self._last_key:
            # validates x; a key is kept only once its input has passed
            self._last_stats = _diffused_stats(self.world, x, alpha_bar_t)
            self._last_key = key
        return _eps(self.world, logw, self._last_stats, alpha_bar_t)
