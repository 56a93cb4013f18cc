"""Gaussian-mixture data world and its exact noise-prediction oracle.

The world has identity components i with means mu_i and shared isotropic
variance s^2, and styles c acting as affine maps (A_c, b_c) on the means:
data for cell (i, c) is Normal(A_c mu_i + b_c, s^2 I). Forward noising at
signal level alpha_bar diffuses cell (i, c) to
Normal(sqrt(alpha_bar) m_ic, (alpha_bar s^2 + 1 - alpha_bar) I), so scores,
densities and responsibilities all have closed forms. alpha_bar = 1 is the
clean data: its cell posterior is what the adherence scores read.

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

An oracle evaluation has three parts, all in _eps_rows. The x-half,
_diffused_stats, checks x's width, copies it to (d, n) and builds the (K, n)
log-likelihoods; it depends on x and t only. The condition half,
_cell_logits, takes the flat cell log-weights of C conditions stacked as
(K, C), adds them to the likelihoods as (K, C, n) and takes the log-sum
over cells; the eps tail gives (C, d, n). The stack keeps cells leading,
and every step is elementwise or a sum over cells in index order, so each
condition's slice has the bits of that condition evaluated alone (C = 1, as
oracle_eps does).

MixtureOracle, like every predictor, judges no values of x; oracle_eps,
oracle_log_density and oracle_responsibilities refuse a non-finite x.

A guided sampler pass asks for 2 or 3 conditions at the same (x, t). The
sampler first announces them (MixtureOracle.announce_pass), then makes one
predict_eps call per condition. MixtureOracle keeps:

- one pass entry: the key of the last announced (t, x), made of t and the
  bits of x (its shape and bytes), and a dict from each announced condition
  to its eps, all computed as one stacked evaluation. A predict_eps call at
  that key takes its condition's eps out of the dict; any other call is a
  fresh evaluation and leaves the entry alone. The dict is keyed by the
  condition objects, which compare and hash by identity, so it holds them
  and no id can be reused. An announcement replaces the entry, and only once
  x has passed its width check. The eps arrays are handed out, not shared, so a
  caller that changes one in place cannot reach a later call, and a caller
  that changes x in place changes the key. The key compares bits, not
  values: == takes -0.0 for 0.0, and the sign of a zero can reach eps
  through xT - sqrt(alpha_bar) * post_mean;
- the stacked flat cell log-weights of each condition tuple seen, keyed by
  the tuple itself. This is safe because a ConditionSet is frozen and its
  arrays are read-only; sample_trajectory builds each pass's tuple once and
  announces it at every step, so a trajectory announces at most 2 tuples,
  and the cache is cleared above 8.

Every result is bit-identical to a fresh oracle_eps call at alpha_bar_t.
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
               identity: int | None = None,
               style: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """n clean draws from the prior, optionally pinned to one identity
        and/or style: (x0, cells), cells the flat (identity * n_styles +
        style) indices. Draws the cells, then the noise.

        The cells are the draw of rng.choice(n_cells, size=n, p=prior), made
        the way Generator.choice makes it, without re-validating the prior.
        A pin zeroes the prior outside it."""
        pi = self.prior()
        for axis, name, pin in ((0, "identity", identity), (1, "style", style)):
            if pin is None:
                continue
            size = pi.shape[axis]
            if not (isinstance(pin, (int, np.integer)) and 0 <= pin < size):
                raise ValueError(f"{name} pin must lie in 0..{size - 1}, got {pin!r}")
            np.moveaxis(pi, axis, 0)[np.arange(size) != pin] = 0.0
        cdf = pi.reshape(-1).cumsum()
        if not cdf[-1] > 0.0:
            raise ValueError("requested identity/style pair has zero prior mass")
        cdf /= cdf[-1]
        cells = cdf.searchsorted(rng.random(n), side="right")
        x0 = self._flat_means[cells] + self.s * rng.standard_normal((n, self.d))
        return x0, cells


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    m = m if np.isfinite(m) else 0.0
    return np.log(np.exp(a - m).sum()) + m


def _slot_grid(world: MixtureWorld, values: np.ndarray, slot: str) -> np.ndarray:
    """A slot's log-weights shaped to broadcast against the (n_i, n_c) grid."""
    n_i, n_c = world.n_identities, world.n_styles
    if values.shape == (n_i, n_c):
        return values
    if slot == "identity" and values.shape == (n_i,):
        return values[:, None]
    if slot == "text" and values.shape == (n_c,):
        return values[None, :]
    own = n_i if slot == "identity" else n_c
    raise ValueError(f"{slot} log-weights must have shape ({own},) or"
                     f" ({n_i}, {n_c}), got {values.shape}")


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
        raise ValueError("prior and condition select an empty subset of mixture cells")
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
    """The x-half of the oracle, for a float array x: check its width; return
    (squeeze, v, xT, loglik) with x transposed to (d, n) and the per-cell
    log-likelihoods of the diffused cells as (K, n); no condition enters.
    alpha_bar_t = 1 is the clean data: v = s^2, and eps comes out 0."""
    if not 0.0 < alpha_bar_t <= 1.0:
        raise ValueError(f"alpha_bar_t must lie in (0, 1], got {alpha_bar_t!r}")
    squeeze = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.ndim != 2 or x2.shape[1] != world.d:
        raise ValueError(f"x must have trailing dimension {world.d}, got shape {x.shape}")
    v = alpha_bar_t * world.s**2 + 1.0 - alpha_bar_t
    xT = x2.T.copy()  # contiguous (d, n), so every later op runs along n
    diff = xT[None, :, :] - np.sqrt(alpha_bar_t) * world._flat_means[:, :, None]
    sq = diff[:, 0] * diff[:, 0]
    for j in range(1, world.d):
        sq += diff[:, j] * diff[:, j]
    loglik = -0.5 * sq / v - 0.5 * world.d * np.log(2.0 * np.pi * v)
    return squeeze, v, xT, loglik


def _cell_logits(logw: np.ndarray, loglik: np.ndarray):
    """The condition half, for C conditions at once: from their flat cell
    log-weights stacked as (K, C), the cell logits log w_k + log N_k(x) as
    (K, C, n) and their log-sum over cells as (C, n)."""
    logits = logw[:, :, None] + loglik[:, None, :]
    top = logits.max(axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    shifted = np.subtract(logits, top)
    lse = np.log(_cell_sum(np.exp(shifted, out=shifted)))
    lse += top
    return logits, lse


def _entry(world: MixtureWorld, x, cond: ConditionSet | None):
    """A direct call's x, refused unless finite, and cond's (K, 1) log-weights."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x, cell_log_weights(world, cond).reshape(-1, 1)


def _cell_posterior(world: MixtureWorld, x, cond: ConditionSet | None,
                    alpha_bar_t: float):
    """Both halves for one call: (squeeze, logits (K, n), lse (n,))."""
    x, logw = _entry(world, x, cond)
    squeeze, _, _, loglik = _diffused_stats(world, x, alpha_bar_t)
    logits, lse = _cell_logits(logw, loglik)
    return squeeze, logits[:, 0], lse[0]


def _eps_rows(world: MixtureWorld, logw: np.ndarray, x,
              alpha_bar_t: float) -> np.ndarray:
    """eps of C conditions at x, from their flat cell log-weights stacked as
    (K, C): the x-half, the condition half and the eps tail, in one new
    array in the caller's layout, (C, d) for a single point, else (C, n, d),
    each condition's slice C-contiguous."""
    squeeze, v, xT, loglik = _diffused_stats(world, x, alpha_bar_t)
    r, lse = _cell_logits(logw, loglik)
    np.exp(np.subtract(r, lse, out=r), out=r)
    # in-order cell sum instead of a matmul: BLAS picks kernels by batch
    # shape, which would make a row's bits depend on the batch size
    post_mean = _cell_sum(r[:, :, None, :] * world._flat_means[:, None, :, None])
    post_mean *= np.sqrt(alpha_bar_t)
    eps = np.subtract(xT, post_mean, out=post_mean)
    eps *= np.sqrt(1.0 - alpha_bar_t)
    eps /= v
    rows = eps.transpose(0, 2, 1).copy()
    return rows[:, 0] if squeeze else rows


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
    x, logw = _entry(world, x, cond)
    return _eps_rows(world, logw, x, alpha_bar_t)[0]


def _input_key(t, x: np.ndarray):
    """Key of one oracle input: equal keys mean the same t and the same bits
    of x. Not ==, which takes -0.0 for 0.0."""
    return t, x.shape, x.tobytes()


class MixtureOracle:
    """NoisePredictor realization backed by the closed-form mixture score,
    with the pass entry and the log-weight cache of the module docstring."""

    # a trajectory announces 2 tuples at most
    _MAX_CONDITION_SETS = 8

    def __init__(self, world: MixtureWorld, schedule: DiffusionSchedule):
        self.world = world
        self.schedule = schedule
        # the pass entry: _input_key of the last announced (t, x), and
        # {condition: eps} of its conditions not yet taken
        self._pass_key = None
        self._pass_eps: dict = {}
        # condition tuple -> its (K, C) stacked log-weights
        self._log_weights: dict[tuple, np.ndarray] = {}

    @property
    def d(self) -> int:
        return self.world.d

    def _evaluate(self, conds: tuple, x: np.ndarray, alpha_bar_t: float):
        logw = self._log_weights.get(conds)
        if logw is None:
            if len(self._log_weights) >= self._MAX_CONDITION_SETS:
                self._log_weights.clear()
            logw = self._log_weights[conds] = np.stack(
                [cell_log_weights(self.world, c).reshape(-1) for c in conds], axis=1)
        return _eps_rows(self.world, logw, x, alpha_bar_t)

    def announce_pass(self, x_t, conds, t: int) -> None:
        """Evaluate the conditions of one guided pass at (x_t, t) as one
        stacked evaluation, and keep each one's eps until a predict_eps call
        at the same (x_t, t) takes it. Replaces the previous entry."""
        alpha_bar_t, _ = self.schedule.alpha_bars(t)
        conds = tuple(conds)
        x = np.asarray(x_t, dtype=float)
        rows = self._evaluate(conds, x, alpha_bar_t)
        self._pass_key, self._pass_eps = _input_key(t, x), dict(zip(conds, rows))

    def predict_eps(self, x_t, cond: ConditionSet | None, t: int) -> np.ndarray:
        x = np.asarray(x_t, dtype=float)
        if cond in self._pass_eps and _input_key(t, x) == self._pass_key:
            return self._pass_eps.pop(cond)
        alpha_bar_t, _ = self.schedule.alpha_bars(t)
        return self._evaluate((cond,), x, alpha_bar_t)[0]
