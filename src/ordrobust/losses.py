"""Per-unit divergence losses, weighted objectives, prior, and gradients.

Four posterior kernels share one interface.  Writing f_i for the
probability of the observed category of unit i and s for a weight
vector on the simplex:

    loglik           -n * sum_i s_i log f_i                  - log p(theta)
    dp               -n * sum_i s_i r_DP(y_i|x_i)            - log p(theta)
    gamma_synthetic  -(n/g) log{ g * sum_i s_i r_g(y_i|x_i) }- log p(theta)
    gamma_general    -n * sum_i s_i r_g(y_i|x_i)             - log p(theta)

with the per-unit losses

    r_DP = (1/a) f^a - (1/(1+a)) sum_m P_m^{1+a}
    r_g  = (1/g) (f / ||f||_{g+1})^g,   ||f||_{g+1} = (sum_m P_m^{1+g})^{1/(1+g)}

Both robust losses tend to the log-density as the tuning constant
goes to 0, and stay bounded as f -> 0 (r_DP -> -1/(1+a), r_g -> 0),
which is what makes the resulting posteriors ignore gross outliers.
Every form is normalized so that equal weights 1/n reproduce the
unweighted negative log posterior kernel exactly: the additive kinds
carry an explicit factor n, and the synthetic kind absorbs it as the
(g/n) inside its log.  The Dirichlet weights used for posterior
sampling live on the simplex (mean 1/n), so the data term scales
like n and the prior washes out at the usual Bayesian rate.

Gradients are computed analytically in the unconstrained coordinates
(beta, delta_1, log gaps).  The prior is a product of independent
normals on those same coordinates, so every objective is smooth and
unconstrained.

Every kind's per-unit loss has a derivative of one form,
d r_i = (a_i / f_i) d f_i - b_i sum_m P_m^t d P_m, with a = 1, b = 0
(loglik), a = f^t, b = 1 (dp) and a = t r_i, b = t r_i / S_i (both
gamma kinds), S = sum_m P_m^{1+t}.  Each loss term is a function of
T = sum_i s_i r_i, so one backward pass serves every kind.

One objective pass evaluates the link once per table element.  The
robust kinds raise the category-major table P to t once and read f^t
and S from it.  loglik needs only f and the two bounding densities of
each unit's category, so it evaluates the link at those two cutpoints
alone, with the same bits as the full table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import Link
from .model import (
    ContractError,
    Dataset,
    Theta,
    _cutpoints,
    _observed_cells,
    _probs_from_args,
    category_probs,
    theta_to_unconstrained,
)

__all__ = [
    "LOSS_KINDS",
    "LossSpec",
    "Prior",
    "DegenerateObjectiveError",
    "unit_dp_loss",
    "unit_gamma_loss",
    "log_prior",
    "weighted_objective",
    "weighted_objective_gradient",
    "ObjectiveCore",
]

LOSS_KINDS = ("loglik", "dp", "gamma_synthetic", "gamma_general")

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class DegenerateObjectiveError(ArithmeticError):
    """Every category probability vanished; the objective is undefined."""


@dataclass(frozen=True)
class LossSpec:
    """Which posterior kernel to use and its tuning constant.

    tuning is alpha for dp and gamma for the two gamma kinds; it is
    ignored for loglik.  learning_rate multiplies the loss term only,
    never the prior, and stays at 1 unless deliberately overridden.
    """

    kind: str
    tuning: float = 0.0
    learning_rate: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ContractError(
                f"unknown loss kind {self.kind!r}; valid kinds: "
                + ", ".join(LOSS_KINDS)
            )
        if self.kind != "loglik" and not _finite_positive(self.tuning):
            raise ContractError(
                f"loss kind {self.kind!r} needs a finite tuning > 0, "
                f"got {self.tuning}"
            )
        if not _finite_positive(self.learning_rate):
            raise ContractError(
                "learning_rate must be finite and positive, got "
                f"{self.learning_rate}"
            )


@dataclass(frozen=True)
class Prior:
    """Independent normal prior on the unconstrained coordinates."""

    sd_beta: float = 10.0
    sd_cut: float = 10.0

    def __post_init__(self):
        if not (_finite_positive(self.sd_beta) and _finite_positive(self.sd_cut)):
            raise ContractError(
                "prior standard deviations must be finite and positive, got "
                f"sd_beta={self.sd_beta}, sd_cut={self.sd_cut}"
            )


def _finite_positive(x) -> bool:
    """True for a finite x > 0; False for 0, negatives, nan and +-inf."""
    return bool(0.0 < x < np.inf)


def unit_dp_loss(theta: Theta, x, y: int, alpha: float, link: Link) -> float:
    """Density-power loss of one unit; in [-1/(1+alpha), 1/alpha]."""
    if not alpha > 0:
        raise ContractError("alpha must be positive")
    return _one_unit_loss(LossSpec(kind="dp", tuning=alpha), theta, x, y, link)


def unit_gamma_loss(theta: Theta, x, y: int, gamma: float, link: Link) -> float:
    """Gamma-divergence loss of one unit; in [0, 1/gamma]."""
    if not gamma > 0:
        raise ContractError("gamma must be positive")
    return _one_unit_loss(
        LossSpec(kind="gamma_general", tuning=gamma), theta, x, y, link
    )


def _one_unit_loss(spec: LossSpec, theta: Theta, x, y: int, link: Link) -> float:
    """r of one unit with covariates x and observed category y."""
    P = category_probs(theta, x, link)[:, None]
    if not 1 <= y <= P.size:
        raise ContractError(f"category {y} outside 1..{P.size}")
    obs = np.array([y - 1])
    return float(_unit_losses(spec, _cells(P, obs), P, obs)[0][0])


def _observed_index(data: Dataset) -> np.ndarray:
    """Index c_i * n + i of each unit's observed category c_i (0-based).

    It indexes a flattened (M, n) table, so one index serves every
    table shape: _cells applies it to each row of a (B, M, n) block as
    to a lone (M, n) table.
    """
    return (data.y - 1) * data.n + np.arange(data.n)


def _cells(T: np.ndarray, index: np.ndarray) -> np.ndarray:
    """T[..., index] with the last two axes (M, n) of T flattened."""
    return T.reshape(T.shape[:-2] + (-1,)).take(index, axis=-1)


def _unit_losses(spec: LossSpec, f: np.ndarray, P, obs):
    """Per-unit r of every kind with its derivative coefficients a and b.

    P is a category-major table (M, n), or a block (B, M, n) of them,
    obs the _observed_index of the units, the same for either shape,
    and f = _cells(P, obs).  Returns (r, a, b, Pt), Pt = P^t, with
    d r_i = (a_i / f_i) d f_i - b_i sum_m Pt_m d P_m.  loglik reads f
    alone (P and obs may be None) and returns Pt None.  The robust
    kinds raise the table to t once: f^t = _cells(Pt, obs) and
    S = sum_m P_m^{1+t} = sum_m Pt_m P_m.
    """
    if spec.kind == "loglik":
        return np.log(f), 1.0, 0.0, None
    t = spec.tuning
    Pt = P ** t
    S = (Pt * P).sum(axis=-2)
    ft = _cells(Pt, obs)
    if spec.kind == "dp":
        return ft / t - S / (1.0 + t), ft, 1.0, Pt
    r = ft * S ** (-t / (1.0 + t)) / t
    tr = t * r
    return r, tr, tr / S, Pt


def _loo_log_ratios(spec: LossSpec, P: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Leave-one-out log kernel ratio of every unit of the table P (M, n).

    obs is the _observed_index of the units.  -r_i for
    the additive kinds.  For gamma_synthetic it is the difference of
    the two non-additive kernels, (n/g)(log(T - r_i) - log T) with
    T = sum_i r_i, which is non-finite where removing the unit leaves
    no positive loss sum.
    """
    r = _unit_losses(spec, _cells(P, obs), P, obs)[0]
    if spec.kind != "gamma_synthetic":
        return -r
    n, t = r.size, spec.tuning
    total = r.sum()
    return (n / t) * (np.log(total - r) - np.log(total))


def log_prior(theta: Theta, prior: Prior) -> float:
    """Log prior density of theta, placed on its unconstrained coordinates."""
    u = theta_to_unconstrained(theta)
    const, precision = _prior_constants(prior, theta.beta.size, theta.delta.size)
    val, _ = _log_prior_parts(u[None], const, precision)
    return float(val[0])


def _prior_constants(prior: Prior, n_beta: int, n_cut: int):
    """(constant, precision) of the normal prior on n_beta + n_cut coordinates.

    The log density is -0.5 sum_j precision_j u_j^2 - constant, with
    precision 1/sd^2 and constant sum_j (log sd_j + log sqrt(2 pi)).
    """
    const = (n_beta * (np.log(prior.sd_beta) + _LOG_SQRT_2PI)
             + n_cut * (np.log(prior.sd_cut) + _LOG_SQRT_2PI))
    precision = np.concatenate([np.full(n_beta, 1.0 / prior.sd_beta**2),
                                np.full(n_cut, 1.0 / prior.sd_cut**2)])
    return float(const), precision


def _log_prior_parts(U: np.ndarray, const: float, precision: np.ndarray):
    """Log prior (B,) and its gradient (B, d) at the rows of U (B, d)."""
    grad = -U * precision
    return 0.5 * _rowdot(U, grad) - const, grad


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[r, i] b[r, i] of every row r.

    einsum without optimize sums each row on its own, so a row's bits
    do not depend on the rows beside it; a BLAS product across the
    row axis does not promise that.
    """
    return np.einsum("ri,ri->r", a, b)


def _check_weights(weights: np.ndarray, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ContractError(f"weights must have shape ({n},), got {w.shape}")
    if np.any(w < 0):
        raise ContractError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ContractError(f"weights must sum to 1, got {w.sum()!r}")
    return w


class ObjectiveCore:
    """Reusable workspace evaluating one weighted objective on one dataset.

    Holds the design matrix, index plumbing and prior constants so that
    repeated calls inside an optimizer allocate only the per-call
    temporaries.  block_value_and_grad is the one forward and backward
    pass: it evaluates B independent rows, parameter vector U[b] under
    weights W[b], and is what wlb.minimize_block calls per round.
    value_and_grad is its one-row case and value the first element of
    that.  The kinds differ in the forward table (two cutpoints for
    loglik, every cutpoint otherwise), in _unit_losses' r, a and b,
    and in _loss_term's dL/dT; the backward path is shared.  No
    product runs across the row axis (einsum, elementwise operations
    and reductions along a fixed axis only), so a row's bits do not
    depend on which rows share its block.  The gather indices are
    built once, in __init__, and serve every block size; a call
    changes no state.
    """

    def __init__(self, spec: LossSpec, data: Dataset, prior: Prior, link: Link):
        self.spec = spec
        self.data = data
        self.prior = prior
        self.link = link
        self.n = data.n
        self.p = data.p
        self.M = data.n_categories
        self.n_params = self.p + self.M - 1
        self._c = c = data.y - 1
        self._XT = np.ascontiguousarray(data.X.T)
        self._prior_const, self._precision = _prior_constants(
            prior, self.p, self.M - 1)
        # Each row's density table (K, n), flattened with one 0 put in
        # front: c_i * n + i + 1 is unit i's upper cutpoint density and
        # n less its lower one; index 0 stands in for the unbounded end
        # of the first and last category.
        self._obs = _observed_index(data)
        self._hi = np.where(c < self.M - 1, self._obs + 1, 0)
        self._lo = np.where(c > 0, self._obs + 1 - self.n, 0)

    def _loss_term(self, r: np.ndarray, W: np.ndarray):
        """Loss term L (B,) and dL/dT, a scalar or a (B, 1) column.

        L is learning_rate times -n T, or -(n/g) log(g T) for
        gamma_synthetic, with T = sum_i W_i r_i.
        """
        T = _rowdot(W, r)
        lr = self.spec.learning_rate
        if self.spec.kind == "gamma_synthetic":
            g = self.spec.tuning
            if not (np.isfinite(T) & (T > 0.0)).all():
                raise DegenerateObjectiveError(
                    "weighted gamma loss sum is not positive; all category "
                    "probabilities vanished"
                )
            return (lr * (-(self.n / g) * np.log(g * T)),
                    (-lr * self.n / (g * T))[:, None])
        return lr * (-self.n * T), -self.n * lr

    def value(self, u, weights) -> float:
        return self.value_and_grad(u, weights)[0]

    def value_and_grad(self, u, weights):
        """(value, gradient) at u under weights: one row of the block pass."""
        w = _check_weights(weights, self.n)
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_params,):
            raise ContractError(
                f"parameter vector must have shape ({self.n_params},), "
                f"got {u.shape}"
            )
        values, grads = self.block_value_and_grad(u[None], w[None])
        return float(values[0]), grads[0]

    def block_value_and_grad(self, U, W):
        """Values (B,) and gradients (B, d) of the rows (U[b], W[b]).

        U is (B, d) and W (B, n); weights are not validated.  Tables
        carry the row axis first, P[b, m, i].
        """
        U = np.asarray(U, dtype=float)
        W = np.asarray(W, dtype=float)
        B = U.shape[0]
        if U.shape != (B, self.n_params) or W.shape != (B, self.n):
            raise ContractError(
                f"a block needs U of shape (B, {self.n_params}) and weights "
                f"of shape (B, {self.n}), got {U.shape} and {W.shape}"
            )
        gaps, delta = _cutpoints(U, self.p)
        eta = np.einsum("ji,rj->ri", self._XT, U[:, :self.p])
        K = self.M - 1
        if self.spec.kind == "loglik":
            # log f needs only the two cutpoints of each unit's category.
            f, ghi, glo = _observed_cells(delta, eta, self._c, self.link)
            P = gA = None
        else:
            P, gA = _probs_from_args(delta[:, :, None] - eta[:, None, :],
                                     self.link)
            f = _cells(P, self._obs)
            gpad = np.concatenate([np.zeros((B, 1)), gA.reshape(B, -1)],
                                  axis=1)
            ghi = gpad.take(self._hi, axis=-1)
            glo = gpad.take(self._lo, axis=-1)
        r, a, b, Pt = _unit_losses(self.spec, f, P, self._obs)
        loss, dL = self._loss_term(r, W)
        lp, lp_grad = _log_prior_parts(U, self._prior_const, self._precision)
        value = loss - lp

        # The gradient of the loss term is sum_i W_i dL d r_i.  d f_i /
        # d eta_i = glo - ghi; d f_i / d delta_j is +ghi at j = c_i and
        # -glo at j = c_i - 1, accumulated by _scatter_f.  For loglik
        # dL * a is a scalar, so ca costs no multiply by a = 1.
        ca = W * (dL * a) / f
        ceta = ca * (glo - ghi)
        gdelta = self._scatter_f(ca, ghi, glo)
        if Pt is not None:
            # b is not 0.  V[k] = g(A_k) (Pt_k - Pt_{k+1}) gives both
            # sum_m Pt_m dP_m/d delta_k = V[k] and
            # sum_m Pt_m dP_m/d eta = -(sum over k of V[k]).
            V = gA * (Pt[:, :K] - Pt[:, 1:])
            cb = W * (dL * b)
            ceta += cb * V.sum(axis=1)
            gdelta -= _vdot(V, cb)

        grad = np.empty((B, self.n_params))
        grad[:, :self.p] = self._xt(ceta)
        # Chain through delta_1 = u[p], delta_{k+1} = delta_k + exp(u[p+k]):
        # each gap coordinate collects the gradient of every later cutpoint.
        tail = np.cumsum(gdelta[:, ::-1], axis=1)[:, ::-1]
        grad[:, self.p] = tail[:, 0]
        if K > 1:
            grad[:, self.p + 1:] = gaps * tail[:, 1:]
        grad -= lp_grad
        return value, grad

    def _xt(self, C: np.ndarray) -> np.ndarray:
        """C @ X row by row: (B, n) unit coefficients to (B, p)."""
        return np.einsum("ri,ji->rj", C, self._XT)

    def _scatter_f(self, coef, ghi, glo):
        """sum_i coef_i * d f_i / d delta of every row, accumulated over units."""
        B, M = coef.shape[0], self.M
        # Unit i of row b falls in the (row, category) bin b * M + c_i.
        bins = (np.arange(B)[:, None] * M + self._c).ravel()
        up = np.bincount(bins, weights=(coef * ghi).ravel(), minlength=B * M)
        down = np.bincount(bins, weights=(coef * glo).ravel(), minlength=B * M)
        return up.reshape(B, M)[:, :-1] - down.reshape(B, M)[:, 1:]


def _vdot(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_i V[r, k, i] C[r, i] as a (B, K) array, row by row."""
    return np.einsum("rki,ri->rk", V, C)


def weighted_objective(
    spec: LossSpec, u, data: Dataset, weights, prior: Prior, link: Link
) -> float:
    """Value of the Dirichlet-weighted objective at unconstrained u."""
    return ObjectiveCore(spec, data, prior, link).value(u, weights)


def weighted_objective_gradient(
    spec: LossSpec, u, data: Dataset, weights, prior: Prior, link: Link
) -> np.ndarray:
    """Analytic gradient of weighted_objective in unconstrained coordinates."""
    core = ObjectiveCore(spec, data, prior, link)
    return core.value_and_grad(u, weights)[1]
