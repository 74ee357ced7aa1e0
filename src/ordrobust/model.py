"""Parameterization and probability core of the cumulative-link ordinal model.

The observed category y in {1..M} arises from a latent variable
z = x @ beta + eps with noise eps ~ G: y = m exactly when
delta_{m-1} < z <= delta_m, where the cutpoints satisfy
-inf = delta_0 < delta_1 < ... < delta_M = +inf.  Only the M-1
interior cutpoints are stored.  The model carries no intercept and
the latent scale is fixed at 1; both are absorbed into the cutpoints,
which is the standard identification.

Category probabilities are differences of the noise cdf,

    P(y = m | x) = G(delta_m - x @ beta) - G(delta_{m-1} - x @ beta),

evaluated through the survival function whenever both arguments sit
in the right tail, so the difference never cancels catastrophically.
One call of the link's fused cdf_sf_pdf gives the table and the
densities its gradient needs.  Where only the observed category
matters (the log-likelihood, the generalized residuals), the same
table code runs on that category's two cutpoints alone.

Optimizers never see the ordering constraint: they work in
unconstrained coordinates u = (beta, delta_1, log gaps), where
delta_{k+1} = delta_k + exp(log gap k).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .links import Link

__all__ = [
    "ContractError",
    "Theta",
    "Dataset",
    "PROB_FLOOR",
    "theta_to_unconstrained",
    "unconstrained_to_theta",
    "category_probs",
    "generalized_residuals",
]

# Probabilities are clamped to [PROB_FLOOR, 1] before any log or
# ratio.  The floor keeps f**(a-1) finite for a in (0, 1] and makes
# the outlier limits of the robust losses exact in floating point.
PROB_FLOOR = 1e-300


class ContractError(ValueError):
    """An argument violates a structural precondition (shape, ordering)."""


@dataclass(frozen=True)
class Theta:
    """Model parameters: coefficients and strictly increasing cutpoints."""

    beta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)
        if beta.ndim != 1 or delta.ndim != 1:
            raise ContractError("beta and delta must be one-dimensional")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(delta))):
            raise ContractError("theta entries must be finite")
        if delta.size < 1:
            raise ContractError("need at least one interior cutpoint (M >= 2)")
        if delta.size > 1 and not np.all(np.diff(delta) > 0):
            raise ContractError(
                f"cutpoints must be strictly increasing, got {delta.tolist()}"
            )

    @property
    def n_categories(self) -> int:
        return self.delta.size + 1

    def as_vector(self) -> np.ndarray:
        """Natural coordinates (beta, delta) stacked into one vector."""
        return np.concatenate([self.beta, self.delta])


@dataclass(frozen=True)
class Dataset:
    """Ordinal responses with covariates.

    y holds labels in {1..M}; X is n x p with no constant column (an
    intercept is not identified because the cutpoints absorb it).
    """

    y: np.ndarray
    X: np.ndarray
    n_categories: int
    column_names: tuple = ()

    def __post_init__(self):
        y = np.asarray(self.y)
        X = np.asarray(self.X, dtype=float)
        if not np.issubdtype(y.dtype, np.integer):
            yf = np.asarray(y, dtype=float)
            if not np.all(yf == np.round(yf)):
                raise ContractError("y must contain integer category labels")
            y = yf.astype(int)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.size:
            raise ContractError("y must be (n,), X must be (n, p)")
        if y.size < 1:
            raise ContractError("dataset must contain at least one unit")
        M = int(self.n_categories)
        if M < 2:
            raise ContractError("need at least two categories")
        if y.min() < 1 or y.max() > M:
            raise ContractError(
                f"labels must lie in 1..{M}, got range [{y.min()}, {y.max()}]"
            )
        if not np.all(np.isfinite(X)):
            raise ContractError("X must be finite")
        if X.shape[0] > 1:
            constant = np.all(X == X[0], axis=0)
            if np.any(constant):
                j = int(np.flatnonzero(constant)[0])
                name = self.column_names[j] if self.column_names else f"column {j}"
                raise ContractError(
                    f"covariate {name!r} is constant; intercepts are not "
                    "identified in this model"
                )
        if self.column_names:
            names = tuple(str(c) for c in self.column_names)
        else:
            names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise ContractError("column_names length must match X columns")
        for name in names:
            if re.fullmatch(r"delta\d+", name):
                raise ContractError(
                    f"covariate name {name!r} is reserved for a cutpoint; "
                    "rename the column"
                )
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.X.shape[1]


def theta_to_unconstrained(theta: Theta) -> np.ndarray:
    """Map Theta to u = (beta, delta_1, log of cutpoint gaps)."""
    delta = theta.delta
    return np.concatenate([theta.beta, delta[:1], np.log(np.diff(delta))])


def _cutpoints(U: np.ndarray, n_beta: int, gap_floor: float = 0.0):
    """(gaps, delta) of unconstrained rows U (..., d), order unchecked.

    gap_k = max(exp(U[..., n_beta + k]), gap_floor).  A gap that
    underflows to 0 ties two cutpoints, one that overflows puts the
    later ones at +inf; the probability clamp keeps the objective
    finite at both, so optimizers may pass through such points.
    """
    with np.errstate(over="ignore"):
        gaps = np.exp(U[..., n_beta + 1:])
    if gap_floor:
        gaps = np.maximum(gaps, gap_floor)
    delta = np.empty(U.shape[:-1] + (gaps.shape[-1] + 1,))
    delta[..., 0] = U[..., n_beta]
    delta[..., 1:] = U[..., n_beta:n_beta + 1] + np.cumsum(gaps, axis=-1)
    return gaps, delta


def unconstrained_to_theta(u: np.ndarray, n_beta: int) -> Theta:
    """Inverse of theta_to_unconstrained; the Theta checks the ordering."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ContractError("unconstrained vector must be one-dimensional")
    if u.size < n_beta + 1:
        raise ContractError(
            f"need at least {n_beta + 1} coordinates, got {u.size}"
        )
    return Theta(beta=u[:n_beta], delta=_cutpoints(u, n_beta)[1])


def _probs_from_args(A: np.ndarray, link: Link):
    """(P, g) from arguments A[..., k, i] = delta_k - eta_i, one link call.

    The tables are category-major: P[..., m, i] is the clamped
    probability of category m for unit i, and g = pdf(A).  A leading
    axis, where there is one, holds the rows of a block, each with its
    own parameters.  With units along the contiguous axis, every slice
    and category sum below runs over whole rows of n values.
    """
    K = A.shape[-2]
    cdfA, sfA, gA = link.cdf_sf_pdf(A)
    P = np.empty(A.shape[:-2] + (K + 1, A.shape[-1]))
    P[..., 0, :] = cdfA[..., 0, :]
    P[..., K, :] = sfA[..., K - 1, :]
    if K > 1:
        # Both forms telescope to the same value; the survival form is
        # used when the interval midpoint is positive, where cdf values
        # are near 1 and their difference would cancel.
        P[..., 1:K, :] = np.where(
            (A[..., :-1, :] + A[..., 1:, :]) > 0,
            sfA[..., :-1, :] - sfA[..., 1:, :],
            cdfA[..., 1:, :] - cdfA[..., :-1, :],
        )
    # Every entry is at most 1 already, so only the floor can bind.
    np.maximum(P, PROB_FLOOR, out=P)
    return P, gA


def _observed_cells(delta: np.ndarray, eta: np.ndarray, c: np.ndarray,
                    link: Link):
    """(f, g_hi, g_lo) of each unit's observed 0-based category c.

    f is the clamped probability of the category, g_hi and g_lo the
    link density at its upper and lower cutpoint (0 at the unbounded
    ends).  Only those two cutpoints are evaluated: the arguments
    [delta_pad[c] - eta, delta_pad[c+1] - eta], with delta_pad =
    [-inf, delta, +inf], go through _probs_from_args as a two-cutpoint
    table whose middle row is f.  Its expressions and sf/cdf choice
    are those of the full table, so f, g_hi and g_lo carry the same
    bits as the full table's entries.  delta (..., K) and eta (..., n)
    may carry a leading block axis, one parameter vector per row.
    """
    inf = np.full(delta.shape[:-1] + (1,), np.inf)
    pad = np.concatenate([-inf, delta, inf], axis=-1)
    A = np.empty(eta.shape[:-1] + (2, eta.shape[-1]))
    np.subtract(pad.take(c, axis=-1), eta, out=A[..., 0, :])
    np.subtract(pad[..., 1:].take(c, axis=-1), eta, out=A[..., 1, :])
    P, g = _probs_from_args(A, link)
    return P[..., 1, :], g[..., 1, :], g[..., 0, :]


def category_probs(theta: Theta, x, link: Link):
    """P(y = m | x) for every category m.

    x may be a single covariate vector (p,) or a matrix (n, p); the
    result is (M,) or (n, M) to match, the (n, M) one a transposed
    view of the category-major table.  Entries are clipped to
    [PROB_FLOOR, 1] after the cdf differences.
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != theta.beta.size:
        raise ContractError(
            f"x has {X.shape[-1]} covariates but beta has {theta.beta.size}"
        )
    eta = X @ theta.beta
    P, _ = _probs_from_args(theta.delta[:, None] - eta, link)
    return P[:, 0] if single else P.T


def generalized_residuals(theta_hat: Theta, data: Dataset, link: Link) -> np.ndarray:
    """Per-unit generalized residuals at fitted parameters.

    e_i = -(g(delta_{y_i} - eta_i) - g(delta_{y_i - 1} - eta_i))
          / (G(delta_{y_i} - eta_i) - G(delta_{y_i - 1} - eta_i))

    with g(+-inf) = 0 at the boundary categories and the clamped
    probability in the denominator.  Values near 0 mean the unit is
    consistent with the fit; large magnitudes flag outliers.
    """
    if data.p != theta_hat.beta.size:
        raise ContractError(
            f"data has {data.p} covariates but beta has {theta_hat.beta.size}"
        )
    if data.n_categories != theta_hat.n_categories:
        raise ContractError("data and theta disagree on the category count")
    f, g_hi, g_lo = _observed_cells(
        theta_hat.delta, data.X @ theta_hat.beta, data.y - 1, link
    )
    return -(g_hi - g_lo) / f
