"""Weighted likelihood bootstrap sampling.

One posterior draw is the argmin of the weighted objective under one
Dirichlet(1, ..., 1) weight vector; B independent weight vectors give
B mutually independent draws.  There is no chain, so there is nothing
to mix: autocorrelation across draws is pure Monte Carlo noise.

Each draw b owns an RNG stream spawned from (seed, b), so results are
bit-identical for a fixed seed no matter how the draws are scheduled
across workers.  wlb_sample_batch runs a list of fits on one process
pool: the draw chunks of every fit are queued on it at once, and the
pool is shut down before the call returns.  wlb_sample is its one-fit
case.

Every draw perturbs one M-estimation problem by O(n^-1/2) (Lyddon,
Holmes & Walker 2019), so all draws share one start: the equal-weights
optimum of the same objective, fitted once per fit in the calling
process, with its final BFGS inverse Hessian as the first curvature
estimate.  The start is computed before any worker pool exists and is
shipped to every chunk unchanged.  Both serial fits (the robust kinds'
pilot, then the shared start) begin BFGS from the inverse of a
finite-difference Hessian, and a batch fits one pilot per dataset.  A
draw is one minimization from that start, and its flag is its status.

The minimizer is a dense BFGS that runs a block of independent
problems in lock step: each round, one fg call moves every unfinished
row to its next trial point, and finished rows leave the block.  A
chunk is one lock-step solve; a pass holds at most _block_size rows:
_block_pass packs each round's unfinished draws into passes of
ObjectiveCore.block_value_and_grad, all full but the last.  A step is
accepted by the Armijo test or, where Armijo can no longer resolve the
decrease from rounding, by the approximate Wolfe test of Hager & Zhang
(2005).  Every row keeps the contract the sampler needs: the lowest
iterate seen on every exit that is not converged, an honest status on
every exit path, and tolerance of objectives that return +inf or nan in
far regions (the step is shrunk until the value is finite).  No product
runs across the rows, so a row's bits depend neither on its pass nor on
the worker count.  minimize is the one-row case, used for the pilot fit
and the shared start.

A fit's draws are stored as one (B, d) matrix in natural coordinates
(beta, delta), decoded in one call; Thetas are built on demand.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .links import Link
from .losses import LossSpec, ObjectiveCore, Prior, _rowdot
from .model import ContractError, Dataset, Theta, _cutpoints, theta_to_unconstrained

__all__ = [
    "WlbConfig",
    "PosteriorDraws",
    "MinimizeResult",
    "SamplingFailureError",
    "sample_dirichlet_uniform",
    "minimize",
    "minimize_block",
    "wlb_sample",
    "wlb_sample_batch",
]

_ARMIJO_C1 = 1e-4
# Approximate Wolfe test (Hager & Zhang 2005, delta = 0.1, sigma = 0.9),
# tried only where f rises by at most _WOLFE_FTOL * |f|.
_WOLFE_FTOL = 1e-12
_WOLFE_LOW = 0.9
_WOLFE_HIGH = -0.8
_MAX_BACKTRACKS = 60
_CURVATURE_FLOOR = 1e-10
# Every minimization of a fit stops at a gradient 2-norm of _GRAD_TOL,
# or is flagged max_iters after _MAX_ITERS iterations.
_MAX_ITERS = 500
_GRAD_TOL = 1e-6
# Element budget of one objective pass: a chunk is one lock-step solve,
# and a pass holds at most _block_size = max(1, _BLOCK_ELEMENTS // (n*M))
# rows.  Small tables gain most, as a pass's fixed cost is shared more.
# Past about 15,000 elements (120 KB per (M, B, n) table, of which a
# pass keeps over a dozen alive) the per-row cost of the robust passes
# jumps by half on a 2 MB L2 cache: at n = 1000, M = 5 between blocks
# of 3 and 4, at n = 200, M = 5 between 16 and 20.
_BLOCK_ELEMENTS = 15_000
# Rows whose robust z-score exceeds this in any usable covariate are
# left out of the pilot fit that seeds the per-draw minimizations.
_LEVERAGE_ZMAX = 6.0


class SamplingFailureError(RuntimeError):
    """Too many weighted minimizations failed to produce usable draws."""


@dataclass(frozen=True)
class WlbConfig:
    n_draws: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n_draws < 1:
            raise ContractError("n_draws must be at least 1")
        if self.seed < 0:
            raise ContractError("seed must be a nonnegative integer")
        if self.workers < 1:
            raise ContractError("workers must be at least 1")


@dataclass(frozen=True)
class PosteriorDraws:
    """The WLB draws as one matrix, with per-draw convergence flags.

    values is (B, d): row b is draw b in natural coordinates
    (beta, delta).  Flags are one of converged, max_iters, failed.
    Failed draws keep their best iterate here but are dropped by every
    downstream summary; they are never silently hidden.
    """

    values: np.ndarray
    spec: LossSpec
    link: Link
    seed: int
    convergence_flags: np.ndarray
    param_names: tuple

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def draws(self) -> tuple:
        """Every draw as a Theta, built from the matrix on each access."""
        p = self.param_names.index("delta1")  # covariates may not take it
        return tuple(Theta(beta=v[:p], delta=v[p:]) for v in self.values)

    @property
    def ok_mask(self) -> np.ndarray:
        return self.convergence_flags != "failed"

    @property
    def n_failed(self) -> int:
        return int(np.sum(~self.ok_mask))

    def matrix(self, only_ok: bool = True) -> np.ndarray:
        """A copy of the draws' rows, without the failed ones if only_ok."""
        return self.values[self.ok_mask] if only_ok else self.values.copy()


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    status: str  # converged | max_iters | failed
    n_iters: int
    grad_norm: float
    inv_hessian: np.ndarray | None = None  # final BFGS matrix
    n_evals: int = 0  # calls of the fused value-and-gradient callable


def sample_dirichlet_uniform(n: int, rng: np.random.Generator) -> np.ndarray:
    """Flat Dirichlet weights as normalized unit-rate exponentials."""
    if n < 1:
        raise ContractError("weight dimension must be at least 1")
    e = rng.standard_exponential(n)
    return e / e.sum()


def minimize(fg, x0, max_iters: int = _MAX_ITERS, grad_tol: float = _GRAD_TOL,
             H0=None) -> MinimizeResult:
    """Dense BFGS on one problem: the one-row case of minimize_block.

    fg(x) returns the pair (value, gradient), and every trial point
    costs exactly one call; the gradient of a trial whose value is not
    finite is never read (fg may return None for it).  x0, max_iters,
    grad_tol, H0 and the result are those of minimize_block for a block
    of one row.
    """
    x0 = np.asarray(x0, dtype=float)

    def one_row(X, rows):
        f, g = fg(X[0])
        f = float(f)
        if not math.isfinite(f):
            return np.array([f]), np.full(X.shape, np.nan)
        return np.array([f]), np.asarray(g, dtype=float).reshape(X.shape)

    return minimize_block(one_row, x0[None], max_iters, grad_tol, H0)[0]


def minimize_block(fg, X0, max_iters: int = _MAX_ITERS,
                   grad_tol: float = _GRAD_TOL, H0=None) -> list:
    """Dense BFGS on B independent problems at once, one MinimizeResult each.

    Row b starts at X0[b] (X0 is (B, d)).  fg(X, rows) returns the pair
    (values (k,), gradients (k, d)) at the rows of X (k, d), which are
    the block's rows `rows`: slice(None) while every row is unfinished,
    then an index array of the unfinished rows in block order.  Each
    round makes one fg call, which moves every unfinished row to its
    next trial point; a row's gradient is never read where its value is
    not finite; finished rows leave, so X holds unfinished rows only.
    Rows share nothing but that call: every rule below is one masked
    update of all rows, and every operation is elementwise or a
    reduction within a row, so a row's result does not depend on the
    other rows of its block.

    A trial step x + t*p is accepted if it passes Armijo.  Near the
    optimum the decrease Armijo asks for drops below the rounding of
    f, so a finite trial that fails Armijo with f_try <= f + 1e-12*|f|
    is accepted instead if its directional derivative passes the
    approximate Wolfe test 0.9*g.p <= g_try.p <= -0.8*g.p.  A rejected
    step is halved, at most 60 times.  The BFGS update is skipped where
    the curvature s.y is not above 1e-10*|s||y|, and a direction that
    is not downhill resets that row to steepest descent.  H0, one (d, d)
    matrix, seeds every row's inverse Hessian approximation; None
    starts from the identity, rescaled after the first step.

    status converged means the gradient 2-norm fell to grad_tol or
    below, and the current iterate is returned, also when that happens
    on the last allowed step; max_iters means the budget ran out;
    failed means no acceptable finite step existed.  An accepted step
    may raise fun by up to 1e-12*|fun|, so descent is not monotone:
    max_iters and failed return the lowest iterate seen.  inv_hessian
    is the row's final BFGS matrix (None if it is still the identity),
    and n_evals counts the fg rounds the row took part in.
    """
    X0 = np.array(X0, dtype=float)
    B, d = X0.shape
    out = [None] * B
    F, G = fg(X0, slice(None))
    F, G = np.array(F, dtype=float), np.array(G, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        ok = np.isfinite(F) & np.isfinite(G).all(axis=1)
        gn = np.sqrt(_rowdot(G, G))
    H0 = None if H0 is None else np.asarray(H0, dtype=float)
    live = ok & (gn > grad_tol)
    for j in np.flatnonzero(~live):
        status, gj = ("converged", gn[j]) if ok[j] else ("failed", np.inf)
        out[j] = MinimizeResult(X0[j].copy(), float(F[j]), status, 0, float(gj),
                                H0, 1)

    # State of the unfinished rows, in block order.  x, fx, g and gn are
    # replaced, never written in place, so best_* may share them.
    rows = np.flatnonzero(live)
    k = rows.size
    x, fx, g, gn = X0[rows], F[rows], G[rows], gn[rows]
    if H0 is None:
        H, ident = np.zeros((k, d, d)), np.ones(k, dtype=bool)
    else:
        H, ident = np.broadcast_to(H0, (k, d, d)).copy(), np.zeros(k, dtype=bool)
    best_x, best_f, best_gn = x, fx, gn
    n_iters = np.ones(k, dtype=int)  # the iteration under way
    n_evals = np.ones(k, dtype=int)
    step, nback = np.ones(k), np.zeros(k, dtype=int)
    pdir, slope, ident = _directions(H, g, gn, ident)

    while k:
        Xt = x + step[:, None] * pdir
        Ft, Gt = fg(Xt, slice(None) if k == B else rows)
        Ft, Gt = np.asarray(Ft, dtype=float), np.asarray(Gt, dtype=float)
        n_evals += 1
        fin = np.isfinite(Ft)
        gfin = np.isfinite(Gt).all(axis=1)
        acc = fin & (Ft <= fx + _ARMIJO_C1 * step * slope)
        near = fin & gfin & ~acc & (Ft <= fx + _WOLFE_FTOL * np.abs(fx))
        if np.count_nonzero(near):
            with np.errstate(invalid="ignore", over="ignore"):
                dd = _rowdot(Gt, pdir)
            acc |= near & (_WOLFE_LOW * slope <= dd) & (dd <= _WOLFE_HIGH * slope)
        step = np.where(acc, 1.0, 0.5 * step)
        nback = np.where(acc, 0, nback + 1)
        moved = acc & gfin
        fail = (acc & ~gfin) | (nback == _MAX_BACKTRACKS)
        H, ident = _bfgs_update(H, ident, Xt - x, Gt - g, moved)
        x = np.where(moved[:, None], Xt, x)
        fx = np.where(moved, Ft, fx)
        g = np.where(moved[:, None], Gt, g)
        gn = np.sqrt(_rowdot(g, g))
        conv = moved & (gn <= grad_tol)
        better = moved & ~conv & (fx <= best_f)
        best_x = np.where(better[:, None], x, best_x)
        best_f = np.where(better, fx, best_f)
        best_gn = np.where(better, gn, best_gn)
        capped = moved & ~conv & (n_iters == max_iters)
        done = conv | capped | fail
        if np.count_nonzero(done):
            for j in np.flatnonzero(done):
                # converged keeps the current iterate; the other exits
                # return the lowest iterate seen.
                xs, fs, gs = (x, fx, gn) if conv[j] else (best_x, best_f, best_gn)
                status = ("converged" if conv[j] else
                          "max_iters" if capped[j] else "failed")
                out[rows[j]] = MinimizeResult(
                    xs[j].copy(), float(fs[j]), status, int(n_iters[j]),
                    float(gs[j]), None if ident[j] else H[j].copy(),
                    int(n_evals[j]))
            keep = ~done
            rows, moved = rows[keep], moved[keep]
            k = rows.size
            x, fx, g, gn, H, ident = x[keep], fx[keep], g[keep], gn[keep], H[keep], ident[keep]
            best_x, best_f, best_gn = best_x[keep], best_f[keep], best_gn[keep]
            n_iters, n_evals = n_iters[keep], n_evals[keep]
            pdir, slope, step, nback = pdir[keep], slope[keep], step[keep], nback[keep]
        # Rows still in their line search keep their direction.
        n_iters += moved
        p, sl, idn = _directions(H, g, gn, ident)
        pdir = np.where(moved[:, None], p, pdir)
        slope = np.where(moved, sl, slope)
        ident = np.where(moved, idn, ident)
    return out


def _directions(H, g, gn, ident):
    """(p, slope, ident) of every row: p = -H g, or -g where ident.

    A row whose direction is not downhill (slope = g.p >= 0) is a
    numerical breakdown of its approximation; it falls back to steepest
    descent and is marked ident, so its next update starts afresh.
    """
    p = -np.einsum("rij,rj->ri", H, g)
    if np.count_nonzero(ident):
        p = np.where(ident[:, None], -g, p)
    slope = _rowdot(g, p)
    reset = slope >= 0.0
    if np.count_nonzero(reset):
        ident = ident | reset
        p = np.where(reset[:, None], -g, p)
        slope = np.where(reset, -(gn * gn), slope)
    return p, slope, ident


def _bfgs_update(H, ident, s, yv, mask):
    """(H, ident) after the rows in mask step by s and change the gradient by yv.

    Rows outside mask, and rows whose curvature s.y is not above
    1e-10*|s||y|, keep H and ident; their s and yv may not be finite.
    An ident row's identity is first put on the scale of the true
    inverse Hessian, (s.y / y.y) I, and then updated.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sy = _rowdot(s, yv)
        yy = _rowdot(yv, yv)
        upd = mask & (sy > _CURVATURE_FLOOR * np.sqrt(_rowdot(s, s)) * np.sqrt(yy))
        Hs = H
        if np.count_nonzero(ident):
            scaled = np.eye(s.shape[1]) * (sy / yy)[:, None, None]
            Hs = np.where(ident[:, None, None], scaled, H)
        rho = 1.0 / sy
        Hy = np.einsum("rij,rj->ri", Hs, yv)
        outer = s[:, :, None] * Hy[:, None, :]
        Hn = Hs - rho[:, None, None] * (outer + outer.transpose(0, 2, 1)) + (
            rho * (1.0 + rho * _rowdot(yv, Hy)))[:, None, None] * (
            s[:, :, None] * s[:, None, :])
    return np.where(upd[:, None, None], Hn, H), ident & ~upd


def _initial_point(data: Dataset, link: Link) -> np.ndarray:
    """beta = 0; cutpoints from empirical cumulative proportions."""
    M = data.n_categories
    counts = np.bincount(data.y, minlength=M + 1)[1:M + 1]
    props = np.cumsum(counts[:-1]) / data.n
    props = np.clip(props, 1e-6, 1.0 - 1e-6)
    delta = np.asarray(link.quantile(props), dtype=float)
    # Empty categories give tied proportions; nudge to keep the
    # ordering strict so the log-gap transform is defined.
    for k in range(1, delta.size):
        if delta[k] <= delta[k - 1]:
            delta[k] = delta[k - 1] + 1e-3
    theta0 = Theta(beta=np.zeros(data.p), delta=delta)
    return theta_to_unconstrained(theta0)


def _pilot_init(data: Dataset, prior: Prior, link: Link,
                x_base: np.ndarray) -> np.ndarray:
    """Starting point for the per-draw minimizations.

    The robust losses redescend: a grossly outlying unit's loss is flat
    in the parameters, so fitting the outliers and rejecting the bulk
    can appear as a second, spurious local optimum in which the
    coefficients collapse toward zero.  As with any redescending
    M-estimation problem, the optimizer must be seeded on the bulk's
    side of the barrier.  The seed is a penalized maximum-likelihood
    fit on leverage-trimmed rows: the trim is a robust z-score cut
    (median/MAD, columns with zero MAD skipped), and the pilot is used
    purely as an initial iterate, so the sampled objective itself still
    sees every row.  Datasets without extreme leverage trim nothing and
    skip the extra fit entirely.  The fit is a _seeded_fit; it reads
    data, prior and link only, so a batch fits it once per dataset.
    """
    X = data.X
    med = np.median(X, axis=0)
    mad = 1.4826 * np.median(np.abs(X - med[None, :]), axis=0)
    usable = mad > 0
    if not np.any(usable):
        return x_base
    z = np.abs(X[:, usable] - med[None, usable]) / mad[None, usable]
    keep = (z <= _LEVERAGE_ZMAX).all(axis=1)
    n_keep = int(keep.sum())
    if n_keep == data.n:
        return x_base
    if n_keep < max(data.p + data.n_categories, data.n // 2):
        return x_base
    try:
        sub = replace(data, y=data.y[keep], X=X[keep])
    except ContractError:
        return x_base
    core = ObjectiveCore(LossSpec(kind="loglik"), sub, prior, link)
    res = _seeded_fit(core, _initial_point(sub, link))
    if res.status == "failed" or not np.all(np.isfinite(res.x)):
        return x_base
    return res.x


def _shared_start(core: ObjectiveCore, x_init: np.ndarray):
    """Start point and inverse Hessian shared by every draw.

    The equal-weights optimum of the sampled objective, fitted from
    x_init, with the final BFGS matrix of that fit.  Every Dirichlet
    draw is a small perturbation of this problem, so its minimization
    starts one Newton step from its own optimum.  The fit is a
    _seeded_fit; one that does not converge falls back to x_init and
    the identity.
    """
    res = _seeded_fit(core, x_init)
    if res.status != "converged":
        return x_init, None
    return res.x, res.inv_hessian


def _fd_hessian(core: ObjectiveCore, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of core's objective at x under weights w.

    The gradients at the 2d rows x +- h_j e_j, h_j = eps**(1/3) max(1, |x_j|),
    come from one _block_pass; symmetrized.
    """
    d = x.size
    h = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(1.0, np.abs(x))
    U = np.concatenate([x + np.diag(h), x - np.diag(h)])
    G = _block_pass(core, U, np.broadcast_to(w, (2 * d, w.size)))[1]
    H = (G[:d] - G[d:]) / (2.0 * h[:, None])
    return 0.5 * (H + H.T)


def _seeded_fit(core: ObjectiveCore, x0: np.ndarray) -> MinimizeResult:
    """The equal-weights fit of core from x0, BFGS seeded at the inverse
    _fd_hessian, so its first step is Newton's (Nocedal & Wright 2006,
    6.1 and 8.1); a Hessian not finite or not positive definite leaves
    the identity start.
    """
    w = np.full(core.n, 1.0 / core.n)
    H, H0 = _fd_hessian(core, x0, w), None
    if np.isfinite(H).all():
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(H))
            H0 = L_inv.T @ L_inv
        except np.linalg.LinAlgError:
            pass
    return minimize(lambda u: core.value_and_grad(u, w), x0, H0=H0)


def _block_size(core: ObjectiveCore) -> int:
    """Rows per pass: as many n x M tables as fit _BLOCK_ELEMENTS."""
    return max(1, _BLOCK_ELEMENTS // (core.n * core.M))


def _block_pass(core: ObjectiveCore, U: np.ndarray, W: np.ndarray):
    """core.block_value_and_grad of the rows (U[b], W[b]), run in passes
    of _block_size(core) rows (the last may be short) and concatenated.
    This is the one place rows are split into passes.
    """
    size = _block_size(core)
    parts = [core.block_value_and_grad(U[lo:lo + size], W[lo:lo + size])
             for lo in range(0, len(U), size)]
    return (np.concatenate([f for f, _ in parts]),
            np.concatenate([g for _, g in parts]))


def _run_draws(core: ObjectiveCore, config: WlbConfig, x_start: np.ndarray,
               H0, b_range):
    """(X, flags): the unconstrained result and status of each draw in b_range.

    Draw b minimizes the objective under the weights of stream
    (seed, b), starting at x_start with inverse Hessian H0.  The chunk
    is one lock-step solve, one minimize_block call; a pass holds at
    most _block_size rows, so each round's live draws fill every pass
    but its last.  A draw's result does not depend on the rows it
    shares a pass with.
    """
    W = np.array([
        sample_dirichlet_uniform(core.n, np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(b,))))
        for b in b_range
    ])
    results = minimize_block(lambda X, rows: _block_pass(core, X, W[rows]),
                             np.broadcast_to(x_start, (len(W), x_start.size)),
                             H0=H0)
    return (np.array([res.x for res in results]),
            np.array([res.status for res in results]))


def _prepare(spec: LossSpec, data: Dataset, prior: Prior, link: Link, pilots: dict):
    """Serial part of one fit: its objective and the shared start."""
    observed = np.unique(data.y)
    missing = sorted(set(range(1, data.n_categories + 1)) - set(observed.tolist()))
    if missing:
        warnings.warn(
            f"categories {missing} never observed; cutpoint estimates "
            "for their boundaries rest on the prior alone",
            stacklevel=4,
        )

    core = ObjectiveCore(spec, data, prior, link)
    x_init = _initial_point(data, link)
    if spec.kind != "loglik":
        # Redescending losses need a robust starting point; the plain
        # likelihood has no redescending structure and keeps the
        # classical empirical initialization.
        if id(data) not in pilots:
            pilots[id(data)] = _pilot_init(data, prior, link, x_init)
        x_init = pilots[id(data)]
    x_start, H0 = _shared_start(core, x_init)
    return core, x_start, H0


def _assemble(job, link: Link, parts) -> PosteriorDraws:
    """PosteriorDraws of job from its chunks' (X, flags), in order.

    Converged draws decode cleanly (the prior keeps log gaps far from
    the underflow region).  A failed draw's gaps may underflow to 0:
    rows whose decode is not finite and strictly increasing are decoded
    again with gaps floored at 1e-12, so their cutpoints stay ordered.
    Raises SamplingFailureError if more than 10% of the draws failed.
    """
    spec, data, config = job
    X = np.concatenate([x for x, _ in parts])
    flags = np.concatenate([f for _, f in parts])
    B = config.n_draws
    p = data.p
    delta = _cutpoints(X, p)[1]
    bad = ~(np.isfinite(X[:, :p]).all(axis=1) & np.isfinite(delta).all(axis=1)
            & (np.diff(delta, axis=1) > 0).all(axis=1))
    delta[bad] = _cutpoints(X[bad], p, gap_floor=1e-12)[1]

    n_failed = int(np.sum(flags == "failed"))
    if n_failed > 0.10 * B:
        raise SamplingFailureError(
            f"{n_failed} of {B} draws failed for loss {spec.kind} "
            f"(tuning={spec.tuning}) on n={data.n}, link={link.name}"
        )

    delta_names = tuple(f"delta{k + 1}" for k in range(data.n_categories - 1))
    return PosteriorDraws(
        values=np.concatenate([X[:, :p], delta], axis=1),
        spec=spec,
        link=link,
        seed=config.seed,
        convergence_flags=flags,
        param_names=tuple(data.column_names) + delta_names,
    )


def wlb_sample_batch(jobs, prior: Prior, link: Link) -> list:
    """Run several WLB fits, each given as (spec, data, config), on one pool.

    Every fit's serial part (pilot fit and shared start) runs first, in
    the calling process and in job order; the robust fits on one data
    object share one pilot fit.  Then the draw chunks of all fits go to
    one process pool of min(max workers, max n_draws) processes, so no
    worker waits at a barrier between fits; with one process no pool is
    built and the fits run in turn.  Each fit is
    split into its own min(workers, B) chunks, as a lone wlb_sample
    call splits it, and every draw is bit-identical to that call.

    Returns the PosteriorDraws in job order.  The first error in job
    order (a SamplingFailureError or an exception raised by a chunk) is
    raised; chunks that have not started are cancelled, and the pool is
    shut down before the call returns or raises.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    calls = []  # per job, the _run_draws arguments of each chunk
    pilots = {}  # id(data) -> pilot start; jobs keeps each data alive
    for spec, data, config in jobs:
        core, x_start, H0 = _prepare(spec, data, prior, link, pilots)
        B = config.n_draws
        bounds = np.linspace(0, B, min(config.workers, B) + 1).astype(int)
        calls.append([(core, config, x_start, H0, range(lo, hi))
                      for lo, hi in zip(bounds, bounds[1:])])
    n_procs = min(max(config.workers for _, _, config in jobs),
                  max(config.n_draws for _, _, config in jobs))

    if n_procs == 1:
        return [_assemble(job, link, [_run_draws(*args) for args in chunks])
                for job, chunks in zip(jobs, calls)]
    pool = ProcessPoolExecutor(max_workers=n_procs)
    try:
        futures = [[pool.submit(_run_draws, *args) for args in chunks]
                   for chunks in calls]
        return [_assemble(job, link, [f.result() for f in futs])
                for job, futs in zip(jobs, futures)]
    finally:
        pool.shutdown(cancel_futures=True)


def wlb_sample(spec: LossSpec, data: Dataset, prior: Prior, link: Link,
               config: WlbConfig) -> PosteriorDraws:
    """Draw B approximate posterior samples by weighted minimization.

    Draw b is the argmin under the Dirichlet weights of stream
    (seed, b), started at the shared equal-weights optimum (see
    _shared_start); failures are flagged per draw, and more than 10%
    failed draws abort the run.  This is the one-fit case of
    wlb_sample_batch.
    """
    return wlb_sample_batch([(spec, data, config)], prior, link)[0]
