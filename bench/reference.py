"""Independent reference computations and output checks for the benchmark.

Nothing here imports ordrobust.  Every formula is written from the
model's definition, so that a check compares the program against a
second implementation rather than against itself or a stored copy:

    P(y = m | x) = G(delta_m - x'beta) - G(delta_{m-1} - x'beta)

with unconstrained coordinates u = (beta, delta_1, log gaps), an
independent N(0, 10^2) prior on every coordinate, and the four
weighted objectives of the paper (loglik, dp, gamma_general,
gamma_synthetic).
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import optimize, special

PROB_FLOOR = 1e-300
PRIOR_SD = 10.0
# An optimality check passes when a fresh minimizer started at a draw
# lowers the objective by at most this share of |objective| (or of 1,
# whichever is larger).  A draw that converged to the solver's gradient
# tolerance of 1e-6 leaves a possible decrease many orders below this.
OPT_RTOL = 1e-7
SWEEP_LOGLIK_FLOOR = 5.0
SWEEP_ROBUST_TOL = 3.0
INDEX_RATIO_MAX = 0.1
MSE_GAP_MIN = 1.0


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- links

def loglog_cdf(t):
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-t))


def loglog_sf(t):
    with np.errstate(over="ignore"):
        return -np.expm1(-np.exp(-t))


def loglog_pdf(t):
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.exp(-t - np.exp(-t))
    return np.nan_to_num(g, nan=0.0)


def probit_cdf(t):
    return special.ndtr(t)


def probit_sf(t):
    return special.ndtr(-t)


def probit_pdf(t):
    return np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


LINKS = {
    "loglog": (loglog_cdf, loglog_sf, loglog_pdf),
    "probit": (probit_cdf, probit_sf, probit_pdf),
}


# ---------------------------------------------------------------- model

def cutpoints(u, p):
    """delta from u = (beta, delta_1, log gaps)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        gaps = np.exp(u[p + 1:])
    return u[p] + np.concatenate([[0.0], np.cumsum(gaps)])


def to_unconstrained(beta, delta):
    beta = np.asarray(beta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return np.concatenate([beta, delta[:1], np.log(np.diff(delta))])


def probabilities(beta, delta, X, link):
    """(n, M) category probabilities, clamped to [PROB_FLOOR, 1].

    Each interior probability is a difference of two cdf values or of
    two survival values; the survival form is taken where the interval
    sits in the upper half of the latent scale, so neither difference
    cancels.
    """
    cdf, sf, _ = LINKS[link]
    A = np.asarray(delta)[None, :] - (X @ np.asarray(beta))[:, None]
    n, K = A.shape
    lo = np.concatenate([np.full((n, 1), -np.inf), A], axis=1)
    hi = np.concatenate([A, np.full((n, 1), np.inf)], axis=1)
    # The first category (lo = -inf) always takes the cdf form and the
    # last (hi = +inf) the survival form.
    P = np.where(lo + hi > 0, sf(lo) - sf(hi), cdf(hi) - cdf(lo))
    return np.clip(P, PROB_FLOOR, 1.0)


def objective(kind, tuning, u, X, y, w, link):
    """Weighted negative log posterior kernel at unconstrained u.

    y holds labels 1..M; w sums to one.  The data term carries the
    factor n so that w = 1/n gives the unweighted posterior.
    """
    n, p = X.shape
    u = np.asarray(u, dtype=float)
    beta = u[:p]
    delta = cutpoints(u, p)
    P = probabilities(beta, delta, X, link)
    f = P[np.arange(n), np.asarray(y) - 1]
    t = tuning
    if kind == "loglik":
        data_term = -n * np.dot(w, np.log(f))
    elif kind == "dp":
        r = f ** t / t - np.sum(P ** (1.0 + t), axis=1) / (1.0 + t)
        data_term = -n * np.dot(w, r)
    elif kind in ("gamma_general", "gamma_synthetic"):
        norm = np.sum(P ** (1.0 + t), axis=1) ** (1.0 / (1.0 + t))
        r = (f / norm) ** t / t
        if kind == "gamma_general":
            data_term = -n * np.dot(w, r)
        else:
            data_term = -(n / t) * math.log(t * np.dot(w, r))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    log_prior = np.sum(-0.5 * (u / PRIOR_SD) ** 2
                       - math.log(PRIOR_SD * math.sqrt(2.0 * math.pi)))
    return float(data_term - log_prior)


def draw_weights(seed, b, n):
    """Dirichlet(1, ..., 1) weights of draw b: the documented per-draw
    stream SeedSequence(seed, spawn_key=(b,)), normalized exponentials."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
    e = rng.standard_exponential(n)
    return e / e.sum()


def generalized_residuals(beta, delta, X, y, link):
    """e_i = -(g(A_hi) - g(A_lo)) / P(y_i), g = 0 at the open ends."""
    _, _, pdf = LINKS[link]
    n = X.shape[0]
    A = np.asarray(delta)[None, :] - (X @ np.asarray(beta))[:, None]
    g = np.concatenate([np.zeros((n, 1)), pdf(A), np.zeros((n, 1))], axis=1)
    P = probabilities(beta, delta, X, link)
    rows = np.arange(n)
    c = np.asarray(y) - 1
    return -(g[rows, c + 1] - g[rows, c]) / P[rows, c]


# -------------------------------------------------------- preprocessing

def likert_scores(counts):
    """Mean of a standard normal truncated to each level's quantile band."""
    c = np.cumsum(counts) / np.sum(counts)
    z = special.ndtri(c[:-1])
    phi = np.concatenate([[0.0], np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), [0.0]])
    band = np.diff(np.concatenate([[0.0], c]))
    return (phi[:-1] - phi[1:]) / band


def design_from_csv(path, spec):
    """(X, y, names) that a preprocess spec yields for a CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: [r[j] for r in body] for j, name in enumerate(header)}
    y = np.array([int(float(v)) for v in cols[spec["response"]]])
    feats, names = [], []
    for name in header:
        if name == spec["response"]:
            continue
        action = spec.get("columns", {}).get(name, "passthrough")
        raw = cols[name]
        if action == "dummy_code":
            for level in sorted(set(raw))[1:]:
                feats.append(np.array([float(v == level) for v in raw]))
                names.append(f"{name}={level}")
            continue
        v = np.array([float(s) for s in raw])
        if action == "standardize":
            v = (v - v.mean()) / v.std()
        elif action == "likert_sigma":
            _, inverse, counts = np.unique(v, return_inverse=True,
                                           return_counts=True)
            v = likert_scores(counts)[inverse]
        feats.append(v)
        names.append(name)
    return np.column_stack(feats), y, names


# --------------------------------------------------------------- tables

def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(row, keys):
    return all(math.isfinite(float(row[k])) for k in keys)


# --------------------------------------------------------------- checks

def check_study(mse_rows, cov_rows, robust):
    """Criterion-8/9 properties of a contaminated study.

    robust: the (loss, tuning) cells of the robust kinds; loglik has an
    empty tuning cell.
    """
    def by_cell(rows, keys):
        out = {}
        for r in rows:
            _require(_finite(r, keys), f"non-finite cell in {r}")
            out[(r["loss"], r["tuning"])] = r
        return out

    mse = by_cell(mse_rows, ["mean_log_mse_beta", "mc_se_beta",
                             "mean_log_mse_delta", "mc_se_delta"])
    cov = by_cell(cov_rows, ["cp_beta_pct", "cp_delta_pct"])
    cells = [("loglik", "")] + list(robust)
    for cell in cells:
        _require(cell in mse and cell in cov, f"missing row {cell}")
    ll_mse = float(mse[("loglik", "")]["mean_log_mse_beta"])
    ll_cov = float(cov[("loglik", "")]["cp_beta_pct"])
    for cell in robust:
        gap = ll_mse - float(mse[cell]["mean_log_mse_beta"])
        _require(gap >= MSE_GAP_MIN,
                 f"{cell}: log-MSE(beta) only {gap:.3f} below loglik")
        _require(ll_cov < float(cov[cell]["cp_beta_pct"]),
                 f"{cell}: beta coverage not above loglik's {ll_cov}")


def check_sweep(rows, robust_losses, omegas):
    """Drift(50) - drift(5) in MC SEs: above the floor for loglik,
    within the tolerance for every robust loss; no failed draws."""
    cells = {}
    for r in rows:
        _require(_finite(r, ["drift", "mc_se"]), f"non-finite cell in {r}")
        _require(int(r["n_failed"]) == 0, f"failed draws in {r}")
        cells[(r["loss"], float(r["omega"]))] = r
    for loss in ("loglik",) + tuple(robust_losses):
        for om in omegas:
            _require((loss, om) in cells, f"missing sweep row {loss} {om}")
        d5, d50 = cells[(loss, omegas[1])], cells[(loss, omegas[-1])]
        se = math.hypot(float(d5["mc_se"]), float(d50["mc_se"]))
        gap = (float(d50["drift"]) - float(d5["drift"])) / se
        if loss == "loglik":
            _require(gap > SWEEP_LOGLIK_FLOOR,
                     f"loglik drift gap {gap:.2f} SE not above {SWEEP_LOGLIK_FLOOR}")
        else:
            _require(abs(gap) <= SWEEP_ROBUST_TOL,
                     f"{loss} drift gap {gap:.2f} SE exceeds {SWEEP_ROBUST_TOL}")


def check_index(rows, n, contaminated):
    """Both kinds index every unit in [0, pi/2]; at each contaminated
    unit the dp index is at most INDEX_RATIO_MAX times loglik's."""
    idx = {"loglik": np.full(n, np.nan), "dp": np.full(n, np.nan)}
    for r in rows:
        _require(r["loss"] in idx, f"unexpected loss {r['loss']}")
        idx[r["loss"]][int(r["unit"])] = float(r["index"])
    for loss, v in idx.items():
        _require(np.all(np.isfinite(v)), f"{loss}: index missing or non-finite")
        _require(np.all((v >= 0) & (v <= math.pi / 2 + 1e-12)),
                 f"{loss}: index outside [0, pi/2]")
    ll, dp = idx["loglik"][contaminated], idx["dp"][contaminated]
    bad = np.flatnonzero(dp > INDEX_RATIO_MAX * ll)
    _require(bad.size == 0,
             f"dp index above {INDEX_RATIO_MAX} x loglik at units "
             f"{np.asarray(contaminated)[bad][:5].tolist()}")


def check_residuals(rows, beta, delta, X, y, link):
    """residuals.csv against residuals recomputed from the summary means."""
    _require(len(rows) == X.shape[0], "residuals.csv row count")
    e = generalized_residuals(beta, delta, X, y, link)
    got = np.array([float(r["residual"]) for r in rows])
    _require([int(r["y"]) for r in rows] == list(map(int, y)), "residual labels")
    _require(np.allclose(got, e, rtol=1e-9, atol=1e-12),
             f"residuals differ by up to {np.max(np.abs(got - e)):.3e}")
    bands = np.quantile(e, [0.025, 0.975, 0.005, 0.995])
    got_b = np.array([float(rows[0][k]) for k in
                      ("band95_lo", "band95_hi", "band99_lo", "band99_hi")])
    _require(np.allclose(got_b, bands, rtol=1e-9, atol=1e-12), "residual bands")


def optimality_gap(kind, tuning, u, X, y, w, link):
    """How far a fresh minimizer started at u lowers the objective."""
    def fun(v):
        return objective(kind, tuning, v, X, y, w, link)

    f0 = fun(u)
    res = optimize.minimize(fun, u, method="BFGS")
    return f0 - min(f0, float(res.fun)), f0


def check_draws(draw_rows, names, kind, tuning, seed, X, y, link, sample):
    """Each checked draw minimizes its own weighted objective.

    The draws checked are every draw that needed a restart or hit the
    iteration cap, plus the converged draws at the positions `sample`.
    Returns the number of draws checked.
    """
    p = X.shape[1]
    _require(list(draw_rows[0].keys())[2:2 + p] == names,
             "draws.csv parameter names differ from the preprocessed design")
    chosen = [r for r in draw_rows if r["status"] != "converged"]
    converged = [r for r in draw_rows if r["status"] == "converged"]
    chosen += [converged[i] for i in sample if i < len(converged)]
    for r in chosen:
        _require(r["status"] != "failed", f"draw {r['draw']} failed")
        vec = np.array([float(v) for v in list(r.values())[2:]])
        u = to_unconstrained(vec[:p], vec[p:])
        w = draw_weights(seed, int(r["draw"]), X.shape[0])
        gap, f0 = optimality_gap(kind, tuning, u, X, y, w, link)
        _require(gap <= OPT_RTOL * max(1.0, abs(f0)),
                 f"draw {r['draw']} ({r['status']}) is not a minimum: "
                 f"objective falls by {gap:.3e} from {f0:.6f}")
    return len(chosen)
