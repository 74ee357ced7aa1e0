"""Posterior summaries and robustness diagnostics.

The per-observation robustness index treats the leave-one-out
posterior as an importance-reweighted version of the full posterior.
With l_b the log kernel ratio at draw theta_b, the Hellinger affinity
between the two posteriors is estimated self-normalized as

    A = mean_b exp(l_b / 2) / sqrt(mean_b exp(l_b)),

and the index is arccos(A), a geodesic angle in [0, pi/2].  Adding a
constant to every l_b cancels, so only kernel ratios are needed; no
density estimation takes place.  The kernel (loss and tuning) and
link are the draws' own, so the index reads only the draws and the
data.  An ignorable observation gives affinity near 1 and an index
near 0; an observation the posterior leans on gives an index near pi/2.

The omega sweep realizes the definition of posterior robustness
empirically: one unit is dragged to ever larger outlyingness and the
posterior mean's drift from the leave-that-unit-out fit is tracked.
A robust posterior's drift flattens; the likelihood posterior's drift
grows without bound.

simulate_study runs the paper's contaminated simulation study: per
contamination rate and replicate it draws a dataset with known truth,
fits every loss spec to it, and scores the posterior means and
intervals with score_estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .datasim import inject_outlier, simulate_contaminated
from .links import Link
from .losses import LossSpec, Prior, _loo_log_ratios, _observed_index
from .model import ContractError, Dataset, Theta, category_probs
from .wlb import PosteriorDraws, WlbConfig, wlb_sample_batch
# bench/tracer.py looks wlb_sample up here by name.
from .wlb import wlb_sample  # noqa: F401

__all__ = [
    "SummaryTable",
    "RobustnessReport",
    "Contamination",
    "SweepRow",
    "StudyCell",
    "UnstableIndexError",
    "ConstantSeriesError",
    "summarize",
    "fisher_rao_index",
    "robustness_report",
    "posterior_robustness_sweep",
    "simulate_study",
    "score_estimates",
    "autocorrelation",
]


# Units per logsumexp call in _affinities.  logsumexp makes several
# copies of its input; small blocks keep them from raising peak memory.
_AFFINITY_BLOCK = 64


class UnstableIndexError(RuntimeError):
    """Too many draws produced non-finite leave-one-out log ratios."""


class ConstantSeriesError(ValueError):
    """Autocorrelation of a constant series is undefined."""


@dataclass(frozen=True)
class SummaryTable:
    param_names: tuple
    mean: np.ndarray
    median: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    n_used: int
    n_failed: int

    def rows(self):
        for j, name in enumerate(self.param_names):
            yield (name, self.mean[j], self.median[j], self.sd[j],
                   self.lower[j], self.upper[j])


@dataclass(frozen=True)
class RobustnessReport:
    index: np.ndarray     # arccos(affinity), in [0, pi/2]
    affinity: np.ndarray  # in (0, 1]


@dataclass(frozen=True)
class Contamination:
    """One unit dragged outward: covariate shifted so the latent index
    delta_{y_i} - x_i @ beta moves like direction * omega."""

    unit: int
    covariate: int
    direction: int
    omegas: tuple

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ContractError("direction must be +1 or -1")
        om = tuple(float(w) for w in self.omegas)
        object.__setattr__(self, "omegas", om)
        if len(om) == 0 or om[0] != 0.0:
            raise ContractError("omegas must start at 0")
        if any(b <= a for a, b in zip(om, om[1:])):
            raise ContractError("omegas must be strictly increasing")
        if any(w < 0 for w in om):
            raise ContractError("omegas must be nonnegative")


@dataclass(frozen=True)
class SweepRow:
    loss: str
    tuning: float
    omega: float
    drift: float
    mc_se: float
    n_failed: int


@dataclass(frozen=True)
class StudyCell:
    """Per-replicate scores of one loss spec at one contamination rate."""

    rho: float
    spec: LossSpec
    mse_beta: np.ndarray
    mse_delta: np.ndarray
    cp_beta: np.ndarray
    cp_delta: np.ndarray


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ContractError("level must be in (0, 1)")


def summarize(draws: PosteriorDraws, level: float = 0.95) -> SummaryTable:
    """Per-parameter mean, median, sd, and central credible interval.

    Failed draws are excluded; their count is reported on the table.
    """
    _check_level(level)
    mat = _usable(draws)
    a = 1.0 - level
    lo, med, hi = np.quantile(mat, [a / 2, 0.5, 1.0 - a / 2], axis=0)
    return SummaryTable(
        param_names=draws.param_names,
        mean=mat.mean(axis=0),
        median=med,
        sd=mat.std(axis=0, ddof=1),
        lower=lo,
        upper=hi,
        level=level,
        n_used=mat.shape[0],
        n_failed=draws.n_failed,
    )


def _affinities(ell: np.ndarray, units) -> np.ndarray:
    """Self-normalized Hellinger affinities, one per row of ell.

    ell holds the log kernel ratios of the units named in units, one
    row per unit and one column per draw.  Non-finite ratios are
    dropped; a unit with more than half of them raises, naming the
    first such unit.
    """
    n_draws = ell.shape[1]
    finite = np.isfinite(ell)
    n_finite = finite.sum(axis=1)
    unstable = np.flatnonzero(2 * (n_draws - n_finite) > n_draws)
    if unstable.size:
        j = unstable[0]
        raise UnstableIndexError(
            f"unit {units[j]}: {n_draws - n_finite[j]} of {n_draws} draws "
            "gave non-finite leave-one-out log ratios"
        )
    log_aff = np.empty(ell.shape[0])
    for lo in range(0, ell.shape[0], _AFFINITY_BLOCK):
        blk = ell[lo:lo + _AFFINITY_BLOCK]
        blk = np.where(np.isfinite(blk), blk, -np.inf)
        log_aff[lo:lo + _AFFINITY_BLOCK] = (
            logsumexp(blk / 2.0, axis=1) - 0.5 * logsumexp(blk, axis=1)
        )
    log_aff -= 0.5 * np.log(n_finite)
    return np.minimum(np.exp(log_aff), 1.0)


def _usable(draws: PosteriorDraws) -> np.ndarray:
    """The rows of the draws that did not fail; at least 2 are needed."""
    mat = draws.matrix(only_ok=True)
    if mat.shape[0] < 2:
        raise ContractError(
            f"need at least 2 usable draws, have {mat.shape[0]} "
            f"({draws.n_failed} failed)"
        )
    return mat


def _loo_log_ratio_table(draws: PosteriorDraws, data: Dataset) -> np.ndarray:
    """Leave-one-out log kernel ratios, (n units, usable draws), under
    the draws' own kernel and link.

    Per draw, all n ratios share the same probability table, so the
    table costs one category_probs call per usable draw.
    """
    obs = _observed_index(data)
    mat = _usable(draws)
    p = data.p
    ell = np.empty((data.n, mat.shape[0]))
    for b, v in enumerate(mat):
        # .T is the category-major table that category_probs transposes.
        P = category_probs(Theta(beta=v[:p], delta=v[p:]), data.X, draws.link).T
        # A unit holding the whole synthetic loss sum leaves log(0);
        # _affinities turns that into UnstableIndexError.
        with np.errstate(divide="ignore", invalid="ignore"):
            ell[:, b] = _loo_log_ratios(draws.spec, P, obs)
    return ell


def fisher_rao_index(draws: PosteriorDraws, data: Dataset, i: int) -> float:
    """Geodesic angle between the full and leave-i-out posteriors.

    It equals robustness_report(...).index[i] bit for bit, and costs as
    much as the whole report; callers that want every unit should call
    robustness_report once.
    """
    if not 0 <= i < data.n:
        raise ContractError(f"unit index {i} outside 0..{data.n - 1}")
    ell = _loo_log_ratio_table(draws, data)
    return float(np.arccos(_affinities(ell[i:i + 1], [i])[0]))


def robustness_report(draws: PosteriorDraws, data: Dataset) -> RobustnessReport:
    """fisher_rao_index for every unit, from one table of log ratios."""
    affinity = _affinities(_loo_log_ratio_table(draws, data), range(data.n))
    return RobustnessReport(index=np.arccos(affinity), affinity=affinity)


def _derived_seed(seed: int, key: tuple) -> int:
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(
        1, np.uint64
    )
    return int(state[0])


def _mean_and_se2(fit: PosteriorDraws):
    """Posterior mean and its squared Monte Carlo standard error."""
    mat = _usable(fit)
    return mat.mean(axis=0), mat.var(axis=0, ddof=1) / mat.shape[0]


def posterior_robustness_sweep(
    data_clean: Dataset,
    specs,
    contamination: Contamination,
    prior: Prior,
    link: Link,
    config: WlbConfig,
):
    """Posterior-mean drift against outlier magnitude, per loss spec.

    The reference point for each spec is its fit on the clean data with
    the contaminated unit removed, matching the limit the robust
    posteriors are expected to approach as omega grows.  Each cell gets
    its own deterministic seed derived from (config.seed, spec, omega).
    All (1 + len(omegas)) * len(specs) fits run as one wlb_sample_batch,
    so with config.workers > 1 they share one process pool.  Returns
    len(omegas) SweepRows per spec, in spec order and then omega order.
    """
    c = contamination
    if not 0 <= c.unit < data_clean.n:
        raise ContractError(f"unit {c.unit} outside 0..{data_clean.n - 1}")
    data_ref = replace(data_clean, y=np.delete(data_clean.y, c.unit),
                       X=np.delete(data_clean.X, c.unit, axis=0))
    specs = list(specs)
    data_w = [inject_outlier(data_clean, c.unit, c.covariate, c.direction, omega)
              for omega in c.omegas]
    # Per spec: the reference fit, then one cell per omega; fit k of
    # spec si draws from seed (si, k).
    jobs = [
        (spec, d, replace(config, seed=_derived_seed(config.seed, (si, k))))
        for si, spec in enumerate(specs)
        for k, d in enumerate([data_ref, *data_w])
    ]
    fits = iter(wlb_sample_batch(jobs, prior, link))
    rows = []
    for spec in specs:
        ref_mean, ref_se2 = _mean_and_se2(next(fits))
        for omega in c.omegas:
            cell = next(fits)
            mean, se2 = _mean_and_se2(cell)
            diff = mean - ref_mean
            drift = float(np.linalg.norm(diff))
            var_terms = se2 + ref_se2
            if drift > 1e-12:
                # Delta method for ||mean - ref_mean|| with independent
                # Monte Carlo errors on both means.
                mc_se = float(np.sqrt(((diff / drift) ** 2 * var_terms).sum()))
            else:
                mc_se = float(np.sqrt(var_terms.mean()))
            rows.append(
                SweepRow(
                    loss=spec.kind,
                    tuning=spec.tuning,
                    omega=float(omega),
                    drift=drift,
                    mc_se=mc_se,
                    n_failed=cell.n_failed,
                )
            )
    return rows


def simulate_study(error: str, rhos, n: int, reps: int, specs, prior: Prior,
                   link: Link, config: WlbConfig, level: float = 0.95):
    """MSE and interval coverage of every spec under contamination.

    Replicate rep at rate rhos[ri] fits every spec to the dataset
    simulate_contaminated(rho, error, n, ...) draws from seed
    (config.seed, (ri, rep, 0)); its fit of specs[sj] draws from seed
    (config.seed, (ri, rep, 1 + sj)).  Each fit is scored by its
    posterior mean and central level interval.  Every dataset is drawn,
    and so every argument checked, before the first fit; the messages
    name the simulate flags that carry rhos and reps.  Returns one
    StudyCell per (rho, spec), in rho order and then spec order.
    """
    rhos = [float(rho) for rho in rhos]
    specs = list(specs)
    if not rhos:
        raise ContractError("--rho needs at least one value")
    for k, rho in enumerate(rhos):
        if rho in rhos[:k]:
            raise ContractError(f"--rho names {rho:g} more than once")
    if reps < 2:
        raise ContractError("--reps must be at least 2")
    _check_level(level)
    # (data, truth) per replicate, per rate; the truth is shared.
    datasets = [
        [simulate_contaminated(rho, error, n,
                               _derived_seed(config.seed, (ri, rep, 0)))
         for rep in range(reps)]
        for ri, rho in enumerate(rhos)
    ]
    cells = []
    for ri, (rho, replicates) in enumerate(zip(rhos, datasets)):
        # Per spec, in spec order: each replicate's estimate and intervals.
        ests = [[] for _ in specs]
        cis = [[] for _ in specs]
        for rep, (data, truth) in enumerate(replicates):
            # One batch, and so one process pool, per replicate: its fits
            # share the data, and a batch for the whole study would hold
            # every fit's draws at once.
            jobs = [
                (spec, data, replace(
                    config, seed=_derived_seed(config.seed, (ri, rep, 1 + sj))))
                for sj, spec in enumerate(specs)
            ]
            for sj, draws in enumerate(wlb_sample_batch(jobs, prior, link)):
                table = summarize(draws, level)
                ests[sj].append(
                    Theta(beta=table.mean[:data.p], delta=table.mean[data.p:]))
                cis[sj].append(np.column_stack([table.lower, table.upper]))
        for spec, spec_ests, spec_cis in zip(specs, ests, cis):
            cells.append(StudyCell(
                rho=rho, spec=spec,
                **score_estimates(spec_ests, spec_cis, truth)))
    return cells


def score_estimates(estimates, intervals, truth: Theta) -> dict:
    """Per-replicate MSE and interval coverage, split by parameter block.

    estimates: sequence of Theta point estimates, one per replicate.
    intervals: matching sequence of (n_params, 2) interval arrays in
    (beta, delta) order.  Returns arrays over replicates; averaging
    across replicates is the caller's job.
    """
    tv = truth.as_vector()
    p = truth.beta.size
    R = len(estimates)
    if len(intervals) != R:
        raise ContractError("estimates and intervals must have equal length")
    out = {
        "mse_beta": np.empty(R),
        "mse_delta": np.empty(R),
        "cp_beta": np.empty(R),
        "cp_delta": np.empty(R),
    }
    for r, (est, ci) in enumerate(zip(estimates, intervals)):
        v = est.as_vector()
        if v.size != tv.size:
            raise ContractError(
                f"replicate {r}: estimate has {v.size} parameters, "
                f"truth has {tv.size}"
            )
        ci = np.asarray(ci, dtype=float)
        if ci.shape != (tv.size, 2):
            raise ContractError(
                f"replicate {r}: intervals must have shape ({tv.size}, 2)"
            )
        err2 = (v - tv) ** 2
        inside = (ci[:, 0] <= tv) & (tv <= ci[:, 1])
        out["mse_beta"][r] = err2[:p].mean()
        out["mse_delta"][r] = err2[p:].mean()
        out["cp_beta"][r] = inside[:p].mean()
        out["cp_delta"][r] = inside[p:].mean()
    return out


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 1..max_lag, lag-0 normalized."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ContractError("series must be one-dimensional")
    if max_lag < 1:
        raise ContractError("max_lag must be at least 1")
    if x.size <= max_lag:
        raise ContractError(
            f"series length {x.size} must exceed max_lag {max_lag}"
        )
    # ptp is exact, so this also catches constants whose mean-centered
    # residuals are nonzero ulp noise
    if np.ptp(x) == 0.0:
        raise ConstantSeriesError("autocorrelation of a constant series")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise ConstantSeriesError("autocorrelation of a constant series")
    return np.array([float(xc[:-k] @ xc[k:]) / denom for k in range(1, max_lag + 1)])
