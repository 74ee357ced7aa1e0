"""Latent-noise distributions for cumulative-link ordinal models.

A link is the distribution G of the latent noise term: the model puts
a latent z = x @ beta + eps with eps ~ G, and the observed category is
determined by which cutpoint interval z falls in.  Each link is one
fused kernel and a quantile function:

    cdf_sf_pdf(t)  (G(t), 1 - G(t), g(t)) with g = G', the sf computed
                   without cancellation in the tail
    quantile(q)    G^{-1}(q) for q in (0, 1)

The kernel computes the intermediates its parts share once (exp(-t)
for loglog, exp(t) for cloglog, pdf = cdf * sf for logit).  A link's
cdf, sf and pdf are its kernel's parts, not separate code.  All
callables are module-level functions or partials of them, so a Link
pickles into pool workers.

All five families are standardized (no free location or scale); the
model is identified by fixing the latent scale to 1 and omitting an
intercept, so links carry no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy import special

__all__ = ["Link", "LINKS", "get_link"]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_MAX = np.finfo(float).max


@dataclass(frozen=True)
class Link:
    name: str
    cdf: Callable
    pdf: Callable
    sf: Callable
    quantile: Callable
    cdf_sf_pdf: Callable


def _component(triple, k, t):
    """Part k of triple(t): 0 the cdf, 1 the sf, 2 the pdf."""
    return triple(t)[k]


def _link(name: str, triple, quantile) -> Link:
    """The Link of one fused kernel, with cdf, sf and pdf its parts."""
    return Link(name, cdf=partial(_component, triple, 0),
                pdf=partial(_component, triple, 2),
                sf=partial(_component, triple, 1),
                quantile=quantile, cdf_sf_pdf=triple)


def _check_q(q):
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    return q


def _probit_cdf_sf_pdf(t):
    t = np.asarray(t, dtype=float)
    # One ndtr per element: q = ndtr(-|t|), the smaller tail, relatively
    # accurate; the larger is 1 - q.  That is ndtr(t) and ndtr(-t) bit for
    # bit where |t| >= 1, within 1 ulp below (scipy's erf branch).  t * t
    # overflows beyond |t| ~ 1e154, where the density is 0 anyway.
    with np.errstate(over="ignore"):
        pdf = np.exp(-0.5 * t * t) / _SQRT_2PI
    q = special.ndtr(-np.abs(t))
    big, lower = 1.0 - q, t < 0.0
    return np.where(lower, q, big), np.where(lower, big, q), pdf


def _probit_quantile(q):
    return special.ndtri(_check_q(q))


def _logit_cdf_sf_pdf(t):
    t = np.asarray(t, dtype=float)
    cdf = special.expit(t)
    sf = special.expit(-t)
    # expit(t) * expit(-t) stays finite for any t, unlike the
    # exp(t) / (1 + exp(t))^2 form.
    return cdf, sf, cdf * sf


def _logit_quantile(q):
    return special.logit(_check_q(q))


def _capped_exp(s):
    """exp(s) capped at the largest double.

    The Gumbel families write g = e exp(-e) with e = exp(-+t); where e
    would overflow, exp(-e) is 0 either way, and the cap makes g an
    exact 0 there instead of inf * 0 = nan.
    """
    with np.errstate(over="ignore"):
        return np.minimum(np.exp(s), _MAX)


def _loglog_cdf_sf_pdf(t):
    e = _capped_exp(-np.asarray(t, dtype=float))
    cdf = np.exp(-e)
    return cdf, -np.expm1(-e), e * cdf


def _loglog_quantile(q):
    return -np.log(-np.log(_check_q(q)))


def _cloglog_cdf_sf_pdf(t):
    e = _capped_exp(np.asarray(t, dtype=float))
    sf = np.exp(-e)
    return -np.expm1(-e), sf, e * sf


def _cloglog_quantile(q):
    return np.log(-np.log1p(-_check_q(q)))


def _cauchit_cdf(t):
    t = np.asarray(t, dtype=float)
    # arctan(t) + arctan(1/t) = -pi/2 for t < 0, so the reflected form
    # arctan(-1/t)/pi equals 0.5 + arctan(t)/pi without the cancellation
    # the direct form suffers in the lower tail.
    safe = np.where(t < -1.0, t, -1.0)
    tail = np.arctan(-1.0 / safe) / np.pi
    return np.where(t < -1.0, tail, 0.5 + np.arctan(t) / np.pi)


def _cauchit_cdf_sf_pdf(t):
    t = np.asarray(t, dtype=float)
    # The sf follows from the symmetry of the density.  t * t overflows
    # beyond |t| ~ 1e154, where the density is 0 anyway.
    with np.errstate(over="ignore"):
        pdf = 1.0 / (np.pi * (1.0 + t * t))
    return _cauchit_cdf(t), _cauchit_cdf(-t), pdf


def _cauchit_quantile(q):
    return np.tan(np.pi * (_check_q(q) - 0.5))


LINKS = {
    "probit": _link("probit", _probit_cdf_sf_pdf, _probit_quantile),
    "logit": _link("logit", _logit_cdf_sf_pdf, _logit_quantile),
    "loglog": _link("loglog", _loglog_cdf_sf_pdf, _loglog_quantile),
    "cloglog": _link("cloglog", _cloglog_cdf_sf_pdf, _cloglog_quantile),
    "cauchit": _link("cauchit", _cauchit_cdf_sf_pdf, _cauchit_quantile),
}


def get_link(name: str) -> Link:
    """Look up a link family by name.

    Raises ValueError naming the valid families if `name` is unknown.
    """
    try:
        return LINKS[name]
    except KeyError:
        valid = ", ".join(sorted(LINKS))
        raise ValueError(
            f"unknown link {name!r}; valid links are: {valid}"
        ) from None
