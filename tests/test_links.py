"""Link family contracts: cdf/pdf/sf/quantile consistency and accuracy."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrobust import LINKS, get_link

import oracles

ALL = sorted(LINKS)

# Ranges where the cdf is far from denormal on both sides, so central
# finite differences of it are trustworthy.
FD_RANGE = {
    "probit": (-4.0, 4.0),
    "logit": (-4.0, 4.0),
    "cauchit": (-4.0, 4.0),
    "loglog": (-2.0, 6.0),
    "cloglog": (-6.0, 2.0),
}


def test_get_link_unknown_name():
    with pytest.raises(ValueError, match="probit"):
        get_link("cubit")


@pytest.mark.parametrize("name", ALL)
def test_cdf_monotone_and_bounded(name):
    link = get_link(name)
    t = np.linspace(-30, 30, 2001)
    c = link.cdf(t)
    assert np.all(np.diff(c) >= 0)
    assert np.all((c >= 0) & (c <= 1))
    assert link.cdf(-1e8) < 1e-6
    assert link.cdf(1e8) > 1 - 1e-6
    assert np.all(link.pdf(t) >= 0)


@pytest.mark.parametrize("name", ALL)
def test_cdf_sf_complement(name):
    link = get_link(name)
    t = np.linspace(-6, 6, 121)
    assert_allclose(link.cdf(t) + link.sf(t), 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ALL)
def test_quantile_round_trip(name):
    link = get_link(name)
    q = np.concatenate([[1e-6, 1 - 1e-6], np.linspace(0.001, 0.999, 97)])
    assert_allclose(link.cdf(link.quantile(q)), q, atol=1e-10)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, np.nan])
def test_quantile_domain_error(name, bad):
    link = get_link(name)
    with pytest.raises(ValueError):
        link.quantile(bad)
    with pytest.raises(ValueError):
        link.quantile(np.array([0.4, bad]))


def test_logit_at_zero():
    link = get_link("logit")
    assert_allclose(link.cdf(0.0), 0.5, rtol=1e-15)
    assert_allclose(link.pdf(0.0), 0.25, rtol=1e-15)


def test_loglog_at_zero():
    link = get_link("loglog")
    assert_allclose(link.cdf(0.0), np.exp(-1.0), rtol=1e-15)
    assert_allclose(link.pdf(0.0), np.exp(-1.0), rtol=1e-15)
    # cloglog mirrors it on the other side
    assert_allclose(get_link("cloglog").cdf(0.0), 1 - np.exp(-1.0), rtol=1e-15)


def test_probit_at_one_against_series():
    link = get_link("probit")
    want_cdf = oracles.normal_cdf(1.0)
    want_pdf = oracles.normal_pdf(1.0)
    assert_allclose(link.cdf(1.0), want_cdf, rtol=1e-13)
    assert_allclose(link.pdf(1.0), want_pdf, rtol=1e-13)
    assert_allclose(want_cdf, 0.84134, atol=5e-6)
    assert_allclose(want_pdf, 0.24197, atol=5e-6)


def test_cauchit_median():
    assert get_link("cauchit").quantile(0.5) == 0.0


def test_loglog_quantile_inverts_closed_form():
    assert_allclose(get_link("loglog").quantile(np.exp(-1.0)), 0.0, atol=1e-15)


def test_probit_upper_quantile_against_bisection():
    link = get_link("probit")
    want = oracles.bisect_quantile(oracles.normal_cdf, 0.975, -10, 10)
    assert_allclose(link.quantile(0.975), want, atol=1e-10)
    assert_allclose(want, 1.95996, atol=5e-6)


@pytest.mark.parametrize("name", ALL)
def test_pdf_is_cdf_derivative(name):
    link = get_link(name)
    lo, hi = FD_RANGE[name]
    rng = np.random.default_rng(11)
    t = rng.uniform(lo, hi, 100)
    h = 1e-6
    fd = (link.cdf(t + h) - link.cdf(t - h)) / (2 * h)
    rel = np.abs(fd - link.pdf(t)) / np.abs(link.pdf(t))
    assert rel.max() < 1e-5


def test_probit_sf_deep_tail():
    # survival values stay positive and correct where 1 - cdf would be 0
    link = get_link("probit")
    for t in (10.0, 12.0):
        want = oracles.erfc_cf(t / np.sqrt(2.0)) / 2.0
        assert_allclose(link.sf(t), want, rtol=1e-12)


def test_probit_kernel_against_scipy():
    # one ndtr per element: bit for bit where |t| >= 1, where scipy takes
    # its erfc branch for ndtr(t) and ndtr(-t); within 1 ulp inside
    from scipy import special

    t = np.concatenate([np.linspace(-40.0, 40.0, 160_001),
                        [1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan]])
    cdf, sf, pdf = get_link("probit").cdf_sf_pdf(t)
    outer = np.abs(t) >= 1.0
    inner = np.abs(t) < 1.0
    assert outer.sum() + inner.sum() == t.size - 1
    for got, want in ((cdf, special.ndtr(t)), (sf, special.ndtr(-t))):
        assert np.array_equal(got[outer], want[outer])
        ulp = np.spacing(np.maximum(got[inner], want[inner]))
        assert np.all(np.abs(got[inner] - want[inner]) <= ulp)
    assert np.array_equal(pdf, np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi),
                          equal_nan=True)
    assert np.isnan(cdf[-1]) and np.isnan(sf[-1]) and np.isnan(pdf[-1])


def test_cauchit_lower_tail_reflection():
    # the arctan reflection keeps relative accuracy where 0.5 + atan/pi cancels
    link = get_link("cauchit")
    t = -1e8
    assert_allclose(link.cdf(t), 1.0 / (np.pi * 1e8), rtol=1e-6)


@pytest.mark.parametrize("name", ALL)
def test_links_pickle(name):
    import pickle

    link = get_link(name)
    clone = pickle.loads(pickle.dumps(link))
    t = np.linspace(-2, 2, 9)
    for f in ("cdf", "sf", "pdf", "cdf_sf_pdf"):
        got, want = getattr(clone, f)(t), getattr(link, f)(t)
        assert_allclose(got, want, rtol=0, atol=0)


# Zero, the unit points, tails where exp(-+t) under- or overflows, the
# infinities, finite points where t * t overflows, and a dense stretch
# in between.
TRIPLE_GRID = np.concatenate([
    [0.0, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0, np.inf, -np.inf,
     1e200, -1e200],
    np.linspace(-12.0, 12.0, 961),
])


@pytest.mark.parametrize("name", ALL)
def test_fused_triple_matches_separate_calls(name):
    link = get_link(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, sf, pdf = link.cdf_sf_pdf(TRIPLE_GRID)
    for part in (cdf, sf, pdf):
        assert part.shape == TRIPLE_GRID.shape
        assert np.all(np.isfinite(part))
    assert np.all(pdf[7:9] == 0.0) and np.all(pdf[9:11] == 0.0)
    assert cdf[8] == 0.0 and cdf[7] == 1.0
    assert sf[7] == 0.0 and sf[8] == 1.0
    # The Link's cdf, sf and pdf fields (declared in the order cdf, pdf,
    # sf) are the triple's parts 0, 1 and 2.
    for got, want in zip((link.cdf(TRIPLE_GRID), link.sf(TRIPLE_GRID),
                          link.pdf(TRIPLE_GRID)), (cdf, sf, pdf)):
        np.testing.assert_array_equal(got, want)
