"""Span tracing of ordrobust's public functions, installed from outside.

Wrappers are put where each name is looked up at call time: module
globals of the importing module (cli.wlb_sample, diagnostics.wlb_sample,
wlb.minimize, ...), the ObjectiveCore methods on the class, and the
LINKS entries, which get_link reads on every call.  Each wrapped call
records one span (name, start, end, parent) in memory; spans are
written out when the run ends, and self times are computed from them.

Calls made in pool worker processes are invisible: a forked worker
switches its copy of the tracer off, and traced link callables pickle
as the plain function.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import replace

import numpy as np

KINDS = ("loglik", "dp", "gamma_general", "gamma_synthetic")

# Span names, each with the module it belongs to.
NAMES = (
    "cli.main",
    "wlb.wlb_sample", "wlb.minimize",
    "losses.value", "losses.value_and_grad",
    "links.cdf", "links.sf", "links.pdf",
    "model.category_probs", "model.generalized_residuals",
    "diagnostics.summarize", "diagnostics.score_estimates",
    "diagnostics.robustness_report", "diagnostics.posterior_robustness_sweep",
    "datasim.simulate_contaminated", "datasim.load_csv", "datasim.inject_outlier",
)
_ID = {name: i for i, name in enumerate(NAMES)}

# (module attribute, span name) pairs wrapped in each importing module.
_MODULE_SITES = {
    "cli": [
        ("main", "cli.main"),
        ("wlb_sample", "wlb.wlb_sample"),
        ("summarize", "diagnostics.summarize"),
        ("score_estimates", "diagnostics.score_estimates"),
        ("robustness_report", "diagnostics.robustness_report"),
        ("posterior_robustness_sweep", "diagnostics.posterior_robustness_sweep"),
        ("simulate_contaminated", "datasim.simulate_contaminated"),
        ("load_csv", "datasim.load_csv"),
        ("generalized_residuals", "model.generalized_residuals"),
    ],
    "diagnostics": [
        ("wlb_sample", "wlb.wlb_sample"),
        ("inject_outlier", "datasim.inject_outlier"),
        ("category_probs", "model.category_probs"),
    ],
    "losses": [("category_probs", "model.category_probs")],
    "wlb": [("minimize", "wlb.minimize")],
}


class Tracer:
    """In-memory span store.  One instance per traced pass."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # Per-span detail: array elements for links, iterations for
        # minimize, draws for wlb_sample, loss kind code for losses.
        self.detail = array("q")
        self.kind = {}     # minimize span -> loss kind code
        self.status = {}   # minimize span -> True if it hit max_iters
        self.stack = [-1]
        self.active = True
        self._undo = []

    # -- recording ---------------------------------------------------

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.detail.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span, detail=None):
        nid = _ID[span]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if detail is not None:
                tracer.detail[idx] = detail(idx, args, out)
            return out

        return traced

    # -- installation ------------------------------------------------

    def install(self):
        """Wrap every traced site of the imported ordrobust package."""
        from ordrobust import cli, diagnostics, links, losses, wlb

        modules = {"cli": cli, "diagnostics": diagnostics,
                   "losses": losses, "wlb": wlb}
        details = {"wlb.minimize": self._minimize_detail,
                   "wlb.wlb_sample": lambda idx, a, out: out.n_draws}
        for mod_name, sites in _MODULE_SITES.items():
            mod = modules[mod_name]
            for attr, span in sites:
                self._set(mod, attr, self._wrap(getattr(mod, attr), span,
                                                details.get(span)))
        core = losses.ObjectiveCore
        for meth in ("value", "value_and_grad"):
            self._set(core, meth, self._wrap(getattr(core, meth),
                                             f"losses.{meth}", self._loss_detail))
        for key, link in list(links.LINKS.items()):
            traced = replace(link, **{
                f: _TracedArrayFn(getattr(link, f), self, _ID[f"links.{f}"])
                for f in ("cdf", "sf", "pdf")})
            self._undo.append((links.LINKS.__setitem__, key, link))
            links.LINKS[key] = traced
        os.register_at_fork(after_in_child=self._disable)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v),
                           attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for setter, key, value in reversed(self._undo):
            setter(key, value)
        self._undo.clear()
        self.active = False

    def _disable(self):
        self.active = False

    # -- details -----------------------------------------------------

    def _minimize_detail(self, idx, args, out):
        self.status[idx] = out.status == "max_iters"
        return out.n_iters

    def _loss_detail(self, idx, args, out):
        code = KINDS.index(args[0].spec.kind)
        parent = self.parent[idx]
        if parent >= 0 and self.name[parent] == _ID["wlb.minimize"]:
            self.kind.setdefault(parent, code)
        return code

    # -- output ------------------------------------------------------

    def arrays(self):
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        detail = np.array(self.detail, dtype=np.int64)
        return name, parent, start, end, detail

    def save(self, path):
        name, parent, start, end, detail = self.arrays()
        np.savez_compressed(path, names=np.array(NAMES), name=name,
                            parent=parent, start=start, end=end, detail=detail)

    def metrics(self):
        """Per-layer metrics of every span recorded so far."""
        name, parent, start, end, detail = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=name.size)
        self_time = dur - child
        m = {}

        def sel(span):
            return name == _ID[span]

        def total(span):
            return float(dur[sel(span)].sum())

        mins = np.flatnonzero(sel("wlb.minimize"))
        iters = detail[mins]
        capped = np.array([self.status.get(i, False) for i in mins], dtype=bool)
        kinds = np.array([self.kind.get(i, -1) for i in mins])
        draws = int(detail[sel("wlb.wlb_sample")].sum())
        m["wlb.minimize.calls"] = int(mins.size)
        m["wlb.minimize.iters"] = int(iters.sum())
        m["wlb.minimize.iters_p50"] = float(np.median(iters)) if mins.size else 0.0
        m["wlb.minimize.max_iters"] = int(capped.sum())
        m["wlb.minimize.max_iters_s"] = float(dur[mins][capped].sum())
        m["wlb.minimize_s"] = total("wlb.minimize")
        m["wlb.draws_per_minimize"] = draws / mins.size if mins.size else 0.0
        for code, kind in enumerate(KINDS):
            k = kinds == code
            m[f"wlb.minimize.calls.{kind}"] = int(k.sum())
            m[f"wlb.minimize.iters.{kind}"] = int(iters[k].sum())
            m[f"wlb.minimize.max_iters.{kind}"] = int((capped & k).sum())
            m[f"wlb.minimize.max_iters_s.{kind}"] = float(dur[mins][capped & k].sum())

        val, vag = sel("losses.value"), sel("losses.value_and_grad")
        m["losses.value.calls"] = int(val.sum())
        m["losses.value_and_grad.calls"] = int(vag.sum())
        m["losses.value_us_p50"] = 1e6 * float(np.median(dur[val])) if val.any() else 0.0
        m["losses.value_and_grad_us_p50"] = (
            1e6 * float(np.median(dur[vag])) if vag.any() else 0.0)
        m["losses.s"] = float(dur[val | vag].sum())
        for code, kind in enumerate(KINDS):
            k = detail == code
            m[f"losses.value.calls.{kind}"] = int((val & k).sum())
            m[f"losses.value_and_grad.calls.{kind}"] = int((vag & k).sum())
            m[f"losses.s.{kind}"] = float(dur[(val | vag) & k].sum())
        n_iters = int(iters.sum())
        m["wlb.evals_per_iter"] = (
            (m["losses.value.calls"] + m["losses.value_and_grad.calls"]) / n_iters
            if n_iters else 0.0)

        for f in ("cdf", "sf", "pdf"):
            m[f"links.{f}.elements"] = int(detail[sel(f"links.{f}")].sum())
        m["links.s"] = sum(total(f"links.{f}") for f in ("cdf", "sf", "pdf"))

        m["wlb.wlb_sample.calls"] = int(sel("wlb.wlb_sample").sum())
        m["wlb.wlb_sample_s"] = total("wlb.wlb_sample")
        m["wlb.wlb_sample.self_s"] = float(self_time[sel("wlb.wlb_sample")].sum())
        m["diagnostics.robustness_report_s"] = total("diagnostics.robustness_report")
        m["model.category_probs.calls"] = int(sel("model.category_probs").sum())
        m["model.category_probs_s"] = total("model.category_probs")
        m["diagnostics.posterior_robustness_sweep.self_s"] = float(
            self_time[sel("diagnostics.posterior_robustness_sweep")].sum())
        m["datasim.inject_outlier_s"] = total("datasim.inject_outlier")
        m["diagnostics.summarize_s"] = total("diagnostics.summarize")
        m["diagnostics.score_estimates_s"] = total("diagnostics.score_estimates")
        m["datasim.simulate_contaminated_s"] = total("datasim.simulate_contaminated")
        m["datasim.load_csv_s"] = total("datasim.load_csv")
        m["model.generalized_residuals_s"] = total("model.generalized_residuals")
        m["cli.main_s"] = total("cli.main")
        m["cli.self_s"] = float(self_time[sel("cli.main")].sum())
        return m


class _TracedArrayFn:
    """A link callable that records a span and the array size it got."""

    def __init__(self, fn, tracer, nid):
        self.fn = fn
        self.tracer = tracer
        self.nid = nid

    def __call__(self, t):
        tracer = self.tracer
        if not tracer.active:
            return self.fn(t)
        idx = tracer.open(self.nid)
        try:
            return self.fn(t)
        finally:
            tracer.close(idx)
            tracer.detail[idx] = np.size(t)

    def __reduce__(self):
        # A worker process receives the untraced function.
        return (_identity, (self.fn,))


def _identity(x):
    return x


_SOLVER_METRICS = ("wlb.minimize", "wlb.evals_per_iter", "wlb.draws_per_minimize",
                   "losses.", "links.")


def is_solver_metric(name):
    """Metrics of calls that run inside pool workers when there are any."""
    return name.startswith(_SOLVER_METRICS)


def unit_of(name):
    parts = name.split(".")
    base = parts[-2] if parts[-1] in KINDS else parts[-1]
    if base.endswith("_us_p50"):
        return "us"
    if base == "s" or base.endswith("_s"):
        return "s"
    if base in ("draws_per_minimize", "evals_per_iter"):
        return "ratio"
    return "count"
