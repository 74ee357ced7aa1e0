"""The names bench/tracer.py looks up in the library still exist.

The tracer wraps library functions by name from outside the package, so
renaming or moving one of them breaks `bench/run.py --trace 1` with an
AttributeError.  This test installs the tracer, runs one small fit, and
checks that uninstalling restores every patched object.  It also pins
what bench/ reads from that fit: the tracer reads n_draws, and
bench/test_reference.py iterates draws and calls as_vector on each.
"""

import importlib.util
from pathlib import Path

import numpy as np

import ordrobust.cli as cli
from ordrobust import links, losses, wlb

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_objects():
    """Every object the tracer replaces that this test checks, by name."""
    return {"cli.main": cli.main, "wlb.minimize": wlb.minimize,
            "value_and_grad": losses.ObjectiveCore.value_and_grad,
            **{f"LINKS[{k}]": link for k, link in links.LINKS.items()}}


def test_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.delenv("ORDROBUST_WORKERS", raising=False)
    rng = np.random.default_rng(61)
    x = rng.normal(0, 1, 60)
    z = 0.9 * x + rng.normal(0, 1, 60)
    y = 1 + (z > -0.7).astype(int) + (z > 0.7).astype(int)
    data = tmp_path / "data.csv"
    rows = "".join(f"{a},{b!r}\n" for a, b in zip(y, x.tolist()))
    data.write_text("y,x\n" + rows, encoding="utf-8")
    pre = tmp_path / "pre.json"
    pre.write_text('{"response": "y"}\n', encoding="utf-8")

    fits = []

    def recording_wlb_sample(*args):
        fits.append(real_wlb_sample(*args))
        return fits[-1]

    real_wlb_sample = cli.wlb_sample
    monkeypatch.setattr(cli, "wlb_sample", recording_wlb_sample)
    before = patched_objects()
    tracer = load_tracer().Tracer().install()
    try:
        code = cli.main([
            "fit", "--data", str(data), "--preprocess", str(pre),
            "--loss", "dp", "--tuning", "0.5", "--draws", "4", "--seed", "2",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert tracer.metrics()["wlb.minimize.calls"] > 0
        (fit,) = fits
        assert fit.n_draws == 4
        assert tracer.metrics()["wlb.wlb_sample.calls"] == 1
        stacked = np.array([theta.as_vector() for theta in fit.draws])
        assert np.array_equal(stacked, fit.matrix(only_ok=False))
    finally:
        tracer.uninstall()
    after = patched_objects()
    assert after.keys() == before.keys()
    for name, obj in before.items():
        assert after[name] is obj, name
