"""End-to-end runs of the command-line interface via main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ordrobust
import ordrobust.cli as cli_module
import ordrobust.diagnostics as diag_module
import ordrobust.wlb as wlb_module
from ordrobust import (
    Dataset,
    LossSpec,
    PreprocessSpec,
    Prior,
    SamplingFailureError,
    Theta,
    WlbConfig,
    generalized_residuals,
    get_link,
    load_csv,
    simulate_study,
)
from ordrobust.cli import main

ROOT = Path(__file__).resolve().parents[1]


def make_inputs(tmp_path, n=40, outlier=False):
    rng = np.random.default_rng(99)
    x = np.linspace(-2.0, 2.0, n)
    z = 0.9 * x + rng.normal(0, 1, n)
    y = 1 + (z > -0.7).astype(int) + (z > 0.7).astype(int)
    lines = ["y,x"] + [f"{int(yi)},{float(xi)!r}" for yi, xi in zip(y, x)]
    if outlier:
        lines.append("1,25.0")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pre_path = tmp_path / "pre.json"
    pre_path.write_text('{"response": "y"}\n', encoding="utf-8")
    return str(data_path), str(pre_path)


def read_table(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestFit:
    def test_writes_summary_and_manifest(self, tmp_path):
        data, pre = make_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "40", "--seed", "3", "--out-dir", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "summary.csv")
        assert header == ["parameter", "mean", "median", "sd", "lower", "upper"]
        assert [r[0] for r in rows] == ["x", "delta1", "delta2"]
        for r in rows:
            assert float(r[4]) <= float(r[1]) <= float(r[5])

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "fit"
        assert manifest["seed"] == 3
        assert manifest["version"] == ordrobust.__version__
        assert manifest["config"]["draws"] == 40
        assert manifest["wall_time_seconds"] > 0
        digest = hashlib.sha256(open(data, "rb").read()).hexdigest()
        assert manifest["input_digests"][data] == digest
        assert set(manifest["input_digests"]) == {data, pre}

    def test_emit_draws(self, tmp_path):
        data, pre = make_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "dp",
            "--tuning", "0.5", "--draws", "25", "--seed", "1",
            "--out-dir", str(out), "--emit-draws",
        ])
        assert code == 0
        header, rows = read_table(out / "draws.csv")
        assert header == ["draw", "status", "x", "delta1", "delta2"]
        assert len(rows) == 25
        assert [int(r[0]) for r in rows] == list(range(25))
        for r in rows:
            assert r[1] in ("converged", "max_iters", "failed")
            assert float(r[3]) < float(r[4])  # cutpoints ordered

    def test_rerun_is_byte_identical(self, tmp_path):
        data, pre = make_inputs(tmp_path)
        argv_tail = [
            "--data", data, "--preprocess", pre, "--loss", "gamma-gen",
            "--tuning", "0.5", "--draws", "20", "--seed", "9", "--emit-draws",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", *argv_tail, "--out-dir", str(out_a)]) == 0
        assert main(["fit", *argv_tail, "--out-dir", str(out_b)]) == 0
        for name in ("summary.csv", "draws.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_loglik_warns_about_tuning(self, tmp_path, capsys):
        data, pre = make_inputs(tmp_path)
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--tuning", "0.5", "--draws", "10", "--out-dir",
            str(tmp_path / "o"),
        ])
        assert code == 0
        assert "ignores --tuning" in capsys.readouterr().err

    def test_robust_loss_requires_tuning(self, tmp_path, capsys):
        data, pre = make_inputs(tmp_path)
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "dp",
            "--draws", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "requires --tuning" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--loss", "gamma-syn", "--tuning", "inf"], "got inf"),
        (["--loss", "dp", "--tuning", "nan"], "got nan"),
        (["--loss", "loglik", "--prior-sd", "inf"], "sd_beta=inf"),
    ])
    def test_nonfinite_tuning_or_prior_sd_is_usage_error(
        self, tmp_path, capsys, argv, named
    ):
        data, pre = make_inputs(tmp_path)
        code = main([
            "fit", "--data", data, "--preprocess", pre, *argv,
            "--draws", "5", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_unknown_loss_is_usage_error(self, tmp_path):
        data, pre = make_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", data, "--preprocess", pre,
                  "--loss", "huber"])
        assert exc.value.code == 2

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        _, pre = make_inputs(tmp_path)
        code = main([
            "fit", "--data", str(tmp_path / "nope.csv"), "--preprocess", pre,
            "--loss", "loglik", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_sampling_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        data, pre = make_inputs(tmp_path)

        def boom(*a, **k):
            raise SamplingFailureError("all draws failed")

        monkeypatch.setattr(cli_module, "wlb_sample", boom)
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "sampling failure" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert ordrobust.__version__ in capsys.readouterr().out


class TestNonFiniteCells:
    """'nan' and 'inf' parse as floats but are no usable data."""

    def write(self, tmp_path, y_cells, x_cells, pre):
        lines = ["y,x"] + [f"{a},{b}" for a, b in zip(y_cells, x_cells)]
        data_path = tmp_path / "data.csv"
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pre_path = tmp_path / "pre.json"
        pre_path.write_text(json.dumps(pre), encoding="utf-8")
        return str(data_path), str(pre_path)

    def fit(self, tmp_path, data, pre):
        return main(["fit", "--data", data, "--preprocess", pre,
                     "--loss", "loglik", "--draws", "5",
                     "--out-dir", str(tmp_path / "o")])

    def test_nan_response_with_edges(self, tmp_path, capsys):
        data, pre = self.write(
            tmp_path, ["1", "nan", "3", "2", "3", "1"],
            ["0.1", "0.5", "-0.3", "0.9", "1.4", "-1.1"],
            {"response": "y", "edges": [1, 2]},
        )
        assert self.fit(tmp_path, data, pre) == 2
        err = capsys.readouterr().err
        assert "line 3, column 'y': not a finite number: 'nan'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_nonfinite_standardized_covariate(self, tmp_path, capsys, cell):
        data, pre = self.write(
            tmp_path, ["1", "2", "3", "2", "3", "1"],
            ["0.1", "0.5", cell, "0.9", "1.4", "-1.1"],
            {"response": "y", "columns": {"x": "standardize"}},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.fit(tmp_path, data, pre) == 2
        err = capsys.readouterr().err
        assert f"line 4, column 'x': not a finite number: '{cell}'" in err


class TestWorkersEnv:
    def test_invalid_env_value(self, tmp_path, monkeypatch, capsys):
        data, pre = make_inputs(tmp_path)
        monkeypatch.setenv("ORDROBUST_WORKERS", "many")
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "ORDROBUST_WORKERS" in capsys.readouterr().err

    def test_env_override_keeps_output(self, tmp_path, monkeypatch):
        data, pre = make_inputs(tmp_path, n=24)
        argv_tail = [
            "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "8", "--seed", "4",
        ]
        out_serial = tmp_path / "serial"
        assert main(["fit", *argv_tail, "--out-dir", str(out_serial)]) == 0
        monkeypatch.setenv("ORDROBUST_WORKERS", "2")
        out_par = tmp_path / "par"
        assert main(["fit", *argv_tail, "--out-dir", str(out_par)]) == 0
        assert (out_serial / "summary.csv").read_bytes() == \
            (out_par / "summary.csv").read_bytes()
        manifest = json.loads((out_par / "manifest.json").read_text())
        assert manifest["config"]["workers"] == 2

    @pytest.mark.parametrize(
        "sub", ["fit", "residuals", "simulate", "robustness"])
    def test_help_names_env_override(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "ORDROBUST_WORKERS" in capsys.readouterr().out


class TestResiduals:
    def test_inline_fit_bands_nested(self, tmp_path):
        data, pre = make_inputs(tmp_path)
        out = tmp_path / "out"
        code = main([
            "residuals", "--data", data, "--preprocess", pre,
            "--draws", "30", "--seed", "2", "--out-dir", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "residuals.csv")
        assert header == ["unit", "y", "residual", "band95_lo", "band95_hi",
                          "band99_lo", "band99_hi"]
        assert len(rows) == 40
        first = [float(c) for c in rows[0][3:]]
        b95_lo, b95_hi, b99_lo, b99_hi = first
        assert b99_lo <= b95_lo < b95_hi <= b99_hi
        for r in rows:
            assert [float(c) for c in r[3:]] == first  # constant bands
            assert np.isfinite(float(r[2]))

    def test_from_summary_reuses_point_estimate(self, tmp_path):
        data, pre = make_inputs(tmp_path)
        fit_out = tmp_path / "fit"
        assert main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "30", "--seed", "5", "--out-dir", str(fit_out),
        ]) == 0
        res_out = tmp_path / "res"
        code = main([
            "residuals", "--data", data, "--preprocess", pre,
            "--from-summary", str(fit_out / "summary.csv"),
            "--out-dir", str(res_out),
        ])
        assert code == 0
        _, srows = read_table(fit_out / "summary.csv")
        means = [float(r[1]) for r in srows]
        theta = Theta(beta=means[:1], delta=means[1:])
        dataset = load_csv(data, PreprocessSpec(response="y"))
        want = generalized_residuals(theta, dataset, get_link("probit"))
        _, rrows = read_table(res_out / "residuals.csv")
        got = np.array([float(r[2]) for r in rrows])
        assert_allclose(got, want, rtol=1e-12)
        manifest = json.loads((res_out / "manifest.json").read_text())
        assert str(fit_out / "summary.csv") in manifest["input_digests"]

    def test_outlying_unit_escapes_bands(self, tmp_path):
        data, pre = make_inputs(tmp_path, outlier=True)
        out = tmp_path / "out"
        assert main([
            "residuals", "--data", data, "--preprocess", pre,
            "--draws", "30", "--seed", "6", "--out-dir", str(out),
        ]) == 0
        _, rows = read_table(out / "residuals.csv")
        last = rows[-1]
        res, lo = float(last[2]), float(last[3])
        assert res < lo  # y = 1 at x = 25: far below the lower band

    @staticmethod
    def rename_covariate(data, name):
        text = open(data, encoding="utf-8").read()
        open(data, "w", encoding="utf-8").write(
            text.replace("y,x\n", f"y,{name}\n", 1)
        )

    @pytest.mark.parametrize("name", ["delta_t", "delta"])
    def test_from_summary_with_delta_named_covariate(self, tmp_path, name):
        # parameters are split by position, so a covariate whose name
        # starts with "delta" still round-trips
        data, pre = make_inputs(tmp_path)
        self.rename_covariate(data, name)
        fit_out = tmp_path / "fit"
        assert main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "20", "--seed", "5", "--out-dir", str(fit_out),
        ]) == 0
        _, srows = read_table(fit_out / "summary.csv")
        assert [r[0] for r in srows] == [name, "delta1", "delta2"]
        res_out = tmp_path / "res"
        assert main([
            "residuals", "--data", data, "--preprocess", pre,
            "--from-summary", str(fit_out / "summary.csv"),
            "--out-dir", str(res_out),
        ]) == 0
        _, rrows = read_table(res_out / "residuals.csv")
        assert len(rrows) == 40

    @pytest.mark.parametrize("name", ["delta1", "delta12"])
    def test_cutpoint_named_covariate_rejected(self, tmp_path, capsys, name):
        # summary.csv and draws.csv would carry two columns of this name
        data, pre = make_inputs(tmp_path)
        self.rename_covariate(data, name)
        code = main([
            "fit", "--data", data, "--preprocess", pre, "--loss", "loglik",
            "--draws", "20", "--seed", "5", "--out-dir", str(tmp_path / "fit"),
        ])
        assert code == 2
        assert repr(name) in capsys.readouterr().err

    def test_malformed_summary_rejected(self, tmp_path, capsys):
        data, pre = make_inputs(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n", encoding="utf-8")
        code = main([
            "residuals", "--data", data, "--preprocess", pre,
            "--from-summary", str(bad), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "not a summary.csv" in capsys.readouterr().err


class TestSimulate:
    def test_study_tables(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "simulate", "--error", "normal", "--rho", "0.2", "--reps", "2",
            "--n", "60", "--draws", "25", "--losses", "loglik,dp",
            "--tunings", "0.3,0.5", "--seed", "1", "--out-dir", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "mse.csv")
        assert header == ["loss", "tuning", "rho", "mean_log_mse_beta",
                          "mc_se_beta", "mean_log_mse_delta", "mc_se_delta"]
        # loglik once, dp crossed with both tunings
        assert [(r[0], r[1]) for r in rows] == [
            ("loglik", ""), ("dp", "0.3"), ("dp", "0.5"),
        ]
        for r in rows:
            assert float(r[2]) == 0.2
            assert np.isfinite(float(r[3]))
            assert float(r[4]) > 0
        cheader, crows = read_table(out / "coverage.csv")
        assert cheader == ["loss", "tuning", "rho", "cp_beta_pct",
                           "cp_delta_pct"]
        assert len(crows) == 3
        for r in crows:
            assert 0.0 <= float(r[3]) <= 100.0
            assert 0.0 <= float(r[4]) <= 100.0

    def test_reps_floor(self, tmp_path, capsys):
        code = main([
            "simulate", "--error", "normal", "--reps", "1",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "--reps" in capsys.readouterr().err

    def test_rho_bounds_propagate(self, tmp_path, capsys):
        code = main([
            "simulate", "--error", "normal", "--rho", "0.9", "--reps", "2",
            "--n", "60", "--draws", "10", "--losses", "loglik",
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_empty_rho_is_usage_error(self, tmp_path, capsys):
        # blank cells are dropped, so "," names no rate at all
        out = tmp_path / "o"
        code = main([
            "simulate", "--error", "normal", "--rho", ",", "--reps", "2",
            "--n", "60", "--draws", "5", "--losses", "loglik",
            "--out-dir", str(out),
        ])
        assert code == 2
        assert "--rho needs at least one value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["0.2,0.2", "0.1,0.2,0.20"])
    def test_repeated_rho_is_usage_error(self, tmp_path, capsys, rho):
        # a repeated rate would write two mse.csv rows with one key
        out = tmp_path / "o"
        code = main([
            "simulate", "--error", "normal", "--rho", rho, "--reps", "2",
            "--n", "60", "--draws", "5", "--losses", "loglik",
            "--out-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--rho names 0.2 more than once" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--error", "normal", "--losses", "dp",
          "--tunings", "0.5,abc"], "--tunings"),
        (["simulate", "--error", "normal", "--rho", "0.2,abc"], "--rho"),
        (["robustness", "--mode", "index", "--losses", "dp",
          "--tunings", "0.5,abc"], "--tunings"),
        (["robustness", "--mode", "sweep", "--unit", "0",
          "--omegas", "0,abc"], "--omegas"),
    ], ids=["simulate-tunings", "simulate-rho", "robustness-tunings",
            "robustness-omegas"])
    def test_bad_number_cell_is_usage_error(self, tmp_path, capsys, argv,
                                            flag):
        if argv[0] == "robustness":
            data, pre = make_inputs(tmp_path)
            argv = argv + ["--data", data, "--preprocess", pre]
        code = main(argv + ["--draws", "10", "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--rho", "0.2,0.7", "--reps", "10", "--draws", "300",
         "--losses", "loglik,dp", "--tunings", "0.3"],
        ["--level", "1", "--reps", "2", "--n", "60", "--draws", "5",
         "--losses", "loglik"],
    ], ids=["rho", "level"])
    def test_checked_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                    argv):
        def no_fits(*args):
            raise AssertionError("fitted before checking its arguments")

        monkeypatch.setattr(diag_module, "wlb_sample_batch", no_fits)
        out = tmp_path / "o"
        code = main(["simulate", "--error", "normal", *argv,
                     "--out-dir", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_tables_recompute_from_study(self, tmp_path, monkeypatch):
        # every cell is the study's scores, formatted with repr
        monkeypatch.delenv("ORDROBUST_WORKERS", raising=False)
        out = tmp_path / "out"
        assert main([
            "simulate", "--error", "normal", "--rho", "0.2", "--reps", "2",
            "--n", "60", "--draws", "25", "--losses", "loglik,dp",
            "--tunings", "0.3,0.5", "--seed", "1", "--out-dir", str(out),
        ]) == 0
        specs = [LossSpec(kind="loglik"), LossSpec(kind="dp", tuning=0.3),
                 LossSpec(kind="dp", tuning=0.5)]
        cells = simulate_study("normal", [0.2], 60, 2, specs, Prior(),
                               get_link("probit"), WlbConfig(n_draws=25,
                                                             seed=1))
        _, mse_rows = read_table(out / "mse.csv")
        _, cov_rows = read_table(out / "coverage.csv")
        for cell, mse_row, cov_row in zip(cells, mse_rows, cov_rows,
                                          strict=True):
            log_mb = np.log(cell.mse_beta)
            log_md = np.log(cell.mse_delta)
            assert mse_row[2:] == [repr(float(v)) for v in (
                0.2, log_mb.mean(), log_mb.std(ddof=1) / np.sqrt(2),
                log_md.mean(), log_md.std(ddof=1) / np.sqrt(2))]
            assert cov_row[2:] == [repr(float(v)) for v in (
                0.2, 100.0 * cell.cp_beta.mean(),
                100.0 * cell.cp_delta.mean())]

    def test_one_pool_per_replicate(self, tmp_path, recorded_pools):
        # the fits of one replicate share one batch and so one pool
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            assert main([
                "simulate", "--error", "normal", "--rho", "0.2", "--reps",
                "2", "--n", "60", "--draws", "6", "--losses", "loglik,dp",
                "--tunings", "0.3", "--seed", "3", "--workers", workers,
                "--out-dir", str(out),
            ]) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("mse.csv", "coverage.csv")])
        assert len(recorded_pools) == 2
        assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,named", [
    (["simulate", "--error", "normal", "--reps", "2", "--n", "60",
      "--losses", "loglik,dp", "--tunings", "0.3,0.3"], "dp at tuning 0.3"),
    (["simulate", "--error", "normal", "--reps", "2", "--n", "60",
      "--losses", "loglik,dp,loglik", "--tunings", "0.3"], "loglik"),
    (["robustness", "--mode", "index", "--losses", "dp,gamma-gen,dp",
      "--tunings", "0.5"], "dp at tuning 0.5"),
    (["robustness", "--mode", "sweep", "--unit", "0", "--omegas", "0,4",
      "--losses", "gamma-syn", "--tunings", "0.5,0.50"],
     "gamma-syn at tuning 0.5"),
], ids=["simulate-tuning", "simulate-loss", "robustness-index",
        "robustness-sweep"])
def test_repeated_loss_spec_is_usage_error(tmp_path, capsys, argv, named):
    # a repeated (loss, tuning) would be fitted and counted twice
    if argv[0] == "robustness":
        data, pre = make_inputs(tmp_path, n=25)
        argv = argv + ["--data", data, "--preprocess", pre]
    out = tmp_path / "o"
    code = main(argv + ["--draws", "5", "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"name {named} more than once" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["robustness", "--mode", "index", "--losses", "loglik,dp",
     "--tunings", ""],
    ["robustness", "--mode", "sweep", "--unit", "0", "--losses", "loglik,dp",
     "--tunings", ""],
    ["simulate", "--error", "normal", "--reps", "2", "--n", "60",
     "--losses", "loglik,dp", "--tunings", ","],
], ids=["index", "sweep", "simulate"])
def test_robust_loss_without_tunings_is_usage_error(tmp_path, capsys, argv):
    # the robust loss would otherwise be dropped and loglik fitted alone
    if argv[0] == "robustness":
        data, pre = make_inputs(tmp_path, n=25)
        argv = argv + ["--data", data, "--preprocess", pre]
    out = tmp_path / "o"
    assert main(argv + ["--draws", "5", "--out-dir", str(out)]) == 2
    assert "--losses dp needs at least one --tunings value" in \
        capsys.readouterr().err
    assert not out.exists()


class TestRunFrame:
    """What main does for every subcommand: the manifest and --out-dir."""

    def argv(self, tmp_path, sub):
        if sub == "simulate":
            return ["simulate", "--error", "normal", "--reps", "2",
                    "--n", "60", "--losses", "loglik"], []
        data, pre = make_inputs(tmp_path, n=25)
        tail = ["--data", data, "--preprocess", pre]
        if sub == "robustness":
            return ["robustness", "--mode", "index", "--losses", "loglik",
                    *tail], [data, pre]
        return [sub, "--loss", "loglik", *tail], [data, pre]

    @pytest.mark.parametrize(
        "sub", ["fit", "residuals", "simulate", "robustness"])
    def test_manifest(self, tmp_path, monkeypatch, sub):
        monkeypatch.delenv("ORDROBUST_WORKERS", raising=False)
        argv, inputs = self.argv(tmp_path, sub)
        out = tmp_path / "out"
        argv += ["--draws", "5", "--seed", "11", "--out-dir", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == sub
        assert manifest["seed"] == 11
        assert manifest["config"]["workers"] == 1
        flags = vars(cli_module.build_parser().parse_args(argv))
        del flags["func"]
        assert manifest["config"] == flags
        assert sorted(manifest["input_digests"]) == sorted(inputs)

    @pytest.mark.parametrize("sub,argv,named", [
        ("fit", ["--loss", "loglik", "--level", "1.5"], "level"),
        ("residuals", ["--from-summary", "BAD"], "not a summary.csv"),
        ("simulate", ["--error", "normal", "--reps", "1"], "--reps"),
        ("robustness", ["--mode", "index", "--losses", "loglik",
                        "--draws", "1"], "usable draws"),
        ("robustness", ["--mode", "sweep", "--unit", "3",
                        "--covariate", "-1"], "covariate -1 outside 0..0"),
    ], ids=["fit", "residuals", "simulate", "index", "sweep"])
    def test_input_error_leaves_no_out_dir(self, tmp_path, capsys, sub, argv,
                                           named):
        if sub != "simulate":
            data, pre = make_inputs(tmp_path, n=25)
            argv = argv + ["--data", data, "--preprocess", pre]
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n", encoding="utf-8")
        argv = [str(bad) if a == "BAD" else a for a in argv]
        out = tmp_path / "o"
        assert main([sub, "--draws", "5", "--out-dir", str(out), *argv]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub,argv", [
        ("fit", ["--loss", "loglik"]),
        ("residuals", []),
        ("simulate", ["--error", "normal", "--reps", "2", "--n", "60",
                      "--losses", "loglik"]),
        ("robustness", ["--mode", "index", "--losses", "loglik"]),
        ("robustness", ["--mode", "sweep", "--unit", "0", "--omegas", "0,4",
                        "--losses", "loglik"]),
    ], ids=["fit", "residuals", "simulate", "index", "sweep"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, sub, argv):
        if sub != "simulate":
            data, pre = make_inputs(tmp_path, n=25)
            argv = argv + ["--data", data, "--preprocess", pre]
        out = tmp_path / "o"
        assert main([sub, "--draws", "5", "--seed", "-1",
                     "--out-dir", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sub,argv,named", [
        ("fit", ["--loss", "loglik", "--level", "1.5"], "level"),
        ("fit", ["--loss", "loglik", "--draws", "1"], "usable draws"),
        ("residuals", ["--draws", "1"], "usable draws"),
        ("simulate", ["--error", "normal", "--reps", "2", "--n", "60",
                      "--losses", "loglik", "--draws", "1"], "usable draws"),
        ("robustness", ["--mode", "index", "--losses", "loglik",
                        "--draws", "1"], "usable draws"),
        ("robustness", ["--mode", "sweep", "--unit", "0", "--omegas", "0,4",
                        "--losses", "loglik", "--draws", "1"], "usable draws"),
    ], ids=["fit-level", "fit-draws", "residuals", "simulate", "index",
            "sweep"])
    def test_draws_and_level_checked_before_any_fit(
            self, tmp_path, capsys, monkeypatch, sub, argv, named):
        def no_fits(*args):
            raise AssertionError("fitted before checking its arguments")

        for module in (wlb_module, cli_module, diag_module):
            monkeypatch.setattr(module, "wlb_sample_batch", no_fits)
        if sub != "simulate":
            data, pre = make_inputs(tmp_path, n=25)
            argv = argv + ["--data", data, "--preprocess", pre]
        out = tmp_path / "o"
        assert main([sub, "--out-dir", str(out), *argv]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_from_summary_takes_any_draws(self, tmp_path, monkeypatch):
        # residuals --from-summary fits nothing, so --draws is unused
        data, pre = make_inputs(tmp_path, n=25)
        fit_out = tmp_path / "fit"
        assert main(["fit", "--data", data, "--preprocess", pre,
                     "--loss", "loglik", "--draws", "5",
                     "--out-dir", str(fit_out)]) == 0

        def no_fits(*args):
            raise AssertionError("residuals --from-summary fitted")

        monkeypatch.setattr(wlb_module, "wlb_sample_batch", no_fits)
        out = tmp_path / "res"
        assert main(["residuals", "--data", data, "--preprocess", pre,
                     "--from-summary", str(fit_out / "summary.csv"),
                     "--draws", "1", "--out-dir", str(out)]) == 0
        assert (out / "residuals.csv").exists()

    @pytest.mark.parametrize("spec,key", [
        ('{"response": "y", "edges": 5}', "edges"),
        ('{"response": "y", "edges": ["a"]}', "edges"),
        ('{"response": "y", "edges": [null]}', "edges"),
        ('{"response": "y", "edges": "12"}', "edges"),
        ('{"response": "y", "edges": [true, 2]}', "edges"),
        ('{"response": "y", "edges": [1, NaN]}', "edges"),
        ('{"response": "y", "columns": "abc"}', "columns"),
        ('{"response": "y", "columns": {"x": 3}}', "columns"),
    ], ids=["number", "string-cell", "null-cell", "string", "bool-cell",
            "nan-cell", "columns-string", "columns-value"])
    def test_malformed_preprocess_json(self, tmp_path, capsys, spec, key):
        data, _ = make_inputs(tmp_path, n=25)
        pre = tmp_path / "bad.json"
        pre.write_text(spec + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit", "--data", data, "--preprocess", str(pre),
                     "--loss", "loglik", "--draws", "5",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_runs_as_a_module(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "ordrobust.cli", *argv], cwd=tmp_path,
                env=env, capture_output=True, text=True, timeout=120)

        version = run("--version")
        assert version.returncode == 0
        assert version.stdout.strip() == ordrobust.__version__
        usage = run("fit", "--loss", "loglik")
        assert usage.returncode == 2
        assert "--data" in usage.stderr


class TestRobustness:
    def test_index_mode(self, tmp_path):
        data, pre = make_inputs(tmp_path, n=25)
        out = tmp_path / "out"
        code = main([
            "robustness", "--data", data, "--preprocess", pre,
            "--mode", "index", "--losses", "loglik,dp", "--tunings", "0.5",
            "--draws", "20", "--seed", "8", "--out-dir", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "index.csv")
        assert header == ["loss", "tuning", "unit", "index", "affinity"]
        assert len(rows) == 2 * 25
        assert [r[0] for r in rows[:25]] == ["loglik"] * 25
        assert [int(r[2]) for r in rows[:25]] == list(range(25))
        for r in rows:
            assert 0.0 <= float(r[3]) <= np.pi / 2
            assert 0.0 < float(r[4]) <= 1.0

    def test_index_mode_worker_count_keeps_bytes(self, tmp_path):
        # both loss kinds are fitted as one batch on one pool
        data, pre = make_inputs(tmp_path, n=25)
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}"
            assert main([
                "robustness", "--data", data, "--preprocess", pre,
                "--mode", "index", "--losses", "loglik,dp", "--tunings",
                "0.5", "--draws", "20", "--seed", "8", "--workers", workers,
                "--out-dir", str(out),
            ]) == 0
            outs.append((out / "index.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_mode(self, tmp_path):
        data, pre = make_inputs(tmp_path, n=25)
        out = tmp_path / "out"
        code = main([
            "robustness", "--data", data, "--preprocess", pre,
            "--mode", "sweep", "--losses", "loglik,dp", "--tunings", "0.5",
            "--omegas", "0,4", "--unit", "0", "--draws", "20",
            "--seed", "8", "--out-dir", str(out),
        ])
        assert code == 0
        header, rows = read_table(out / "sweep.csv")
        assert header == ["loss", "tuning", "omega", "drift", "mc_se",
                          "n_failed"]
        assert [(r[0], r[1], float(r[2])) for r in rows] == [
            ("loglik", "", 0.0), ("loglik", "", 4.0),
            ("dp", "0.5", 0.0), ("dp", "0.5", 4.0),
        ]
        for r in rows:
            assert float(r[3]) >= 0.0
            assert int(r[5]) == 0

    def test_sweep_needs_two_usable_draws(self, tmp_path, capsys):
        # one draw has no Monte Carlo error; the sweep refuses it like
        # fit and the index mode do, instead of writing mc_se = nan
        data, pre = make_inputs(tmp_path, n=25)
        code = main([
            "robustness", "--data", data, "--preprocess", pre,
            "--mode", "sweep", "--losses", "dp", "--tunings", "0.5",
            "--omegas", "0,4", "--unit", "0", "--draws", "1",
            "--seed", "8", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "usable draws" in capsys.readouterr().err

    def test_sweep_requires_unit(self, tmp_path, capsys):
        data, pre = make_inputs(tmp_path, n=25)
        code = main([
            "robustness", "--data", data, "--preprocess", pre,
            "--mode", "sweep", "--losses", "dp", "--tunings", "0.5",
            "--draws", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "--unit" in capsys.readouterr().err
