"""The benchmark's three workloads: inputs, operations and output checks.

Each workload is a fixed list of `ordrobust` command lines run through
`ordrobust.cli.main` in-process.  The program's inputs are fixed per
workload (see README.md, "Seeds"): the solver's stall tail makes the
cost of a WLB fit a chaotic function of its exact inputs, so inputs
that moved with the seed would move the work itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# Criterion-8/9 design, scaled to a few replicates.
STUDY_SEED = 808
STUDY_REPS = 4
STUDY_DRAWS = 60

# Criterion-6 design: its data stream and WLB seed.
SWEEP_DATA_SEED = 606
SWEEP_SEED = 607
SWEEP_N = 100
SWEEP_DRAWS = 200
SWEEP_OMEGAS = (0.0, 5.0, 10.0, 20.0, 50.0)

# Gumbel-error contaminated CSV for the loglog pipeline.
PIPE_DATA_SEED = 707
PIPE_SEED = 709
PIPE_N = 1000
PIPE_RHO = 0.03
PIPE_DRAWS = 60
PIPE_CHECK_SAMPLE = 6
PIPE_SPEC = {
    "response": "rating",
    "columns": {"age": "standardize", "arm": "dummy_code",
                "mood": "likert_sigma"},
}


@dataclass
class Plan:
    """One workload's prepared inputs: command lines and check context."""

    ops: list
    draws: int
    context: dict = field(default_factory=dict)
    # Command lines for the one-worker traced pass that counts solver
    # work hidden in pool workers; empty when every fit runs in-process.
    solver_ops: list = field(default_factory=list)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ------------------------------------------------------ study-contaminated

def prepare_study(out):
    argv = ["simulate", "--error", "normal", "--rho", "0.2", "--n", "200",
            "--reps", str(STUDY_REPS), "--losses", "loglik,dp,gamma-gen",
            "--tunings", "0.3", "--draws", str(STUDY_DRAWS),
            "--seed", str(STUDY_SEED), "--workers", "1", "--out-dir", out]
    return Plan(ops=[argv], draws=STUDY_REPS * 3 * STUDY_DRAWS)


def check_study(out, plan, seed):
    ref.check_study(ref.read_table(os.path.join(out, "mse.csv")),
                    ref.read_table(os.path.join(out, "coverage.csv")),
                    robust=[("dp", "0.3"), ("gamma-gen", "0.3")])


# ------------------------------------------------------------ sweep-drift

def prepare_sweep(out):
    rng = np.random.default_rng(SWEEP_DATA_SEED)
    x = rng.normal(0, 1, SWEEP_N)
    z = x + rng.normal(0, 1, SWEEP_N)
    y = 1 + (z > -1.0).astype(int) + (z > 1.0).astype(int)
    unit = next(i for i in range(SWEEP_N) if y[i] == 2 and abs(x[i]) < 0.3)
    data = os.path.join(out, "sweep_data.csv")
    spec = os.path.join(out, "sweep_spec.json")
    _write_csv(data, ["y", "x"], [[str(a), repr(float(b))] for a, b in zip(y, x)])
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"response": "y"}, fh)

    def argv(workers):
        return ["robustness", "--data", data, "--preprocess", spec,
                "--mode", "sweep", "--unit", str(unit), "--covariate", "0",
                "--direction", "1",
                "--omegas", ",".join(str(w) for w in SWEEP_OMEGAS),
                "--losses", "loglik,dp,gamma-syn,gamma-gen", "--tunings", "0.5",
                "--draws", str(SWEEP_DRAWS), "--seed", str(SWEEP_SEED),
                "--link", "probit", "--workers", str(workers),
                "--out-dir", out]

    n_fits = 4 * (1 + len(SWEEP_OMEGAS))
    return Plan(ops=[argv(2)], draws=n_fits * SWEEP_DRAWS, solver_ops=[argv(1)])


def check_sweep(out, plan, seed):
    ref.check_sweep(ref.read_table(os.path.join(out, "sweep.csv")),
                    ("dp", "gamma-syn", "gamma-gen"), SWEEP_OMEGAS)


# -------------------------------------------------------- pipeline-gumbel

def pipeline_data(path):
    """Write the gumbel-error CSV; return the contaminated unit indices.

    Latent z = 1.5 x + 1.0 treated + 0.4 (mood - 3) + eps with eps
    standard Gumbel (the loglog link's law).  The recorded age is
    45 + 12 x, and a share PIPE_RHO of units has it shifted by 20 SDs
    after the rating is fixed.
    """
    rng = np.random.default_rng(PIPE_DATA_SEED)
    n = PIPE_N
    x = rng.standard_normal(n)
    treated = rng.random(n) < 0.4
    mood = 1 + np.digitize(0.5 * x + rng.standard_normal(n), [-1.2, -0.4, 0.4, 1.2])
    eps = -np.log(-np.log(rng.random(n)))
    z = 1.5 * x + 1.0 * treated + 0.4 * (mood - 3) + eps
    y = 1 + (z[:, None] > np.array([-1.0, 0.5, 1.8, 3.2])[None, :]).sum(axis=1)
    bad = np.sort(rng.choice(n, size=int(round(PIPE_RHO * n)), replace=False))
    age = 45.0 + 12.0 * x
    age[bad] += 20 * 12.0
    arm = np.where(treated, "treated", "control")
    _write_csv(path, ["rating", "age", "arm", "mood"],
               [[str(a), repr(float(b)), c, str(d)]
                for a, b, c, d in zip(y, age, arm, mood)])
    return bad


def prepare_pipeline(out):
    data = os.path.join(out, "survey.csv")
    spec = os.path.join(out, "preprocess.json")
    bad = pipeline_data(data)
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(PIPE_SPEC, fh)
    common = ["--data", data, "--preprocess", spec, "--link", "loglog",
              "--draws", str(PIPE_DRAWS), "--seed", str(PIPE_SEED),
              "--workers", "1"]
    fit_dir = os.path.join(out, "fit")
    ops = [
        ["fit", *common, "--loss", "dp", "--tuning", "0.5", "--emit-draws",
         "--out-dir", fit_dir],
        ["residuals", *common, "--from-summary",
         os.path.join(fit_dir, "summary.csv"),
         "--out-dir", os.path.join(out, "residuals")],
        ["robustness", *common, "--mode", "index", "--losses", "loglik,dp",
         "--tunings", "0.5", "--out-dir", os.path.join(out, "index")],
    ]
    return Plan(ops=ops, draws=3 * PIPE_DRAWS,
                context={"data": data, "contaminated": bad})


def check_pipeline(out, plan, seed):
    X, y, names = ref.design_from_csv(plan.context["data"], PIPE_SPEC)
    p = X.shape[1]
    draws = ref.read_table(os.path.join(out, "fit", "draws.csv"))
    if len(draws) != PIPE_DRAWS:
        raise ref.CheckError(f"draws.csv: {len(draws)} rows, expected {PIPE_DRAWS}")
    n_conv = sum(r["status"] == "converged" for r in draws)
    sample = np.random.default_rng(seed).choice(
        n_conv, size=min(PIPE_CHECK_SAMPLE, n_conv), replace=False)
    ref.check_draws(draws, names, "dp", 0.5, PIPE_SEED, X, y, "loglog",
                    sorted(sample.tolist()))

    summary = ref.read_table(os.path.join(out, "fit", "summary.csv"))
    means = np.array([float(r["mean"]) for r in summary])
    ref.check_residuals(
        ref.read_table(os.path.join(out, "residuals", "residuals.csv")),
        means[:p], means[p:], X, y, "loglog")
    ref.check_index(ref.read_table(os.path.join(out, "index", "index.csv")),
                    X.shape[0], plan.context["contaminated"])


WORKLOADS = {
    "study-contaminated": (prepare_study, check_study),
    "sweep-drift": (prepare_sweep, check_sweep),
    "pipeline-gumbel": (prepare_pipeline, check_pipeline),
}
