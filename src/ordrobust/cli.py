"""Command-line interface.

Four subcommands wire the library into reproducible runs:

    fit         sample one posterior, write summary.csv (+ draws.csv)
    residuals   generalized residuals with empirical bands
    simulate    diagnostics.simulate_study, write mse.csv + coverage.csv
    robustness  per-unit index table or an omega sweep table

main is the one run frame: it times the run, checks the seed, resolves
the worker count and the Prior once, and passes both to the
subcommand, which returns the input files it read.  It checks --level,
and the 2 usable draws every fit's summary needs, before any fit.
main then writes manifest.json: the parsed flags with the resolved
worker count, the seed, the library version, sha256 digests of those
inputs, and the wall time.  All files are written atomically, and
--out-dir is created only when the first of them is written, so a run
that fails before that leaves no directory.  All numeric cells are
printed with repr, so reruns with the same manifest are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 sampling failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .datasim import ERROR_LINKS, PreprocessError, PreprocessSpec, load_csv
from .diagnostics import (
    Contamination,
    UnstableIndexError,
    _check_level,
    _derived_seed,
    posterior_robustness_sweep,
    robustness_report,
    simulate_study,
    summarize,
)
# bench/tracer.py looks these two up here by name.
from .datasim import simulate_contaminated  # noqa: F401
from .diagnostics import score_estimates  # noqa: F401
from .links import LINKS, get_link
from .losses import DegenerateObjectiveError, LossSpec, Prior
from .model import ContractError, Theta, generalized_residuals
from .wlb import SamplingFailureError, WlbConfig, wlb_sample, wlb_sample_batch

# Flag spellings of the loss kinds.
_CLI_LOSS = {
    "loglik": "loglik",
    "dp": "dp",
    "gamma-syn": "gamma_synthetic",
    "gamma-gen": "gamma_general",
}

_EXIT_CONFIG = 2
_EXIT_SAMPLING = 3
_EXIT_IO = 4


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_atomic(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) if not isinstance(c, str) else c
                              for c in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(args, workers: int, inputs, wall_time: float) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    config["workers"] = workers
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "seed": args.seed,
        "version": __version__,
        "input_digests": {p: _sha256(p) for p in inputs},
        "wall_time_seconds": wall_time,
    }
    _write_atomic(
        os.path.join(args.out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def _resolve_workers(args) -> int:
    env = os.environ.get("ORDROBUST_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ContractError(
                f"ORDROBUST_WORKERS must be an integer, got {env!r}"
            ) from None
    else:
        workers = args.workers
    if workers < 1:
        raise ContractError("worker count must be at least 1")
    return workers


def _floats(what: str, cells) -> list:
    """float() of every nonblank cell; a bad cell is a ContractError."""
    out = []
    for cell in cells:
        if cell.strip():
            try:
                out.append(float(cell))
            except ValueError:
                raise ContractError(
                    f"{what}: {cell.strip()!r} is not a number"
                ) from None
    return out


def _loss_specs(args) -> list:
    """(cli_name, LossSpec) pairs from --losses and --tunings.

    A (loss, tuning) pair that the lists name twice is a ContractError:
    it would be fitted twice and counted twice.
    """
    losses = [s.strip() for s in args.losses.split(",") if s.strip()]
    tunings = _floats("--tunings", args.tunings.split(","))
    out = []
    for name in losses:
        if name not in _CLI_LOSS:
            raise ContractError(
                f"unknown loss {name!r}; valid: " + ", ".join(_CLI_LOSS)
            )
        kind = _CLI_LOSS[name]
        if kind == "loglik":
            specs = [LossSpec(kind="loglik")]
        elif not tunings:
            raise ContractError(
                f"--losses {name} needs at least one --tunings value"
            )
        else:
            specs = [LossSpec(kind=kind, tuning=t) for t in tunings]
        for spec in specs:
            if any(seen == spec for _, seen in out):
                what = name if kind == "loglik" else f"{name} at tuning {spec.tuning:g}"
                raise ContractError(
                    f"--losses/--tunings name {what} more than once"
                )
            out.append((name, spec))
    if not out:
        raise ContractError("no loss specs requested")
    return out


def _tuning_cell(spec: LossSpec) -> str:
    return "" if spec.kind == "loglik" else _fmt(spec.tuning)


def _single_spec(args) -> LossSpec:
    kind = _CLI_LOSS[args.loss]
    if kind == "loglik":
        if args.tuning is not None:
            print("warning: --loss loglik ignores --tuning", file=sys.stderr)
        return LossSpec(kind="loglik")
    if args.tuning is None:
        raise ContractError(f"--loss {args.loss} requires --tuning")
    return LossSpec(kind=kind, tuning=args.tuning)


def _load_dataset(args):
    with open(args.preprocess, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ContractError(f"{args.preprocess}: invalid JSON: {e}") from None
    return load_csv(args.data, PreprocessSpec.from_mapping(obj))


def _add_data(sub):
    """The input flags of the three data subcommands, then _add_common's."""
    sub.add_argument("--data", required=True, help="input CSV with header row")
    sub.add_argument("--preprocess", required=True,
                     help="JSON preprocessing spec: {response, edges?, columns?}")
    sub.add_argument("--link", default="probit",
                     choices=sorted(LINKS))
    _add_common(sub)


def _add_common(sub):
    """The sampling and output flags every subcommand takes."""
    sub.add_argument("--draws", type=int, default=500, help="posterior draws B")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--prior-sd", type=float, default=10.0,
                     help="normal prior sd on unconstrained coordinates")
    sub.add_argument("--workers", type=int, default=1,
                     help="parallel workers (env ORDROBUST_WORKERS overrides)")
    sub.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordrobust",
        description="Robust Bayesian cumulative-link ordinal regression "
                    "via the weighted likelihood bootstrap.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = subs.add_parser("fit", help="sample one posterior and summarize it")
    _add_data(p_fit)
    p_fit.add_argument("--loss", required=True, choices=sorted(_CLI_LOSS))
    p_fit.add_argument("--tuning", type=float, default=None,
                       help="alpha or gamma for the robust losses")
    p_fit.add_argument("--level", type=float, default=0.95)
    p_fit.add_argument("--emit-draws", action="store_true",
                       help="also write every raw draw to draws.csv")
    p_fit.set_defaults(func=cmd_fit)

    p_res = subs.add_parser("residuals",
                            help="generalized residuals with empirical bands")
    _add_data(p_res)
    p_res.add_argument("--loss", default="loglik", choices=sorted(_CLI_LOSS))
    p_res.add_argument("--tuning", type=float, default=None)
    p_res.add_argument("--from-summary", default=None,
                       help="reuse posterior means from an existing summary.csv "
                            "instead of fitting inline")
    p_res.set_defaults(func=cmd_residuals)

    p_sim = subs.add_parser("simulate",
                            help="replicated synthetic study (MSE and coverage)")
    p_sim.add_argument("--error", required=True, choices=sorted(ERROR_LINKS))
    p_sim.add_argument("--rho", default="0.2",
                       help="comma-separated contamination proportions")
    p_sim.add_argument("--reps", type=int, default=20)
    p_sim.add_argument("--n", type=int, default=200)
    p_sim.add_argument("--losses", default="loglik,dp,gamma-syn,gamma-gen")
    p_sim.add_argument("--tunings", default="0.3,0.5")
    p_sim.add_argument("--link", default=None,
                       choices=sorted(LINKS),
                       help="defaults to the link matching --error")
    _add_common(p_sim)
    p_sim.add_argument("--level", type=float, default=0.95)
    p_sim.set_defaults(func=cmd_simulate)

    p_rob = subs.add_parser("robustness",
                            help="per-unit index table or omega sweep")
    _add_data(p_rob)
    p_rob.add_argument("--mode", required=True, choices=["index", "sweep"])
    p_rob.add_argument("--losses", default="loglik,dp,gamma-gen")
    p_rob.add_argument("--tunings", default="0.5")
    p_rob.add_argument("--omegas", default="0,5,10,20,50")
    p_rob.add_argument("--unit", type=int, default=None)
    p_rob.add_argument("--covariate", type=int, default=0)
    p_rob.add_argument("--direction", type=int, default=1, choices=[1, -1])
    p_rob.set_defaults(func=cmd_robustness)

    return parser


def _sample(args, spec, data, link, workers, prior, level=0.95):
    """One WLB fit of spec on data: its draws and their summary."""
    config = WlbConfig(n_draws=args.draws, seed=args.seed, workers=workers)
    draws = wlb_sample(spec, data, prior, link, config)
    return draws, summarize(draws, level)


def cmd_fit(args, workers: int, prior: Prior) -> list:
    spec = _single_spec(args)
    data = _load_dataset(args)
    draws, table = _sample(args, spec, data, get_link(args.link), workers,
                           prior, args.level)
    _write_csv(
        os.path.join(args.out_dir, "summary.csv"),
        ["parameter", "mean", "median", "sd", "lower", "upper"],
        table.rows(),
    )
    if args.emit_draws:
        header = ["draw", "status"] + list(draws.param_names)
        rows = [[b, str(flag)] + list(v) for b, (v, flag) in enumerate(
            zip(draws.values, draws.convergence_flags))]
        _write_csv(os.path.join(args.out_dir, "draws.csv"), header, rows)
    return [args.data, args.preprocess]


def _theta_from_summary(path: str, data) -> Theta:
    """Posterior means from a summary.csv: p beta rows, then M-1 deltas."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("parameter,"):
        raise ContractError(f"{path}: not a summary.csv file")
    rows = [ln.split(",") for ln in lines[1:]]
    means = _floats(path, [r[1] for r in rows if len(r) > 1])
    if len(means) != len(rows) or len(rows) != data.p + data.n_categories - 1:
        raise ContractError(
            f"{path}: parameter set does not match the dataset"
        )
    return Theta(beta=means[:data.p], delta=means[data.p:])


def cmd_residuals(args, workers: int, prior: Prior) -> list:
    data = _load_dataset(args)
    link = get_link(args.link)
    inputs = [args.data, args.preprocess]
    if args.from_summary is not None:
        theta = _theta_from_summary(args.from_summary, data)
        inputs.append(args.from_summary)
    else:
        _, table = _sample(args, _single_spec(args), data, link, workers,
                           prior)
        theta = Theta(beta=table.mean[:data.p], delta=table.mean[data.p:])
    res = generalized_residuals(theta, data, link)
    b95 = np.quantile(res, [0.025, 0.975])
    b99 = np.quantile(res, [0.005, 0.995])

    rows = [
        [i, int(data.y[i]), res[i], b95[0], b95[1], b99[0], b99[1]]
        for i in range(data.n)
    ]
    _write_csv(
        os.path.join(args.out_dir, "residuals.csv"),
        ["unit", "y", "residual", "band95_lo", "band95_hi",
         "band99_lo", "band99_hi"],
        rows,
    )
    return inputs


def cmd_simulate(args, workers: int, prior: Prior) -> list:
    rhos = _floats("--rho", args.rho.split(","))
    specs = _loss_specs(args)
    link_name = args.link if args.link is not None else ERROR_LINKS[args.error]
    config = WlbConfig(n_draws=args.draws, seed=args.seed, workers=workers)
    cells = simulate_study(
        args.error, rhos, args.n, args.reps, [spec for _, spec in specs],
        prior, get_link(link_name), config, args.level,
    )
    # The study returns len(specs) cells per rho, in spec order.
    names = [name for name, _ in specs] * len(rhos)
    mse_rows = []
    cov_rows = []
    for name, cell in zip(names, cells):
        key = [name, _tuning_cell(cell.spec), cell.rho]
        R = cell.mse_beta.size
        log_mb = np.log(cell.mse_beta)
        log_md = np.log(cell.mse_delta)
        mse_rows.append(key + [
            log_mb.mean(), log_mb.std(ddof=1) / np.sqrt(R),
            log_md.mean(), log_md.std(ddof=1) / np.sqrt(R),
        ])
        cov_rows.append(key + [
            100.0 * cell.cp_beta.mean(), 100.0 * cell.cp_delta.mean(),
        ])

    _write_csv(
        os.path.join(args.out_dir, "mse.csv"),
        ["loss", "tuning", "rho", "mean_log_mse_beta", "mc_se_beta",
         "mean_log_mse_delta", "mc_se_delta"],
        mse_rows,
    )
    _write_csv(
        os.path.join(args.out_dir, "coverage.csv"),
        ["loss", "tuning", "rho", "cp_beta_pct", "cp_delta_pct"],
        cov_rows,
    )
    return []


def cmd_robustness(args, workers: int, prior: Prior) -> list:
    data = _load_dataset(args)
    link = get_link(args.link)
    specs = _loss_specs(args)

    if args.mode == "index":
        jobs = [
            (spec, data, WlbConfig(n_draws=args.draws,
                                   seed=_derived_seed(args.seed, (sj,)),
                                   workers=workers))
            for sj, (_, spec) in enumerate(specs)
        ]
        fits = wlb_sample_batch(jobs, prior, link)
        rows = []
        for (name, spec), draws in zip(specs, fits):
            report = robustness_report(draws, data)
            for i in range(data.n):
                rows.append([
                    name, _tuning_cell(spec), i, report.index[i],
                    report.affinity[i],
                ])
        _write_csv(
            os.path.join(args.out_dir, "index.csv"),
            ["loss", "tuning", "unit", "index", "affinity"],
            rows,
        )
    else:
        if args.unit is None:
            raise ContractError("--mode sweep requires --unit")
        omegas = _floats("--omegas", args.omegas.split(","))
        contamination = Contamination(
            unit=args.unit, covariate=args.covariate,
            direction=args.direction, omegas=omegas,
        )
        config = WlbConfig(n_draws=args.draws, seed=args.seed, workers=workers)
        sweep = posterior_robustness_sweep(
            data, [sp for _, sp in specs], contamination, prior, link, config
        )
        # The sweep returns len(omegas) rows per spec, in spec order.
        cells = [pair for pair in specs for _ in omegas]
        rows = [
            [name, _tuning_cell(spec), row.omega, row.drift, row.mc_se,
             row.n_failed]
            for (name, spec), row in zip(cells, sweep)
        ]
        _write_csv(
            os.path.join(args.out_dir, "sweep.csv"),
            ["loss", "tuning", "omega", "drift", "mc_se", "n_failed"],
            rows,
        )
    return [args.data, args.preprocess]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        t0 = time.monotonic()
        if args.seed < 0:
            raise ContractError("--seed must be nonnegative")
        if getattr(args, "from_summary", None) is None and args.draws < 2:
            raise ContractError(
                f"--draws {args.draws} leaves fewer than 2 usable draws")
        if hasattr(args, "level"):
            _check_level(args.level)
        workers = _resolve_workers(args)
        prior = Prior(sd_beta=args.prior_sd, sd_cut=args.prior_sd)
        inputs = args.func(args, workers, prior)
        _write_manifest(args, workers, inputs, time.monotonic() - t0)
    except (ContractError, PreprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except (SamplingFailureError, DegenerateObjectiveError,
            UnstableIndexError) as e:
        print(f"sampling failure: {e}", file=sys.stderr)
        return _EXIT_SAMPLING
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return _EXIT_IO
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
