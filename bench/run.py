"""Fixed-work benchmark of ordrobust.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's fixed list of `ordrobust` command lines through
`ordrobust.cli.main` in-process, checks the outputs against the
independent computations in reference.py, and prints one JSON object
as the last line of standard output.  With --trace 0 it repeats whole
rounds of the list until S seconds have passed (at least one) and
reports the end-to-end metrics as medians over rounds.  With --trace 1
it runs one untraced round, then one traced round, and reports the
per-layer metrics and the tracing overhead.

Run it from the root of a checkout; ordrobust is imported from that
checkout's src/ and nowhere else.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before numpy loads; pool workers inherit the
# environment.  ORDROBUST_WORKERS would override --workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ORDROBUST_WORKERS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_program():
    """Import ordrobust from the checkout's src/ only."""
    if not (SRC / "ordrobust" / "__init__.py").is_file():
        raise SetupError(f"no ordrobust package under {SRC}")
    import ordrobust
    import ordrobust.cli

    origin = Path(ordrobust.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"ordrobust imported from {origin}, not from {SRC}")


def setup(workload, out):
    """Imports and input generation: everything before the first operation."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import_program()
    import workloads

    prepare, check = workloads.WORKLOADS[workload]
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    return prepare(str(out)), check


def setup_samples(args, first):
    """Set-up time of this process plus SETUP_REPEATS - 1 fresh ones."""
    samples = [first]
    for k in range(1, SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only",
             str(OUT / args.workload / f"setup{k}")],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def provenance():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    import numpy
    import scipy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_ops(ops):
    """Run command lines through cli.main; return how many failed."""
    from ordrobust import cli

    failed = 0
    for argv in ops:
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed operation, not a stop
            traceback.print_exc()
            code = None
        if code != 0:
            print(f"operation failed ({code}): {' '.join(argv)}", file=sys.stderr)
            failed += 1
    return failed


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_round(ops):
    cpu0 = _cpu()
    t0 = time.perf_counter()
    failed = run_ops(ops)
    wall = time.perf_counter() - t0
    return wall, _cpu() - cpu0, failed


def checked(check, out, plan, seed):
    try:
        check(str(out), plan, seed)
    except AssertionError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return False
    except Exception:  # e.g. an output a failed operation never wrote
        traceback.print_exc()
        return False
    return True


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(args, plan, check, out, setup_s):
    walls, cpus = [], []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    while True:
        wall, cpu, bad = timed_round(plan.ops)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(plan.ops)
        failed += bad
        correct &= checked(check, out, plan, args.seed)
        if time.perf_counter() - started >= args.seconds:
            break
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "draws_per_s": (plan.draws / wall, "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"rounds": len(walls), "round_wall_s": walls, "round_cpu_s": cpus,
             "setup_samples_s": setup_s}
    return correct, attempted, failed, metrics, extra


def traced_round(ops, spans_path):
    """One round with every wrapper installed; spans saved at the end."""
    import tracer as tr

    t = tr.Tracer().install()
    try:
        wall, _, failed = timed_round(ops)
    finally:
        t.uninstall()
    t.save(spans_path)
    return wall, failed, t.metrics()


def measure_traced(args, plan, check, out):
    import tracer as tr

    wall_u, _, failed = timed_round(plan.ops)
    correct = checked(check, out, plan, args.seed)
    wall_t, bad, layer = traced_round(plan.ops, out / "spans.npz")
    failed += bad
    correct &= checked(check, out, plan, args.seed)
    attempted = 2 * len(plan.ops)
    if plan.solver_ops:
        # Solver, loss and link calls ran inside pool workers in the
        # traced round; a one-worker round sees them all.
        _, bad, solver = traced_round(plan.solver_ops, out / "spans_one_worker.npz")
        failed += bad
        correct &= checked(check, out, plan, args.seed)
        attempted += len(plan.solver_ops)
        layer.update({k: v for k, v in solver.items() if tr.is_solver_metric(k)})
    layer["trace.overhead_s"] = wall_t - wall_u
    layer["trace.wall_s"] = wall_t
    layer["trace.untraced_wall_s"] = wall_u
    metrics = {k: (v, tr.unit_of(k)) for k, v in layer.items()}
    return correct, attempted, failed, metrics, {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; valid: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            setup(args.workload, Path(args.setup_only))
            print(time.perf_counter() - _T_START)
            return 0
        out = OUT / args.workload
        plan, check = setup(args.workload, out / "run")
        first = time.perf_counter() - _T_START
        if not args.trace:
            setup_s = setup_samples(args, first)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2

    if args.trace:
        result = measure_traced(args, plan, check, out / "run")
    else:
        result = measure(args, plan, check, out / "run", setup_s)
    correct, attempted, failed, metrics, extra = result
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(), **extra,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out / f"result_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
