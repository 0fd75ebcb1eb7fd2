"""Layer-by-layer timing ladder for finopt, written to one BENCH JSON file.

    python bench/ladder.py --out BENCH_<label>.json [--sizes 1000 10000 100000]
                           [--calls 30]

Each rung times one layer of the package on k = 200, h = 20, area = 1.6e-4,
q0 = 20 at n cells, from the direct fill of the optimality conditions up to
the ``finopt optimize`` command in a fresh process:

  fill               optimizer._solve_optimality_conditions at L*
  assemble           solver.assemble_fin_system of the optimum at L*
  kernel             kernels.solve_spd_tridiagonal of that system
  solve_temperature  solver.solve_temperature of the optimum
  optimality         evaluate_profile_optimality, theta as its own adjoint
  optimize_profile   optimize_profile at L*
  optimize_length    optimize_length
  write_profile_csv  the closed-form table of n + 1 rows
  write_temperature_csv
                     the closed-form temperature table of n + 1 rows
  read_profile_csv   the profile table read back
  cli_optimize       ``python -m finopt.cli optimize`` (length run), one
                     fresh process per call

Each rung runs in a fresh process of its own, so that none runs on a heap
that another left behind: the minor faults of an n-long array depend on
what the process holds.  A rung makes one warm-up call, then ``--calls``
timed calls, and records their median and interquartile range, and the
minor page faults per call from ``getrusage`` of the rung's process (of
its child processes for cli_optimize).  A separate, untimed call under
``tracemalloc`` gives the peak of Python-visible allocations
(cli_optimize's runs in the rung's process, through ``finopt.cli.main``).
Fault counts, and with them the times of the 10^5-cell rungs, can hang on
the process's memory layout down to the size of its environment: at
000e914 the optimize_length rung read 1348 faults and 5.4 ms per call
with one PYTHONPATH, and 1755 faults and 5.8 ms with the same directory
spelled four characters longer ("src" as "././src").  Compare them
between files with that in mind.
The file also records the git revision of the package's checkout, and
when its tracked files differ from that revision the sha256 of
``git diff HEAD`` over the package's directory, so that a file taken on
a dirty tree still names the code it timed; then the machine, nproc,
Python, numpy, orjson and the kernel backend.  Run it with
``PYTHONPATH`` pointing at the ``src`` directory of the checkout to
measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import orjson

import finopt
import finopt.cli
from finopt import kernels, optimizer, solver, tables

SCHEMA = "finopt-ladder/1"
PHYSICS = {"k": 200.0, "h": 20.0, "area": 1.6e-4, "q0": 20.0}
RUNGS = (
    "fill", "assemble", "kernel", "solve_temperature", "optimality",
    "optimize_profile", "optimize_length", "write_profile_csv",
    "write_temperature_csv", "read_profile_csv", "cli_optimize",
)


def _git(*args: str) -> str | None:
    """git's output in the package's directory, or None without git."""
    try:
        return subprocess.run(
            ["git", *args], cwd=Path(finopt.__file__).parent,
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _package_env() -> dict:
    """This environment, with the imported finopt first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(finopt.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _rung(rung: str, n: int, workdir: Path):
    """(call, untimed) of a rung at n cells, its inputs built beforehand.

    untimed, when not None, replaces the call under tracemalloc, and marks
    a rung whose timed calls run in child processes.
    """
    problem = finopt.FinProblem(**PHYSICS)
    length = finopt.optimal_length(problem)
    options = finopt.OptimizerOptions(n_cells=n)
    if rung == "fill":
        return lambda: optimizer._solve_optimality_conditions(problem, length, n), None
    if rung == "optimize_profile":
        return lambda: finopt.optimize_profile(problem, length, options), None
    if rung == "optimize_length":
        return lambda: finopt.optimize_length(problem, options), None
    if rung == "write_temperature_csv":
        xs = np.linspace(0.0, length, n + 1)
        theta = np.asarray(finopt.optimal_solution(problem).temperature(xs))
        table = workdir / "temperature.csv"
        return lambda: tables.write_temperature_csv(table, xs, theta), None
    if rung in ("write_profile_csv", "read_profile_csv"):
        xs = np.linspace(0.0, length, n + 1)
        t = np.asarray(finopt.optimal_thickness(problem, xs, length))
        table = workdir / "profile.csv"
        if rung == "write_profile_csv":
            return lambda: tables.write_profile_csv(table, xs, t), None
        tables.write_profile_csv(table, xs, t)
        return lambda: tables.read_profile_csv(table), None
    if rung == "cli_optimize":
        physics = [f"--{name}={value!r}" for name, value in PHYSICS.items()]
        args = ["optimize", *physics, "--n-cells", str(n), "--out-dir", str(workdir)]
        env = _package_env()

        def fresh() -> None:
            subprocess.run([sys.executable, "-m", "finopt.cli", *args], env=env,
                           check=True, stdout=subprocess.DEVNULL)

        def in_process() -> None:
            with contextlib.redirect_stdout(io.StringIO()):
                if finopt.cli.main(args) != 0:
                    raise RuntimeError("finopt optimize failed")

        return fresh, in_process

    profile = finopt.optimize_profile(problem, length, options).profile
    if rung == "assemble":
        return lambda: solver.assemble_fin_system(problem, profile), None
    if rung == "kernel":
        rowsum, off = solver.assemble_fin_system(problem, profile)
        return lambda: kernels.solve_spd_tridiagonal(rowsum, off, problem.q0, 0.0), None
    if rung == "solve_temperature":
        return lambda: solver.solve_temperature(problem, profile), None
    if rung == "optimality":
        theta = solver.solve_temperature(problem, profile)
        return lambda: optimizer.evaluate_profile_optimality(
            problem, profile, theta, theta), None
    raise ValueError(f"unknown rung {rung!r}")


def _measure(call, untimed, calls: int, children: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    call()  # warm-up
    faults = resource.getrusage(who).ru_minflt
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(who).ru_minflt - faults
    quartiles = statistics.quantiles(times, n=4)

    tracemalloc.start()
    try:
        (untimed or call)()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "median_s": statistics.median(times),
        "iqr_s": quartiles[2] - quartiles[0],
        "minor_faults_per_call": faults / calls,
        "faults_of": "children" if children else "self",
        "tracemalloc_peak_bytes": peak,
    }


def _worker(rung: str, n: int, calls: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        call, untimed = _rung(rung, n, Path(workdir))
        row = {"rung": rung, "n": n, "calls": calls}
        row.update(_measure(call, untimed, calls, children=untimed is not None))
    return row


def run_ladder(sizes, calls: int) -> dict:
    """Every rung at every size, each in a fresh process of its own, so that
    no rung runs on a heap that another one left behind."""
    rows = []
    env = _package_env()
    for n in sizes:
        for rung in RUNGS:
            done = subprocess.run(
                [sys.executable, __file__, "--worker", rung, str(n), "--calls", str(calls)],
                env=env, check=True, stdout=subprocess.PIPE, text=True,
            )
            row = json.loads(done.stdout)
            rows.append(row)
            print(f"{rung:>18} n={n:<7} median {row['median_s'] * 1e3:9.3f} ms  "
                  f"IQR {row['iqr_s'] * 1e3:8.3f} ms  "
                  f"faults {row['minor_faults_per_call']:8.1f}  "
                  f"peak {row['tracemalloc_peak_bytes'] / 2**20:7.3f} MiB",
                  file=sys.stderr)
    revision = _git("rev-parse", "HEAD")
    changes = _git("status", "--porcelain", "--untracked-files=no")
    diff = _git("diff", "HEAD", "--", ".") if changes else None
    return {
        "schema": SCHEMA,
        "git_revision": None if revision is None else revision.strip(),
        "git_dirty": None if changes is None else bool(changes),
        "git_diff_sha256": (None if diff is None
                            else hashlib.sha256(diff.encode()).hexdigest()),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "orjson": orjson.__version__,
        "finopt": finopt.__version__,
        "kernel": kernels.get_backend(),
        "physics": PHYSICS,
        "sizes": list(sizes),
        "calls": calls,
        "rungs": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="BENCH JSON file to write")
    parser.add_argument("--worker", nargs=2, metavar=("RUNG", "N"),
                        help="measure one rung at N cells and print its row as JSON")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000, 100000],
                        help="cell counts (default 1000 10000 100000)")
    parser.add_argument("--calls", type=int, default=30,
                        help="timed calls per rung, at least 2 (default 30)")
    args = parser.parse_args(argv)
    if args.calls < 2:
        parser.error(f"--calls must be at least 2, got {args.calls}")
    if args.worker is not None:
        rung, n = args.worker
        print(json.dumps(_worker(rung, int(n), args.calls)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    if min(args.sizes) < 4:
        parser.error(f"--sizes must be at least 4, got {args.sizes}")
    result = run_ladder(args.sizes, args.calls)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
