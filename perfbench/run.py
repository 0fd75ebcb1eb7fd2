"""finopt benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload length-search --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  length-search  optimize_length on a fixed ladder of mesh sizes
  fine-mesh      optimize_profile at L* on 10^4 to 10^5 cells
  verify         analytic + verify CLI, adjoint vs finite differences,
                 refinement order of the closed-form profile

With ``--trace 0`` the workload runs untraced and the end-to-end metrics are
reported; set-up time is the median of nine fresh processes, each timed
from its start to the end of its warm-up op.  With ``--trace 1`` a fixed
list of ops runs untraced and then traced, and the per-layer metrics are
reported.  Every op is gated for correctness; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Everything the run writes stays under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("length-search", "fine-mesh", "verify")
SETUP_REPEATS = 9
# Workers still running this long after start are killed, so the run ends in time.
DEADLINE_S = 170.0
STARTED = time.perf_counter()

# One thread everywhere: the workloads are single-threaded by design.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "finopt").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record() -> dict:
    return {
        "git_rev": _git_revision(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": THREAD_PINS,
    }


def start_worker(args, mode: str) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    env = dict(os.environ, **THREAD_PINS)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    proc.deadline = threading.Timer(max(DEADLINE_S - (started - STARTED), 0.0), proc.kill)
    proc.deadline.start()
    return proc, started


def read_line(proc: subprocess.Popen) -> str:
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise WorkerError(f"worker exited with code {proc.returncode} before reporting")
    return line.strip()


def finish(proc: subprocess.Popen) -> None:
    """Stop the worker if it still runs and wait for it."""
    proc.deadline.cancel()
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure(args) -> dict:
    """Run the workload in fresh processes; returns the worker's result."""
    probes = SETUP_REPEATS - 1 if args.trace == 0 else 0
    setups = []
    for _ in range(probes):
        proc, started = start_worker(args, "probe")
        try:
            if read_line(proc) != "READY":
                raise WorkerError("probe did not report READY")
            setups.append(time.perf_counter() - started)
            proc.wait(timeout=30)
        finally:
            finish(proc)

    proc, started = start_worker(args, "timed" if args.trace == 0 else "traced")
    try:
        if read_line(proc) != "READY":
            raise WorkerError("worker did not report READY")
        setups.append(time.perf_counter() - started)
        result = json.loads(read_line(proc))
        proc.wait(timeout=30)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
    finally:
        finish(proc)

    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["record"]["setup_samples_s"] = setups
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the timed phase; it sets a fixed "
                             "number of whole rounds of ops, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="cap on ops per run (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "finopt" / "__init__.py").is_file():
        print(f"error: no finopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run_record()
    try:
        result = measure(args)
    except (WorkerError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(result["record"])

    print("run record: " + json.dumps(record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:>40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
