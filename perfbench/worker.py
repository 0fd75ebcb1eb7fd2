"""One workload process of the finopt benchmark; started by run.py.

Protocol on standard output: the line ``READY`` once set-up is done (import,
backend selection, input generation and one warm-up op), then, unless this
is a set-up probe, one JSON line with the run's results.  The program's own
printing (the CLI's) goes to the null device.

    python3 perfbench/worker.py --workload verify --seed 1 --seconds 30 --mode timed
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import finopt

    if Path(finopt.__file__).resolve().parent != ROOT / "src" / "finopt":
        raise SystemExit(f"imported finopt from {finopt.__file__}, not from {ROOT / 'src'}")
    return finopt


def run_ops(workload, ops, workdir):
    """Run ops one after another; returns (wall seconds per op, outcomes)."""
    walls, outcomes = [], []
    for problem, n in ops:
        start = time.perf_counter()
        outcome = workload.op(problem, n, workdir)
        walls.append(time.perf_counter() - start)
        outcomes.append(outcome)
    return walls, outcomes


def timed_rounds(workload, inputs, rounds, max_ops, workdir):
    """Exactly ``rounds`` whole rounds of ops, or ``max_ops`` ops if fewer."""
    walls, outcomes, sizes = [], [], []
    pending = next(inputs)
    started = time.perf_counter()
    for _ in range(rounds):
        index = pending[0]
        batch = []
        while pending[0] == index:
            batch.append(pending[1:])
            pending = next(inputs)
        if max_ops is not None:
            batch = batch[: max_ops - len(walls)]
        w, o = run_ops(workload, batch, workdir)
        walls += w
        outcomes += o
        sizes += [n for _p, n in batch]
        if max_ops is not None and len(walls) >= max_ops:
            break
    return walls, outcomes, sizes, time.perf_counter() - started


def backend_check(finopt, workload, problem, n, workdir):
    """Repeat one op on every backend; results must agree bitwise."""
    backends = finopt.kernels.available_backends()
    if len(backends) < 2:
        return backends, True
    active = finopt.kernels.get_backend()
    results = []
    try:
        for name in backends:
            finopt.kernels.set_backend(name)
            outcome = workload.op(problem, n, workdir)
            results.append((outcome.failures, outcome.compliance_err, outcome.length_err))
    finally:
        finopt.kernels.set_backend(active)
    return backends, all(r == results[0] for r in results[1:])


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _max_err(outcomes, attr):
    errs = [getattr(o, attr) for o in outcomes if getattr(o, attr) is not None]
    return max(errs) if errs else None


def summarize(outcomes, sizes):
    failures: dict[str, int] = {}
    for o in outcomes:
        for name in o.failures:
            failures[name] = failures.get(name, 0) + 1
    seen, repeats = set(), 0
    for n in sizes:
        repeats += n in seen
        seen.add(n)
    return {
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "unexpected": sum(o.unexpected for o in outcomes),
        "gate_failures": failures,
        "repeat_share": repeats / len(sizes),
        "compliance_rel_err_max": _max_err(outcomes, "compliance_err"),
        "length_rel_err_max": _max_err(outcomes, "length_err"),
        "n_min": min(sizes),
        "n_max": max(sizes),
    }


def end_to_end(walls, outcomes, elapsed):
    passed = sum(o.passed for o in outcomes)
    worst = _max_err(outcomes, "compliance_err")
    return {
        "ops_per_s": (passed / elapsed, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (_quantile(walls, 90), "s"),
        "pass_ratio": (passed / len(outcomes), "ratio"),
        # Digits of agreement with the closed-form compliance, worst op.
        "compliance_digits": (-math.log10(worst) if worst else 0.0, "digits"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(finopt, workload, ops, workdir, label):
    """Run each op untraced and then traced; per-layer metrics.

    Alternating the two keeps slow drift of the machine out of the
    overhead ratio.
    """
    from tracing import SPANS, COUNTS, Tracer

    tracer = Tracer()
    outcomes, traced_outcomes = [], []
    untraced = traced = 0.0
    for problem, n in ops:
        start = time.perf_counter()
        outcomes.append(workload.op(problem, n, workdir))
        untraced += time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            traced_outcomes.append(workload.op(problem, n, workdir))
            traced += time.perf_counter() - start
        finally:
            tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{label}.jsonl")

    stats = tracer.layer_stats()
    metrics = {}
    for name in dict.fromkeys(name for name, _m, _a in SPANS):
        if name in tracer.present:
            calls, self_s = stats.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
    counters = tracer.counters
    if "kernels.solve" in tracer.present:
        rows = counters["kernels.solve.rows"]
        metrics["kernels.solve.rows"] = (rows, "count")
        metrics["kernels.solve.ns_per_row"] = (
            1e9 * stats.get("kernels.solve", (0, 0.0))[1] / rows if rows else 0.0, "ns")
    for name in ("tables.write", "tables.read"):
        if name in tracer.present:
            metrics[f"{name}.bytes"] = (counters[f"{name}.bytes"], "B")
    if "optimizer.area_evals" in tracer.present and "optimizer.oc_step" in tracer.present:
        evals = counters["optimizer.area_evals"]
        steps = stats.get("optimizer.oc_step", (0, 0.0))[0]
        metrics["optimizer.area_evals"] = (evals, "count")
        metrics["optimizer.area_evals_per_step"] = (evals / steps if steps else 0.0, "1/step")
    if "optimizer.inner" in tracer.present:
        metrics["optimizer.inner_iters"] = (counters["optimizer.inner_iters"], "count")
        if "optimizer.outer" in tracer.present:
            searches = stats.get("optimizer.outer", (0, 0.0))[0]
            inner = tracer.children_of("optimizer.inner", "optimizer.outer")
            metrics["optimizer.inner_runs_per_search"] = (
                inner / searches if searches else 0.0, "1/search")
    # Only the length search chooses a length; elsewhere the error is 0.
    metrics["optimizer.length_rel_err_max"] = (_max_err(outcomes, "length_err") or 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")

    absent = [name for name, _m, _a in SPANS if name not in tracer.present]
    absent += [c for c, _m, _a, _e in COUNTS if c not in tracer.present]
    same = [(o.failures, o.compliance_err) for o in outcomes] == \
           [(o.failures, o.compliance_err) for o in traced_outcomes]
    return metrics, outcomes, sorted(set(absent)), same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "timed", "traced"), required=True)
    parser.add_argument("--max-ops", type=int, default=None)
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = open(os.devnull, "w")

    finopt = _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    backend = finopt.kernels.get_backend()
    inputs = workloads.op_inputs(workload, args.seed)
    warmup_problem = workloads.draw_problem(
        random.Random(f"{workload.name}:{args.seed}:warmup"))

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        warmup_op, warmup_n = workload.warmup
        warmup_op(warmup_problem, warmup_n, workdir)
        print("READY", file=protocol, flush=True)
        if args.mode == "probe":
            return 0

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "backend": backend,
            "finopt_version": finopt.__version__,
        }
        if args.mode == "timed":
            first = next(inputs)
            backends, agree = backend_check(finopt, workload, first[1], first[2], workdir)
            inputs = itertools.chain([first], inputs)
            rounds = workload.rounds(args.seconds)
            walls, outcomes, sizes, elapsed = timed_rounds(
                workload, inputs, rounds, args.max_ops, workdir)
            metrics = end_to_end(walls, outcomes, elapsed)
            record.update(backends=backends, backends_bitwise_equal=agree,
                          rounds=rounds, timed_s=elapsed)
            absent, same = [], True
        else:
            count = workload.trace_ops if args.max_ops is None else args.max_ops
            ops = [next(inputs)[1:] for _ in range(count)]
            sizes = [n for _p, n in ops]
            metrics, outcomes, absent, same = per_layer(
                finopt, workload, ops, workdir, f"{workload.name}-{args.seed}")
            agree = True
        record.update(summarize(outcomes, sizes))
        record["absent_metrics"] = absent
        record["fail_ratio"] = record["failed"] / record["attempted"]
        record["correct"] = agree and same and record["unexpected"] == 0
        result = {"record": record,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
