"""In-memory span recorder wrapped around finopt's public entry points.

The traced run replaces every binding of a target function inside the
``finopt`` package (the defining module and each module that imported it by
name) with a wrapper that records a span: name, start, end and the span
that was open when it started.  Self time is a span's duration minus the
time of its child spans.  Spans stay in memory and are written out once,
after the traced phase.

A target that no longer exists, for example after a refactor renames a
private helper, is skipped: its metrics are reported as absent.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute): one span per call of the function.
SPANS = (
    ("kernels.solve", "finopt.kernels", "solve_spd_tridiagonal"),
    ("solver.assemble", "finopt.solver", "assemble_fin_system"),
    ("solver.solve_temperature", "finopt.solver", "solve_temperature"),
    ("solver.variational_compliance", "finopt.solver", "variational_compliance"),
    ("solver.refine", "finopt.solver", "refine_and_estimate_order"),
    ("optimizer.oc_step", "finopt.optimizer", "_oc_step"),
    ("optimizer.inner", "finopt.optimizer", "optimize_profile"),
    ("optimizer.outer", "finopt.optimizer", "optimize_length"),
    ("optimizer.optimality", "finopt.optimizer", "evaluate_profile_optimality"),
    ("sensitivity.solve_adjoint", "finopt.sensitivity", "solve_adjoint"),
    ("sensitivity.gradient", "finopt.sensitivity", "compliance_gradient"),
    ("sensitivity.fd_gradient", "finopt.sensitivity", "finite_difference_gradient"),
    ("analytic", "finopt.analytic", "optimal_length"),
    ("analytic", "finopt.analytic", "optimal_compliance"),
    ("analytic", "finopt.analytic", "optimal_thickness"),
    ("analytic", "finopt.analytic", "optimal_temperature"),
    ("analytic", "finopt.analytic", "optimal_solution"),
    ("analytic", "finopt.analytic", "optimal_resistance_breakdown"),
    ("analytic", "finopt.analytic", "duffin_equivalent_flux"),
    ("tables.write", "finopt.tables", "write_profile_csv"),
    ("tables.write", "finopt.tables", "write_temperature_csv"),
    ("tables.write", "finopt.tables", "write_history_csv"),
    ("tables.write", "finopt.tables", "write_table_json"),
    ("tables.write", "finopt.tables", "write_json"),
    ("tables.read", "finopt.tables", "read_profile_csv"),
    ("cli.main", "finopt.cli", "main"),
)

# (counter, module, attribute, enclosing span): counted, not timed, and only
# while the enclosing span is the innermost open one.
COUNTS = (
    ("optimizer.area_evals", "finopt.optimizer", "_face_integral", "optimizer.oc_step"),
)


def _file_bytes(args) -> int:
    return os.path.getsize(args[0])


# Work counted from a call's arguments or result, added after the call ends.
AFTER = {
    "kernels.solve": ("kernels.solve.rows", lambda args, result: len(args[0])),
    "optimizer.inner": ("optimizer.inner_iters", lambda args, result: result.inner_iterations),
    "tables.write": ("tables.write.bytes", lambda args, result: _file_bytes(args)),
    "tables.read": ("tables.read.bytes", lambda args, result: _file_bytes(args)),
}


class Tracer:
    """Records spans and counters while installed; restores finopt on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self._open: list[list] = []  # [name, index, child time] per open span
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        after = AFTER.get(name)
        spans, stack, counters = self.spans, self._open, self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [name, len(spans), 0.0]
            spans.append(None)  # reserve the index so children can name it
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[frame[1]] = (name, start, end, parent, frame[2])
                if stack:
                    stack[-1][2] += end - start
            if after is not None:
                counters[after[0]] += after[1](args, result)
            return result

        return wrapper

    def _count(self, counter: str, enclosing: str, fn):
        stack, counters = self._open, self.counters

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == enclosing:
                counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, label: str, module: str, attr: str, make) -> None:
        target = getattr(sys.modules.get(module), attr, None)
        if target is None:
            return
        wrapper = make(target)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "finopt" or name.startswith("finopt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, target))
        self.present.add(label)

    def install(self) -> None:
        for name, module, attr in SPANS:
            self._install(name, module, attr, lambda fn, name=name: self._span(name, fn))
        for counter, module, attr, enclosing in COUNTS:
            self._install(
                counter, module, attr,
                lambda fn, c=counter, e=enclosing: self._count(c, e, fn),
            )

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _parent, child_time in self.spans:
            entry = stats[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time
        return {name: (calls, self_s) for name, (calls, self_s) in stats.items()}

    def children_of(self, child: str, parent: str) -> int:
        """Number of spans named child whose parent span is named parent."""
        spans = self.spans
        return sum(
            1 for name, _s, _e, up, _c in spans
            if name == child and up >= 0 and spans[up][0] == parent
        )

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, _c) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent}
                ) + "\n")
