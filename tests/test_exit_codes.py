"""The CLI's exit-code contract over drawn inputs.

Every valid input ends in a verified result or fails loudly: main returns
an exit code and raises nothing, a failed check prints a FAIL line, and an
error prints an ``error:`` line.  optimize exits 0 or 1 over the decades
the package serves, the known failing fixed-length band included (see
ROADMAP.md).  analytic exits 0 with finite tables or, where the closed form
leaves float64, 2 without writing anything.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from finopt import FinProblem, optimal_length
from finopt.cli import main
from finopt.tables import read_profile_csv
from conftest import DECADES

PROPERTY = settings(deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# The checks a fixed-length optimum fails where its taper or its gradient
# cannot be resolved: very short fins, and supports of under three faces.
FIXED_LENGTH_FAILURES = {"grad_temp_cv", "thickness_slope_err"}


def physics_args(k, h, area, q0):
    return ["--k", repr(k), "--h", repr(h), "--area", repr(area), "--q0", repr(q0)]


@settings(PROPERTY, max_examples=40)
@given(log_k=DECADES["log_k"], log_h=DECADES["log_h"], log_area=DECADES["log_area"],
       log_q0=DECADES["log_q0"], log_n=DECADES["log_n"],
       log_f=st.none() | st.floats(-8.0, 2.0))
def test_optimize_verifies_or_fails_loudly(tmp_path, capsys, log_k, log_h, log_area,
                                           log_q0, log_n, log_f):
    problem = FinProblem(10.0 ** log_k, 10.0 ** log_h, 10.0 ** log_area, 10.0 ** log_q0)
    physics = physics_args(problem.k, problem.h, problem.area, problem.q0)
    n_cells = str(round(10.0 ** log_n))
    fixed = [] if log_f is None else [
        "--fixed-length", repr(10.0 ** log_f * optimal_length(problem))]
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"

    code = main(["optimize", *physics, "--n-cells", n_cells, *fixed,
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    event(f"{'length' if log_f is None else 'fixed-length'} run exits {code}")
    assert code in (0, 1), captured.err
    if code == 1:
        failed = [line.split(":")[0][5:] for line in captured.out.splitlines()
                  if line.startswith("FAIL ")]
        assert failed or captured.err.startswith("error: ")
        # The known fixed-length band fails these two checks and no other.
        assert set(failed) <= FIXED_LENGTH_FAILURES if fixed else not failed
        return
    report = json.loads((out / "report.json").read_text())
    assert all(check["passed"] for check in report["checks"].values())
    if log_f is None:
        assert main(["verify", str(out / "profile.csv"), *physics,
                     "--n-cells", n_cells]) == 0, capsys.readouterr().out


def read_table(path, fmt):
    """The columns of a written table; a CSV table must parse as floats."""
    if fmt == "json":
        return np.array(json.loads(path.read_text())["rows"]).T
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(field) for field in line.split(",")] for line in lines]).T


@settings(PROPERTY, max_examples=60)
@given(log_k=st.floats(-300.0, 300.0), log_h=st.floats(-300.0, 300.0),
       log_area=st.floats(-300.0, 300.0), log_q0=st.floats(-300.0, 300.0),
       fmt=st.sampled_from(["csv", "json"]))
def test_analytic_writes_finite_tables_or_nothing(tmp_path, capsys, log_k, log_h,
                                                  log_area, log_q0, fmt):
    physics = physics_args(10.0 ** log_k, 10.0 ** log_h, 10.0 ** log_area, 10.0 ** log_q0)
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"

    code = main(["analytic", *physics, "--samples", "5", "--format", fmt,
                 "--out-dir", str(out)])
    err = capsys.readouterr().err
    event(f"exits {code}" + (f": {err.split(' is ')[0]}" if err else ""))
    if code == 2:
        assert err.startswith("error: the closed-form ")
        assert not out.exists()
        return
    assert code == 0, err
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]
    assert all(math.isfinite(value) for value in summary.values())
    x, t, t_half = read_table(out / f"profile.{fmt}", fmt)
    _, theta = read_table(out / f"temperature.{fmt}", fmt)
    assert np.isfinite([x, t, t_half, theta]).all()
    assert (t[0], theta[0]) == (summary["t0"], summary["theta0"])
    if fmt == "csv":
        read_profile_csv(out / "profile.csv")
