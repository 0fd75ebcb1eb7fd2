"""End-to-end CLI flows, exit codes, and file outputs."""

import dataclasses
import json
import math

import numpy as np
import pytest

import finopt
import finopt.cli
import finopt.kernels
import finopt.optimizer
import finopt.tables
from finopt.cli import _h_label, build_parser, main
from finopt.tables import read_profile_csv
from conftest import ORACLE_H20

BASE = ["--k", "200", "--area", "1.6e-4", "--q0", "20"]
SUMMARY_KEYS = {
    "L", "t0", "theta0", "compliance",
    "r_fin", "r_cond", "r_conv", "biot", "duffin_flux", "config",
}
# The fixed limits of the four optimality checks of a length run and verify.
CHECK_LIMITS = {
    "grad_temp_cv": 1e-2,
    "tip_temp_ratio": 2e-2,
    "thickness_slope_err": 2e-2,
    "selfadjoint_gap": 1e-10,
}


def run_analytic(out_dir, extra=()):
    return main(["analytic", *BASE, "--h", "20", "--out-dir", str(out_dir), *extra])


class TestAnalytic:
    def test_summary_and_tables(self, tmp_path, capsys):
        assert run_analytic(tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == SUMMARY_KEYS
        assert summary["L"] == pytest.approx(ORACLE_H20["L"], rel=1e-12)
        assert summary["biot"] == 1.0
        assert summary["config"]["command"] == "analytic"
        assert summary["config"]["h"] == 20.0
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "temperature.csv").exists()
        assert "optimal fin" in capsys.readouterr().out

    def test_half_profile_column(self, tmp_path):
        run_analytic(tmp_path)
        lines = (tmp_path / "profile.csv").read_text().splitlines()
        assert lines[0] == "x,t,t_half"
        row = lines[1].split(",")
        assert float(row[2]) == 0.5 * float(row[1])

    def test_zero_heat_input_gives_zero_temperatures(self, tmp_path):
        code = main(
            ["analytic", "--k", "200", "--area", "1.6e-4", "--q0", "0",
             "--h", "20", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "temperature.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_missing_h_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analytic", *BASE, "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_invalid_physics_exits_2(self, tmp_path, capsys):
        code = main(
            ["analytic", "--k", "-5", "--area", "1.6e-4", "--q0", "20",
             "--h", "20", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        assert run_analytic(tmp_path, extra=["--format", "json"]) == 0
        table = json.loads((tmp_path / "profile.json").read_text())
        assert table["columns"] == ["x", "t", "t_half"]
        assert len(table["rows"]) == 201


class TestSharedParser:
    def test_options_do_not_leak_between_calls(self, tmp_path):
        # every main() call parses with the same parser object
        assert build_parser() is build_parser()
        assert main(["sweep", *BASE, "--h-values", "50", "--samples", "5",
                     "--format", "json", "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["sweep", *BASE, "--out-dir", str(tmp_path / "b")]) == 0
        for h in (20, 50, 100, 200):
            lines = (tmp_path / "b" / f"profile_h{h}.csv").read_text().splitlines()
            assert len(lines) == 202
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "profile_h50.json", "summary.csv", "temperature_h50.json",
        ]


class TestSweep:
    def test_default_sweep(self, tmp_path, capsys):
        code = main(["sweep", *BASE, "--out-dir", str(tmp_path)])
        assert code == 0
        for h in (20, 50, 100, 200):
            assert (tmp_path / f"profile_h{h}.csv").exists()
            assert (tmp_path / f"temperature_h{h}.csv").exists()
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("h,L,t0,")
        assert len(lines) == 5

    def test_length_shrinks_and_thickness_grows_with_h(self, tmp_path):
        main(["sweep", *BASE, "--out-dir", str(tmp_path)])
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        iL, it0 = header.index("L"), header.index("t0")
        L = [float(r.split(",")[iL]) for r in lines[1:]]
        t0 = [float(r.split(",")[it0]) for r in lines[1:]]
        assert all(a > b for a, b in zip(L, L[1:]))
        assert all(a < b for a, b in zip(t0, t0[1:]))

    def test_all_tip_temperatures_vanish(self, tmp_path):
        main(["sweep", *BASE, "--out-dir", str(tmp_path)])
        for h in (20, 50, 100, 200):
            last = (tmp_path / f"temperature_h{h}.csv").read_text().splitlines()[-1]
            assert float(last.split(",")[1]) == 0.0

    def test_single_h(self, tmp_path):
        code = main(["sweep", *BASE, "--h-values", "75", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "profile_h75.csv").exists()
        assert len((tmp_path / "summary.csv").read_text().splitlines()) == 2

    def test_empty_h_list_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *BASE, "--h-values", "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_close_h_values_get_their_own_tables(self, tmp_path):
        code = main(["sweep", *BASE, "--h-values", "20", "20.0000001",
                     "--samples", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        assert sorted(p.name for p in tmp_path.glob("profile_h*.csv")) == [
            "profile_h20.csv", "profile_h20p0000001.csv",
        ]
        assert ((tmp_path / "profile_h20.csv").read_bytes()
                != (tmp_path / "profile_h20p0000001.csv").read_bytes())

    def test_close_h_values_print_their_own_labels(self, tmp_path, capsys):
        code = main(["sweep", *BASE, "--h-values", "20", "20.0000001", "3.7",
                     "--samples", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == ["h = 20", "h = 20.0000001", "h = 3.7"]

    def test_repeated_h_is_usage_error(self, tmp_path, capsys):
        code = main(["sweep", *BASE, "--h-values", "20", "50", "20.0",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--h-values" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("h", [3.7, 0.125, 1e-05, 2.5e-07, 123.456, 99999.5])
    def test_labels_up_to_six_digits_unchanged(self, h):
        assert _h_label(h) == format(h, "g").replace(".", "p").replace("-", "m")


class TestRemovedOptions:
    @pytest.mark.parametrize("flag", ["--t-inf", "--width"])
    @pytest.mark.parametrize("command", [
        ["analytic", *BASE, "--h", "20"],
        ["sweep", *BASE],
        ["optimize", *BASE, "--h", "20"],
        ["verify", "profile.csv", *BASE, "--h", "20"],
    ], ids=["analytic", "sweep", "optimize", "verify"])
    def test_is_usage_error(self, command, flag):
        # argparse rejects the flag before any file is read or written
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag",
        ["--max-grad-cv", "--max-tip-ratio", "--max-slope-err",
         "--max-selfadjoint-gap"],
    )
    @pytest.mark.parametrize("command", [
        ["optimize", *BASE, "--h", "20"],
        ["verify", "profile.csv", *BASE, "--h", "20"],
    ], ids=["optimize", "verify"])
    def test_check_limit_is_usage_error(self, command, flag):
        # The optimality checks have fixed limits.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, "1"])
        assert excinfo.value.code == 2


class TestOptimize:
    def test_fixed_length_run(self, tmp_path, capsys):
        code = main(
            ["optimize", *BASE, "--h", "20",
             "--fixed-length", f"{ORACLE_H20['L']!r}",
             "--n-cells", "500", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS grad_temp_cv" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["length"] == float(f"{ORACLE_H20['L']!r}")
        assert report["compliance"] == pytest.approx(
            ORACLE_H20["compliance"], rel=1e-2
        )
        assert report["biot"] == pytest.approx(1.0, abs=0.05)
        assert all(entry["passed"] for entry in report["checks"].values())
        assert "certificate" in report["checks"]
        assert "converged" not in report
        assert "length_search" not in report
        certificate = report["certificate"]
        # At L* the support is the whole fin, so no face is zero.
        assert certificate["support_faces"] == 500
        assert certificate["lagrange_multiplier"] == report["lagrange_multiplier"]
        assert certificate["density_spread"] <= 1e-9
        assert certificate["floored_density_ratio"] == 0.0
        assert certificate["area_error"] <= 1e-10
        assert report["versions"] == {
            "finopt": finopt.__version__,
            "numpy": np.__version__,
            "kernel": finopt.kernels.get_backend(),
        }
        for name in ("profile.csv", "temperature.csv"):
            assert (tmp_path / name).exists()
        assert not (tmp_path / "history.csv").exists()

    def test_length_run_reports_the_long_fin(self, tmp_path):
        code = main(["optimize", *BASE, "--h", "20", "--n-cells", "300",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        search = report["length_search"]
        assert set(search) == {"long_fin_length", "long_fin_support_faces"}
        assert search["long_fin_length"] == pytest.approx(3 * ORACLE_H20["L"], rel=1e-2)
        assert search["long_fin_support_faces"] == 100
        assert report["length"] == pytest.approx(ORACLE_H20["L"], rel=1e-3)
        limits = {name: check["limit"] for name, check in report["checks"].items()}
        certificate_limit = 1.0 + finopt.optimizer.DENSITY_SLACK
        assert limits == {**CHECK_LIMITS, "certificate": certificate_limit}

    def test_fixed_optimal_length_on_64_cells_exits_0(self, tmp_path, capsys):
        # The OC loop stalled here, a node next to the support edge, and
        # stopped unconverged at its 500-step cap.
        code = main(
            ["optimize", *BASE, "--h", "20",
             "--fixed-length", f"{ORACLE_H20['L']!r}", "--n-cells", "64",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        args = ["optimize", *BASE, "--h", "20",
                "--fixed-length", f"{ORACLE_H20['L']!r}", "--n-cells", "250"]
        first = tmp_path / "one"
        second = tmp_path / "two"
        main(args + ["--out-dir", str(first)])
        main(args + ["--out-dir", str(second)])
        for name in ("report.json", "profile.csv", "temperature.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_threshold_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # A length run checks theta(tip) / theta(root) against its fixed
        # limit; a metric over it fails the run.
        exact_metrics = finopt.optimizer.evaluate_profile_optimality

        def warm_tip(problem, profile, theta, adjoint=None):
            check = exact_metrics(problem, profile, theta, adjoint=adjoint)
            return dataclasses.replace(check, tip_temp_ratio=0.5)

        monkeypatch.setattr(
            finopt.optimizer, "evaluate_profile_optimality", warm_tip
        )
        code = main(["optimize", *BASE, "--h", "20", "--n-cells", "250",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "FAIL tip_temp_ratio" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["checks"]["tip_temp_ratio"] == {
            "value": 0.5, "limit": 2e-2, "passed": False,
        }

    @pytest.mark.parametrize("factor", [1e-3, 1e-2, 0.5, 0.9, 1.5, 3.0, 10.0])
    def test_fixed_length_optimum_exits_0(self, tmp_path, capsys, factor):
        # The optimum at any length has a constant temperature gradient, but
        # theta(tip) = 0 only at L*: a fixed-length run reports the tip
        # ratio without checking it.  Past L* the slope is fitted over the
        # support only, not over the zero faces past it.
        length = factor * ORACLE_H20["L"]
        code = main(["optimize", *BASE, "--h", "20",
                     "--fixed-length", f"{length!r}", "--n-cells", "1000",
                     "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "tip_temp_ratio" not in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert "tip_temp_ratio" not in report["checks"]
        assert report["optimality"]["tip_temp_ratio"] >= 0.0
        if factor < 1.0:
            # The support is the whole fin and theta(L) = g (r - L) > 0.
            assert report["optimality"]["tip_temp_ratio"] > 2e-2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_face_support_fails_the_slope_check(self, tmp_path, capsys):
        # At 3 L* on 8 cells the budget fills two faces: one node lies
        # between two positive faces, too few to fit a slope.
        code = main(["optimize", *BASE, "--h", "20",
                     "--fixed-length", f"{3.0 * ORACLE_H20['L']!r}",
                     "--n-cells", "8", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "FAIL thickness_slope_err: nan" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificate"]["support_faces"] == 2
        assert math.isnan(report["optimality"]["thickness_slope"])
        assert report["checks"]["thickness_slope_err"]["passed"] is False

    @pytest.mark.parametrize(
        "factor, support, cause",
        [(1.5, 2, "the support has 2 faces"), (3.0, 1, "the support has 1 face,")],
    )
    def test_under_three_face_support_names_the_cause(
        self, tmp_path, capsys, factor, support, cause
    ):
        # On 4 cells 1.5 L* fills two faces and 3 L* one: the slope check
        # still fails, and its line says why.
        code = main(["optimize", *BASE, "--h", "20",
                     "--fixed-length", f"{factor * ORACLE_H20['L']!r}",
                     "--n-cells", "4", "--out-dir", str(tmp_path)])
        assert code == 1
        (line,) = [
            row for row in capsys.readouterr().out.splitlines()
            if row.startswith("FAIL")
        ]
        assert line.startswith("FAIL thickness_slope_err: nan (limit 2.000e-02): ")
        assert cause in line and line.endswith("the taper fit needs at least three")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["certificate"]["support_faces"] == support

    def test_too_coarse_mesh_exits_2(self, tmp_path, capsys):
        code = main(
            ["optimize", *BASE, "--h", "20", "--n-cells", "3",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("length", ["0", "-1", "nan", "inf", "1e300", "1e-300"])
    def test_unusable_fixed_length_exits_2(self, tmp_path, capsys, length):
        code = main(
            ["optimize", *BASE, "--h", "20", f"--fixed-length={length}",
             "--n-cells", "50", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_four_and_five_cells_pass_every_check(self, tmp_path, capsys):
        # The long fin's support is one face, so the length law gives
        # L/L* - 1 = 1/24.  The result's last face is zero; the gradient
        # metric measures only faces that carry heat, so every check passes.
        low_conductivity = finopt.FinProblem(k=3.7, h=812.0, area=2.3e-6, q0=0.31)
        fins = [
            ([*BASE, "--h", "20"], ORACLE_H20["L"]),
            (["--k", "3.7", "--h", "812", "--area", "2.3e-6", "--q0", "0.31"],
             finopt.optimal_length(low_conductivity)),
        ]
        for index, (fin, closed_form) in enumerate(fins):
            for n_cells in (4, 5):
                out_dir = tmp_path / f"{index}-{n_cells}"
                code = main(["optimize", *fin, "--n-cells", str(n_cells),
                             "--out-dir", str(out_dir)])
                assert code == 0, (fin, n_cells)
                captured = capsys.readouterr()
                assert captured.err == "" and "FAIL" not in captured.out
                report = json.loads((out_dir / "report.json").read_text())
                assert report["length"] / closed_form - 1.0 == pytest.approx(
                    1 / 24, rel=1e-9
                )

    @pytest.mark.parametrize("n_cells", [6, 7, 8])
    def test_low_conductivity_fin_on_few_cells_exits_0(self, tmp_path, n_cells):
        # The long fin's support has two faces here, enough to give the
        # root of its temperature, and the result passes every check.
        code = main(
            ["optimize", "--k", "3.7", "--h", "812", "--area", "2.3e-6",
             "--q0", "0.31", "--n-cells", str(n_cells), "--out-dir", str(tmp_path)]
        )
        assert code == 0

    def test_unmet_area_budget_exits_1(self, tmp_path, capsys, monkeypatch):
        # A profile whose area misses the budget by 1e-9, above the 1e-10
        # tolerance, must fail the run.
        exact_solve = finopt.optimizer._solve_optimality_conditions

        def off_budget_solve(*args):
            values, *rest = exact_solve(*args)
            return (values * (1.0 + 1e-9), *rest)

        monkeypatch.setattr(
            finopt.optimizer, "_solve_optimality_conditions", off_budget_solve
        )
        code = main(
            ["optimize", *BASE, "--h", "20",
             "--fixed-length", f"{ORACLE_H20['L']!r}", "--n-cells", "50",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "area budget" in capsys.readouterr().err

    def test_removed_lambda_tol_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", *BASE, "--h", "20", "--lambda-tol", "1e-10",
                  "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        ("flag", "value"),
        [("--max-inner-iters", "40"), ("--oc-damping", "0.5"),
         ("--move-limit", "0.2"), ("--converge-tol", "1e-8")],
    )
    def test_removed_oc_flag_is_usage_error(self, tmp_path, flag, value):
        # The knobs of the OC iteration went with it.
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", *BASE, "--h", "20", flag, value,
                  "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2


class TestVerify:
    def _write_analytic_profile(self, tmp_path):
        run_analytic(tmp_path, extra=["--samples", "401"])
        return tmp_path / "profile.csv"

    def test_analytic_profile_passes(self, tmp_path, capsys):
        path = self._write_analytic_profile(tmp_path)
        code = main(["verify", str(path), *BASE, "--h", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "biot = 1" in out
        assert "FAIL" not in out
        checks = [line for line in out.splitlines() if line.startswith("PASS")]
        assert [line.split(":")[0] for line in checks] == [
            f"PASS {name}" for name in CHECK_LIMITS
        ]
        for line, limit in zip(checks, CHECK_LIMITS.values()):
            assert line.endswith(f"(limit {limit:.3e})")

    def test_rectangular_profile_fails_gradient_constancy(self, tmp_path, capsys):
        path = tmp_path / "rect.csv"
        t = ORACLE_H20["t0"] / 3.0
        rows = [f"{x},{t}" for x in np.linspace(0.0, ORACLE_H20["L"], 100)]
        path.write_text("x,t\n" + "\n".join(rows) + "\n")
        code = main(["verify", str(path), *BASE, "--h", "20"])
        assert code == 1
        assert "FAIL grad_temp_cv" in capsys.readouterr().out

    def test_malformed_csv_exits_2_and_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,t\n0.0,1e-3\noops,1e-3\n")
        code = main(["verify", str(path), *BASE, "--h", "20"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["verify", str(path), *BASE, "--h", "20"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_profile_must_start_at_origin(self, tmp_path, capsys):
        path = tmp_path / "late.csv"
        path.write_text("x,t\n0.05,1e-3\n0.1,1e-3\n")
        code = main(["verify", str(path), *BASE, "--h", "20"])
        assert code == 2
        assert "start at x = 0" in capsys.readouterr().err

    def test_fault_in_one_elimination_order_fails_the_gap(
        self, tmp_path, capsys, monkeypatch
    ):
        # The adjoint is solved tip first, so its load row comes last.  A
        # kernel that errs by 1e-8 in that order alone must show in the
        # self-adjoint gap, whose limit is 1e-10.
        path = self._write_analytic_profile(tmp_path)
        solve = finopt.kernels.solve_spd_tridiagonal

        def faulty_in_reverse(rowsum, off, first, last):
            x = solve(rowsum, off, first, last)
            return x * (1.0 + 1e-8) if last != 0.0 else x

        monkeypatch.setattr(finopt.kernels, "solve_spd_tridiagonal", faulty_in_reverse)
        code = main(["verify", str(path), *BASE, "--h", "20"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL selfadjoint_gap" in out
        assert "FAIL grad_temp_cv" not in out


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_two_face_profile_names_the_cause(self, tmp_path, capsys):
        # On 4 cells the table's faces read 1.5e-3, 5e-4, 0 and 0: one node
        # lies between positive faces, too few to fit a slope.
        path = tmp_path / "two-face.csv"
        path.write_text("x,t\n0,2e-3\n0.05,1e-3\n0.1,0\n0.15,0\n0.2,0\n")
        code = main(["verify", str(path), *BASE, "--h", "20", "--n-cells", "4"])
        assert code == 1
        (line,) = [
            row for row in capsys.readouterr().out.splitlines()
            if row.startswith("FAIL")
        ]
        assert line == (
            "FAIL thickness_slope_err: nan (limit 2.000e-02): the support has "
            "2 faces, and the taper fit needs at least three"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_slope_on_more_faces_names_the_cause(self, tmp_path, capsys):
        # Every other face is zero: five faces are positive, but no node
        # lies between two of them.
        mesh = finopt.Mesh(10, 0.2)
        t = np.where(np.arange(10) % 2 == 0, 1e-3, 0.0)
        path = tmp_path / "alternating.csv"
        finopt.tables.write_profile_csv(
            path, np.concatenate(([0.0], mesh.faces, [mesh.length])),
            np.concatenate(([1e-3], t, [0.0])),
        )
        code = main(["verify", str(path), *BASE, "--h", "20", "--n-cells", "10"])
        assert code == 1
        assert (
            "FAIL thickness_slope_err: nan (limit 2.000e-02): fewer than two "
            "interior nodes outside the tip zone lie between positive faces\n"
        ) in capsys.readouterr().out


class TestRoundTrip:
    @pytest.mark.parametrize("n_cells", [4, 5, 1000])
    @pytest.mark.parametrize("factor", [None, 0.5, 3.0])
    def test_verify_reads_the_optimized_faces_bitwise(
        self, tmp_path, monkeypatch, n_cells, factor
    ):
        # profile.csv holds every face value; verify on the same mesh
        # interpolates each back to itself and solves the same system.
        problem = finopt.FinProblem(k=200.0, h=20.0, area=1.6e-4, q0=20.0)
        options = finopt.OptimizerOptions(n_cells)
        args = ["--n-cells", str(n_cells), "--out-dir", str(tmp_path)]
        if factor is None:
            report = finopt.optimize_length(problem, options)
        else:
            length = factor * finopt.optimal_length(problem)
            report = finopt.optimize_profile(problem, length, options)
            args += ["--fixed-length", repr(length)]
        main(["optimize", *BASE, "--h", "20", *args])

        seen = []
        metrics = finopt.cli.evaluate_profile_optimality

        def record(problem, profile, theta, adjoint=None):
            seen.append((profile, theta))
            return metrics(problem, profile, theta, adjoint)

        monkeypatch.setattr(finopt.cli, "evaluate_profile_optimality", record)
        main(["verify", str(tmp_path / "profile.csv"), *BASE, "--h", "20",
              "--n-cells", str(n_cells)])
        ((profile, theta),) = seen
        assert profile.mesh == report.profile.mesh
        assert profile.values.tobytes() == report.profile.values.tobytes()
        assert problem.q0 * theta.root_value == report.compliance

    def test_optimized_profile_passes_verify(self, tmp_path, capsys):
        # the optimize artifact must be consumable by the verify subcommand
        code = main(
            ["optimize", *BASE, "--h", "20",
             "--fixed-length", f"{ORACLE_H20['L']!r}", "--n-cells", "500",
             "--out-dir", str(tmp_path)]
        )
        assert code == 0
        code = main(["verify", str(tmp_path / "profile.csv"), *BASE, "--h", "20"])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_analytic_profile_survives_verify_roundtrip(self, tmp_path):
        run_analytic(tmp_path)
        x, t = read_profile_csv(tmp_path / "profile.csv")
        rewritten = tmp_path / "again.csv"
        from finopt.tables import write_profile_csv

        write_profile_csv(rewritten, x, t)
        assert rewritten.read_bytes() == (tmp_path / "profile.csv").read_bytes()
