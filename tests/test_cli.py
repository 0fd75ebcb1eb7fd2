"""End-to-end CLI flows, exit codes, and file outputs."""

import dataclasses
import json
import math

import numpy as np
import orjson
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


# Valid physics whose closed form leaves float64, and the quantity that the
# error names: L* underflows to 0, L* overflows, and theta0 overflows.
OUTSIDE_FLOAT64 = {
    "length-zero": (["--k", "1e-300", "--h", "1e300", "--area", "1e-300", "--q0", "1"],
                    "length L*"),
    "length-inf": (["--k", "1e300", "--h", "1e-300", "--area", "1e10", "--q0", "1"],
                   "length L*"),
    "theta0-inf": (["--k", "1", "--h", "1", "--area", "1e-300", "--q0", "1e300"],
                   "theta0"),
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("shape", OUTSIDE_FLOAT64)
    def test_closed_form_outside_float64_exits_2(self, tmp_path, capsys, shape, fmt):
        # Checked before anything is sampled or written: no table, no directory.
        physics, quantity = OUTSIDE_FLOAT64[shape]
        out = tmp_path / "out"
        assert main(["analytic", *physics, "--format", fmt, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: the closed-form {quantity}")
        assert err.endswith(", outside float64's range\n")
        assert not out.exists()


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


# One run of each command that writes, quick enough to repeat per case.
WRITERS = {
    "optimize": ["optimize", *BASE, "--h", "20", "--n-cells", "50"],
    "analytic": ["analytic", *BASE, "--h", "20", "--samples", "5"],
    "sweep": ["sweep", *BASE, "--h-values", "20", "50", "--samples", "5"],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", WRITERS)
    def test_out_dir_naming_a_file_exits_2(self, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main([*WRITERS[command], "--out-dir", str(afile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {afile}: ")
        assert "File exists" in err
        assert afile.read_text() == "kept\n"

    # The last file each command writes: sweep's summary.csv among them.
    @pytest.mark.parametrize("command, name", [
        ("optimize", "temperature.csv"), ("analytic", "summary.json"),
        ("sweep", "summary.csv"),
    ])
    def test_output_file_that_cannot_be_written_exits_2(
            self, tmp_path, capsys, command, name):
        (tmp_path / name).mkdir()
        assert main([*WRITERS[command], "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {tmp_path}: ")
        assert str(tmp_path / name) in err


# sweep's summary.csv for BASE and these h values, pinned in every column
# but t0 (the third), which test_summary_bytes_pinned takes from the tables.
PINNED_H_VALUES = ("20", "20.0000001", "3.7", "1e-3", "812")
PINNED_SUMMARY = """\
h,L,t0,theta0,compliance,r_fin,r_cond,r_conv,biot,duffin_flux
20.0,0.16868653306034986,0.0028455146435920507,5.928155507483438,118.56311014966874,0.2964077753741719,0.14820388768708595,0.14820388768708595,1.0,3.3737306612069973
20.0000001,0.16868653277920562,0.0028455146483345743,5.928155487722919,118.56310975445838,0.29640777438614596,0.14820388719307298,0.14820388719307298,1.0,3.373730672452766
3.7,0.2960441632194787,0.001621379711661945,18.25878053673361,365.17561073467215,0.9129390268366804,0.4564695134183402,0.4564695134183402,1.0,1.0953634039120712
0.001,4.5788569702133275,0.00010482965576835587,4367.902323681495,87358.04647362989,218.39511618407474,109.19755809203737,109.19755809203737,1.0,0.004578856970213327
812.0,0.04908005807381839,0.009779939528149307,0.5018441876102887,10.036883752205775,0.025092209380514437,0.012546104690257218,0.012546104690257218,1.0,39.85300715594053"""


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("physics, h_values, quantity", [
        (["--k", "1e-150", "--area", "1e-150", "--q0", "1"], ["1", "1e300"], "length L*"),
        (["--k", "1e300", "--area", "1", "--q0", "1"], ["1", "1e-300"], "length L*"),
        (["--k", "1", "--area", "1e-200", "--q0", "1e100"], ["1", "1e-300"], "theta0"),
    ], ids=["length-zero", "length-inf", "theta0-inf"])
    def test_closed_form_outside_float64_writes_no_table(
            self, tmp_path, capsys, physics, h_values, quantity):
        # The first h has a closed form in range, but every h is evaluated
        # before any table is written, so it gets none either.
        assert main(["analytic", *physics, "--h", h_values[0], "--samples", "5",
                     "--out-dir", str(tmp_path / "first")]) == 0
        out = tmp_path / "out"
        assert main(["sweep", *physics, "--h-values", *h_values,
                     "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: the closed-form {quantity}")
        assert not out.exists()

    def test_summary_bytes_pinned(self, tmp_path):
        # t0 is the closed form at x = 0, so it spells the profile table's first t.
        assert main(["sweep", *BASE, "--h-values", *PINNED_H_VALUES, "--samples", "5",
                     "--out-dir", str(tmp_path)]) == 0
        header, *rows = PINNED_SUMMARY.splitlines()
        expected = [header]
        for row, h in zip(rows, PINNED_H_VALUES):
            fields = row.split(",")
            profile = tmp_path / f"profile_h{_h_label(float(h))}.csv"
            fields[2] = profile.read_text().splitlines()[1].split(",")[1]
            expected.append(",".join(fields))
        assert (tmp_path / "summary.csv").read_text() == "\n".join(expected) + "\n"

    def test_root_values_are_the_tables_first_rows(self, tmp_path):
        # 1000 drawn problems, 20 h values a sweep: t0 and theta0 in
        # summary.csv spell the first t and theta of their tables.
        rng = np.random.default_rng(32)
        for sweep in range(50):
            physics = ["--k", repr(10.0 ** rng.uniform(-1, 3)),
                       "--area", repr(10.0 ** rng.uniform(-7, -3)),
                       "--q0", repr(10.0 ** rng.uniform(-1, 3))]
            h_values = [repr(h) for h in (10.0 ** rng.uniform(0, 3, 20)).tolist()]
            out = tmp_path / str(sweep)
            assert main(["sweep", *physics, "--h-values", *h_values, "--samples", "2",
                         "--out-dir", str(out)]) == 0
            lines = (out / "summary.csv").read_text().splitlines()
            assert lines[0].split(",")[:4] == ["h", "L", "t0", "theta0"]
            for line, h in zip(lines[1:], h_values):
                t0, theta0 = line.split(",")[2:4]
                label = _h_label(float(h))
                first = (out / f"profile_h{label}.csv").read_text().splitlines()[1]
                assert first.split(",")[:2] == ["0.0", t0]
                first = (out / f"temperature_h{label}.csv").read_text().splitlines()[1]
                assert first.split(",") == ["0.0", theta0]

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
            "orjson": orjson.__version__,
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

    def test_underflowing_closed_form_length_exits_2(self, tmp_path, capsys):
        # The length search starts from L*, so the error names it, not the
        # zero-length mesh it would make.
        physics, _ = OUTSIDE_FLOAT64["length-zero"]
        out = tmp_path / "out"
        assert main(["optimize", *physics, "--n-cells", "50", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: the closed-form length L*")
        assert not out.exists()

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
        ] + ["PASS area_err"]
        for line, limit in zip(checks, CHECK_LIMITS.values()):
            assert line.endswith(f"(limit {limit:.3e})")
        # 401 rows on 1000 cells: D = L/400 and dx = L/1000, so at L* the
        # limit is 3 (D^2/4 + dx^2/12) / L^2 + 1004 eps.
        limit = 3.0 * (1.0 / 400**2 / 4.0 + 1.0 / 1000**2 / 12.0) + 1004 * 2.0**-52
        assert checks[-1].endswith(f"(limit {limit:.3e})")

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
        # The faces also hold 1e-4 m^2 of the 1.6e-4 budget.
        line, area = [
            row for row in capsys.readouterr().out.splitlines()
            if row.startswith("FAIL")
        ]
        assert line == (
            "FAIL thickness_slope_err: nan (limit 2.000e-02): the support has "
            "2 faces, and the taper fit needs at least three"
        )
        assert area.startswith("FAIL area_err: 3.750e-01 ")

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

    @pytest.mark.parametrize("factor", [2.0, 0.5])
    def test_closed_form_of_another_budget_fails_the_area_check(
        self, tmp_path, capsys, factor
    ):
        # Every other check is blind to the budget: the closed form of
        # twice or half of it passes them all.
        main(["analytic", "--k", "200", "--h", "20", "--area", repr(1.6e-4 * factor),
              "--q0", "20", "--samples", "1001", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["verify", str(tmp_path / "profile.csv"), *BASE, "--h", "20"])
        assert code == 1
        (line,) = [
            row for row in capsys.readouterr().out.splitlines()
            if row.startswith("FAIL")
        ]
        assert line.startswith(f"FAIL area_err: {abs(factor - 1.0):.3e} (limit ")
        assert line.endswith("): the budget is 0.00016 m^2")

    @pytest.mark.parametrize("n_cells", [4, 10, 250, 1000, 16000])
    def test_sampled_closed_form_reads_half_its_area_limit(self, tmp_path, capsys, n_cells):
        # n + 1 even rows read on n cells: +dx^2/8 from the interpolation
        # and -dx^2/24 from the midpoint rule leave 1/(2 n^2) of the budget,
        # against a limit of 1/n^2 plus the rounding of the sum.
        run_analytic(tmp_path, extra=["--samples", str(n_cells + 1)])
        main(["verify", str(tmp_path / "profile.csv"), *BASE, "--h", "20",
              "--n-cells", str(n_cells)])
        (line,) = [
            row for row in capsys.readouterr().out.splitlines()
            if "area_err" in row
        ]
        value, limit = (float(word.strip("()")) for word in line.split()[2:5:2])
        assert line.startswith("PASS")
        assert value == pytest.approx(0.5 / n_cells**2, rel=1e-3)
        assert limit == pytest.approx(1.0 / n_cells**2 + (n_cells + 4) * 2.0**-52,
                                      rel=1e-3)


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

    @pytest.mark.parametrize("n_cells", [4, 5, 1000])
    @pytest.mark.parametrize("factor", [None, 0.5, 3.0])
    def test_optimized_table_meets_its_budget_on_its_mesh(
        self, tmp_path, capsys, n_cells, factor
    ):
        args = ["--n-cells", str(n_cells), "--out-dir", str(tmp_path)]
        if factor is not None:
            args += ["--fixed-length", repr(factor * ORACLE_H20["L"])]
        main(["optimize", *BASE, "--h", "20", *args])
        capsys.readouterr()
        main(["verify", str(tmp_path / "profile.csv"), *BASE, "--h", "20",
              "--n-cells", str(n_cells)])
        (line,) = [
            row for row in capsys.readouterr().out.splitlines()
            if "area_err" in row
        ]
        assert line.startswith("PASS area_err: ")

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
