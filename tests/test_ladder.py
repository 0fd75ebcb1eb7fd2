"""The timing ladder (bench/ladder.py) runs and writes its schema; no time is asserted."""

import importlib.util
import json
import math
from pathlib import Path

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_ladder_writes_every_rung(tmp_path, capsys):
    ladder = _ladder()
    out = tmp_path / "BENCH_test.json"
    assert ladder.main(["--out", str(out), "--sizes", "1000", "--calls", "3"]) == 0
    bench = json.loads(out.read_text())

    assert bench["schema"] == ladder.SCHEMA
    for key in ("git_revision", "git_dirty", "git_diff_sha256", "machine", "platform",
                "cpu", "nproc", "python", "numpy", "orjson", "finopt", "kernel",
                "physics"):
        assert key in bench
    if bench["git_dirty"]:
        assert len(bench["git_diff_sha256"]) == 64
    else:
        assert bench["git_diff_sha256"] is None
    assert bench["sizes"] == [1000] and bench["calls"] == 3
    assert [row["rung"] for row in bench["rungs"]] == list(ladder.RUNGS)
    for row in bench["rungs"]:
        assert row["n"] == 1000 and row["calls"] == 3
        for key in ("median_s", "iqr_s", "minor_faults_per_call"):
            assert math.isfinite(row[key]) and row[key] >= 0.0
        assert isinstance(row["tracemalloc_peak_bytes"], int)
        assert row["tracemalloc_peak_bytes"] > 0
        expected = "children" if row["rung"] == "cli_optimize" else "self"
        assert row["faults_of"] == expected
