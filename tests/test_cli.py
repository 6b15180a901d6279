import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlaumon
from qlaumon.cli import main


def run_cli(args, tmp_path=None):
    """Run the CLI in-process, capturing stdout and the exit code."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_verify_rank_one_passes():
    code, out = run_cli(["verify", "--n", "1", "--degree", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qlaumon-report/1"
    assert doc["status"] == "pass"
    assert all(e["bad_coefficients"] == 0 for e in doc["defects_by_degree"])
    assert "wall_time_s" in doc


def test_partition_function_is_deterministic_and_exact(tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    code, _ = run_cli(["partition-function", "--n", "2", "--degree", "2",
                       "--out", str(f1)])
    assert code == 0
    code, _ = run_cli(["partition-function", "--n", "2", "--degree", "2",
                       "--out", str(f2)])
    assert code == 0
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    doc = json.loads(b1)
    assert "wall_time_s" not in doc  # file output is timing-free
    for row in doc["coefficients"]:
        assert "." not in row["coefficient"]  # exact strings, never floats


def test_degree_zero_table_is_single_row():
    code, out = run_cli(["partition-function", "--n", "2", "--degree", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [{"coefficient": "1", "exponent": [0, 0]}]


def test_report_round_trips():
    code, out = run_cli(["verify", "--n", "2", "--degree", "2"])
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_usage_errors_exit_two():
    code, _ = run_cli(["verify", "--n", "0", "--degree", "2"])
    assert code == 2
    code, _ = run_cli(["props", "--suite", "no-such-suite"])
    assert code == 2
    code, _ = run_cli(["verify", "--n", "8", "--degree", "1"])
    assert code == 2
    code, _ = run_cli(["verify", "--n", "3", "--degree", "2",
                       "--form", "gl2-symmetric"])
    assert code == 2
    code, _ = run_cli(["props", "--suite", "combinatorics", "--m", "1,x"])
    assert code == 2
    code, _ = run_cli(["verify", "--n", "1", "--degree", "1",
                       "--out", "/nonexistent/x.json"])
    assert code == 2


def test_default_form_leaves_out_file_unchanged(tmp_path):
    # the report does not echo the form, so the default form changes no
    # --out file
    paths = [tmp_path / "default.json", tmp_path / "normal.json"]
    for path, form in zip(paths, ([], ["--form", "normal"])):
        code, _ = run_cli(["verify", "--n", "3", "--degree", "4",
                           "--out", str(path)] + form)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_prime_mode_reports_prime():
    code, out = run_cli(["verify", "--n", "2", "--degree", "2",
                         "--mode", "prime"])
    assert code == 0
    doc = json.loads(out)
    assert doc["prime"] == 2305843009213693951


def test_rmatrix_command():
    # seed 4 first draws lam * mu_2 = q, a zero denominator of the closed
    # form; the draw is rejected and redrawn
    for seed in ("1", "4"):
        code, out = run_cli(["rmatrix", "--n", "2", "--m-total", "1",
                             "--emit-matrix", "--seed", seed])
        assert code == 0, seed
        doc = json.loads(out)
        names = {c["name"]: c["status"] for c in doc["checks"]}
        assert names["closed-form-equals-connection"] == "pass"
        assert names["triangular-zero-pattern"] == "pass"
        assert len(doc["matrix"]) == 2


def test_rmatrix_failed_identity_is_a_failed_check(monkeypatch):
    # one wrong entry of the closed inverse: the identity B'B = 1 fails,
    # which is a failed check (exit 1), not a degenerate input (exit 2)
    import qlaumon.rmatrix as rm
    entry = rm.b2_inverse_entry

    def one_wrong(ivec, jvec, lam, M, ctx):
        v = entry(ivec, jvec, lam, M, ctx)
        return v + 1 if ivec == jvec == (2, 0) else v

    monkeypatch.setattr(rm, "b2_inverse_entry", one_wrong)
    code, out = run_cli(["rmatrix", "--n", "2", "--m-total", "2",
                         "--emit-matrix"])
    assert code == 1
    doc = json.loads(out)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["status"] == "fail"
    assert checks["closed-inverse-and-residuals"]["status"] == "fail"
    assert "closed inverse failed" in \
        checks["closed-inverse-and-residuals"]["detail"]["failure"]
    assert checks["closed-form-equals-connection"]["status"] == "skipped"
    assert "matrix" not in doc


def test_props_suites_pass():
    for suite, mode in (("pentagon", "rational"), ("combinatorics", "rational"),
                        ("jackson", "rational"), ("jackson", "prime")):
        code, out = run_cli(["props", "--suite", suite, "--mode", mode])
        assert code == 0, (suite, mode)
        doc = json.loads(out)
        assert doc["status"] == "pass"


def test_combinatorics_emits_polyhedron_vertices():
    code, out = run_cli(["props", "--suite", "combinatorics",
                         "--m", "3,2,1"])
    doc = json.loads(out)
    assert doc["polyhedron_vertices"]["vertices"] == [[-3, -1], [3, -1], [3, 5]]


def test_console_entry_point_runs():
    # the child process imports the package under test, not an installed copy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(qlaumon.__file__).resolve().parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "qlaumon.cli", "verify", "--n", "1",
         "--degree", "3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"
