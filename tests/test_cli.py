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


def test_rmatrix_closed_form_fails_on_a_wrong_kernel(monkeypatch):
    # one value of the confluent kernel, A[ibar][k] of the closed form,
    # scaled by 2: the closed form no longer equals the connection solve
    import qlaumon.rmatrix as rm
    kernel = rm.phi_kernel_masslike

    def one_wrong(ibar, kvec, *args):
        v = kernel(ibar, kvec, *args)
        return v * 2 if (ibar, kvec) == ((2, 0), (0, 0)) else v

    monkeypatch.setattr(rm, "phi_kernel_masslike", one_wrong)
    code, status, _ = check_status(
        ["rmatrix", "--n", "3", "--m-total", "2", "--mode", "prime"],
        "closed-form-equals-connection")
    assert (code, status) == (1, "fail")


def test_rmatrix_degenerate_gauge_exits_two(monkeypatch, capsys):
    # a pole in the gauge match's shifted closed form is a degenerate draw:
    # exit 2 with a message, as for the connection solve.  The gauge reads
    # the module global; cli keeps its own binding of closed_matrix
    import qlaumon.rmatrix as rm

    def pole(*args):
        raise ZeroDivisionError("pole")

    monkeypatch.setattr(rm, "closed_matrix", pole)
    code, out = run_cli(["rmatrix", "--n", "2", "--m-total", "1"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert "degenerate parameters: pole" in err
    assert "Traceback" not in err


def test_props_suites_pass():
    for suite, mode in (("pentagon", "rational"), ("combinatorics", "rational"),
                        ("jackson", "rational"), ("jackson", "prime")):
        code, out = run_cli(["props", "--suite", suite, "--mode", mode])
        assert code == 0, (suite, mode)
        doc = json.loads(out)
        assert doc["status"] == "pass"


def test_negative_truncation_vector_is_a_usage_error():
    code, _ = run_cli(["props", "--suite", "combinatorics", "--m=-1,2"])
    assert code == 2


def test_terminated_equation_skipped_where_the_sampler_has_no_draw():
    # over Q the sampler serves no rank above five; GF(p) does
    argv = ["props", "--suite", "combinatorics", "--m", "1,1,1,1,1,1"]
    code, status, detail = check_status(argv, "terminated-equation")
    assert (code, status) == (0, "skipped")
    assert "could not sample" in detail["reason"]
    code, status, _ = check_status(argv + ["--mode", "prime"],
                                   "terminated-equation")
    assert (code, status) == (0, "pass")


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


# -- the paper's identities as report checks -----------------------------------

# Each host report: the checks it had before the paper claims below became
# checks, then those, in report order.
HOST_CHECKS = {
    ("rmatrix", "--n", "2", "--m-total", "2"): (
        ["closed-inverse-and-residuals", "closed-form-equals-connection",
         "triangular-zero-pattern", "gauge-match"],
        ["kernel-transition"]),
    ("verify", "--n", "1", "--degree", "6"): (
        ["eigenfunction"], ["matches-rank-one-closed-form"]),
    ("props", "--suite", "combinatorics"): (
        ["support-count-and-bijection", "rank-ten-n3-m3"],
        ["terminated-equation"]),
    ("props", "--suite", "dynkin"): (
        ["dynkin-family-n3-deg2", "moved-borel-triple-n3-deg2"],
        ["cyclic-matrix-factorization-n3", "cyclic-matrix-factorization-n4"]),
    ("props", "--suite", "jackson"): (
        ["cocycle-rank-2-1", "cocycle-rank-2-2", "cocycle-rank-3-2"],
        ["vandermonde-division-2-1", "vandermonde-division-2-2",
         "vandermonde-division-3-2"]),
    ("props", "--suite", "4d"): (
        ["jet-expansion-x50", "first-order-symbol-difference",
         "annihilation-n2-deg4"],
        ["annihilation-n3-deg4", "transport-identity"]),
}


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_host_reports_list_old_checks_then_new(mode):
    for argv, (old, new) in HOST_CHECKS.items():
        code, out = run_cli(list(argv) + ["--mode", mode])
        doc = json.loads(out)
        assert [c["name"] for c in doc["checks"]] == old + new, argv
        assert code == 0 and doc["status"] == "pass", argv


def check_status(argv, name):
    """Exit code of the command and the status and detail of one check."""
    code, out = run_cli(argv)
    entry = next(c for c in json.loads(out)["checks"] if c["name"] == name)
    return code, entry["status"], entry.get("detail")


def test_terminated_equation_fails_on_a_wrong_mass_side(monkeypatch):
    import qlaumon.hamiltonian as ham
    side = ham.terminated_side

    def doubled_mass_side(mvec, mus, ctx, which):
        expand = side(mvec, mus, ctx, which)
        if which != "mass":
            return expand
        return lambda th: [(kv, c + c if any(kv) else c)
                           for kv, c in expand(th)]

    monkeypatch.setattr(ham, "terminated_side", doubled_mass_side)
    code, status, detail = check_status(
        ["props", "--suite", "combinatorics"], "terminated-equation")
    assert (code, status) == (1, "fail")
    assert detail == {"support": True, "equation": False}


def test_cyclic_matrix_factorization_fails_on_a_wrong_product(monkeypatch):
    import qlaumon.hamiltonian as ham
    mat_mul = ham.mat_mul

    def off_by_one(A, B):
        out = mat_mul(A, B)
        out[0][0] = out[0][0] + 1
        return out

    monkeypatch.setattr(ham, "mat_mul", off_by_one)
    for mode in ("rational", "prime"):
        for n in (3, 4):
            code, status, _ = check_status(
                ["props", "--suite", "dynkin", "--mode", mode],
                "cyclic-matrix-factorization-n%d" % n)
            assert (code, status) == (1, "fail"), (mode, n)


def test_kernel_transition_fails_on_a_wrong_kernel(monkeypatch):
    # at N = 4 the transition law reads kernels of two components and the
    # connection solve kernels of three, so only the law sees the change
    import qlaumon.rmatrix as rm
    kernel = rm.phi_kernel

    def wrong_diagonal(gamma, beta, lam, mu, ctx):
        v = kernel(gamma, beta, lam, mu, ctx)
        return v + v if len(gamma) == 2 and gamma == beta and any(beta) else v

    monkeypatch.setattr(rm, "phi_kernel", wrong_diagonal)
    code, out = run_cli(["rmatrix", "--n", "4", "--m-total", "1"])
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert code == 1
    assert status == {"closed-inverse-and-residuals": "pass",
                      "closed-form-equals-connection": "pass",
                      "triangular-zero-pattern": "pass",
                      "gauge-match": "skipped", "kernel-transition": "fail"}
    code, status, _ = check_status(["rmatrix", "--n", "1", "--m-total", "2"],
                                   "kernel-transition")
    assert (code, status) == (0, "skipped")


def test_vandermonde_division_fails_on_a_wrong_factor(monkeypatch):
    import qlaumon.jackson as jk
    factor = jk.cocycle_factor

    def shifted(spec, ell, z):
        return factor(spec, ell, z) + (1 if ell == 0 else 0)

    monkeypatch.setattr(jk, "cocycle_factor", shifted)
    for N, M in ((2, 1), (2, 2), (3, 2)):
        code, status, detail = check_status(
            ["props", "--suite", "jackson"], "vandermonde-division-%d-%d" % (N, M))
        assert (code, status) == (1, "fail"), (N, M)
        assert "value" in detail["failures"]


def test_transport_identity_fails_on_a_wrong_substitution(monkeypatch):
    import qlaumon.fourd as fd
    transported = fd.transported_point

    def scaled(point):
        tp = transported(point)
        return [tp[0] * 2] + tp[1:]

    monkeypatch.setattr(fd, "transported_point", scaled)
    code, status, detail = check_status(["props", "--suite", "4d"],
                                        "transport-identity")
    assert (code, status) == (1, "fail")
    assert detail["failures"]


def test_annihilation_at_rank_three_fails_on_a_wrong_series(monkeypatch):
    import qlaumon.fourd as fd
    limit = fd.laumon_4d

    def moved_at_rank_three(ap, cap):
        psi = limit(ap, cap)
        if ap.N == 3:
            psi.terms[(1, 0, 0)] += 1
        return psi

    monkeypatch.setattr(fd, "laumon_4d", moved_at_rank_three)
    code, out = run_cli(["props", "--suite", "4d"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1
    assert checks["annihilation-n2-deg4"]["status"] == "pass"
    assert checks["annihilation-n3-deg4"]["status"] == "fail"
    assert checks["annihilation-n3-deg4"]["detail"] == {"vanishes_through": 0}


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_eigenfunction_fails_on_a_wrong_series(monkeypatch, mode):
    import qlaumon.hamiltonian as ham
    solution = ham.solution_series

    def moved(ps, cap):
        psi = solution(ps, cap)
        psi.terms[(1, 0)] = psi.get((1, 0)) + 1
        return psi

    monkeypatch.setattr(ham, "solution_series", moved)
    code, status, detail = check_status(
        ["verify", "--n", "2", "--degree", "3", "--mode", mode],
        "eigenfunction")
    assert (code, status) == (1, "fail")
    assert detail == {"first_offender": [1, 0]}


def test_rank_one_closed_form_fails_on_a_wrong_series(monkeypatch):
    import qlaumon.cli as cli
    closed = cli.gl1_closed_solution

    def moved(ps, cap):
        psi = closed(ps, cap)
        psi.terms[(2,)] = psi.get((2,)) + 1
        return psi

    monkeypatch.setattr(cli, "gl1_closed_solution", moved)
    for mode in ("rational", "prime"):
        code, out = run_cli(["verify", "--n", "1", "--degree", "4",
                             "--mode", mode])
        status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert code == 1
        assert status == {"eigenfunction": "pass",
                          "matches-rank-one-closed-form": "fail"}


def test_support_check_fails_on_a_translated_support(monkeypatch):
    # both maps moved by one in coordinate 0 stay mutually inverse, so the
    # count and the round trip still hold; the inequalities of S(m) do not
    import qlaumon.cli as cli
    import qlaumon.rmatrix as rm
    to_support = rm.composition_to_support
    to_composition = rm.support_to_composition

    def moved(v, by):
        return (v[0] + by,) + v[1:] if v else v

    def moved_support(ivec, mvec):
        return moved(to_support(ivec, mvec), 1)

    def moved_composition(sigma, mvec):
        return to_composition(moved(sigma, -1), mvec)

    for module in (rm, cli):
        monkeypatch.setattr(module, "composition_to_support", moved_support)
        monkeypatch.setattr(module, "support_to_composition",
                            moved_composition)
    assert (2,) in rm.s_of_m((1, 1))
    code, status, _ = check_status(
        ["props", "--suite", "combinatorics", "--mode", "prime"],
        "support-count-and-bijection")
    assert (code, status) == (1, "fail")
