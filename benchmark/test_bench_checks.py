"""The benchmark's own checks, at small sizes: each passes on a correct
output and fails, counted as a failed operation, on a corrupted one."""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import qlaumon  # noqa: E402
import qlaumon.cli  # noqa: E402,F401  (binds every submodule on the package)
import checks  # noqa: E402
from layers import Tracer  # noqa: E402
from run import run_op  # noqa: E402
from workloads import (Operation, _verify_op, reduce_params,  # noqa: E402
                       with_changed_mass)

q = qlaumon
N, D = 2, 3


def failed(op_name, output, check):
    """Run ``check`` on ``output`` as the benchmark runs an operation."""
    rec = run_op(Operation(op_name, lambda: output, check), None)
    return rec["problem"] is not None


@pytest.fixture(scope="module")
def prime_psi():
    ps = q.sample_params(1, N, "prime")
    return ps, q.solution_series(ps, D)


def test_psi_with_a_dropped_coefficient_fails(prime_psi):
    ps, psi = prime_psi
    spec = q.HamiltonianSpec(ps, cap=D)

    def check(s):
        final = checks.apply_blocks(q.build_blocks(spec), s)
        return (checks.check_psi(s, N, D, True)
                or checks.check_block_chain(checks.H_ORDER, final, s))

    assert not failed("psi", psi, check)
    dropped = psi.copy()
    del dropped.terms[(1, 2)]
    assert checks.check_psi(dropped, N, D, True)
    final = checks.apply_blocks(q.build_blocks(spec), dropped)
    assert checks.check_block_chain(checks.H_ORDER, final, dropped)
    assert failed("psi", dropped, check)


def test_blocks_out_of_order_fail(prime_psi):
    _, psi = prime_psi
    assert checks.check_block_chain(("B", "T", "R", "C", "L", "B"), psi, psi)


def test_perturbed_r_entry_fails():
    ps = q.sample_params(1, 2, "rational")
    ctx = q.QContext(ps.sqrt_q, ps.field)
    rng = random.Random(7)
    mus, sqrt_mus, lam = q.rmatrix.draw_mass_data(rng, ps.field, ctx, 2, 2)
    rc, idx = q.rmatrix.connection_matrix(2, 2, lam, mus, ctx)
    rx, _ = q.rmatrix.closed_matrix(2, 2, lam, mus, sqrt_mus, ctx)
    points = [[q.params.rand_square(rng, ps.field)[1] for _ in range(2)]
              for _ in range(2)]

    def check(out):
        return checks.check_connection(out[0], out[1], idx, points, lam, mus,
                                       ctx.q, ps.field.one)

    assert not failed("R", (rc, rx), check)
    bent = [row[:] for row in rx]
    bent[1][0] = bent[1][0] + 1
    assert failed("R", (rc, bent), check)
    # the same wrong entry on both routes is caught at the fresh points
    assert failed("R", (bent, bent), check)


def test_wrong_rank_fails():
    assert not failed("rank", 6, lambda r: checks.check_rank(r, 3, 2))
    assert failed("rank", 5, lambda r: checks.check_rank(r, 3, 2))


def test_cross_field_and_negative_control_can_fail():
    rat = q.sample_params(1, N, "rational")
    red = reduce_params(q, rat)
    nek = q.nekrasov
    z_rat = q.laumon_partition_function(nek.solution_spectral_params(rat), D)
    z_red = q.laumon_partition_function(nek.solution_spectral_params(red), D)
    assert checks.check_cross_field(z_rat, z_red, q.PRIME_FIELD) is None
    z_bad = z_red.copy()
    z_bad.terms[(1, 0)] = z_bad.terms[(1, 0)] + 1
    assert checks.check_cross_field(z_rat, z_bad, q.PRIME_FIELD)

    spec = q.HamiltonianSpec(rat, cap=D)
    psi = q.solution_series(rat, D)
    assert checks.check_negative_control(q.hamiltonian_op(spec)(psi) - psi)
    moved = q.solution_series(with_changed_mass(q, rat), D)
    assert checks.check_negative_control(
        q.hamiltonian_op(spec)(moved) - moved) is None


def test_changed_mass_changes_the_mass():
    # parameter seed 87 draws sqrt(d_1) = -1/2, whose step by one would
    # only flip the sign of the root
    ps = q.sample_params(87, N, "rational")
    assert ps.sqrt_d[0] == Fraction(-1, 2)
    moved_ps = with_changed_mass(q, ps)
    assert moved_ps.d(0) != ps.d(0)
    spec = q.HamiltonianSpec(ps, cap=D)
    moved = q.solution_series(moved_ps, D)
    assert checks.check_negative_control(
        q.hamiltonian_op(spec)(moved) - moved) is None


def test_annihilator_and_discrepancies_can_fail():
    assert checks.check_annihilator(4, 6, 2) is None
    assert checks.check_annihilator(3, 6, 2)
    assert checks.check_no_discrepancies([]) is None
    assert checks.check_no_discrepancies([("left", "simple-vs-higher", (1, 0))])


def test_traced_verify_operation_passes_and_restores():
    op = _verify_op(q, N, D, 1, "prime")
    original = q.hamiltonian.build_blocks
    tracer = Tracer(q)
    tracer.install()
    try:
        rec = run_op(op, tracer)
    finally:
        tracer.restore()
    assert q.hamiltonian.build_blocks is original
    assert rec["problem"] is None
    lay = rec["layers"]
    assert lay["nekrasov.psi_missing"] == 0
    assert lay["nekrasov.z_terms"] == 10
    assert lay["nekrasov.factor_calls"] >= lay["nekrasov.factor_keys"] > 0
    assert lay["nekrasov.z_s"] >= lay["nekrasov.factor_s"] > 0
    assert lay["scalars.prime_divs"] > 0
    assert lay["params.sample_s"] > 0
    # the same traced check on a captured psi with one coefficient dropped
    del tracer.psi.terms[(0, 1)]
    problem, extra = op.traced_check(None, tracer)
    assert problem and extra["nekrasov.psi_missing"] == 1
