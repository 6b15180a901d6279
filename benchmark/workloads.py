"""The three workloads: their points, parameter sets and operations.

Every operation makes the same public library calls as the ``verify``,
``rmatrix`` or ``props`` command it stands for, on parameters sampled in
the set-up from the run's seed.  ``setup(q, seed)`` returns the list of
operations of one round; ``final_checks(q, seed)`` returns the checks
that run once per run, outside the timed region.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

# (N, D) points of the verify workloads, and parameter sets per point:
# over Q the cost follows the height of the parameters drawn, so each
# point is timed on several draws.
VERIFY_POINTS = ((2, 9), (3, 6), (4, 5))
PARAM_SETS = 3
# Small point of the once-per-run checks of the verify workloads.
CHECK_POINT = (2, 4)

# identities: (N, degree) of the form checks, (N, M) of the R-matrix and
# cocycle-rank operations, (N, D) of the 4d annihilator.  The form checks,
# the R-matrix and the cocycle rank run in GF(p), where their cost does
# not depend on the height of the sampled parameters, and where the
# sampler's draws do not fall on the relations a_k b_j = 1 that drop the
# cocycle rank over Q on some seeds; the 4d limit is rational by
# construction.
IDENTITIES_MODE = "prime"
FORM_POINTS = ((3, 3), (4, 3))
FORM_CHECKS = (("forms", "check_form_equivalence"),
               ("pentagon", "check_pentagon"),
               ("family", "check_dynkin_family"),
               ("moved-borel", "check_borel_moved_triple"))
RMATRIX_POINTS = ((2, 2), (3, 2))
RMATRIX_FRESH_POINTS = 3
RANK_POINTS = ((2, 3), (3, 3), (4, 2))
FOURD_POINTS = ((2, 6), (3, 5))


class Operation:
    """``run()`` makes the library calls and returns their output, which
    ``check(out)`` tests.  ``traced_check(out, tracer)``, if present,
    also tests what the tracer captured inside the calls and returns
    (problem, extra layer values).  Operations at the same ``point``
    differ only in the parameter set drawn."""

    __slots__ = ("name", "point", "run", "check", "traced_check")

    def __init__(self, name, run, check, traced_check=None, point=None):
        self.name = name
        self.point = point or name
        self.run = run
        self.check = check
        self.traced_check = traced_check


def param_seed(seed, k):
    """Seed of the k-th parameter set drawn for a point."""
    return PARAM_SETS * seed + k


# -- verify-rational / verify-prime -------------------------------------------


def _verify_op(q, N, D, pseed, mode):
    """The calls of ``qlaumon verify``: sample the parameters, then verify."""
    def run():
        return q.verify_conjecture(N, D, pseed, mode)

    def traced_check(report, tracer):
        # Rational draws can land on a mass truncation (see the benchmark
        # README), so full support is required in GF(p) only; the number
        # of missing exponents is reported either way.
        psi = tracer.psi
        problem = (checks.check_psi(psi, N, D, mode == "prime")
                   or checks.check_block_chain(tracer.block_order,
                                               tracer.block_out, psi))
        return problem, {"nekrasov.psi_missing":
                         checks.missing_exponents(psi, N, D)}

    point = "verify N=%d D=%d" % (N, D)
    return Operation("%s seed=%d" % (point, pseed), run,
                     lambda report: checks.check_verify_report(report, D),
                     traced_check, point)


def verify_setup(mode):
    def setup(q, seed):
        ops = []
        for N, D in VERIFY_POINTS:
            for k in range(PARAM_SETS):
                ops.append(_verify_op(q, N, D, param_seed(seed, k), mode))
        return ops
    return setup


def reduce_params(q, ps):
    """The parameter set with every square root reduced mod p."""
    f = q.PRIME_FIELD
    red = [f.of(x) for x in [ps.sqrt_q, ps.sqrt_kappa] + ps.sqrt_b
           + ps.sqrt_d + ps.sqrt_dbar]
    N = ps.N
    return q.ParamSet(N, f, red[0], red[1], red[2:2 + N], red[2 + N:2 + 2 * N],
                      red[2 + 2 * N:])


def with_changed_mass(q, ps):
    """The parameter set with d_1 changed: sqrt(d_1) moved by the smallest
    whole step that changes its square and keeps it outside {0, +-1}
    (moving -1/2 by one only flips the sign of the root)."""
    sqrt_d = list(ps.sqrt_d)
    s, one = sqrt_d[0], ps.field.one
    step = 1
    while (s + step) * (s + step) in (s * s, one - one, one):
        step += 1
    sqrt_d[0] = s + step
    return q.ParamSet(ps.N, ps.field, ps.sqrt_q, ps.sqrt_kappa, ps.sqrt_b,
                      sqrt_d, ps.sqrt_dbar)


def verify_final_checks(mode):
    def final_checks(q, seed):
        N, D = CHECK_POINT
        pseed = param_seed(seed, 0)
        nek = q.nekrasov

        def cross_field():
            rat = q.sample_params(pseed, N, "rational")
            red = reduce_params(q, rat)
            z_rat = q.laumon_partition_function(
                nek.solution_spectral_params(rat), D)
            z_red = q.laumon_partition_function(
                nek.solution_spectral_params(red), D)
            return (checks.check_cross_field(z_rat, z_red, q.PRIME_FIELD)
                    or checks.check_verify_report(q.verify_conjecture(
                        N, D, pseed, "rational", params=rat), D)
                    or checks.check_verify_report(q.verify_conjecture(
                        N, D, pseed, "prime", params=red), D))

        ps = q.sample_params(pseed, N, mode)
        spec = q.HamiltonianSpec(ps, cap=D)

        def blocks_one_at_a_time():
            psi = q.solution_series(ps, D)
            final = checks.apply_blocks(q.build_blocks(spec), psi)
            return (checks.check_psi(psi, N, D, mode == "prime")
                    or checks.check_block_chain(checks.H_ORDER, final, psi))

        def negative_control():
            psi = q.solution_series(with_changed_mass(q, ps), D)
            return checks.check_negative_control(
                q.hamiltonian_op(spec)(psi) - psi)

        return [("cross-field N=%d D=%d" % (N, D), cross_field),
                ("blocks-one-at-a-time N=%d D=%d" % (N, D),
                 blocks_one_at_a_time),
                ("negative-control N=%d D=%d" % (N, D), negative_control)]
    return final_checks


# -- identities -----------------------------------------------------------------


def _fresh_point(rng, N, field):
    return [field.of(Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40),
                              rng.randrange(1, 40))) for _ in range(N)]


def _rmatrix_op(q, seed, N, M, mode):
    """The calls of ``qlaumon rmatrix --n N --m-total M --mode MODE``."""
    rm = q.rmatrix
    ps = q.sample_params(seed, N, mode)
    ctx = q.QContext(ps.sqrt_q, ps.field)
    rng = random.Random(("rmatrix", seed, N, M).__repr__())
    mus, sqrt_mus, lam = rm.draw_mass_data(rng, ps.field, ctx, N, M)
    extra = [[q.params.rand_square(rng, ps.field)[1] for _ in range(N)]
             for _ in range(3)]
    bench_rng = random.Random(("benchmark-points", seed, N, M).__repr__())
    fresh = [_fresh_point(bench_rng, N, ps.field)
             for _ in range(RMATRIX_FRESH_POINTS)]
    mvec = tuple([M] + [0] * (N - 1))

    def run():
        rc, idx = rm.connection_matrix(N, M, lam, mus, ctx,
                                       residual_points=extra)
        rx, _ = rm.closed_matrix(N, M, lam, mus, sqrt_mus, ctx)
        zeros = rm.b2_triangular_zeros(N, M, lam, ctx)
        rm.weight_shells(N, M)
        gauge = rm.gauge_match_to_hamiltonian(mvec, mus, sqrt_mus, lam, ctx)
        return rc, rx, idx, zeros, gauge

    def check(out):
        rc, rx, idx, zeros, gauge = out
        return (checks.check_connection(rc, rx, idx, fresh, lam, mus, ctx.q,
                                        ps.field.one)
                or checks.check_no_discrepancies(zeros)
                or checks.check_gauge(gauge, N))

    return Operation("rmatrix N=%d M=%d" % (N, M), run, check)


def _rank_op(q, seed, N, M, mode):
    """The calls of the ``jackson`` property suite at one (N, M), with the
    points drawn as the suite draws them and taken into the field."""
    jk = q.jackson
    ps = q.sample_params(seed + N + M, N, mode)
    spec = jk.CocycleSpec.from_params(ps, tuple([M] + [0] * (N - 1)))
    rng = random.Random(("clijack", seed, N, M).__repr__())
    cfgs = []
    while len(cfgs) < jk.expected_rank(N, M):
        pts = set()
        while len(pts) < M:
            pts.add(Fraction(rng.randrange(1, 60), rng.randrange(1, 23)))
        cfgs.append([ps.field.of(z) for z in sorted(pts)])
    return Operation("cocycle-rank N=%d M=%d" % (N, M),
                     lambda: jk.cocycle_rank(spec, cfgs),
                     lambda out: checks.check_rank(out[0], N, M))


def _fourd_op(q, seed, N, D):
    """The annihilation check of the ``4d`` property suite."""
    ap = q.fourd.AdditiveParams.sample(seed, N)
    return Operation("4d-annihilator N=%d D=%d" % (N, D),
                     lambda: q.fourd.fst_check(ap, D),
                     lambda out: checks.check_annihilator(out[0], D, N))


def _form_op(q, seed, label, fname, N, degree, mode):
    fn = getattr(q.hamiltonian, fname)
    return Operation("%s N=%d deg=%d" % (label, N, degree),
                     lambda: fn(N, degree, seed, mode),
                     checks.check_no_discrepancies)


def identities_setup(q, seed):
    mode = IDENTITIES_MODE
    ops = [_form_op(q, seed, label, fname, N, degree, mode)
           for N, degree in FORM_POINTS for label, fname in FORM_CHECKS]
    ops += [_rmatrix_op(q, seed, N, M, mode) for N, M in RMATRIX_POINTS]
    ops += [_rank_op(q, seed, N, M, mode) for N, M in RANK_POINTS]
    ops += [_fourd_op(q, seed, N, D) for N, D in FOURD_POINTS]
    return ops


def identities_final_checks(q, seed):
    return []


WORKLOADS = {
    "verify-rational": (verify_setup("rational"),
                        verify_final_checks("rational")),
    "verify-prime": (verify_setup("prime"), verify_final_checks("prime")),
    "identities": (identities_setup, identities_final_checks),
}
