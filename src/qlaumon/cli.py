"""Command-line front end emitting machine-readable verification reports.

One self-describing JSON document per run (schema "qlaumon-report/1");
coefficients are exact fraction strings, never floats.  All randomness
flows from --seed through the parameter sampler.  Exit codes: 0 all
checks pass, 1 some check failed, 2 usage or precondition error.

The wall-time field appears on stdout only; a file written via --out
omits it so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .fourd import (AdditiveParams, check_poch_4d, check_transport_identity,
                    fst_check, k_difference, k_difference_formula)
from .hamiltonian import (DEFAULT_FORM, FORMS, check_borel_moved_triple,
                          check_dynkin_family, check_form_equivalence,
                          check_mass_truncated_equation, check_pentagon,
                          cyclic_matrix_factorization_check, HamiltonianSpec,
                          hamiltonian_op, verify_conjecture)
from .jackson import (CocycleSpec, check_vandermonde_division, cocycle_rank,
                      expected_rank)
from .nekrasov import (LaumonParams, check_inversion_symmetry,
                       check_poch_sinh_relation, gl1_closed_partition,
                       gl1_closed_solution, laumon_partition_function,
                       nek_context, solution_series)
from .params import sample_params, rand_square
from .qfun import QContext
from .rmatrix import (ConnectionCheckFailed, b2_triangular_zeros,
                      check_transition, closed_matrix, composition_to_support,
                      compositions, connection_matrix, draw_kernel_args,
                      draw_mass_data, gauge_match_to_hamiltonian, s_of_m,
                      support_polyhedron_vertices, support_size_formula,
                      support_to_composition, weight_shells)
from .scalars import FIELDS, PRIME, PrimeScalar
from .series import exponent_vectors, ops_agree_on_monomials

SCHEMA = "qlaumon-report/1"


def scalar_str(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, PrimeScalar):
        return "%d mod %d" % (x.r, PRIME)
    return str(x)


class Report:
    def __init__(self, command, seed, mode, parameters=None):
        self.command = command
        self.seed = seed
        self.mode = mode
        self.parameters = parameters or {}
        self.checks = []
        self.payload = {}
        self.wall_time_s = None

    def add(self, name, ok, detail=None, skipped=False):
        status = "skipped" if skipped else ("pass" if ok else "fail")
        entry = {"name": name, "status": status}
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

    @property
    def ok(self):
        return all(c["status"] != "fail" for c in self.checks)

    def as_dict(self, with_timing=True):
        d = {
            "schema": SCHEMA,
            "command": self.command,
            "seed": self.seed,
            "mode": self.mode,
            "parameters": self.parameters,
            "checks": self.checks,
            "status": "pass" if self.ok else "fail",
        }
        if self.mode == "prime":
            d["prime"] = PRIME
        d.update(self.payload)
        if with_timing and self.wall_time_s is not None:
            d["wall_time_s"] = self.wall_time_s
        return d

    def emit(self, out_path=None):
        if out_path:
            try:
                fh = open(out_path, "w")
            except OSError as exc:
                raise UsageError("cannot write --out file: %s" % exc)
            with fh:
                json.dump(self.as_dict(with_timing=False), fh,
                          sort_keys=True, indent=2)
                fh.write("\n")
        json.dump(self.as_dict(), sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")


def echo_params(ps):
    return {
        "N": ps.N,
        "sqrt_q": scalar_str(ps.sqrt_q),
        "sqrt_kappa": scalar_str(ps.sqrt_kappa),
        "sqrt_b": [scalar_str(x) for x in ps.sqrt_b],
        "sqrt_d": [scalar_str(x) for x in ps.sqrt_d],
        "sqrt_dbar": [scalar_str(x) for x in ps.sqrt_dbar],
    }


def _sample(seed, N, mode):
    """sample_params, with a rank the sampler cannot serve as a usage
    error."""
    try:
        return sample_params(seed, N, mode)
    except RuntimeError as exc:
        raise UsageError("%s at --n %d" % (exc, N))


def _spectral_params(seed, N, mode):
    """Generic spectral data for the bare partition-function surface."""
    ps = _sample(seed, N, mode)
    nc = nek_context(ps)
    return LaumonParams(N, nc, list(ps.sqrt_d), list(ps.sqrt_b),
                        list(ps.sqrt_dbar)), ps


def cmd_partition_function(args):
    if args.n < 1 or args.degree < 0:
        raise UsageError("need --n >= 1 and --degree >= 0")
    rep = Report("partition-function", args.seed, args.mode)
    lp, ps = _spectral_params(args.seed, args.n, args.mode)
    rep.parameters = echo_params(ps)
    z = laumon_partition_function(lp, args.degree, args.type)
    table = [{"exponent": list(k), "coefficient": scalar_str(v)}
             for k, v in sorted(z.terms.items())]
    rep.payload["coefficients"] = table
    rep.add("constant-term-one", z.get((0,) * args.n) == ps.field.one)
    if args.n == 1 and args.type == "sinh":
        closed = gl1_closed_partition(lp.sqrt_a[0], lp.sqrt_b[0],
                                      lp.sqrt_c[0], lp.nc, args.degree)
        rep.add("matches-rank-one-closed-form", z == closed)
    return rep


def cmd_verify(args):
    if args.n < 1 or args.degree < 0:
        raise UsageError("need --n >= 1 and --degree >= 0")
    rep = Report("verify", args.seed, args.mode)
    ps = _sample(args.seed, args.n, args.mode)
    try:
        result = verify_conjecture(args.n, args.degree, args.seed, args.mode,
                                   args.form, params=ps)
    except ValueError as exc:  # a form that does not exist at this rank
        raise UsageError(str(exc))
    rep.parameters = echo_params(ps)
    rep.payload["defects_by_degree"] = [
        {"degree": d, "bad_coefficients": n} for d, n in result.per_degree]
    rep.add("eigenfunction", result.ok,
            None if result.ok else {"first_offender": list(result.first_offender)})
    if args.n == 1:
        rep.add("matches-rank-one-closed-form",
                solution_series(ps, args.degree)
                == gl1_closed_solution(ps, args.degree))
    return rep


def cmd_rmatrix(args):
    if args.n < 1 or args.m_total < 0:
        raise UsageError("need --n >= 1 and --m-total >= 0")
    rep = Report("rmatrix", args.seed, args.mode)
    N, M = args.n, args.m_total
    ps = _sample(args.seed, N, args.mode)
    rep.parameters = echo_params(ps)
    ctx = QContext(ps.sqrt_q, ps.field)
    rng = random.Random(("rmatrix", args.seed, N, M).__repr__())
    mus, sqrt_mus, lam = draw_mass_data(rng, ps.field, ctx, N, M)
    extra = [[rand_square(rng, ps.field)[1] for _ in range(N)] for _ in range(3)]
    mvec = tuple([M] + [0] * (N - 1))
    # a failed identity is a failed check (exit 1); any other arithmetic
    # error, such as a zero division or a singular matrix, is a degenerate
    # draw (exit 2)
    try:
        gauge = gauge_match_to_hamiltonian(mvec, mus, sqrt_mus, lam, ctx)
        rc, idx = connection_matrix(N, M, lam, mus, ctx, residual_points=extra)
        rx, _ = closed_matrix(N, M, lam, mus, sqrt_mus, ctx)
        failure = None
    except ConnectionCheckFailed as exc:
        rc = rx = None
        failure = {"failure": str(exc)}
    except ArithmeticError as exc:
        raise UsageError("degenerate parameters: %s" % exc)
    rep.add("closed-inverse-and-residuals", failure is None, failure)
    rep.add("closed-form-equals-connection", rc == rx,
            skipped=failure is not None)
    rep.add("triangular-zero-pattern",
            not b2_triangular_zeros(N, M, lam, ctx))
    shells = weight_shells(N, M)
    rep.payload["weight_shells"] = sorted(
        [{"weight": list(c), "pairs": len(v)} for c, v in shells.items()],
        key=lambda e: e["weight"])
    # the constant-diagonal gauge is established at rank two; beyond that
    # it is computed only at M = 0, and the detail records why not
    rep.add("gauge-match", gauge.found, gauge.as_dict(),
            skipped=(not gauge.found and N > 2))
    if args.emit_matrix and rc is not None:
        rep.payload["indices"] = [list(i) for i in idx]
        rep.payload["matrix"] = [[scalar_str(v) for v in row] for row in rc]
    # the composition law of the kernel Phi_q on n <= 2 components; its
    # cost grows fast with n, and n = N - 1 would take seconds at N = 5
    if N == 1:
        rep.add("kernel-transition", True, skipped=True)
    else:
        n = min(N - 1, 2)
        krng = random.Random(("kernel-transition", args.seed, N, M).__repr__())
        a, b, c = draw_kernel_args(krng, ps.field, ctx, n, 2)
        bad = check_transition(n, 2, ctx, a, b, c)
        rep.add("kernel-transition", not bad,
                {"failures": repr(bad)} if bad else None)
    return rep


def _suite_pentagon(rep, args):
    bad = check_pentagon(3, 3, args.seed, args.mode)
    rep.add("pentagon-n3-deg3", not bad, {"failures": repr(bad)} if bad else None)


def _suite_forms(rep, args):
    for N in (2, 3):
        bad = check_form_equivalence(N, 2, args.seed, args.mode)
        rep.add("three-forms-n%d-deg2" % N, not bad,
                {"failures": repr(bad)} if bad else None)


def _suite_dynkin(rep, args):
    bad = check_dynkin_family(3, 2, args.seed, args.mode)
    rep.add("dynkin-family-n3-deg2", not bad,
            {"failures": repr(bad)} if bad else None)
    bad = check_borel_moved_triple(3, 2, args.seed, args.mode)
    rep.add("moved-borel-triple-n3-deg2", not bad,
            {"failures": repr(bad)} if bad else None)
    field = FIELDS[args.mode]
    for n in (3, 4):
        rng = random.Random(("cyclic-matrix", args.seed, n).__repr__())
        xs = [rand_square(rng, field)[0] for _ in range(n)]
        z = rand_square(rng, field)[0]
        rep.add("cyclic-matrix-factorization-n%d" % n,
                cyclic_matrix_factorization_check(xs, z, field))


def _suite_appendix_a(rep, args):
    ps = sample_params(args.seed, 2, args.mode)
    h_simple = hamiltonian_op(HamiltonianSpec(ps, "simple", 3))
    h_sym = hamiltonian_op(HamiltonianSpec(ps, "gl2-symmetric", 3))
    where = ops_agree_on_monomials(h_simple, h_sym, 2, 3, 3, ps.field)
    rep.add("gl2-symmetric-form", where is None,
            None if where is None else {"first_offender": list(where)})


def _suite_appendix_c(rep, args):
    for N in (2, 3):
        lp, _ = _spectral_params(args.seed, N, args.mode)
        bad = check_poch_sinh_relation(lp, 2)
        rep.add("poch-vs-sinh-n%d-deg2" % N, not bad,
                {"failures": repr(bad)} if bad else None)
    for N, D in ((1, 4), (2, 3)):
        lp, _ = _spectral_params(args.seed + 1, N, args.mode)
        where = check_inversion_symmetry(lp, D)
        rep.add("inversion-symmetry-n%d-deg%d" % (N, D), where is None,
                None if where is None else {"first_offender": list(where)})


def _suite_combinatorics(rep, args):
    try:
        mvec = tuple(int(x) for x in args.m.split(",")) if args.m \
            else (3, 2, 1)
    except ValueError:
        raise UsageError("--m needs comma-separated integers, got %r"
                         % args.m)
    if min(mvec) < 0:
        raise UsageError("--m needs nonnegative integers, got %r" % args.m)
    # S(m) is the set of points of the box [-M, M]^{N-1} with
    # theta_1 <= m_1, theta_i - theta_{i-1} <= m_i and -theta_{N-1} <= m_N;
    # it has as many points as I_M, and the bijection with I_M round-trips
    ok = True
    for N in range(1, 5):
        for M in range(0, 5):
            box = exponent_vectors((-M,) * (N - 1), (M,) * (N - 1))
            for m in compositions(N, M):
                S = s_of_m(m)
                inside = {th for th in box if all(
                    b - a <= mi for a, b, mi in zip((0,) + th, th + (0,), m))}
                if len(S) != support_size_formula(N, M) or set(S) != inside:
                    ok = False
                for s in S:
                    if s != composition_to_support(support_to_composition(s, m), m):
                        ok = False
    rep.add("support-count-and-bijection", ok)
    rep.add("rank-ten-n3-m3", support_size_formula(3, 3) == 10)
    rep.payload["polyhedron_vertices"] = {
        "m": list(mvec),
        "vertices": [list(v) for v in support_polyhedron_vertices(mvec)],
    }
    try:
        support, equation, _ = check_mass_truncated_equation(
            len(mvec), mvec, 3, args.seed, args.mode)
    except RuntimeError as exc:  # no parameters at this rank in this field
        rep.add("terminated-equation", False, {"reason": str(exc)},
                skipped=True)
    else:
        rep.add("terminated-equation", support and equation,
                {"support": support, "equation": equation})


def _suite_4d(rep, args):
    rng = random.Random(("cli4d", args.seed).__repr__())
    ok = all(check_poch_4d(rng.randrange(-6, 7), rng.randrange(0, 7),
                           Fraction(rng.randrange(1, 9), rng.randrange(9, 20)))
             for _ in range(50))
    rep.add("jet-expansion-x50", ok)
    nu = (2, 1)
    m = [1, 0]
    mbar = [2, 1]
    gam = [Fraction(3, 2), Fraction(1, 3)]
    pt = [Fraction(1, 5), Fraction(2, 7)]
    rep.add("first-order-symbol-difference",
            k_difference(nu, m, mbar, gam, pt)
            == k_difference_formula(nu, m, mbar, gam, pt))
    ap = AdditiveParams.sample(args.seed, 2)
    through, bad = fst_check(ap, 4)
    rep.add("annihilation-n2-deg4", through == 4,
            {"vanishes_through": through})
    through, _ = fst_check(AdditiveParams.sample(args.seed, 3), 4)
    rep.add("annihilation-n3-deg4", through == 4,
            {"vanishes_through": through})
    rng = random.Random(("cli4d-transport", args.seed).__repr__())
    bad = []
    for N in (2, 3):
        for _ in range(10):
            nu = tuple(rng.randrange(0, 4) for _ in range(N))
            pt = [Fraction(rng.randrange(2, 9), rng.randrange(9, 14))
                  for _ in range(N)]
            lhs, rhs = check_transport_identity(nu, pt)
            if lhs != rhs:
                bad.append({"nu": list(nu), "point": [str(x) for x in pt]})
    rep.add("transport-identity", not bad, {"failures": bad} if bad else None)


def _suite_jackson(rep, args):
    rng = random.Random(("clijack", args.seed).__repr__())
    first_points = []
    for (N, M) in ((2, 1), (2, 2), (3, 2)):
        ps = sample_params(args.seed + N + M, N, args.mode)
        spec = CocycleSpec.from_params(ps, tuple([M] + [0] * (N - 1)))
        cfgs = []
        while len(cfgs) < expected_rank(N, M):
            pts = set()
            while len(pts) < M:
                pts.add(Fraction(rng.randrange(1, 60), rng.randrange(1, 23)))
            cfgs.append([ps.field.of(z) for z in sorted(pts)])
        r, fam = cocycle_rank(spec, cfgs)
        rep.add("cocycle-rank-%d-%d" % (N, M), r == expected_rank(N, M),
                {"rank": r, "family": fam, "expected": expected_rank(N, M)})
        first_points.append((spec, cfgs[0]))
    for spec, zs in first_points:
        bad = check_vandermonde_division(spec, zs)
        rep.add("vandermonde-division-%d-%d" % (spec.N, spec.M), not bad,
                {"failures": repr(bad)} if bad else None)


SUITES = {
    "pentagon": _suite_pentagon,
    "forms": _suite_forms,
    "dynkin": _suite_dynkin,
    "appendixA": _suite_appendix_a,
    "appendixC": _suite_appendix_c,
    "combinatorics": _suite_combinatorics,
    "4d": _suite_4d,
    "jackson": _suite_jackson,
}


def cmd_props(args):
    if args.suite not in SUITES:
        raise UsageError("unknown suite %r (choose from %s)"
                         % (args.suite, ", ".join(sorted(SUITES))))
    rep = Report("props", args.seed, args.mode)
    rep.parameters = {"suite": args.suite}
    SUITES[args.suite](rep, args)
    return rep


class UsageError(Exception):
    pass


def build_parser():
    p = argparse.ArgumentParser(
        prog="qlaumon",
        description="Exact verification of the non-stationary difference "
                    "equation, its partition-function solution and the "
                    "associated finite R-matrix.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--mode", choices=("rational", "prime"),
                        default="rational")
        sp.add_argument("--out", default=None,
                        help="write the (timing-free) report to this file")

    sp = sub.add_parser("partition-function",
                        help="coefficient table of the instanton series")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--type", choices=("sinh", "poch"), default="sinh")
    common(sp)
    sp.set_defaults(fn=cmd_partition_function)

    sp = sub.add_parser("verify",
                        help="eigenfunction check of the difference equation")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--form", default=DEFAULT_FORM, choices=FORMS)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("rmatrix",
                        help="closed form versus connection solve")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m-total", type=int, required=True)
    sp.add_argument("--emit-matrix", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_rmatrix)

    sp = sub.add_parser("props", help="property suites")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--m", default=None,
                    help="comma-separated truncation vector "
                         "(combinatorics suite)")
    common(sp)
    sp.set_defaults(fn=cmd_props)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        rep = args.fn(args)
        rep.wall_time_s = round(time.monotonic() - t0, 6)
        rep.emit(args.out)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
