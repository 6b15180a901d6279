"""The non-stationary difference-equation Hamiltonian in its equivalent
forms, plus the verification drivers.

The operator is

    H = B . L . C . R . B . T

with B the diagonal q^{Delta/2} Borel weight, T the parameter shift
x_i -> (kappa b_i / b_{i+1}) x_i, C a plain multiplication block, and the
outer blocks L and R built from q-exponentials of the twisted letters

    hat  x_i = d_i dbar_i x_i q^{+(theta_i - theta_{i-1})},
    chk  x_i =            x_i q^{-(theta_i - theta_{i-1})}.

L and R each admit a simple-root factorization (chain of single letters
with a conjugation twist on the wrap-around letter), a higher-root
factorization (chain over increasing words) and a normal-ordered form;
the three act identically, which ``check_form_equivalence`` verifies on
the monomial basis.  At N = 1 every form degenerates to multiplication
by the same pair of infinite products.
"""

from __future__ import annotations

from fractions import Fraction

from .nekrasov import solution_series
from .params import sample_params
from .qfun import QContext
from .rmatrix import mat_eye, mat_mul, terminated_side
from .scalars import spow
from .series import (compose, diagonal_op, eq_of_monomial,
                     eq_product_normal_op, letter_op,
                     mul_op, neumann_inverse_op, normal_ordered_dynamic_op,
                     op_qexp, op_qexp_big, ops_agree_on_monomials,
                     phi_of_monomial, phi_product_normal_op, qborel_op,
                     shift_scaling_op, word_op)

FORMS = ("simple", "higher", "normal", "gl2-symmetric", "borel-moved")
# The form used when none is named: "higher" applies H to the solution
# series fastest, "normal" slowest (its left block is a Neumann inverse);
# the three act identically (``check_form_equivalence``).
DEFAULT_FORM = "higher"


class HamiltonianSpec:
    """N, parameters, chosen block form and degree cap."""

    def __init__(self, params, form=DEFAULT_FORM, cap=4):
        if form not in FORMS:
            raise ValueError("unknown form %r" % form)
        if form == "gl2-symmetric" and params.N != 2:
            raise ValueError("gl2-symmetric form needs N = 2")
        self.params = params
        self.N = params.N
        self.form = form
        self.cap = cap
        # one q-context, with its power caches, for every block of the spec
        self.ctx = QContext(params.sqrt_q, params.field)


def _hat_scales(spec):
    ps = spec.params
    return {i: ps.d(i) * ps.dbar(i) for i in range(spec.N)}


def _chk_scales(spec):
    return {i: spec.params.field.one for i in range(spec.N)}


def _eq_w(spec, indices, direction, scales):
    """e_q(-word) for the letter word given by 0-based indices."""
    ctx = spec.ctx
    w, deg = word_op(indices, direction, scales, ctx, spec.N)
    return op_qexp(w, deg, -spec.params.field.one, ctx, spec.cap)


def _phi_w(spec, indices, direction, scales):
    """phi(-word) = e_q(-word)^{-1}."""
    ctx = spec.ctx
    w, deg = word_op(indices, direction, scales, ctx, spec.N)
    return op_qexp_big(w, deg, spec.params.field.one, ctx, spec.cap)


def lambda_block(spec, outer=False):
    """Multiplication by phi(Lambda), or phi(q^{1-N} D_N Lambda) when
    ``outer`` (D_N the product of all masses)."""
    ps = spec.params
    ctx = spec.ctx
    pref = ps.field.one
    if outer:
        pref = spow(ps.q, 1 - spec.N) * ps.mass_product()
    return mul_op(phi_of_monomial(ctx, spec.N, spec.cap, pref, (1,) * spec.N))


def center_block(spec):
    """Multiplication by prod_k 1/(phi(d_k x_k) phi(dbar_k x_k)), one
    variable at a time: the k-th factor e_q(d_k x_k) e_q(dbar_k x_k) is a
    series in x_k alone, so the N-variable product is never expanded."""
    ps = spec.params
    ctx = spec.ctx
    ops = []
    for k in range(spec.N):
        vec = tuple(1 if p == k else 0 for p in range(spec.N))
        ops.append(mul_op(
            eq_of_monomial(ctx, spec.N, spec.cap, ps.d(k), vec)
            * eq_of_monomial(ctx, spec.N, spec.cap, ps.dbar(k), vec)))
    return compose(ops)


def left_block(spec):
    N = spec.N
    if N == 1:
        return lambda_block(spec)
    sc = _chk_scales(spec)
    if spec.form == "normal":
        # the wrap-around phi(Lambda) is implicit in the normal-ordered
        # product, exactly as phi(q^{1-N} D_N Lambda) is on the right
        inv = eq_product_normal_op([sc[i] for i in range(N)], -1, spec.ctx,
                                   N, spec.cap)
        return neumann_inverse_op(inv, spec.cap)
    if spec.form == "higher":
        ops = [_eq_w(spec, list(range(0, j + 1)), -1, sc) for j in range(N - 1)]
        ops += [_eq_w(spec, [j], -1, sc) for j in range(N - 1, 0, -1)]
        return compose(ops + [lambda_block(spec)])
    # simple-root: twist the wrap-around factor by G = phi(-v_1)...phi(-v_{N-2})
    g = [_phi_w(spec, [j], -1, sc) for j in range(1, N - 1)]
    g_inv = [_eq_w(spec, [j], -1, sc) for j in range(N - 2, 0, -1)]
    ops = g_inv + [_eq_w(spec, [0], -1, sc)] + g
    ops += [_eq_w(spec, [j], -1, sc) for j in range(N - 1, 0, -1)]
    return compose(ops + [lambda_block(spec)])


def right_block(spec):
    N = spec.N
    if N == 1:
        return lambda_block(spec, outer=True)
    sc = _hat_scales(spec)
    if spec.form == "normal":
        return phi_product_normal_op([sc[i] for i in range(N)], +1, spec.ctx,
                                     N, spec.cap)
    if spec.form == "higher":
        ops = [lambda_block(spec, outer=True)]
        ops += [_eq_w(spec, [j], +1, sc) for j in range(1, N)]
        ops += [_eq_w(spec, list(range(j, -1, -1)), +1, sc) for j in range(N - 2, -1, -1)]
        return compose(ops)
    g = [_phi_w(spec, [j], +1, sc) for j in range(N - 2, 0, -1)]
    g_inv = [_eq_w(spec, [j], +1, sc) for j in range(1, N - 1)]
    ops = [lambda_block(spec, outer=True)]
    ops += [_eq_w(spec, [j], +1, sc) for j in range(1, N)]
    ops += g + [_eq_w(spec, [0], +1, sc)] + g_inv
    return compose(ops)


def borel_block(spec):
    return qborel_op(1, spec.ctx)


def shift_block(spec):
    ps = spec.params
    alphas = [ps.kappa * ps.b(i) / ps.b((i + 1) % spec.N) for i in range(spec.N)]
    return shift_scaling_op(alphas, ps.field)


def build_blocks(spec):
    """(left, center, right, borel, shift) for the chosen form."""
    return (left_block(spec), center_block(spec), right_block(spec),
            borel_block(spec), shift_block(spec))


def hamiltonian_op(spec):
    if spec.form == "gl2-symmetric":
        return _gl2_symmetric_op(spec)
    if spec.form == "borel-moved":
        return _borel_moved_op(spec)
    left, center, right, borel, shift = build_blocks(spec)
    return compose([borel, left, center, right, borel, shift])


def apply_hamiltonian(spec, s):
    return hamiltonian_op(spec)(s)


def _gl2_symmetric_op(spec):
    """N = 2 Hamiltonian in the homogeneous-coordinate shape (Borel weight
    between multiplication blocks, commutative arguments only), with both
    variables rescaled by -q^{-1/2} and the masses regrouped one variable
    at a time.  Acts identically to the other forms."""
    ps = spec.params
    ctx = spec.ctx
    cap = spec.cap
    s = -ps.field.one / ctx.sqrt_q

    def mono(i):
        return (1, 0) if i == 0 else (0, 1)

    m = [ps.d(0) * ps.dbar(0), ps.d(1) * ps.dbar(1)]
    first = eq_of_monomial(ctx, 2, cap, ctx.q * s, mono(0)) \
        * eq_of_monomial(ctx, 2, cap, ctx.q * s, mono(1))
    middle = phi_of_monomial(ctx, 2, cap, ctx.q * s * s, (1, 1)) \
        * phi_of_monomial(ctx, 2, cap, m[0] * m[1] * s * s, (1, 1))
    for pref, vec in ((-ctx.sqrt_q * ps.d(0) * s, mono(0)),
                      (-ctx.sqrt_q * ps.dbar(0) * s, mono(0)),
                      (-ctx.sqrt_q * ps.d(1) * s, mono(1)),
                      (-ctx.sqrt_q * ps.dbar(1) * s, mono(1))):
        middle = middle * eq_of_monomial(ctx, 2, cap, pref, vec)
    last = eq_of_monomial(ctx, 2, cap, m[0] * s, mono(0)) \
        * eq_of_monomial(ctx, 2, cap, m[1] * s, mono(1))
    borel = borel_block(spec)
    return compose([mul_op(first), borel, mul_op(middle), borel,
                    mul_op(last), shift_block(spec)])


def _half_shift_letter(i, scale, ctx, N):
    """Letter  scale * x_i * q^{(1/2)(theta_{i+1} - theta_{i-1})}."""
    w = [0] * N
    w[(i + 1) % N] += 1
    w[(i - 1) % N] -= 1
    return letter_op(i, w, scale, ctx, N)


def moved_borel_expression(ps, cap, which, scales=None):
    """Three equivalent operator expressions with the Borel weight moved
    through the q-exponential chain.

      0: hat-letter chain, then the diagonal q^{(1/2) sum theta_i (theta_i
         - theta_{i-1})};
      1: diagonal q^{(1/2) sum theta_i (theta_i - theta_{i-1} - 1)}, chain
         in the half-shift letters x_i q^{(1/2)(theta_{i+1} -
         theta_{i-1})}, diagonal q^{(1/2) sum theta_i};
      2: diagonal q^{(1/2) sum theta_i (theta_i - 1)}, chain in plain
         variables interleaved with q^{+- theta theta} weights, diagonal
         q^{(1/2) sum theta_i (1 + theta_{i+1})}.

    ``scales`` optionally rescales the letters (defaults to 1).
    """
    N = ps.N
    spec = HamiltonianSpec(ps, "simple", cap)
    ctx = spec.ctx
    f = ps.field
    if scales is None:
        scales = {i: f.one for i in range(N)}

    if which == 0:
        ops = [_eq_w(spec, [j], +1, scales) for j in range(1, N)]
        ops += [_phi_w(spec, [j], +1, scales) for j in range(N - 2, 0, -1)]
        ops += [_eq_w(spec, [j], +1, scales) for j in range(0, N - 1)]
        ops.append(diagonal_op(lambda th: ctx.qpow_half(
            sum(th[i] * (th[i] - th[i - 1]) for i in range(N)))))
        return compose(ops)

    if which == 1:
        def eq_half(j):
            w = _half_shift_letter(j, scales[j % N], ctx, N)
            return op_qexp(w, 1, -f.one, ctx, cap)

        def phi_half(j):
            w = _half_shift_letter(j, scales[j % N], ctx, N)
            return op_qexp_big(w, 1, f.one, ctx, cap)

        ops = [diagonal_op(lambda th: ctx.qpow_half(
            sum(th[i] * (th[i] - th[i - 1] - 1) for i in range(N))))]
        ops += [eq_half(j) for j in range(1, N)]
        ops += [phi_half(j) for j in range(N - 2, 0, -1)]
        ops += [eq_half(j) for j in range(0, N - 1)]
        ops.append(diagonal_op(lambda th: ctx.qpow_half(sum(th))))
        return compose(ops)

    if which == 2:
        def eq_plain(j):
            vec = tuple(1 if p == j % N else 0 for p in range(N))
            return mul_op(eq_of_monomial(ctx, N, cap, -scales[j % N], vec))

        def phi_plain(j):
            vec = tuple(1 if p == j % N else 0 for p in range(N))
            return mul_op(phi_of_monomial(ctx, N, cap, -scales[j % N], vec))

        def cross(a, b, sign):
            a %= N
            b %= N
            return diagonal_op(lambda th: ctx.qpow_half(2 * sign * th[a] * th[b]))

        ops = [diagonal_op(lambda th: ctx.qpow_half(
            sum(t * (t - 1) for t in th)))]
        for j in range(1, N):
            ops += [cross(j - 1, j, -1), eq_plain(j)]
        for j in range(N - 2, 0, -1):
            ops += [cross(j + 1, j, +1), phi_plain(j)]
        ops.append(diagonal_op(lambda th: ctx.qpow_half(
            2 * th[1 % N] * th[0] - 2 * th[N - 1] * th[0])))
        ops.append(eq_plain(0))
        for j in range(1, N - 1):
            ops += [cross(j - 1, j, -1), eq_plain(j)]
        ops.append(cross(N - 2, N - 1, -1))
        ops.append(diagonal_op(lambda th: ctx.qpow_half(
            sum(th[i] * (1 + th[(i + 1) % N]) for i in range(N)))))
        return compose(ops)

    raise ValueError("which must be 0, 1 or 2")


def _borel_moved_op(spec):
    """Hamiltonian with the right block and its trailing Borel weight
    replaced by the moved-Borel expression (variant 0) carrying the mass
    scalings."""
    sub = HamiltonianSpec(spec.params, "simple", spec.cap)
    return compose([borel_block(sub), left_block(sub), center_block(sub),
                    lambda_block(sub, outer=True),
                    moved_borel_expression(spec.params, spec.cap, 0,
                                           scales=_hat_scales(sub)),
                    shift_block(sub)])


# -- verification drivers ----------------------------------------------------


class DefectReport:
    """Per-degree defect summary of an eigenfunction check."""

    def __init__(self, N, cap, seed, mode, form):
        self.N = N
        self.cap = cap
        self.seed = seed
        self.mode = mode
        self.form = form
        self.per_degree = []   # (degree, number of bad coefficients)
        self.first_offender = None

    @property
    def ok(self):
        return self.first_offender is None

    def as_dict(self):
        return {
            "N": self.N, "cap": self.cap, "seed": self.seed,
            "mode": self.mode, "form": self.form,
            "per_degree": [{"degree": d, "bad_coefficients": n}
                           for d, n in self.per_degree],
            "first_offender": (None if self.first_offender is None
                               else list(self.first_offender)),
            "status": "pass" if self.ok else "fail",
        }


def verify_conjecture(N, cap, seed=1, mode="rational", form=DEFAULT_FORM,
                      params=None):
    """Compute the solution series and report  H psi - psi  degree by
    degree."""
    ps = params if params is not None else sample_params(seed, N, mode)
    spec = HamiltonianSpec(ps, form, cap)
    psi = solution_series(ps, cap)
    defect = hamiltonian_op(spec)(psi) - psi
    report = DefectReport(N, cap, seed, mode, form)
    by_degree = defect.degrees()
    for d in range(cap + 1):
        bad = by_degree.get(d, [])
        report.per_degree.append((d, len(bad)))
        if bad and report.first_offender is None:
            report.first_offender = min(k for k, _ in bad)
    return report


def check_form_equivalence(N, degree, seed=1, mode="rational"):
    """All three left blocks and all three right blocks agree on every
    monomial of total degree <= degree.  Returns list of discrepancies."""
    ps = sample_params(seed, N, mode)
    bad = []
    blocks = {}
    for form in ("simple", "higher", "normal"):
        spec = HamiltonianSpec(ps, form, degree)
        blocks[form] = (left_block(spec), right_block(spec))
    for side, name in ((0, "left"), (1, "right")):
        for other in ("higher", "normal"):
            where = ops_agree_on_monomials(blocks["simple"][side],
                                           blocks[other][side],
                                           N, degree, degree, ps.field)
            if where is not None:
                bad.append((name, "simple-vs-" + other, where))
    return bad


def check_pentagon(N, degree, seed=1, mode="rational"):
    """e_q(-v_i) e_q(-v_{i+1}) = e_q(-v_{i+1}) e_q(-v_{i+1} v_i) e_q(-v_i)
    for every adjacent pair of hat letters (N >= 3; empty for N = 2)."""
    if N < 3:
        return []
    ps = sample_params(seed, N, mode)
    spec = HamiltonianSpec(ps, "simple", degree)
    sc = _hat_scales(spec)
    bad = []
    for i in range(N):
        lhs = compose([_eq_w(spec, [i], +1, sc), _eq_w(spec, [i + 1], +1, sc)])
        rhs = compose([_eq_w(spec, [i + 1], +1, sc),
                       _eq_w(spec, [i + 1, i], +1, sc),
                       _eq_w(spec, [i], +1, sc)])
        where = ops_agree_on_monomials(lhs, rhs, N, degree, degree, ps.field)
        if where is not None:
            bad.append((i, where))
    return bad


def _family_conjugated(spec, i, sc):
    """e(-v_{i+1})..e(-v_{i+N-2}) e(-v_{i+N-1}) [inverse chain] e(-v_i)
    [chain]: the conjugated single-letter expression."""
    N = spec.N
    fwd = [_eq_w(spec, [j], +1, sc) for j in range(i + 1, i + N - 1)]
    inv = [_phi_w(spec, [j], +1, sc) for j in range(i + N - 2, i, -1)]
    return compose(fwd + [_eq_w(spec, [i + N - 1], +1, sc)] + inv
                   + [_eq_w(spec, [i], +1, sc)] + fwd)


def _family_lower_words(spec, i, sc):
    """e(-v_{i+1})..e(-v_{i+N-1}) e(-v_{i+N-2}..v_i) .. e(-v_{i+1}v_i) e(-v_i)."""
    N = spec.N
    ops = [_eq_w(spec, [j], +1, sc) for j in range(i + 1, i + N)]
    ops += [_eq_w(spec, list(range(j, i - 1, -1)), +1, sc)
            for j in range(i + N - 2, i - 1, -1)]
    return compose(ops)


def _family_upper_words(spec, i, sc):
    """e(-v_{i+N}) e(-v_{i+N}v_{i+N-1}) .. e(-v_{i+N}..v_{i+2})
    e(-v_{i+1}) .. e(-v_{i+N-1})."""
    N = spec.N
    ops = [_eq_w(spec, list(range(i + N, j - 1, -1)), +1, sc)
           for j in range(i + N, i + 1, -1)]
    ops += [_eq_w(spec, [j], +1, sc) for j in range(i + 1, i + N)]
    return compose(ops)


def check_dynkin_family(N, degree, seed=1, mode="rational"):
    """The cyclically shifted conjugated expressions, the lower-word
    chains and the upper-word chains all act identically (N >= 3): the
    block family is invariant under the index rotation and under the
    order-reversing reflection, which maps the lower family at i to the
    upper family at -i."""
    if N < 3:
        return []
    ps = sample_params(seed, N, mode)
    spec = HamiltonianSpec(ps, "simple", degree)
    sc = _hat_scales(spec)
    bad = []
    ref = _family_conjugated(spec, 0, sc)
    for i in range(N):
        for tag, op in (("conjugated", _family_conjugated(spec, i, sc)),
                        ("lower", _family_lower_words(spec, i, sc)),
                        ("upper", _family_upper_words(spec, i, sc))):
            where = ops_agree_on_monomials(ref, op, N, degree, degree, ps.field)
            if where is not None:
                bad.append((tag, i, where))
    return bad


def check_borel_moved_triple(N, degree, seed=1, mode="rational"):
    """The three moved-Borel expressions agree on monomials <= degree."""
    ps = sample_params(seed, N, mode)
    e0 = moved_borel_expression(ps, degree, 0)
    bad = []
    for which in (1, 2):
        ew = moved_borel_expression(ps, degree, which)
        where = ops_agree_on_monomials(e0, ew, N, degree, degree, ps.field)
        if where is not None:
            bad.append((which, where))
    return bad


# -- mass truncation -----------------------------------------------------------


def mass_truncated_params(ps, mvec):
    """Replace dbar_i by q^{-m_i} (square roots included)."""
    return ps.with_dbar([spow(ps.sqrt_q, -m) for m in mvec])


def check_mass_truncated_equation(N, mvec, cap, seed=1, mode="rational"):
    """After dbar_i = q^{-m_i}: support of the solution series satisfies
    theta_i - theta_{i-1} <= m_i, and the terminated normal-ordered
    equation holds on it: the mass side of ``rmatrix.terminated_side``
    (masses mu_i = d_i) after the shift block equals the plain side.
    Returns (support_ok, equation_ok, psi)."""
    ps0 = sample_params(seed, N, mode)
    ps = mass_truncated_params(ps0, mvec)
    psi = solution_series(ps, cap)

    support_ok = all(
        all(th[i] - th[i - 1] <= mvec[i] for i in range(N))
        for th in psi.terms)

    spec = HamiltonianSpec(ps, "normal", cap)
    mus = [ps.d(i) for i in range(N)]
    lhs_op = compose([normal_ordered_dynamic_op(
        terminated_side(mvec, mus, spec.ctx, "mass")), shift_block(spec)])
    rhs_op = normal_ordered_dynamic_op(
        terminated_side(mvec, mus, spec.ctx, "plain"))
    equation_ok = (lhs_op(psi) - rhs_op(psi)).is_zero()
    return support_ok, equation_ok, psi


# -- classical cyclic-matrix factorization -------------------------------------


def cyclic_matrix_factorization_check(xs, z, field=None):
    """Exact check of the factorization of the cyclic Jacobi-type matrix

        X = 1 + sum_i x_i e_i,   e_i = E_{i,i+1} (1<=i<=n-1),  e_0 = z E_{n,1},

    into  g J_0(x_0) d_n(vz) g^{-1} J_{n-1}(x_{n-1}) ... J_1(x_1)  with
    g = J_{n-2}(x_{n-2}) ... J_1(x_1) and v = (-1)^{n-1} prod x_i.
    xs = (x_0, ..., x_{n-1}).  Returns True on exact equality.
    """
    n = len(xs)
    one = Fraction(1) if field is None else field.one
    zero = one - one

    def jac(i, x, m=None):
        """m + x e_i, in place; J_i(x) = 1 + x e_i by default."""
        m = m if m is not None else mat_eye(n, one, zero)
        if i == 0:
            m[n - 1][0] = m[n - 1][0] + x * z
        else:
            m[i - 1][i] = m[i - 1][i] + x
        return m

    X = mat_eye(n, one, zero)
    for i, x in enumerate(xs):
        jac(i, x, X)

    # g = J_{n-2}(x_{n-2}) ... J_1(x_1); inverse of J_i(x) is J_i(-x)
    g = mat_eye(n, one, zero)
    ginv = mat_eye(n, one, zero)
    for i in range(1, n - 1):
        g = mat_mul(jac(i, xs[i]), g)
        ginv = mat_mul(ginv, jac(i, -xs[i]))

    v = one
    for x in xs:
        v = v * x
    if (n - 1) % 2 == 1:
        v = -v
    dn = mat_eye(n, one, zero)
    dn[n - 1][n - 1] = dn[n - 1][n - 1] + v * z

    rhs = mat_mul(g, jac(0, xs[0]))
    rhs = mat_mul(rhs, dn)
    rhs = mat_mul(rhs, ginv)
    for i in range(n - 1, 0, -1):
        rhs = mat_mul(rhs, jac(i, xs[i]))
    return X == rhs
