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
the monomial basis.  Each chain is one list of (word, "e" | "phi"),
which ``_chain_rays`` turns into rays; L is R's chain read backwards,
and L, C and R are one ``rays_op`` each.
At N = 1 the lists are empty and every form degenerates to
multiplication by the same pair of infinite products.
"""

from __future__ import annotations

from operator import add, mul

from .nekrasov import solution_series
from .params import sample_params
from .qfun import QContext
from .rmatrix import mat_eye, mat_mul, terminated_side
from .series import (compose, diagonal_op, eq_coeff, eq_of_monomial,
                     eq_product_normal_op, first_disagreements, mul_op,
                     neumann_inverse_op, normal_ordered_dynamic_op,
                     ops_agree_on_monomials, phi_coeff, phi_of_monomial,
                     phi_product_normal_op, qborel_op, qexp_ray, rays_op,
                     shift_scaling_op)

FORMS = ("simple", "higher", "normal", "gl2-symmetric", "borel-moved")
# The form used when none is named: "higher" applies H to the solution
# series fastest, "simple" up to 1.3x and "normal" (a Neumann inverse on
# sparse terms) 20-30x slower; the three act identically
# (``check_form_equivalence``).
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
    return [ps.d(i) * ps.dbar(i) for i in range(spec.N)]


def _conjugated_words(i, N):
    """e(-v_{i+1})..e(-v_{i+N-1}) phi(-v_{i+N-2})..phi(-v_{i+1}) e(-v_i)
    e(-v_{i+1})..e(-v_{i+N-2}): the simple-root chain, its wrap-around
    letter v_i conjugated by e(-v_{i+1})..e(-v_{i+N-2})."""
    return ([((j,), "e") for j in range(i + 1, i + N)]
            + [((j,), "phi") for j in range(i + N - 2, i, -1)]
            + [((j,), "e") for j in range(i, i + N - 1)])


def _lower_words(i, N):
    """e(-v_{i+1})..e(-v_{i+N-1}) e(-v_{i+N-2}..v_i) .. e(-v_{i+1}v_i) e(-v_i)."""
    return ([((j,), "e") for j in range(i + 1, i + N)]
            + [(tuple(range(j, i - 1, -1)), "e")
               for j in range(i + N - 2, i - 1, -1)])


def _upper_words(i, N):
    """e(-v_{i+N}) e(-v_{i+N}v_{i+N-1}) .. e(-v_{i+N}..v_{i+2})
    e(-v_{i+1}) .. e(-v_{i+N-1})."""
    return ([(tuple(range(i + N, j - 1, -1)), "e")
             for j in range(i + N, i + 1, -1)]
            + [((j,), "e") for j in range(i + 1, i + N)])


def _chain_rays(spec, words, letter):
    """The rays, in list order, of e_q(-W) for each (word, "e") and of
    phi(-W) = e_q(-W)^{-1} for each (word, "phi"), W the product over the
    word of the letters letter(j) = (i, w, scale), each scale * x_i
    q^{(1/2) w.theta}, the rightmost acting first.  The letters q-commute:
    W x^nu = S q^{(w.nu + k0)/2} x^{nu+U} with U, w and S the sums and the
    product over the letters and k0 the sum of w_k times the unit vectors
    of the letters acting before letter k, so each factor is a ray."""
    N = spec.N
    rays = []
    for word, kind in words:
        U, w, S, k0 = [0] * N, [0] * N, spec.params.field.one, 0
        for j in reversed(word):
            i, wj, scale = letter(j)
            k0 += sum(map(mul, wj, U))
            U[i] += 1
            w = list(map(add, w, wj))
            S = S * scale
        rays.append(qexp_ray(eq_coeff if kind == "e" else phi_coeff, spec.ctx,
                             -S * spec.ctx.qpow_half(k0), U, w, spec.cap))
    return rays


def _chain(spec, words, letter):
    """The product of the q-exponentials of ``_chain_rays``, one operator."""
    return rays_op(_chain_rays(spec, words, letter), spec.ctx)


def _letter(j, up, down, weight, scales, N):
    """The letter scales[j] x_j q^{(weight/2)(theta_up - theta_down)} as
    (i, w, scale), positions mod N."""
    w = [0] * N
    w[up % N] += weight
    w[down % N] -= weight
    return j % N, w, scales[j % N]


def _twisted(spec, direction, scales):
    """j -> the twisted letter scales[j] x_j q^{direction (theta_j -
    theta_{j-1})}."""
    return lambda j: _letter(j, j, j - 1, 2 * direction, scales, spec.N)


def _block_words(spec):
    """The chain of R at i = 0 for the simple or higher form."""
    if spec.form == "simple":
        return _conjugated_words(0, spec.N)
    if spec.form == "higher":
        return _lower_words(0, spec.N)
    raise ValueError("the %s form has no L, C, R blocks" % spec.form)


def _lambda_ray(spec, outer=False):
    """The ray of phi(Lambda), or of phi(q^{1-N} D_N Lambda) when
    ``outer`` (D_N the product of all masses)."""
    ps = spec.params
    pref = ps.field.one
    if outer:
        pref = ps.q ** (1 - spec.N) * ps.mass_product()
    return qexp_ray(phi_coeff, spec.ctx, pref, (1,) * spec.N, (0,) * spec.N,
                    spec.cap)


def lambda_block(spec, outer=False):
    """Multiplication by phi(Lambda), or phi(q^{1-N} D_N Lambda) when
    ``outer``."""
    return rays_op([_lambda_ray(spec, outer)], spec.ctx)


def center_block(spec):
    """Multiplication by prod_k 1/(phi(d_k x_k) phi(dbar_k x_k)), one
    variable at a time: the k-th factor e_q(d_k x_k) e_q(dbar_k x_k) is
    one ray along e_k, its coefficients the Cauchy product of the two."""
    ps = spec.params
    N, ctx, cap = spec.N, spec.ctx, spec.cap
    rays = []
    for k in range(N):
        a, b = ([eq_coeff(ctx, z, n) for n in range(cap + 1)]
                for z in (ps.d(k), ps.dbar(k)))
        rays.append(([int(p == k) for p in range(N)], [0] * N, [
            sum(a[m] * b[n - m] for m in range(n + 1))
            for n in range(1, cap + 1)]))
    return rays_op(rays, ctx)


def left_block(spec):
    N = spec.N
    sc = [spec.params.field.one] * N
    if spec.form == "normal":
        # the wrap-around phi(Lambda) is implicit in the normal-ordered
        # product, exactly as phi(q^{1-N} D_N Lambda) is on the right
        inv = eq_product_normal_op(sc, -1, spec.ctx, N, spec.cap)
        return neumann_inverse_op(inv, spec.cap)
    # R's chain read backwards, each word reversed
    words = [(word[::-1], kind) for word, kind in reversed(_block_words(spec))]
    return rays_op(_chain_rays(spec, words, _twisted(spec, -1, sc))
                   + [_lambda_ray(spec)], spec.ctx)


def right_block(spec):
    N = spec.N
    sc = _hat_scales(spec)
    if spec.form == "normal":
        return phi_product_normal_op(sc, +1, spec.ctx, N, spec.cap)
    return rays_op([_lambda_ray(spec, outer=True)]
                   + _chain_rays(spec, _block_words(spec),
                                 _twisted(spec, +1, sc)), spec.ctx)


def borel_block(spec):
    return qborel_op(1, spec.ctx)


def shift_block(spec):
    ps = spec.params
    alphas = [ps.kappa * ps.b(i) / ps.b((i + 1) % spec.N) for i in range(spec.N)]
    return shift_scaling_op(alphas, ps.field)


def build_blocks(spec):
    """(left, center, right, borel, shift) for the simple, higher or
    normal form; the other two forms have no such blocks (ValueError)."""
    return (left_block(spec), center_block(spec), right_block(spec),
            borel_block(spec), shift_block(spec))


def hamiltonian_op(spec):
    if spec.form == "gl2-symmetric":
        return _gl2_symmetric_op(spec)
    if spec.form == "borel-moved":
        return _borel_moved_op(spec)
    left, center, right, borel, shift = build_blocks(spec)
    return compose([borel, left, center, right, borel, shift])


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
    if scales is None:
        scales = [ps.field.one] * N

    if which == 0:
        return compose([
            _chain(spec, _conjugated_words(0, N), _twisted(spec, +1, scales)),
            diagonal_op(lambda th: ctx.qpow_half(
                sum(th[i] * (th[i] - th[i - 1]) for i in range(N))))])

    if which == 1:
        return compose([
            diagonal_op(lambda th: ctx.qpow_half(
                sum(th[i] * (th[i] - th[i - 1] - 1) for i in range(N)))),
            _chain(spec, _conjugated_words(0, N),
                   lambda j: _letter(j, j + 1, j - 1, 1, scales, N)),
            diagonal_op(lambda th: ctx.qpow_half(sum(th)))])

    if which == 2:
        def plain(j, coeff):
            return rays_op([qexp_ray(coeff, ctx, -scales[j % N], [
                int(p == j % N) for p in range(N)], [0] * N, cap)], ctx)

        def cross(a, b, sign):
            a %= N
            b %= N
            return diagonal_op(lambda th: ctx.qpow_half(2 * sign * th[a] * th[b]))

        ops = [diagonal_op(lambda th: ctx.qpow_half(
            sum(t * (t - 1) for t in th)))]
        for j in range(1, N):
            ops += [cross(j - 1, j, -1), plain(j, eq_coeff)]
        for j in range(N - 2, 0, -1):
            ops += [cross(j + 1, j, +1), plain(j, phi_coeff)]
        ops.append(diagonal_op(lambda th: ctx.qpow_half(
            2 * th[1 % N] * th[0] - 2 * th[N - 1] * th[0])))
        ops.append(plain(0, eq_coeff))
        for j in range(1, N - 1):
            ops += [cross(j - 1, j, -1), plain(j, eq_coeff)]
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

    def __init__(self, per_degree, first_offender):
        self.per_degree = per_degree   # (degree, number of bad coefficients)
        self.first_offender = first_offender

    @property
    def ok(self):
        return self.first_offender is None


def verify_conjecture(N, cap, seed=1, mode="rational", form=DEFAULT_FORM,
                      params=None):
    """Compute the solution series and report  H psi - psi  degree by
    degree."""
    ps = params if params is not None else sample_params(seed, N, mode)
    spec = HamiltonianSpec(ps, form, cap)
    psi = solution_series(ps, cap)
    defect = hamiltonian_op(spec)(psi) - psi
    by_degree = defect.degrees()
    return DefectReport([(d, len(by_degree.get(d, ()))) for d in range(cap + 1)],
                        defect.first_offender())


def check_form_equivalence(N, degree, seed=1, mode="rational"):
    """All three left blocks and all three right blocks agree on every
    monomial of total degree <= degree.  Returns list of discrepancies."""
    ps = sample_params(seed, N, mode)
    bad = []
    blocks = {}
    for form in ("simple", "higher", "normal"):
        spec = HamiltonianSpec(ps, form, degree)
        blocks[form] = (left_block(spec), right_block(spec))
    others = ("higher", "normal")
    for side, name in ((0, "left"), (1, "right")):
        wheres = first_disagreements(blocks["simple"][side],
                                     [blocks[o][side] for o in others],
                                     N, degree, degree, ps.field)
        bad += [(name, "simple-vs-" + o, where)
                for o, where in zip(others, wheres) if where is not None]
    return bad


def check_pentagon(N, degree, seed=1, mode="rational"):
    """e_q(-v_i) e_q(-v_{i+1}) = e_q(-v_{i+1}) e_q(-v_{i+1} v_i) e_q(-v_i)
    for every adjacent pair of hat letters (N >= 3; empty for N = 2)."""
    if N < 3:
        return []
    ps = sample_params(seed, N, mode)
    spec = HamiltonianSpec(ps, "simple", degree)
    letter = _twisted(spec, +1, _hat_scales(spec))
    bad = []
    for i in range(N):
        lhs = _chain(spec, [((i,), "e"), ((i + 1,), "e")], letter)
        rhs = _chain(spec, [((i + 1,), "e"), ((i + 1, i), "e"), ((i,), "e")],
                     letter)
        where = ops_agree_on_monomials(lhs, rhs, N, degree, degree, ps.field)
        if where is not None:
            bad.append((i, where))
    return bad


def check_dynkin_family(N, degree, seed=1, mode="rational"):
    """The cyclically shifted conjugated expressions, the lower-word
    chains and the upper-word chains all act identically (N >= 3): the
    block family is invariant under the index rotation and under the
    order-reversing reflection, which maps the lower family at i to the
    upper family at -i.  Each is compared with the conjugated one at 0."""
    if N < 3:
        return []
    ps = sample_params(seed, N, mode)
    spec = HamiltonianSpec(ps, "simple", degree)
    letter = _twisted(spec, +1, _hat_scales(spec))
    words = {"conjugated": _conjugated_words, "lower": _lower_words,
             "upper": _upper_words}
    members = [(tag, i) for i in range(N) for tag in words
               if (tag, i) != ("conjugated", 0)]
    wheres = first_disagreements(
        _chain(spec, _conjugated_words(0, N), letter),
        [_chain(spec, words[tag](i, N), letter) for tag, i in members],
        N, degree, degree, ps.field)
    return [(tag, i, where) for (tag, i), where in zip(members, wheres)
            if where is not None]


def check_borel_moved_triple(N, degree, seed=1, mode="rational"):
    """The three moved-Borel expressions agree on monomials <= degree."""
    ps = sample_params(seed, N, mode)
    wheres = first_disagreements(
        moved_borel_expression(ps, degree, 0),
        [moved_borel_expression(ps, degree, which) for which in (1, 2)],
        N, degree, degree, ps.field)
    return [(which, where) for which, where in zip((1, 2), wheres)
            if where is not None]


# -- mass truncation -----------------------------------------------------------


def mass_truncated_params(ps, mvec):
    """Replace dbar_i by q^{-m_i} (square roots included)."""
    return ps.with_dbar([ps.sqrt_q ** -m for m in mvec])


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


def cyclic_matrix_factorization_check(xs, z, field):
    """Exact check of the factorization of the cyclic Jacobi-type matrix

        X = 1 + sum_i x_i e_i,   e_i = E_{i,i+1} (1<=i<=n-1),  e_0 = z E_{n,1},

    into  g J_0(x_0) d_n(vz) g^{-1} J_{n-1}(x_{n-1}) ... J_1(x_1)  with
    g = J_{n-2}(x_{n-2}) ... J_1(x_1) and v = (-1)^{n-1} prod x_i.
    xs = (x_0, ..., x_{n-1}).  Returns True on exact equality.
    """
    n = len(xs)
    one = field.one
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
