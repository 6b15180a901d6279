"""Mass-truncation combinatorics and the finite connection R-matrix.

After the truncation dbar_i = q^{-m_i} the difference equation closes on
a finite lattice S(m) of exponent classes, in bijection with the
compositions I_M of M = sum m_i.  Two homogeneous polynomial bases
(one per side of the equation) are related by a connection matrix R; its
entries admit a closed form through the q-hypergeometric kernel
Phi_q, which this module implements both ways:

  * ``connection_matrix``: evaluate one basis at |I_M| reference points
    and contract with the closed-form inverse of the other basis' value
    matrix (Gaussian elimination never enters),
  * ``closed_matrix``: the explicit kernel formula, analytic in the
    remaining mass parameters mu_a via q^{-c_a} -> mu_a (square roots of
    mu_a carry the half-integer exponents of the prefactor).

The two must agree entrywise; the acceptance suite checks this on a grid
of (N, M).
"""

from __future__ import annotations

from math import comb

from .params import rand_square
from .qfun import finite_poch_coeffs, poch, qbinom
from .scalars import spow
from .series import delta_quadratic, exponent_vectors


# -- lattice combinatorics -----------------------------------------------------


def compositions(N, M):
    """I_M: all N-part compositions of M, lexicographic."""
    return [v + (M - sum(v),)
            for v in exponent_vectors((0,) * (N - 1), (M,) * (N - 1), M)]


def s_of_m(mvec):
    """The truncated support lattice S(m): tuples (theta_1..theta_{N-1})
    with theta_1 <= m_1, theta_i - theta_{i-1} <= m_i, -theta_{N-1} <= m_N.
    Listed in the order of I_M: the a-th class is the image of the a-th
    composition under ``composition_to_support``, so matrices on S(m) and
    on I_M share one index order."""
    return [composition_to_support(i, mvec)
            for i in compositions(len(mvec), sum(mvec))]


def support_to_composition(sigma, mvec):
    """Bijection S(m) -> I_M through the shifted coordinates."""
    N = len(mvec)
    M = sum(mvec)
    if N == 1:
        return (M,)
    suffix = [sum(mvec[a + 1:]) for a in range(N - 1)]
    til = [sigma[a] + suffix[a] for a in range(N - 1)]
    ivec = [M - til[0]]
    for a in range(1, N - 1):
        ivec.append(til[a - 1] - til[a])
    ivec.append(til[N - 2])
    return tuple(ivec)


def composition_to_support(ivec, mvec):
    """Inverse bijection I_M -> S(m)."""
    N = len(mvec)
    if N == 1:
        return ()
    M = sum(mvec)
    suffix = [sum(mvec[a + 1:]) for a in range(N - 1)]
    til = [M - ivec[0]]
    for a in range(1, N - 1):
        til.append(til[-1] - ivec[a])
    return tuple(til[a] - suffix[a] for a in range(N - 1))


def support_size_formula(N, M):
    return comb(M + N - 1, N - 1)


def support_polyhedron_vertices(mvec):
    """Vertices of the shifted polyhedron containing the truncated
    support, in the (x_1..x_{N-1}) exponent coordinates: the fundamental
    vertices (M..M,0..0) shifted by -(m_{i+1}+...+m_N) in coordinate i."""
    N = len(mvec)
    M = sum(mvec)
    shift = [-sum(mvec[i + 1:]) for i in range(N - 1)]
    verts = []
    for k in range(N):
        base = [M] * k + [0] * (N - 1 - k)
        verts.append(tuple(b + s for b, s in zip(base, shift)))
    return verts


# -- the q-hypergeometric kernel ---------------------------------------------


def ordered_pairing(x, y):
    """<x, y> = sum_{a<b} x_a y_b."""
    total = 0
    acc = 0
    for a in range(len(x)):
        if a:
            acc += x[a - 1]
            total += acc * y[a]
    return total


def phi_kernel(gamma, beta, lam, mu, ctx):
    """Phi_q(gamma | beta; lam, mu) for integer vectors; zero unless
    0 <= gamma <= beta componentwise."""
    if any(g < 0 or g > b for g, b in zip(gamma, beta)):
        return ctx.field.zero
    sg = sum(gamma)
    sb = sum(beta)
    out = spow(ctx.q, ordered_pairing([b - g for b, g in zip(beta, gamma)], gamma))
    out = out * spow(mu / lam, sg)
    out = out * poch(lam, ctx.q, sg) * poch(mu / lam, ctx.q, sb - sg)
    den = poch(mu, ctx.q, sb)
    out = out / den
    for g, b in zip(gamma, beta):
        out = out * qbinom(b, g, ctx)
    return out


def phi_kernel_masslike(ivec_bar, kvec, mus_bar, mu_full, M, ctx):
    """The kernel at the confluent point lambda = mu q^M, analytically
    continued in the mass exponents: gamma_a = c_a - i_a - k_a with
    q^{-c_a} = mus_bar[a] (first N-1 masses), beta - gamma = ivec_bar, and
    mu_full the full second argument  lam * prod over all N masses.

    Everything is expressed through the scalars q^{gamma_a} =
    q^{-i_a-k_a}/mus_bar[a]; no roots are needed.
    """
    n = len(ivec_bar)
    f = ctx.field
    qgam = [spow(ctx.q, -ivec_bar[a] - kvec[a]) / mus_bar[a] for a in range(n)]
    q_abs_gamma = f.one
    for g in qgam:
        q_abs_gamma = q_abs_gamma * g
    # q^{<beta-gamma, gamma>} with beta-gamma = ivec_bar
    out = f.one
    acc = 0
    for b in range(n):
        if b:
            acc += ivec_bar[b - 1]
            out = out * spow(qgam[b], acc)
    # (mu/lam)^{|gamma|} = q^{-M |gamma|}
    out = out * spow(q_abs_gamma, -M)
    mu_shift = mu_full * q_abs_gamma
    out = out * poch(mu_shift, ctx.q, M) / poch(mu_full, ctx.q, M)
    si = sum(ivec_bar)
    out = out * poch(spow(ctx.q, -M), ctx.q, si) / poch(mu_shift, ctx.q, si)
    for a in range(n):
        out = out * poch(ctx.q * qgam[a], ctx.q, ivec_bar[a]) / ctx.qq(ivec_bar[a])
    return out


def check_transition(n, bound, ctx, a, b, c, swapped=False):
    """Exact transition property sum_{i<=j<=k} Phi(i|j;a,b) Phi(j|k;b,c) =
    Phi(i|k;a,c) for all i <= k with entries <= bound.  With ``swapped``
    the exploratory variant sum Phi(i|j;b,c) Phi(j|k;a,b) is tested
    instead (reported, not required)."""
    bad = []
    boxes = exponent_vectors((0,) * n, (bound,) * n)
    for kv in boxes:
        for iv in boxes:
            if any(x > y for x, y in zip(iv, kv)):
                continue
            total = ctx.field.zero
            for jv in exponent_vectors(iv, kv):
                if swapped:
                    total = total + phi_kernel(iv, jv, b, c, ctx) \
                        * phi_kernel(jv, kv, a, b, ctx)
                else:
                    total = total + phi_kernel(iv, jv, a, b, ctx) \
                        * phi_kernel(jv, kv, b, c, ctx)
            if total != phi_kernel(iv, kv, a, c, ctx):
                bad.append((iv, kv))
    return bad


# -- base polynomials and the connection solve --------------------------------


def base_polynomial(kind, ivec, zvals, lam, mus, ctx):
    """Direct evaluation of the degree-M basis polynomials at a point:
    kind 1 uses (mu_a z_{a+1}/z_a; q)_{i_a} z_a^{i_a}, kind 2 uses
    (z_a/z_{a+1}; q)_{i_a} z_{a+1}^{i_a}; z_{N+1} = lam * z_1."""
    N = len(ivec)
    zz = list(zvals) + [lam * zvals[0]]
    out = ctx.field.one
    for a in range(N):
        if kind == 1:
            out = out * poch(mus[a] * zz[a + 1] / zz[a], ctx.q, ivec[a]) \
                * spow(zz[a], ivec[a])
        else:
            out = out * poch(zz[a] / zz[a + 1], ctx.q, ivec[a]) \
                * spow(zz[a + 1], ivec[a])
    return out


def reference_point(kvec, ctx):
    """z_{k,1} = 1, z_{k,a} = q^{k_1+...+k_{a-1}}."""
    N = len(kvec)
    out = [ctx.field.one]
    acc = 0
    for a in range(1, N):
        acc += kvec[a - 1]
        out.append(spow(ctx.q, acc))
    return out


def norm_factor(ivec, lam, M, ctx):
    """(lam^{-1};q)_M lam^M / (q;q)_M * prod (q;q)_{i_a}."""
    out = poch(1 / lam, ctx.q, M) * spow(lam, M) / ctx.qq(M)
    for i in ivec:
        out = out * ctx.qq(i)
    return out


def b2_inverse_entry(ivec, jvec, lam, M, ctx):
    """Closed-form inverse of the second-basis value matrix:
    N_j(lam)^{-1} Phi_q(ibar | jbar; lam^{-1}, q^{-M})."""
    return phi_kernel(ivec[:-1], jvec[:-1], 1 / lam, spow(ctx.q, -M), ctx) \
        / norm_factor(jvec, lam, M, ctx)


def b2_specialized(ivec, jvec, lam, M, ctx):
    """Closed form of the second basis at the reference points:
    N_i(lam) Phi_q(ibar | jbar; q^{-M}, lam^{-1})."""
    return norm_factor(ivec, lam, M, ctx) \
        * phi_kernel(ivec[:-1], jvec[:-1], spow(ctx.q, -M), 1 / lam, ctx)


def b1_specialized(ivec, jvec, lam, mus, M, ctx):
    """Closed form of the first basis at the reference points (valid for
    arbitrary mass scalars mu_a through the confluent kernel)."""
    N = len(ivec)
    out = ctx.field.one
    # q^{<c, i>} = prod_a mus[a]^{-(i_{a+1}+...+i_N)}
    suf = sum(ivec)
    for a in range(N):
        suf -= ivec[a]
        out = out * spow(mus[a], -suf)
    lam_masses = lam
    for m in mus:
        lam_masses = lam_masses * m
    out = out * poch(lam_masses, ctx.q, M) / ctx.qq(M)
    for i in ivec:
        out = out * ctx.qq(i)
    return out * phi_kernel_masslike(ivec[:-1], jvec[:-1], mus[:-1],
                                     lam_masses, M, ctx)


def connection_matrix(N, M, lam, mus, ctx, residual_points=None):
    """R from the linear relation between the two bases, solved at the
    reference points with the closed-form inverse.  Also verifies that the
    closed inverse really inverts the directly evaluated value matrix, and
    (optionally) that the solved R reproduces the first basis at extra
    points.  Returns (R, index_list)."""
    idx = compositions(N, M)
    pts = [reference_point(k, ctx) for k in idx]
    b2 = [[base_polynomial(2, i, p, lam, mus, ctx) for p in pts] for i in idx]
    b2p = [[b2_inverse_entry(i, j, lam, M, ctx) for j in idx] for i in idx]
    # closed inverse check (B' B = 1)
    check = mat_mul(b2p, b2)
    eye = mat_eye(len(idx), ctx.field.one, ctx.field.zero)
    for a, i in enumerate(idx):
        for cc, k in enumerate(idx):
            if check[a][cc] != eye[a][cc]:
                raise ArithmeticError("closed inverse failed at %r, %r" % (i, k))
    b1 = [[base_polynomial(1, i, p, lam, mus, ctx) for p in pts] for i in idx]
    R = mat_mul(b1, b2p)
    if residual_points:
        for z in residual_points:
            b2z = [base_polynomial(2, j, z, lam, mus, ctx) for j in idx]
            for a, i in enumerate(idx):
                lhs = base_polynomial(1, i, z, lam, mus, ctx)
                rhs = ctx.field.zero
                for b in range(len(idx)):
                    rhs = rhs + R[a][b] * b2z[b]
                if lhs != rhs:
                    raise ArithmeticError("residual failed at row %r" % (i,))
    return R, idx


def closed_entry(ivec, jvec, lam, mus, sqrt_mus, M, ctx):
    """Closed form of the connection matrix entry via the kernel bilinear
    sum.  Half-integer exponents enter only through sqrt_mus and sqrt_q."""
    N = len(ivec)
    f = ctx.field
    ibar = ivec[:-1]
    jbar = jvec[:-1]

    # prefactor of the bilinear kernel sum:
    # q^{(<c,j> - <j,j> - <i,c> + <i,i>)/2}.  Its pure q-power
    # q^{(<i,i> - <j,j>)/2} cancels the inverse one of the scalar
    # prefactor below, so neither is applied; the mass part remains.
    pref = f.one
    suf = sum(jvec)
    for a in range(N):
        suf -= jvec[a]
        pref = pref * spow(sqrt_mus[a], -suf)
    acc = 0
    for b in range(N):
        if b:
            acc += ivec[b - 1]
            pref = pref * spow(sqrt_mus[b], acc)

    mu_full = lam
    for m in mus:
        mu_full = mu_full * m

    kernel_sum = f.zero
    for kv in exponent_vectors((0,) * (N - 1), jbar):
        t = phi_kernel(kv, jbar, 1 / lam, spow(ctx.q, -M), ctx)
        if not t:
            continue
        t = t * phi_kernel_masslike(ibar, kv, mus[:-1], mu_full, M, ctx)
        kernel_sum = kernel_sum + t

    # scalar prefactor carrying the half-powers of the masses
    cpre = f.of(-1) ** M * spow(ctx.q, M * (1 - M) // 2)
    for a in range(N):
        cpre = cpre * spow(sqrt_mus[a], -M + 2 * ivec[a] - jvec[a])
    acc = 0
    for b in range(N):
        if b:
            acc += jvec[b - 1] - ivec[b - 1]
            cpre = cpre * spow(sqrt_mus[b], -acc)

    out = cpre * poch(mu_full, ctx.q, M) \
        / poch(lam * spow(ctx.q, -M + 1), ctx.q, M)
    for i, j in zip(ivec, jvec):
        out = out * ctx.qq(i) / ctx.qq(j)
    return out * pref * kernel_sum


def closed_matrix(N, M, lam, mus, sqrt_mus, ctx):
    idx = compositions(N, M)
    R = [[closed_entry(i, j, lam, mus, sqrt_mus, M, ctx) for j in idx]
         for i in idx]
    return R, idx


def weight_shells(N, M):
    """Pairs (i, j) of I_M x I_M grouped by the conserved weight i + j:
    the kernel slots of ``closed_entry`` for the pair (i, j) are
    (c - i, i; c - j, j) with c = i + j, so upper and lower slot sums
    coincide shell by shell."""
    idx = compositions(N, M)
    shells = {}
    for i in idx:
        for j in idx:
            c = tuple(a + b for a, b in zip(i, j))
            shells.setdefault(c, []).append((i, j))
    return shells


def b2_triangular_zeros(N, M, lam, ctx):
    """Zero pattern of the connection-solve value matrix: the second basis
    vanishes at the reference point of j unless ibar <= jbar.  Returns the
    list of violations (empty if the pattern holds exactly)."""
    idx = compositions(N, M)
    pts = [reference_point(k, ctx) for k in idx]
    bad = []
    ones = [ctx.field.one] * N  # kind-2 polynomials carry no masses
    for i in idx:
        for b, j in enumerate(idx):
            v = base_polynomial(2, i, pts[b], lam, ones, ctx)
            expect_zero = any(x > y for x, y in zip(i[:-1], j[:-1]))
            if expect_zero and v:
                bad.append((i, j))
    return bad


# -- gauge match against the truncated difference-equation matrices -----------


def finite_poch_product(prefactors, lengths, ctx):
    """Expansion of prod_i (A_i x_i ; q)_{n_i}: the pairs (k, coefficient
    of x^k) over the box 0 <= k_i <= n_i, lexicographic."""
    coeffs = [finite_poch_coeffs(a, n, ctx)
              for a, n in zip(prefactors, lengths)]
    out = []
    for kv in exponent_vectors((0,) * len(lengths), lengths):
        c = ctx.field.one
        for i, k in enumerate(kv):
            c = c * coeffs[i][k]
        out.append((kv, c))
    return out


def terminated_side(mvec, mus, ctx, side):
    """One side of the terminated equation, shift operator removed, as a
    normal-ordered expansion: theta -> [(k, coefficient of x^{theta+k})].
    The coefficients are the Borel weight q^{+Delta(theta)/2} (mass side)
    or q^{-Delta(theta)/2} (plain side) times the expansion of
    prod_i (A_i x_i; q)_{m_i - theta'_i}, theta'_i = theta_i - theta_{i-1},
    with A_i = q^{-m_i+theta'_i} mu_i (mass side) or q^{-m_i} (plain
    side)."""
    N = len(mvec)
    mass = side == "mass"

    def expand(th):
        thp = [th[i] - th[i - 1] for i in range(N)]
        delta = delta_quadratic(th)
        borel = ctx.qpow_half(delta if mass else -delta)
        prefs = [spow(ctx.q, -mvec[i] + thp[i]) * mus[i] if mass
                 else spow(ctx.q, -mvec[i]) for i in range(N)]
        lengths = [mvec[i] - thp[i] for i in range(N)]
        return [(kv, borel * c)
                for kv, c in finite_poch_product(prefs, lengths, ctx)]
    return expand


def truncated_equation_matrix(mvec, mus, lam, ctx, side):
    """Matrix of ``terminated_side`` on the S(m) lattice, in the order of
    ``s_of_m`` (that of I_M): the class theta of S(m) is the exponent
    (theta, 0), and wrap-arounds of the exponent lattice carry powers of
    the scalar lam."""
    S = s_of_m(mvec)
    index = {s: a for a, s in enumerate(S)}
    expand = terminated_side(mvec, mus, ctx, side)
    mat = [[ctx.field.zero] * len(S) for _ in S]
    for aa, sig in enumerate(S):
        th = tuple(sig) + (0,)
        for kv, c in expand(th):
            nt = [t + k for t, k in zip(th, kv)]
            w = nt[-1]
            rep = tuple(t - w for t in nt[:-1])
            mat[index[rep]][aa] = mat[index[rep]][aa] + c * spow(lam, w)
    return mat, S


def row_reduce(rows):
    """Gauss-Jordan elimination over an exact field: the reduced row
    echelon form of the matrix and the list of its pivot columns."""
    mat = [row[:] for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        inv = 1 / mat[top][col]
        mat[top] = [x * inv for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col]:
                fac = mat[r][col]
                mat[r] = [x - fac * y for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def exact_inverse(A, field):
    """Gauss-Jordan inverse over an exact field."""
    n = len(A)
    M, pivots = row_reduce(
        [row + e for row, e in zip(A, mat_eye(n, field.one, field.zero))])
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("singular matrix")
    return [row[n:] for row in M]


def mat_eye(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(1, n)), A[i][0] * B[0][j])
             for j in range(n)] for i in range(n)]


class GaugeMatchReport:
    def __init__(self, found, transform=None, left_exponents=None,
                 right_exponents=None, note=""):
        self.found = found
        self.transform = transform
        self.left_exponents = left_exponents
        self.right_exponents = right_exponents
        self.note = note

    def as_dict(self):
        return {"found": self.found, "transform": self.transform,
                "left_exponents": self.left_exponents,
                "right_exponents": self.right_exponents, "note": self.note}


def _rank_one_diagonals(H, R):
    n = len(H)
    rho = []
    for a in range(n):
        row = []
        for b in range(n):
            r = R[a][b]
            h = H[a][b]
            if (not r) != (not h):
                return None
            row.append(None if not r else h / r)
        rho.append(row)
    base = rho[0][0]
    if base is None:
        return None
    for a in range(n):
        for b in range(n):
            if rho[a][b] is None:
                continue
            if rho[a][b] * base != rho[a][0] * rho[0][b]:
                return None
    left = [rho[a][0] for a in range(n)]
    right = [rho[0][b] / base for b in range(n)]
    return left, right


def _monomial_recognizer(ctx, mus, lam, lam_bound, bound):
    """A function recognizing x as +- q^{e/2} prod mus[a]^{g_a} lam^{h}
    with |e| <= bound, |g_a| <= 2 and |h| <= lam_bound: it returns
    (sign, e, gvec, h) or None, preferring small |h| + sum |g_a|.  Where
    two (sign, e) give the same value, sign +1 and then the smaller e is
    reported."""
    q_powers = {}
    for sign in (1, -1):
        probe = ctx.field.of(sign) * spow(ctx.sqrt_q, -bound)
        for e in range(-bound, bound + 1):
            q_powers.setdefault(probe, (sign, e))
            probe = probe * ctx.sqrt_q
    cands = []
    for _, h, gvec in sorted(
            (abs(h) + sum(abs(g) for g in gvec), h, gvec)
            for h in range(-lam_bound, lam_bound + 1)
            for gvec in exponent_vectors((-2,) * len(mus), (2,) * len(mus))):
        scale = spow(lam, -h)
        for m, g in zip(mus, gvec):
            scale = scale * spow(m, -g)
        cands.append((scale, h, gvec))

    def recognize(x):
        if not x:
            return None
        for scale, h, gvec in cands:
            got = q_powers.get(x * scale)
            if got is not None:
                return (got[0], got[1], list(gvec), h)
        return None

    return recognize


def gauge_match_to_hamiltonian(mvec, mus, sqrt_mus, lam, ctx):
    """Test for constant diagonal matrices K, L relating the shift-free
    truncated-equation matrix to the closed-form connection matrix.

    The working ansatz (holds for N = 2, every truncation): with
    H = [plain side] . [mass side]^{-1},

        H(lam) = K^{-1} . R(q^{-1} lam ; q^{-m_a} mu_a) . L .

    ``found`` means only that the entrywise ratio H / R has rank one on
    the common support, which is exactly the existence of such K, L; it
    says nothing about the form of their entries.  The entries are then
    read as +- q^{e/2} times mass and lam monomials where possible and
    reported raw otherwise, with a note.  At N = 2 the non-trivial
    entries have not been seen to be such monomials, so no q-power
    form of K, L is claimed.

    Only this point is tried.  A 3 x 3 window of one further q-shift of
    lam and of the masses either way was scanned once; over N <= 4,
    M <= 3, seeds 1-4 in both fields it never changed a report and cost
    most of the search.  For N >= 3 no point of it matched: the relation
    appears to need more than constant diagonals, and the report comes
    back not-found with the ansatz tried echoed.
    """
    N = len(mvec)
    M = sum(mvec)
    if M == 0:
        return GaugeMatchReport(True, {"lam_shift": 0, "mu_shifts": [0] * N},
                                [(1, 0)], [(1, 0)], "trivial (single class)")
    A, _ = truncated_equation_matrix(mvec, mus, lam, ctx, "mass")
    B, _ = truncated_equation_matrix(mvec, mus, lam, ctx, "plain")
    H = mat_mul(B, exact_inverse(A, ctx.field))

    lam2 = spow(ctx.q, -1) * lam
    mus2 = [spow(ctx.q, -mvec[a]) * mus[a] for a in range(N)]
    smus2 = [spow(ctx.sqrt_q, -mvec[a]) * sqrt_mus[a] for a in range(N)]
    try:
        R, _ = closed_matrix(N, M, lam2, mus2, smus2, ctx)
    except (ZeroDivisionError, ArithmeticError):
        got = None
    else:
        got = _rank_one_diagonals(H, R)
    if got is None:
        return GaugeMatchReport(False, None, None, None,
                                "no constant diagonal gauge in the scanned "
                                "window; tried shifts [(-1, 0)]")
    left, right = got
    recognize = _monomial_recognizer(ctx, mus, lam, M + 1,
                                     4 * (M + N) * (M + N) + 8)
    lexp = [recognize(x) for x in left]
    rexp = [recognize(x) for x in right]
    if None in lexp or None in rexp:
        note = ("rank-one diagonal gauge solved; some entries are "
                "not plain q/mass/lam monomials (raw values reported)")
    else:
        note = "diagonal gauge found"
    lexp = [e if e is not None else repr(x) for e, x in zip(lexp, left)]
    rexp = [e if e is not None else repr(x) for e, x in zip(rexp, right)]
    return GaugeMatchReport(True, {"lam_shift": -1,
                                   "mu_shifts": [-m for m in mvec]},
                            lexp, rexp, note)


def draw_mass_data(rng, field, ctx, N, M):
    """Masses (with square roots) and a free parameter for the connection
    problem, redrawing until none of the explicit pole factors vanish.

    The last check holds the denominators (lam mu_N q^{-|i|-|k|}; q)_{|i|}
    of ``phi_kernel_masslike`` in ``closed_matrix``: their factors are
    1 - lam mu_N q^e with -2M <= e <= -1."""
    for _ in range(50):
        sqrt_mus, mus = [], []
        for _ in range(N):
            s, u = rand_square(rng, field)
            sqrt_mus.append(s)
            mus.append(u)
        lam = rand_square(rng, field)[1]
        prod = lam
        for m in mus:
            prod = prod * m
        checks = [poch(1 / lam, ctx.q, M),
                  poch(lam * spow(ctx.q, -M + 1), ctx.q, M),
                  poch(prod, ctx.q, M),
                  poch(prod * spow(ctx.q, -2 * M), ctx.q, 3 * M),
                  poch(lam * mus[-1] * spow(ctx.q, -2 * M), ctx.q, 2 * M)]
        if all(checks):
            return mus, sqrt_mus, lam
    raise RuntimeError("could not draw generic mass data")
