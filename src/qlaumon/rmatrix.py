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
    remaining mass parameters mu_a via q^{-c_a} -> mu_a, as one product
    R = D_row . A . B . D_col of two kernel matrices and two diagonals;
    the masses enter D_row by integer powers that depend on the row alone.

The two must agree entrywise; the acceptance suite checks this on a grid
of (N, M).
"""

from __future__ import annotations

from math import comb, prod

from .params import rand_square
from .qfun import finite_poch_coeffs, poch, qbinom
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
    out = ctx.q ** ordered_pairing([b - g for b, g in zip(beta, gamma)], gamma)
    out = out * (mu / lam) ** sg
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
    qgam = [ctx.q ** (-ivec_bar[a] - kvec[a]) / mus_bar[a] for a in range(n)]
    q_abs_gamma = f.one
    for g in qgam:
        q_abs_gamma = q_abs_gamma * g
    # q^{<beta-gamma, gamma>} with beta-gamma = ivec_bar
    out = f.one
    acc = 0
    for b in range(n):
        if b:
            acc += ivec_bar[b - 1]
            out = out * qgam[b] ** acc
    # (mu/lam)^{|gamma|} = q^{-M |gamma|}
    out = out * q_abs_gamma ** -M
    mu_shift = mu_full * q_abs_gamma
    out = out * poch(mu_shift, ctx.q, M) / poch(mu_full, ctx.q, M)
    si = sum(ivec_bar)
    out = out * poch(ctx.q ** -M, ctx.q, si) / poch(mu_shift, ctx.q, si)
    for a in range(n):
        out = out * poch(ctx.q * qgam[a], ctx.q, ivec_bar[a]) / ctx.qq(ivec_bar[a])
    return out


def check_transition(n, bound, ctx, a, b, c):
    """Exact transition property sum_{i<=j<=k} Phi(i|j;a,b) Phi(j|k;b,c) =
    Phi(i|k;a,c) for all i <= k with entries <= bound."""
    bad = []
    boxes = exponent_vectors((0,) * n, (bound,) * n)
    for kv in boxes:
        for iv in boxes:
            if any(x > y for x, y in zip(iv, kv)):
                continue
            total = ctx.field.zero
            for jv in exponent_vectors(iv, kv):
                total = total + phi_kernel(iv, jv, a, b, ctx) \
                    * phi_kernel(jv, kv, b, c, ctx)
            if total != phi_kernel(iv, kv, a, c, ctx):
                bad.append((iv, kv))
    return bad


def draw_kernel_args(rng, field, ctx, n, bound):
    """Arguments (a, b, c) for ``check_transition(n, bound, ...)``,
    redrawn until no denominator (b;q)_s or (c;q)_s, s <= n bound, of its
    kernels vanishes: over Q about one draw in 23 puts b or c at a
    negative power of q."""
    for _ in range(50):
        a, b, c = (rand_square(rng, field)[1] for _ in range(3))
        if poch(b, ctx.q, n * bound) and poch(c, ctx.q, n * bound):
            return a, b, c
    raise RuntimeError("could not draw generic kernel arguments")


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
                * zz[a] ** ivec[a]
        else:
            out = out * poch(zz[a] / zz[a + 1], ctx.q, ivec[a]) \
                * zz[a + 1] ** ivec[a]
    return out


def reference_point(kvec, ctx):
    """z_{k,1} = 1, z_{k,a} = q^{k_1+...+k_{a-1}}."""
    N = len(kvec)
    out = [ctx.field.one]
    acc = 0
    for a in range(1, N):
        acc += kvec[a - 1]
        out.append(ctx.q ** acc)
    return out


def norm_factor(ivec, lam, M, ctx):
    """(lam^{-1};q)_M lam^M / (q;q)_M * prod (q;q)_{i_a}."""
    out = poch(1 / lam, ctx.q, M) * lam ** M / ctx.qq(M)
    for i in ivec:
        out = out * ctx.qq(i)
    return out


def b2_inverse_entry(ivec, jvec, lam, M, ctx):
    """Closed-form inverse of the second-basis value matrix:
    N_j(lam)^{-1} Phi_q(ibar | jbar; lam^{-1}, q^{-M})."""
    return phi_kernel(ivec[:-1], jvec[:-1], 1 / lam, ctx.q ** -M, ctx) \
        / norm_factor(jvec, lam, M, ctx)


class ConnectionCheckFailed(ArithmeticError):
    """An identity that ``connection_matrix`` checks on its way does not
    hold: the closed inverse or a residual at an extra point."""


def connection_matrix(N, M, lam, mus, ctx, residual_points=None):
    """R from the linear relation between the two bases, solved at the
    reference points with the closed-form inverse.  Also verifies that the
    closed inverse really inverts the directly evaluated value matrix, and
    (optionally) that the solved R reproduces the first basis at extra
    points; either failure raises ConnectionCheckFailed.  Returns
    (R, index_list)."""
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
                raise ConnectionCheckFailed("closed inverse failed at %r, %r"
                                            % (i, k))
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
                    raise ConnectionCheckFailed("residual failed at row %r"
                                                % (i,))
    return R, idx


def closed_matrix(N, M, lam, mus, sqrt_mus, ctx):
    """R = D_row . A . B . D_col, the entrywise bilinear kernel sum
    regrouped; i, j run over I_M and k over the jbar of I_M (|k| <= M):

      * A[i][k] = ``phi_kernel_masslike(ibar, k, ...)``,
      * B[k][j] = Phi_q(k | jbar; 1/lam, q^{-M}), zero unless k <= jbar,
      * D_row[i] = C0 prod_a mu_a^{-(i_{a+1}+...+i_N)} (q;q)_{i_a},
      * D_col[j] = 1 / prod_a (q;q)_{j_a},
      * C0 = (-1)^M q^{M(1-M)/2} (lam prod mu; q)_M / (lam q^{1-M}; q)_M.

    Each kernel is evaluated once, A only at the k whose row of B is not
    zero.  The half-integer mass powers of the sum's two prefactors add
    up to the row-only powers of D_row, so ``sqrt_mus`` is ignored until
    ROADMAP item 5 drops it from the callers.  A pole raises
    ZeroDivisionError."""
    f = ctx.field
    idx = compositions(N, M)
    bars = [j[:-1] for j in idx]
    lam_inv = 1 / lam
    q_m = ctx.q ** -M
    B = [[phi_kernel(k, jbar, lam_inv, q_m, ctx) for jbar in bars]
         for k in bars]
    used = [c for c, row in enumerate(B) if any(row)]
    mu_full = prod(mus, start=lam)
    A = [[phi_kernel_masslike(ibar, bars[c], mus[:-1], mu_full, M, ctx)
          for c in used] for ibar in bars]
    columns = [[(u, B[c][b]) for u, c in enumerate(used) if B[c][b]]
               for b in range(len(idx))]

    c0 = f.of(-1) ** M * ctx.q ** (M * (1 - M) // 2) \
        * poch(mu_full, ctx.q, M) / poch(lam * ctx.q ** (1 - M), ctx.q, M)
    mu_inv = [1 / m for m in mus[:-1]]
    d_col = [1 / prod(map(ctx.qq, j)) for j in idx]
    R = []
    for i, a_row in zip(idx, A):
        d_row = c0 * prod(map(ctx.qq, i))
        suffix = M
        for a in range(N - 1):
            suffix -= i[a]
            d_row = d_row * mu_inv[a] ** suffix
        R.append([d_row * sum((a_row[u] * t for u, t in col), f.zero) * d
                  for col, d in zip(columns, d_col)])
    return R, idx


def weight_shells(N, M):
    """Pairs (i, j) of I_M x I_M grouped by the conserved weight i + j:
    the kernel slots that row i of A and column j of B in
    ``closed_matrix`` contract for the pair (i, j) are (c - i, i; c - j, j)
    with c = i + j, so upper and lower slot sums coincide shell by
    shell."""
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
        prefs = [ctx.q ** (-mvec[i] + thp[i]) * mus[i] if mass
                 else ctx.q ** (-mvec[i]) for i in range(N)]
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
            mat[index[rep]][aa] = mat[index[rep]][aa] + c * lam ** w
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


def mat_eye(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(1, n)), A[i][0] * B[0][j])
             for j in range(n)] for i in range(n)]


class GaugeMatchReport:
    def __init__(self, found, transform=None, left=None, right=None,
                 note=""):
        self.found = found
        self.transform = transform
        self.left = left
        self.right = right
        self.note = note

    def as_dict(self):
        return {"found": self.found, "transform": self.transform,
                "left": self.left, "right": self.right, "note": self.note}


def _rank_one_diagonals(H, R, one):
    """Diagonals (left, right) with H[a][b] = left[a] R[a][b] right[b],
    or None.  H and R must share their support; the ratio H/R fixes left
    and right along the support's bipartite graph of rows and columns,
    from one at the first column of each component (or at a row with no
    support), and is then checked on every supported entry."""
    n = len(H)
    rho = {}
    for a in range(n):
        for b in range(n):
            if (not R[a][b]) != (not H[a][b]):
                return None
            if R[a][b]:
                rho[a, b] = H[a][b] / R[a][b]
    left, right = [None] * n, [None] * n
    for root in range(n):
        if right[root] is not None:
            continue
        right[root], grew = one, True
        while grew:
            grew = False
            for (a, b), v in rho.items():
                if left[a] is None and right[b] is not None:
                    left[a], grew = v / right[b], True
                elif right[b] is None and left[a] is not None:
                    right[b], grew = v / left[a], True
    left = [x or one for x in left]
    if any(left[a] * right[b] != v for (a, b), v in rho.items()):
        return None
    return left, right


def gauge_match_to_hamiltonian(mvec, mus, sqrt_mus, lam, ctx):
    """Test for constant diagonal matrices K, L relating the shift-free
    truncated-equation matrix to the closed-form connection matrix.

    The ansatz (holds for N = 2, every truncation): with H the solution
    of H . [mass side] = [plain side],

        H(lam) = K^{-1} . R(q^{-1} lam ; q^{-m_a} mu_a) . L .

    ``found`` means that H and R have the same support and that the
    entrywise ratio H / R has rank one on it, which is exactly the
    existence of such K, L.  Their entries are reported as ``left`` and
    ``right`` (``repr`` of each, normalized so that right[0] = 1); no
    closed form of them is claimed.  For N >= 3 and M > 0 nothing is
    computed: the report is not-found, its note the space searched.

    ``draw_mass_data`` keeps lam and the masses off the poles of the
    shifted R and off the zeros that would make the comparison vacuous;
    a singular mass side raises ArithmeticError, as does a pole of R.
    ``sqrt_mus`` is not read (ROADMAP item 5).
    """
    N = len(mvec)
    M = sum(mvec)
    if M == 0:
        one = [repr(ctx.field.one)]
        return GaugeMatchReport(True, {"lam_shift": 0, "mu_shifts": [0] * N},
                                one, one, "trivial (single class)")
    if N >= 3:
        return GaugeMatchReport(False, note=(
            "not computed at N >= 3: no constant diagonal gauge matched at "
            "N = 3 or 4 over every relabeling and mass permutation, q-shifts "
            "of lam and mu, lam <-> 1/lam, R against R^T and H against H^-1"))
    A, _ = truncated_equation_matrix(mvec, mus, lam, ctx, "mass")
    B, _ = truncated_equation_matrix(mvec, mus, lam, ctx, "plain")
    # H A = B is A^T H^T = B^T: one elimination of [A^T | B^T]
    n = len(A)
    rref, pivots = row_reduce([list(ca) + list(cb)
                               for ca, cb in zip(zip(*A), zip(*B))])
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("singular mass-side matrix")
    H = [list(col) for col in zip(*(row[n:] for row in rref))]

    lam2 = lam / ctx.q
    mus2 = [ctx.q ** (-mvec[a]) * mus[a] for a in range(N)]
    R, _ = closed_matrix(N, M, lam2, mus2, None, ctx)
    transform = {"lam_shift": -1, "mu_shifts": [-m for m in mvec]}
    got = _rank_one_diagonals(H, R, ctx.field.one)
    if got is None:
        return GaugeMatchReport(False, None, None, None,
                                "no constant diagonal gauge at the shift "
                                "tried, %r" % (transform,))
    left, right = got
    return GaugeMatchReport(True, transform, [repr(x) for x in left],
                            [repr(x) for x in right],
                            "rank-one diagonal gauge solved")


def draw_mass_data(rng, field, ctx, N, M):
    """Masses (with square roots) and a free parameter for the connection
    problem, redrawn until lam, each mu_a, lam mu_N and lam prod_a mu_a
    lie off the lattice {+-q^e : |e| <= 3M + 2}.

    That one rule keeps every Pochhammer denominator of ``closed_matrix``
    nonzero, at lam and at the gauge's shifted point (q^{-1} lam,
    q^{-m_a} mu_a): each vanishes only where lam, lam mu_N or
    lam prod_a mu_a is q^e with |e| <= 3M + 1.  It also keeps the draw
    off the points where the two matrices of ``gauge_match_to_hamiltonian``
    vanish together or differ in support (seen over Q at lam mu_N = 1 or
    q^{-1} and at mu_1 = q), so that the gauge match tests the generic
    identity."""
    bound = 3 * M + 2
    lattice = set()
    x = ctx.q ** -bound
    for _ in range(2 * bound + 1):
        lattice.update((x, -x))
        x = x * ctx.q
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
        if lattice.isdisjoint([lam, *mus, lam * mus[-1], prod]):
            return mus, sqrt_mus, lam
    raise RuntimeError("could not draw generic mass data")
