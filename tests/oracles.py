"""Reference implementations that only the tests read.

Each is an independent form of something the library computes another
way (a factor through finite products instead of the row walk, a closed
form instead of a solve, a direct expansion instead of a formula), so a
test can compare the two.  None of them is on a path that a command, a
demo or the benchmark runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from operator import add, mul

from qlaumon.fourd import JET_Q
from qlaumon.jackson import (_blocks_and_norm, _perm_sign, _vandermonde,
                             cocycle_factor)
from qlaumon.nekrasov import _box_keys
from qlaumon.partitions import colored_counts, conjugate, enumerate_tuples
from qlaumon.qfun import poch, single_bracket
from qlaumon.rmatrix import norm_factor, phi_kernel, phi_kernel_masslike
from qlaumon.scalars import Jet
from qlaumon.series import (MultiSeries, Op, add_term, compose, eq_coeff,
                            exponent_vectors, phi_coeff, power_sum_op,
                            sparse_op)


# -- q-functions (qfun) --------------------------------------------------------


def bracket_base(sqrt_u, n, sqrt_base):
    """[u; p]_n for an arbitrary base p given via sqrt_base (e.g. p = kappa^N)."""
    if n < 0:
        v = bracket_base(sqrt_u * sqrt_base ** n, -n, sqrt_base)
        return 1 / v
    out = None
    for j in range(n):
        f = single_bracket(sqrt_u * sqrt_base ** j)
        out = f if out is None else out * f
    if out is None:
        return sqrt_u / sqrt_u  # one, in the right field
    return out


def bracket_ratio_finite(sqrt_u, n, ctx):
    """[u;q]_n computed through the half-base product pair

        (u^{1/2}; q^{1/2})_n * (-q^{(1-n)/2} u^{-1/2}; q^{1/2})_n,

    i.e. the finite form of the ratio [u;q]_inf / [q^n u;q]_inf.  Must
    agree with ``qfun.bracket``.
    """
    if n < 0:
        return 1 / bracket_ratio_finite(sqrt_u * ctx.sqrt_q ** n, -n, ctx)
    p1 = poch(sqrt_u, ctx.sqrt_q, n)
    p2 = poch(-ctx.sqrt_q ** (1 - n) / sqrt_u, ctx.sqrt_q, n)
    return p1 * p2


# -- series --------------------------------------------------------------------


def series_inverse(s):
    """1/s for s with invertible constant term (Neumann series to the cap)."""
    c0 = s.get((0,) * s.N)
    if not c0:
        raise ZeroDivisionError("series has zero constant term")
    ic0 = 1 / c0
    rest = (s - MultiSeries.monomial(s.N, s.cap, s.field, (0,) * s.N,
                                     c0)).scale(ic0)
    out = MultiSeries.one(s.N, s.cap, s.field)
    power = MultiSeries.one(s.N, s.cap, s.field)
    sign = -1
    for _ in range(s.cap):
        power = power * rest
        if power.is_zero():
            break
        out = out + power.scale(s.field.of(sign))
        sign = -sign
    return out.scale(ic0)


def qexp_series(coeff, ctx, N, cap, z, xvec):
    """The series sum_n coeff(ctx, z, n) x^{n xvec}, |xvec| > 0, written
    out term by term."""
    return MultiSeries(N, cap, ctx.field, {
        tuple(n * e for e in xvec): coeff(ctx, z, n)
        for n in range(cap // sum(xvec) + 1)})


def ray_op(U, w, coeffs, ctx):
    """The ray  x^nu -> x^nu + sum_n coeffs[n-1] q^{n w.nu/2} x^{nu+nU}
    on the sparse terms, one exponent tuple per output term: the oracle
    of one ray of ``series.rays_op``."""
    deg = sum(U)
    if deg <= 0:
        raise ValueError("argument must have positive total degree")

    def apply(s):
        out = s.copy()
        for nu, t in s.terms.items():
            step = ctx.qpow_half(sum(map(mul, w, nu)))
            k = nu
            for a in coeffs[:(s.cap - sum(nu)) // deg]:
                k = tuple(map(add, k, U))
                t = t * step
                add_term(out.terms, k, a * t)
        return out
    return Op(apply)


def composed_rays(rays, ctx):
    """``series.rays_op`` as the composition of one sparse ``ray_op`` per
    ray, the rightmost acting first."""
    return compose([ray_op(U, w, coeffs, ctx) for U, w, coeffs in rays])


def letter_op(i, w, scale, ctx, N):
    """The letter  scale * x_i * q^{(1/2) w.theta}  (0-based position i,
    cyclic; w an integer vector).  Raises degree by one."""
    unit = tuple(1 if p == i % N else 0 for p in range(N))
    w = tuple(w)

    def expand(nu, budget):
        if budget < 1:
            return ()
        return ((unit, scale * ctx.qpow_half(sum(map(mul, w, nu)))),)
    return sparse_op(expand)


def twisted_letter_op(i, direction, scale, ctx, N):
    """The letter  scale * x_i * q^{direction * (theta_i - theta_{i-1})}
    (0-based position i, cyclic).  Raises degree by one."""
    w = [0] * N
    w[i % N] += 2 * direction
    w[(i - 1) % N] -= 2 * direction
    return letter_op(i, w, scale, ctx, N)


def _qexp_op(coeff, word, word_degree, z, ctx, cap):
    return power_sum_op(word, [coeff(ctx, z, n) for n in
                               range(1, cap // max(word_degree, 1) + 1)])


def op_qexp(word, word_degree, sign, ctx, cap):
    """e_q(sign * W) = sum_n sign^n W^n / (q;q)_n, by explicit powers."""
    return _qexp_op(eq_coeff, word, word_degree, sign, ctx, cap)


def op_qexp_big(word, word_degree, sign, ctx, cap):
    """phi(-sign*W) = E_q(sign*W) = sum_n q^{n(n-1)/2} sign^n W^n/(q;q)_n;
    the two-sided inverse of op_qexp(word, sign)."""
    return _qexp_op(phi_coeff, word, word_degree, -sign, ctx, cap)


def composed_chain(spec, words, letter):
    """``hamiltonian._chain`` letter by letter: each letter(j) = (i, w,
    scale) is its own ``letter_op``, each word their composition (its
    rightmost letter acting first), and each q-exponential the sum of
    its explicit powers."""
    one = spec.params.field.one
    ops = []
    for word, kind in words:
        qexp, sign = (op_qexp, -one) if kind == "e" else (op_qexp_big, one)
        ops.append(qexp(compose([letter_op(*letter(j), spec.ctx, spec.N)
                                 for j in word]),
                        len(word), sign, spec.ctx, spec.cap))
    return compose(ops)


# -- parameter sampling (params) -----------------------------------------------


def generic_enough_in_field(ps, bound):
    """``params._generic_enough`` with every power and ratio taken in the
    draw's own field (Fractions of growing height over Q): whether the
    base parameters are pairwise distinct and outside {0, +-1}, q^a
    kappa^c != 1 for 0 < max(|a|, |c|) <= 2 bound, and no ratio b_i/b_j
    (i != j) is q^a kappa^c with |a|, |c| <= bound.

    The second condition says that the points q^a kappa^c, |a|, |c| <=
    bound, are distinct (it covers the sinh-bracket poles of the vector
    multiplet denominators within the degree window, and q not a root of
    unity); the third keeps b_i/b_j off those points.  Both are answered
    from the powers of kappa alone, without listing the points."""
    one = ps.field.one
    base = [ps.q, ps.kappa] + [ps.b(i) for i in range(ps.N)] \
        + [ps.d(i) for i in range(ps.N)] + [ps.dbar(i) for i in range(ps.N)]
    for i, u in enumerate(base):
        if not u or u == one or u == -one:
            return False
        for v in base[i + 1:]:
            if u == v:
                return False
    q, kappa = ps.q, ps.kappa
    # kappa^c for c = 0..2 bound, then the negative powers
    kpow = [one]
    for _ in range(2 * bound):
        kpow.append(kpow[-1] * kappa)
    if one in kpow[1:]:
        return False
    inv_kappa = 1 / kappa
    kneg = [one]
    for _ in range(2 * bound):
        kneg.append(kneg[-1] * inv_kappa)
    # q^a kappa^c = 1 with a != 0: up to the sign of (a, c), a > 0 and
    # q^a = kappa^{-c}
    wide = set(kpow) | set(kneg)
    qa = one
    for _ in range(2 * bound):
        qa = qa * q
        if qa in wide:
            return False
    # b_i/b_j = q^a kappa^c, or b_j/b_i = q^{-a} kappa^{-c}: one test per
    # unordered pair, b_i/b_j q^{-a} against the kappa^c, |c| <= bound
    narrow = set(kpow[:bound + 1]) | set(kneg[:bound + 1])
    inv_q = 1 / q
    qshift = [q ** bound]
    for _ in range(2 * bound):
        qshift.append(qshift[-1] * inv_q)
    for i in range(ps.N):
        for j in range(i + 1, ps.N):
            r = ps.b(i) / ps.b(j)
            if any(r * s in narrow for s in qshift):
                return False
    return True


# -- partitions ----------------------------------------------------------------


def row_sum_residue(parts, beta, N):
    """Sum of the rows of the partition whose index is beta mod N."""
    b = beta % N
    if b == 0:
        b = N
    return sum(parts[i - 1] for i in range(b, len(parts) + 1, N))


def shifted_residues(ptuple, N):
    """Per-column end-box colors: for column c of the i-th component,
    (conjugate length + i - 1) mod N, listed component by component."""
    out = []
    for i0, lam in enumerate(ptuple):
        conj = conjugate(lam)
        out.append(tuple((col + i0) % N for col in conj))
    return tuple(out)


# -- Nekrasov factors and the instanton sum (nekrasov) -------------------------


def nek_bracket_count(k, N, lam, mu):
    """Number of bracket factors of the color-k pair (row sums of the two
    colored residue classes: |mu|_{-k} + |lam|_{k+1}), counted on the box
    walk, which shares nothing with the row walk."""
    return sum(1 for _ in _box_keys(k, N, lam, mu))


def nek_matter_fund(lam, k, sqrt_u, nc, N):
    """Finite-product form of the factor with empty second partition:
    product over columns i of [u q^{i-1} kappa^k ; kappa^N]_m with
    m = floor((conj_i + N - 1 - k)/N)."""
    k = k % N
    sqrt_base = nc.sqrt_kappa ** N
    conj = conjugate(lam)
    out = nc.field.one
    for i, ci in enumerate(conj, start=1):
        m = (ci + N - 1 - k) // N
        if m == 0:
            continue
        arg = sqrt_u * nc.sqrt_q ** (i - 1) * nc.sqrt_kappa ** k
        out = out * bracket_base(arg, m, sqrt_base)
    return out


def nek_matter_anti(lam, ell, sqrt_u, nc, N):
    """Finite-product form of the factor with empty first partition:
    product over columns i of [u q^{-i} kappa^{ell - N m} ; kappa^N]_m
    with m = floor((conj_i + ell)/N)."""
    ell = ell % N
    sqrt_base = nc.sqrt_kappa ** N
    conj = conjugate(lam)
    out = nc.field.one
    for i, ci in enumerate(conj, start=1):
        m = (ci + ell) // N
        if m == 0:
            continue
        arg = sqrt_u * nc.sqrt_q ** -i * nc.sqrt_kappa ** (ell - N * m)
        out = out * bracket_base(arg, m, sqrt_base)
    return out


def infprod_double_ratio(k, N, lam, mu, sqrt_u, nc):
    """The double ratio  N(lam,mu) N(0,0) / (N(lam,0) N(0,mu))  evaluated
    through the infinite-product form of the factor, reduced to finite
    brackets: all strip contributions cancel between the four diagrams and
    only the core box  i <= width(mu), j <= width(lam)  survives, each
    cell contributing

        prod over the three floor offsets of
            bracket-at-(u q^{j-i-1} kappa^{k-N}) / bracket-at-(u q^{j-i}),

    with base t = kappa^{-N} and offsets F(mu,lam), -F(mu,0), -F(0,lam).
    """
    lamc = conjugate(lam)
    muc = conjugate(mu)
    wl = len(lamc)
    wm = len(muc)
    sqrt_t = nc.sqrt_kappa ** -N

    def cell(i, j, F):
        if F == 0:
            return nc.field.one
        sy_hi = sqrt_u * nc.sqrt_q ** (j - i) * nc.sqrt_kappa ** (k % N - N)
        sy_lo = sy_hi / nc.sqrt_q
        return bracket_base(sy_lo, F, sqrt_t) / bracket_base(sy_hi, F, sqrt_t)

    out = nc.field.one
    for i in range(1, wm + 1):
        for j in range(1, wl + 1):
            mc = muc[i - 1]
            lc = lamc[j - 1]
            f_full = (mc + k - lc) // N
            f_lam = (k - lc) // N
            f_mu = (mc + k) // N
            out = out * cell(i, j, f_full) / (cell(i, j, f_lam) * cell(i, j, f_mu))
    return out


def instanton_sum(N, cap, weight, field):
    """The sum of ``weight(tup)`` times x^{colored counts of tup} over the
    N-tuples of partitions of total size at most ``cap``, as a
    MultiSeries over ``field``: the per-tuple oracle of
    ``nekrasov.skeleton_sum``."""
    out = MultiSeries.zero(N, cap, field)
    for tup in enumerate_tuples(N, cap):
        add_term(out.terms, colored_counts(tup, N), weight(tup))
    return out


# -- closed forms of the connection bases (rmatrix) ----------------------------


def b2_specialized(ivec, jvec, lam, M, ctx):
    """Closed form of the second basis at the reference points:
    N_i(lam) Phi_q(ibar | jbar; q^{-M}, lam^{-1})."""
    return norm_factor(ivec, lam, M, ctx) \
        * phi_kernel(ivec[:-1], jvec[:-1], ctx.q ** -M, 1 / lam, ctx)


def b1_specialized(ivec, jvec, lam, mus, M, ctx):
    """Closed form of the first basis at the reference points (valid for
    arbitrary mass scalars mu_a through the confluent kernel)."""
    N = len(ivec)
    out = ctx.field.one
    # q^{<c, i>} = prod_a mus[a]^{-(i_{a+1}+...+i_N)}
    suf = sum(ivec)
    for a in range(N):
        suf -= ivec[a]
        out = out * mus[a] ** -suf
    lam_masses = lam
    for m in mus:
        lam_masses = lam_masses * m
    out = out * poch(lam_masses, ctx.q, M) / ctx.qq(M)
    for i in ivec:
        out = out * ctx.qq(i)
    return out * phi_kernel_masslike(ivec[:-1], jvec[:-1], mus[:-1],
                                     lam_masses, M, ctx)


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
        pref = pref * sqrt_mus[a] ** -suf
    acc = 0
    for b in range(N):
        if b:
            acc += ivec[b - 1]
            pref = pref * sqrt_mus[b] ** acc

    mu_full = lam
    for m in mus:
        mu_full = mu_full * m

    kernel_sum = f.zero
    for kv in exponent_vectors((0,) * (N - 1), jbar):
        t = phi_kernel(kv, jbar, 1 / lam, ctx.q ** -M, ctx)
        if not t:
            continue
        t = t * phi_kernel_masslike(ibar, kv, mus[:-1], mu_full, M, ctx)
        kernel_sum = kernel_sum + t

    # scalar prefactor carrying the half-powers of the masses
    cpre = f.of(-1) ** M * ctx.q ** (M * (1 - M) // 2)
    for a in range(N):
        cpre = cpre * sqrt_mus[a] ** (-M + 2 * ivec[a] - jvec[a])
    acc = 0
    for b in range(N):
        if b:
            acc += jvec[b - 1] - ivec[b - 1]
            cpre = cpre * sqrt_mus[b] ** -acc

    out = cpre * poch(mu_full, ctx.q, M) \
        / poch(lam * ctx.q ** (-M + 1), ctx.q, M)
    for i, j in zip(ivec, jvec):
        out = out * ctx.qq(i) / ctx.qq(j)
    return out * pref * kernel_sum


# -- symmetrized cocycles (jackson) --------------------------------------------


def cocycle_eval_per_permutation(spec, rvec, zs):
    """The symmetrized cocycle function at a tuple of distinct points, one
    permutation at a time: every factor f_l(z) and every q-Vandermonde is
    computed anew for each permutation, with no table shared across
    compositions (``jackson.cocycle_values`` builds the tables once)."""
    f = spec.field
    M = spec.M
    if len(zs) != M:
        raise ValueError("need %d points" % M)
    if sum(rvec) != M or len(rvec) != spec.N:
        raise ValueError("bad block sizes")
    for i in range(M):
        for j in range(i + 1, M):
            if zs[i] == zs[j]:
                raise ValueError("evaluation points must be distinct")
    qinv = 1 / spec.q
    blocks, norm = _blocks_and_norm(spec, rvec)
    total = f.zero
    for perm in permutations(range(M)):
        sgn = _perm_sign(perm)
        term = f.one
        pz = [zs[p] for p in perm]
        for slot, ell in enumerate(blocks):
            term = term * cocycle_factor(spec, ell, pz[slot])
        term = term * _vandermonde(pz, f, qinv)
        total = total + (term if sgn > 0 else -term)
    return total / (_vandermonde(zs, f) * norm)


# -- first-order expansions of q-ratios (fourd) --------------------------------


def ratio_limit_formula(alpha, order):
    """Coefficients of (q^alpha x; q)_inf / (x; q)_inf as jets through
    x^order: term k is C(alpha+k-1, k)(1 + h k (alpha - 1)/2), matching
    (1-x)^{-alpha} (1 + (h/2) alpha (alpha-1) x/(1-x)) term by term."""
    out = []
    for k in range(order + 1):
        c = comb_signed(alpha + k - 1, k)
        out.append(Jet(c, Fraction(c * k * (alpha - 1), 2)))
    return out


def ratio_limit_direct(alpha, order):
    """The same coefficients from sum_k (q^alpha;q)_k/(q;q)_k x^k with
    jet arithmetic (alpha a nonnegative integer).  Every factor 1 - q^c
    is divisible by h, so each is carried as (1 - q^c)/(-h) = c + C(c,2) h
    before dividing (the h powers of numerator and denominator match)."""
    def reduced(c):
        return Jet(c, comb(c, 2))

    out = []
    for k in range(order + 1):
        if alpha == 0:
            out.append(Jet(1) if k == 0 else Jet(0))
            continue
        val = Jet(1)
        for l in range(k):
            val = val * reduced(alpha + l) / reduced(1 + l)
        out.append(val)
    return out


def signed_ratio_limit_check(alpha, beta, order):
    """(-q^alpha x;q)_inf / (-q^beta x;q)_inf = (1+x)^{beta-alpha} {1 -
    (h/2)(alpha-beta)(alpha+beta-1) x/(1+x)}, checked coefficientwise
    through x^order for integers alpha >= beta >= 0.  (The h-term sign and
    the 1+x denominator follow from the b = 1 case of the plain ratio.)"""
    # direct: product form of the ratio = (q^beta (-x); q)_{alpha-beta}^{-1}
    # only when alpha >= beta; expand 1/(y;q)_n as a series in x
    n = alpha - beta
    direct = [Jet(1)] + [Jet(0)] * order
    # 1/prod_{l<n}(1 + q^{beta+l} x): multiply the inverse factors
    for l in range(n):
        geom = [(-Jet(1) * JET_Q ** (beta + l)) ** k for k in range(order + 1)]
        new = [Jet(0)] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                new[i + j] = new[i + j] + direct[i] * geom[j]
        direct = new
    formula = []
    for k in range(order + 1):
        formula.append(Jet(comb_signed(beta - alpha, k)))
    # first-order part: -(h/2)(alpha-beta)(alpha+beta-1) x/(1+x)
    pref = -Fraction((alpha - beta) * (alpha + beta - 1), 2)
    for k in range(1, order + 1):
        corr = Fraction(0)
        for j in range(1, k + 1):
            corr += comb_signed(beta - alpha, k - j) * (-1) ** (j - 1)
        formula[k] = formula[k] + Jet(0, pref * corr)
    return direct == formula


def comb_signed(n, k):
    """Binomial coefficient C(n, k) for any integer n, k >= 0."""
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= (n - j)
    return Fraction(num, factorial(k))


def binomial_square_identity(a):
    """C(a,2) + C(-a,2) = a^2 for integer a (used when combining the two
    first-order corrections)."""
    return comb_signed(a, 2) + comb_signed(-a, 2) == a * a
