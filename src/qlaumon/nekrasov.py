"""Orbifolded Nekrasov factors and the affine Laumon partition function.

The color-k factor pairing two partitions comes in two flavours:

  * sinh type, built from brackets [u;q]_n (row-indexed double product,
    or the equivalent box-indexed product used by the Pochhammer/sinh
    comparison machinery),
  * Pochhammer type, the box-indexed product of (1 - ...) factors.

Arguments are always handed over through their square roots where the
sinh brackets need them.  The partition function is a sum over N-tuples
of partitions graded by colored box counts; its vector-multiplet
denominator is nonzero for the generic parameter sets produced by
``params.sample_params``.

One build of the partition function memoizes at three levels (see
``pair_weights``): the single factors of each pair argument u on (a, b)
(brackets [u q^{a/2} kappa^{b/2}], or 1 - u q^a kappa^b), the
vector-multiplet pair factors on their partitions, and the numerator of
each slot on (slot, partition).  The four-dimensional limit
(``fourd.laumon_4d``) builds on the same row walk, memos and tuple sum,
with the additive exponent E + a + b eps as its single factor.  The memos
and the products hold the field's raw form (``scalars.Field``): plain
residues in GF(p), and over Q (numerator, denominator) pairs of ints
multiplied apart and never cancelled, so that a tuple's one division is
its only gcd.
"""

from __future__ import annotations

from functools import cache

from .partitions import (colored_counts, conjugate, enumerate_tuples, part)
from .qfun import QContext, bracket_base, single_bracket
from .scalars import spow
from .series import (MultiSeries, add_term, compose, delta_quadratic,
                     eq_of_monomial, exp_series, mul_op, phi_product_normal_op,
                     shift_scaling_op)


class NekContext:
    """q and kappa with square roots, shared by all factor evaluations;
    ``qctx`` and ``kctx`` cache the integer powers of sqrt_q and of
    sqrt_kappa."""

    def __init__(self, sqrt_q, sqrt_kappa, field):
        self.qctx = QContext(sqrt_q, field)
        self.kctx = QContext(sqrt_kappa, field)
        self.sqrt_q = sqrt_q
        self.q = sqrt_q * sqrt_q
        self.sqrt_kappa = sqrt_kappa
        self.kappa = sqrt_kappa * sqrt_kappa
        self.field = field


class LaumonParams:
    """Spectral data of the partition function: three parameter families
    a, b, c (through square roots) and the q/kappa context."""

    def __init__(self, N, nc, sqrt_a, sqrt_b, sqrt_c):
        self.N = N
        self.nc = nc
        self.sqrt_a = list(sqrt_a)
        self.sqrt_b = list(sqrt_b)
        self.sqrt_c = list(sqrt_c)
        for s in self.sqrt_a + self.sqrt_b + self.sqrt_c:
            if not s:
                raise ValueError("zero spectral parameter")

    def inverted(self):
        return LaumonParams(self.N,
                            NekContext(1 / self.nc.sqrt_q, 1 / self.nc.sqrt_kappa,
                                       self.nc.field),
                            [1 / s for s in self.sqrt_a],
                            [1 / s for s in self.sqrt_b],
                            [1 / s for s in self.sqrt_c])


class DegenerateParameters(Exception):
    """Vanishing vector-multiplet denominator; carries the offending tuple."""

    def __init__(self, tup, pair):
        super().__init__("vanishing denominator at tuple %r, pair %r" % (tup, pair))
        self.tup = tup
        self.pair = pair


# -- factor evaluations ----------------------------------------------------


def _row_product(k, N, lam, mu, single, singles, field):
    """Product of the single factors single(a, f) of the color-k pair
    (lam, mu), row by row, in the raw form of ``field`` (``Field.raw``).

    First product: rows j of lam against the congruence j - i = k (mod N),
    n = lam_j - lam_{j+1} factors; second product: rows beta of mu
    against beta - alpha = -k-1 (mod N), n = mu_beta - mu_{beta+1}
    factors.  Rows beyond the diagram lengths contribute nothing.  The
    factors of a row pair sit at (e + t, f), t < n, for one (e, f); each
    is memoized in ``singles`` (a dict, or None for a fresh one) on its
    (a, f).  The row ranges of lam read nothing of mu and those of mu
    nothing of lam, so the number of factors is a count of lam plus a
    count of mu (``nek_bracket_count``).
    """
    if singles is None:
        singles = {}
    mul = field.mul
    out = field.raw(field.one)

    def times_row(out, e, f, n):
        for a in range(e, e + n):
            v = singles.get((a, f))
            if v is None:
                v = singles[a, f] = single(a, f)
            out = mul(out, v)
        return out

    # 1-based rows padded with zeros: lr[j] = part(lam, j) and
    # mr[i] = part(mu, i) at every index read below
    lr = (0,) + tuple(lam) + (0,) * (len(mu) + 1)
    mr = (0,) + tuple(mu) + (0,) * (len(lam) + 1)
    for j in range(1, len(lam) + 1):
        n = lr[j] - lr[j + 1]
        if n == 0:
            continue
        start = (j - k - 1) % N + 1
        for i in range(start, j + 1, N):
            out = times_row(out, -mr[i] + lr[j + 1], j - i, n)
    for beta in range(1, len(mu) + 1):
        n = mr[beta] - mr[beta + 1]
        if n == 0:
            continue
        start = (beta + k) % N + 1
        for alpha in range(start, beta + 1, N):
            out = times_row(out, lr[alpha] - mr[beta], alpha - beta - 1, n)
    return out


def nek_sinh(k, N, lam, mu, sqrt_u, nc, singles=None):
    """Color-k sinh-type factor, row-indexed double product, in the raw
    form of the field (``Field.raw``; ``Field.wrap`` gives the scalar).

    Each row pair contributes a bracket [u q^{e/2} kappa^{f/2}; q]_n,
    the product over t < n of the single brackets
    [u q^{(e+t)/2} kappa^{f/2}] (see ``_row_product``).  They are
    memoized in ``singles`` on (e + t, f): pass one dict per argument
    sqrt_u to share them across calls, so that each costs one inversion.
    """
    qpow, kpow, raw = nc.qctx.qpow_half, nc.kctx.qpow_half, nc.field.raw

    def single(a, f):
        return raw(single_bracket(sqrt_u * qpow(a) * kpow(f)))

    return _row_product(k % N, N, lam, mu, single, singles, nc.field)


def nek_poch(k, N, lam, mu, u, nc, singles=None):
    """Color-k Pochhammer-type factor, row-indexed, in the raw form of the
    field: the factors of ``nek_sinh`` with each single bracket [x]
    replaced by 1 - x.  ``singles`` memoizes them as in ``nek_sinh``;
    ``nek_poch_box`` is the box-indexed form."""
    qpow, kpow = nc.qctx.qpow_half, nc.kctx.qpow_half
    one, raw = nc.field.one, nc.field.raw

    def single(a, f):
        return raw(one - u * qpow(2 * a) * kpow(2 * f))

    return _row_product(k % N, N, lam, mu, single, singles, nc.field)


def _boxes_with_colors(lam):
    """Yield (i, j, conj_j) over boxes (row i, column j) of lam."""
    conj = conjugate(lam)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            yield i, j, conj[j - 1]


def nek_sinh_box(k, N, lam, mu, sqrt_u, nc):
    """Box-indexed form of the sinh-type factor (same value as nek_sinh)."""
    k = k % N
    out = nc.field.one
    for i, j, cj in _boxes_with_colors(mu):
        if (cj - i) % N == (-k - 1) % N:
            arg = sqrt_u * spow(nc.sqrt_q, part(lam, i) - j) \
                * spow(nc.sqrt_kappa, i - cj - 1)
            out = out * single_bracket(arg)
    for i, j, cj in _boxes_with_colors(lam):
        if (cj - i) % N == k % N:
            arg = sqrt_u * spow(nc.sqrt_q, -part(mu, i) + j - 1) \
                * spow(nc.sqrt_kappa, cj - i)
            out = out * single_bracket(arg)
    return out


def nek_poch_box(k, N, lam, mu, u, nc):
    """Color-k Pochhammer-type factor (box-indexed product of 1 - ...)."""
    k = k % N
    out = nc.field.one
    for i, j, cj in _boxes_with_colors(mu):
        if (cj - i) % N == (-k - 1) % N:
            arg = u * spow(nc.q, part(lam, i) - j) * spow(nc.kappa, i - cj - 1)
            out = out * (nc.field.one - arg)
    for i, j, cj in _boxes_with_colors(lam):
        if (cj - i) % N == k % N:
            arg = u * spow(nc.q, -part(mu, i) + j - 1) * spow(nc.kappa, cj - i)
            out = out * (nc.field.one - arg)
    return out


def nek_bracket_count(k, N, lam, mu):
    """Number of bracket factors of the color-k pair (row sums of the two
    colored residue classes: |mu|_{-k} + |lam|_{k+1})."""
    k = k % N
    total = 0
    for i, j, cj in _boxes_with_colors(mu):
        if (cj - i) % N == (-k - 1) % N:
            total += 1
    for i, j, cj in _boxes_with_colors(lam):
        if (cj - i) % N == k % N:
            total += 1
    return total


def nek_matter_fund(lam, k, sqrt_u, nc, N):
    """Finite-product form of the factor with empty second partition:
    product over columns i of [u q^{i-1} kappa^k ; kappa^N]_m with
    m = floor((conj_i + N - 1 - k)/N)."""
    k = k % N
    sqrt_base = spow(nc.sqrt_kappa, N)
    conj = conjugate(lam)
    out = nc.field.one
    for i, ci in enumerate(conj, start=1):
        m = (ci + N - 1 - k) // N
        if m == 0:
            continue
        arg = sqrt_u * spow(nc.sqrt_q, i - 1) * spow(nc.sqrt_kappa, k)
        out = out * bracket_base(arg, m, sqrt_base)
    return out


def nek_matter_anti(lam, ell, sqrt_u, nc, N):
    """Finite-product form of the factor with empty first partition:
    product over columns i of [u q^{-i} kappa^{ell - N m} ; kappa^N]_m
    with m = floor((conj_i + ell)/N)."""
    ell = ell % N
    sqrt_base = spow(nc.sqrt_kappa, N)
    conj = conjugate(lam)
    out = nc.field.one
    for i, ci in enumerate(conj, start=1):
        m = (ci + ell) // N
        if m == 0:
            continue
        arg = sqrt_u * spow(nc.sqrt_q, -i) * spow(nc.sqrt_kappa, ell - N * m)
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
    sqrt_t = spow(nc.sqrt_kappa, -N)

    def cell(i, j, F):
        if F == 0:
            return nc.field.one
        sy_hi = sqrt_u * spow(nc.sqrt_q, j - i) * spow(nc.sqrt_kappa, k % N - N)
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


# -- partition function ------------------------------------------------------


def instanton_sum(N, cap, weight, field):
    """The sum of ``weight(tup)`` times x^{colored counts of tup} over the
    N-tuples of partitions of total size at most ``cap``, as a
    MultiSeries over ``field``."""
    out = MultiSeries.zero(N, cap, field)
    for tup in enumerate_tuples(N, cap):
        add_term(out.terms, colored_counts(tup, N), weight(tup))
    return out


def laumon_partition_function(lp, cap, kind="sinh"):
    """Partition function as a MultiSeries in the N expansion slots,
    truncated at total colored degree ``cap``.  kind is "sinh" or "poch".
    Constant term is one; a vanishing vector-multiplet denominator raises
    DegenerateParameters."""
    return instanton_sum(lp.N, cap, tuple_weights(lp, kind), lp.nc.field)


def tuple_weights(lp, kind="sinh", pure=False):
    """The weight of a tuple as a function of the tuple, for one pass over
    many tuples: ``pair_weights`` with the sinh factors (``nek_sinh``) or
    the Pochhammer factors (``nek_poch``) of the arguments x/y, formed
    from the square roots of a, b and c.  Its three memo levels (single
    factors, dd pair factors, slot numerators) serve this build and the
    4d limit (``fourd.laumon_4d``) alike.  ``pure`` drops the numerator
    (vector multiplet only)."""
    N = lp.N
    nc = lp.nc

    if kind == "sinh":
        def pair(x, y, k):
            sqrt_u, singles = x / y, {}
            return lambda lam, mu: nek_sinh(k, N, lam, mu, sqrt_u, nc,
                                            singles=singles)
    else:
        def pair(x, y, k):
            r, singles = x / y, {}
            u = r * r
            return lambda lam, mu: nek_poch(k, N, lam, mu, u, nc,
                                            singles=singles)

    return pair_weights(N, nc.field, pair, lp.sqrt_a, lp.sqrt_b, lp.sqrt_c,
                        pure)


def pair_weights(N, field, pair, xa, xb, xc, pure=False):
    """The weight of a tuple as a function of the tuple, from the pair
    factory ``pair(x, y, k)``: it returns the color-k factor of the
    argument formed from x and y as a function of two partitions, in the
    raw form of ``field``.  The q-deformed series (``tuple_weights``) and
    its four-dimensional limit (``fourd.laumon_4d``) both build their
    weights here.

    A tuple's weight is the product over slot pairs (i, j), color j - i,
    of n1 n2 / dd: n1 pairs (empty, tup[j]) at (xa[i], xb[j]), n2 pairs
    (tup[i], empty) at (xb[i], xc[j]) and dd, the vector multiplet, pairs
    (tup[i], tup[j]) at (xb[i], xb[j]).  The 3 N^2 pair factors are made
    once, and three memos live as long as the returned function:

      * single factors: each factor made by ``pair`` keeps its own memo
        of the single factors its rows multiply (``_row_product``'s
        ``singles``), so each costs one evaluation per build;
      * pair factors: each dd factor is memoized on its two partitions;
      * slot numerators: the n1 factors with tup[p] = lam (all i) and the
        n2 factors with tup[p] = lam (all j) depend on slot p alone, so
        their product is memoized on (p, lam).

    The memos and the products hold the field's raw form (``Field.raw``),
    multiplied with ``Field.mul``: residues in GF(p), unreduced
    (numerator, denominator) pairs over Q.  Only the weight returned is a
    scalar: a tuple costs N slot numerators, N^2 dd factors and one
    ``wrap(num) / wrap(den)``, over Q its only gcd.  A vanishing numerator
    gives the weight zero.  A vanishing dd product raises
    DegenerateParameters with the first zero pair in row-major order; zero
    is tested on the wrapped value, since a raw pair (0, d) is truthy.
    ``pure`` drops the numerator (vector multiplet only)."""
    mul, wrap = field.mul, field.wrap
    one = field.raw(field.one)

    n1 = [[pair(xa[i], xb[j], j - i) for j in range(N)] for i in range(N)]
    n2 = [[pair(xb[i], xc[j], j - i) for j in range(N)] for i in range(N)]
    dd = [(i, j, cache(pair(xb[i], xb[j], j - i)))
          for i in range(N) for j in range(N)]

    @cache
    def slot_numerator(p, lam):
        v = one
        for i in range(N):
            v = mul(v, n1[i][p]((), lam))
        for j in range(N):
            v = mul(v, n2[p][j](lam, ()))
        return v

    def weight(tup):
        den = one
        for i, j, factor in dd:
            den = mul(den, factor(tup[i], tup[j]))
        den = wrap(den)
        if not den:
            for i, j, factor in dd:
                if not wrap(factor(tup[i], tup[j])):
                    raise DegenerateParameters(tup, (i + 1, j + 1))
        num = one
        if not pure:
            for p, lam in enumerate(tup):
                num = mul(num, slot_numerator(p, lam))
        return wrap(num) / den

    return weight


# -- parametrization of the difference-equation solution ---------------------


def nek_context(ps):
    return NekContext(ps.sqrt_q, ps.sqrt_kappa, ps.field)


def solution_spectral_params(ps):
    """Spectral data (a, b, c) of the solution series, in square roots:
    a_i = q kappa b_{i-1} / d_{i-1},  c_i = b_i / dbar_i."""
    N = ps.N
    nc = nek_context(ps)
    sqrt_a = [ps.sqrt_q * ps.sqrt_kappa * ps.sqrt_b[(i - 1) % N] / ps.sqrt_d[(i - 1) % N]
              for i in range(N)]
    sqrt_c = [ps.sqrt_b[i] / ps.sqrt_dbar[i] for i in range(N)]
    return LaumonParams(N, nc, sqrt_a, list(ps.sqrt_b), sqrt_c)


def solution_slot_scalings(ps):
    """Per-slot scaling sqrt(b_{i+1} d_i dbar_i / (q kappa b_i)) relating
    the expansion slots to the equation variables x_i."""
    N = ps.N
    return [ps.sqrt_b[(i + 1) % N] * ps.sqrt_d[i] * ps.sqrt_dbar[i]
            / (ps.sqrt_q * ps.sqrt_kappa * ps.sqrt_b[i]) for i in range(N)]


def solution_series(ps, cap):
    """The conjectural eigenfunction: partition function at the solution
    parametrization with the slot scalings folded into the variables."""
    lp = solution_spectral_params(ps)
    z = laumon_partition_function(lp, cap, "sinh")
    return shift_scaling_op(solution_slot_scalings(ps), ps.field)(z)


# -- rank-one closed forms ----------------------------------------------------


def gl1_closed_solution(ps, cap):
    """Closed form of the N=1 eigenfunction:
    exp(-sum_n (1/n) (1-d^n)(1-dbar^n) / ((1-q^n)(1-kappa^n)) x^n)."""
    assert ps.N == 1
    f = ps.field
    s = MultiSeries.zero(1, cap, f)
    for n in range(1, cap + 1):
        num = (f.one - spow(ps.d(0), n)) * (f.one - spow(ps.dbar(0), n))
        den = (f.one - spow(ps.q, n)) * (f.one - spow(ps.kappa, n))
        s.terms[(n,)] = -num / den / n
    return exp_series(s)


def gl1_closed_partition(sqrt_a, sqrt_b, sqrt_c, nc, cap):
    """Closed form of the N=1 partition function:
    exp(sum_n (1/n) [b^n/c^n][a^n/(q^n kappa^n b^n)] / ([q^n][kappa^n]) x^n)."""
    f = nc.field
    s = MultiSeries.zero(1, cap, f)
    rb = sqrt_b / sqrt_c
    ra = sqrt_a / (nc.sqrt_q * nc.sqrt_kappa * sqrt_b)
    for n in range(1, cap + 1):
        num = single_bracket(spow(rb, n)) * single_bracket(spow(ra, n))
        den = single_bracket(spow(nc.sqrt_q, n)) * single_bracket(spow(nc.sqrt_kappa, n))
        s.terms[(n,)] = num / den / n
    return exp_series(s)


# -- sinh/Pochhammer comparison and inversion symmetry ------------------------


def poch_vs_sinh_prefactor(lp, kvec, pure=False):
    """Diagonal factor relating the Pochhammer-type and sinh-type terms of
    colored degree kvec: q^{Delta(k)/2} times the product over slots p of
    (a_{p+1} b_p / (b_{p+1} c_p))^{k_p/2}, or (b_p q kappa / b_{p+1})^{k_p/2}
    in the vector-multiplet-only case."""
    N = lp.N
    nc = lp.nc
    out = nc.qctx.qpow_half(delta_quadratic(kvec))
    for p in range(N):
        if pure:
            r = lp.sqrt_b[p] * nc.sqrt_q * nc.sqrt_kappa / lp.sqrt_b[(p + 1) % N]
        else:
            r = lp.sqrt_a[(p + 1) % N] * lp.sqrt_b[p] \
                / (lp.sqrt_b[(p + 1) % N] * lp.sqrt_c[p])
        out = out * spow(r, kvec[p])
    return out


def check_poch_sinh_relation(lp, cap):
    """Tuple-by-tuple comparison of the Pochhammer-type weight against the
    prefactor times the sinh-type weight, full and vector-multiplet-only.
    Returns the list of failures (empty when the relation holds)."""
    bad = []
    full_p, full_s = tuple_weights(lp, "poch"), tuple_weights(lp, "sinh")
    pure_p = tuple_weights(lp, "poch", pure=True)
    pure_s = tuple_weights(lp, "sinh", pure=True)
    for tup in enumerate_tuples(lp.N, cap):
        kvec = colored_counts(tup, lp.N)
        if full_p(tup) != poch_vs_sinh_prefactor(lp, kvec, False) * full_s(tup):
            bad.append(("full", tup))
        if pure_p(tup) != poch_vs_sinh_prefactor(lp, kvec, True) * pure_s(tup):
            bad.append(("pure", tup))
    return bad


def _inversion_side(lp, cap):
    """One side of the inversion symmetry: the normal-ordered dressing
    applied to the Pochhammer-type partition function.

    Dressing = mult by prod_i e_q(x_i sqrt(q d_i/dbar_i)) after the
    normal-ordered prod_i phi(sqrt(q d_i dbar_i) x_i q^{theta_i -
    theta_{i-1}}) after the diagonal prod_i (d_i/(q dbar_i))^{theta_i/2},
    with d_i = q kappa b_i / a_{i+1} and dbar_i = b_i / c_i.
    """
    N = lp.N
    nc = lp.nc
    z = laumon_partition_function(lp, cap, "poch")
    sqrt_d = [nc.sqrt_q * nc.sqrt_kappa * lp.sqrt_b[i] / lp.sqrt_a[(i + 1) % N]
              for i in range(N)]
    sqrt_dbar = [lp.sqrt_b[i] / lp.sqrt_c[i] for i in range(N)]

    half_shift = shift_scaling_op(
        [sqrt_d[i] / (nc.sqrt_q * sqrt_dbar[i]) for i in range(N)], nc.field)
    dressing_no = phi_product_normal_op(
        [nc.sqrt_q * sqrt_d[i] * sqrt_dbar[i] for i in range(N)], +1, nc.qctx, N, cap)
    cplus = MultiSeries.one(N, cap, nc.field)
    for i in range(N):
        vec = tuple(1 if p == i else 0 for p in range(N))
        cplus = cplus * eq_of_monomial(nc.qctx, N, cap,
                                       nc.sqrt_q * sqrt_d[i] / sqrt_dbar[i], vec)
    op = compose([mul_op(cplus), dressing_no, half_shift])
    return op(z)


def check_inversion_symmetry(lp, cap):
    """Both sides of the inversion symmetry (parameters vs inverted
    parameters); returns the first differing exponent or None."""
    lhs = _inversion_side(lp, cap)
    rhs = _inversion_side(lp.inverted(), cap)
    diff = lhs - rhs
    if diff.is_zero():
        return None
    return min(diff.terms)
