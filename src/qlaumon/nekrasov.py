"""Orbifolded Nekrasov factors and the affine Laumon partition function.

The color-k factor pairing two partitions comes in two flavours, sinh
type, built from brackets [u;q]_n, and Pochhammer type, built from
factors 1 - x.  Each has a row-indexed form, a product over the keys
(a, f) of ``_row_keys`` that the partition function walks, and the
standard box-indexed form (``nek_sinh_box``, ``nek_poch_box``; Nekrasov,
hep-th/0206161), which shares nothing with the row walk and is its
oracle.

Arguments are always handed over through their square roots where the
sinh brackets need them.  The partition function is a sum over N-tuples
of partitions graded by colored box counts; its vector-multiplet
denominator is nonzero for the generic parameter sets produced by
``params.sample_params``.

A build of the partition function comes in two parts.  The skeleton
(``instanton_skeleton``), made once per (N, cap) and cached, reads no
parameter and no field: the tuples, their exponents, and plans, flat
arrays of the ids of single-factor keys (a, f), one per diagonal
vector-multiplet factor, per slot numerator and per tuple's off-diagonal
vector-multiplet factors.  The argument of a diagonal pair (x/x, its
square or x - x) is the same at every slot, so one key table serves all
N of them.  The evaluation (``skeleton_sum``) runs per parameter set:
all single factors in one list (brackets [u q^{a/2} kappa^{f/2}], or
1 - u q^a kappa^f), one product per plan (the diagonals through
``nek_sinh``), one batch inversion of the diagonals and tuple products,
and one sum per exponent.  The four-dimensional limit
(``fourd.laumon_4d``) is the same evaluation with the additive exponent
E + a + f eps as its single factor.  Values are held in the field's raw
form (``scalars.Field``): plain residues in GF(p), and over Q
(numerator, denominator) pairs of ints multiplied apart and never
cancelled, so that a tuple's weight is its only gcd.  The oracle is the
plain per-tuple product of the box-indexed factors (``tuple_weights``,
``pair_weights``), summed tuple by tuple by the test oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import lru_cache, partial
from itertools import accumulate, count
from operator import truediv

from .partitions import (colored_counts, conjugate, enumerate_tuples, part,
                         partitions_up_to)
from .qfun import QContext, single_bracket
from .series import (MultiSeries, compose, delta_quadratic, eq_of_monomial,
                     exp_series, mul_op, phi_product_normal_op,
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


def _row_keys(k, N, lam, mu):
    """The keys (a, f) of the single factors of the color-k pair
    (lam, mu), in the order of the row walk.

    First product: rows j of lam against the congruence j - i = k (mod N),
    n = lam_j - lam_{j+1} factors; second product: rows beta of mu
    against beta - alpha = -k-1 (mod N), n = mu_beta - mu_{beta+1}
    factors.  Rows beyond the diagram lengths contribute nothing.  The
    factors of a row pair sit at (e + t, f), t < n, for one (e, f).  The
    row ranges of lam read nothing of mu and those of mu nothing of lam,
    so the number of factors is a count of lam plus a count of mu (the
    test oracles count it on the box walk).
    """
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
            e = -mr[i] + lr[j + 1]
            for a in range(e, e + n):
                yield a, j - i
    for beta in range(1, len(mu) + 1):
        n = mr[beta] - mr[beta + 1]
        if n == 0:
            continue
        start = (beta + k) % N + 1
        for alpha in range(start, beta + 1, N):
            e = lr[alpha] - mr[beta]
            for a in range(e, e + n):
                yield a, alpha - beta - 1


def nek_sinh(k, N, lam, mu, sqrt_u, nc, singles=None, plan=None):
    """Color-k sinh-type factor, row-indexed double product, in the raw
    form of the field (``Field.raw``; ``Field.wrap`` gives the scalar).

    Each row pair contributes a bracket [u q^{e/2} kappa^{f/2}; q]_n,
    the product over t < n of the single brackets
    [u q^{(e+t)/2} kappa^{f/2}], one per key (e + t, f) of ``_row_keys``.

    With ``plan``, the row walk was done beforehand (``skeleton_sum``):
    the factor is the product of the raw single brackets ``singles`` at
    the ids ``plan``.
    """
    field = nc.field
    if plan is not None:
        return field.prod(map(singles.__getitem__, plan))
    qpow, kpow, raw = nc.qctx.qpow_half, nc.kctx.qpow_half, field.raw
    return field.prod(raw(single_bracket(sqrt_u * qpow(a) * kpow(f)))
                      for a, f in _row_keys(k % N, N, lam, mu))


def _boxes_with_colors(lam):
    """Yield (i, j, conj_j) over boxes (row i, column j) of lam."""
    conj = conjugate(lam)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            yield i, j, conj[j - 1]


def _box_keys(k, N, lam, mu):
    """The keys (a, f) of the single factors of the color-k pair
    (lam, mu) on the box walk, with ' the conjugate partition: the boxes
    (i, j) of mu with mu'_j - i = -k - 1 (mod N), at (lam_i - j,
    i - mu'_j - 1), then the boxes (i, j) of lam with lam'_j - i = k
    (mod N), at (j - 1 - mu_i, lam'_j - i).  A key names the same single
    factor as in ``_row_keys``, but the walk shares nothing with it."""
    for i, j, cj in _boxes_with_colors(mu):
        if (cj - i) % N == (-k - 1) % N:
            yield part(lam, i) - j, i - cj - 1
    for i, j, cj in _boxes_with_colors(lam):
        if (cj - i) % N == k % N:
            yield -part(mu, i) + j - 1, cj - i


def nek_sinh_box(k, N, lam, mu, sqrt_u, nc):
    """Box-indexed form of the sinh-type factor, a scalar (the value of
    ``nek_sinh``): the product of the single brackets
    [sqrt_u sqrt_q^a sqrt_kappa^f] over the keys of ``_box_keys``."""
    out = nc.field.one
    for a, f in _box_keys(k, N, lam, mu):
        out = out * single_bracket(
            sqrt_u * nc.sqrt_q ** a * nc.sqrt_kappa ** f)
    return out


def nek_poch_box(k, N, lam, mu, u, nc):
    """Color-k Pochhammer-type factor: the product of 1 - u q^a kappa^f
    over the keys of ``_box_keys``."""
    out = nc.field.one
    for a, f in _box_keys(k, N, lam, mu):
        out = out * (nc.field.one - u * nc.q ** a * nc.kappa ** f)
    return out


# -- partition function ------------------------------------------------------


class InstantonSkeleton:
    """The part of the instanton sum at (N, cap) that reads no parameter
    and no field, in flat ``array``s of small ints; made once per (N,
    cap) by ``instanton_skeleton`` and only ever read (``skeleton_sum``).

    The 3 N^2 pair arguments are g = r N^2 + i N + j, role r = 0 (n1:
    x_a[i], x_b[j]), 1 (n2: x_b[i], x_c[j]) or 2 (dd: x_b[i], x_b[j]),
    color (j - i) mod N; the N diagonal ones share the keys of g = 2 N^2.
    Partition l is ``parts[l]`` (``partitions_up_to(cap)``).  A plan is a
    list of the key ids of the row walks (``_row_keys``) of its factors.

      * argument g: its keys (a, f) have the ids ``key_bounds[g]`` to
        ``key_bounds[g + 1] - 1``, and sit there in ``key_a``, ``key_f``;
      * diagonal l: the color-0 dd factor on (lam, lam), lam = parts[l],
        at ``diag[diag_bounds[l]:diag_bounds[l + 1]]``;
      * slot numerator s = p P + l: n1 (i, p) on ((), lam) and n2 (p, i)
        on (lam, ()) for all i, at ``num[num_bounds[s]:num_bounds[s + 1]]``;
      * tuple t, in ``enumerate_tuples`` order: its slot numerators at
        ``slots[N t:N (t + 1)]``, and its off-diagonal dd factors (i, j),
        row-major, at ``off[off_bounds[t]:off_bounds[t + 1]]``;
      * exponent e, in first-occurrence order: colored counts ``exps[N e:
        N (e + 1)]``, tuples ``by_exp[exp_bounds[e]:exp_bounds[e + 1]]``.
    """

    __slots__ = ("N", "parts", "key_a", "key_f", "key_bounds", "diag",
                 "diag_bounds", "num", "num_bounds", "slots", "off",
                 "off_bounds", "exps", "by_exp", "exp_bounds")

    def keys_of(self, g):
        """The keys of argument g: the arrays of their a and of their f."""
        lo, hi = self.key_bounds[g], self.key_bounds[g + 1]
        return self.key_a[lo:hi], self.key_f[lo:hi]


@lru_cache(maxsize=16)
def instanton_skeleton(N, cap):
    """The ``InstantonSkeleton`` at (N, cap).  Keys get ids in the order
    first read, renumbered by argument at the end; an off-diagonal dd
    factor is walked once, and a later tuple with it copies its plan."""
    sk = InstantonSkeleton()
    sk.N = N
    sk.parts = parts = tuple(partitions_up_to(cap))
    P, M = len(parts), N * N
    pid = {lam: l for l, lam in enumerate(parts)}
    new_id = count().__next__
    ids = [defaultdict(new_id) for _ in range(3 * M)]
    # a key (a, f) of two partitions of at most cap boxes has -cap <= a,
    # f < cap, so 2 bytes hold every id while 12 N^2 cap^2 <= 2^16
    code = "H" if 12 * M * cap * cap <= 1 << 16 else "I"

    def walk(plan, g, l, m):
        plan.extend(map(ids[g].__getitem__, _row_keys(
            (g % N - g // N) % N, N, parts[l], parts[m])))
        return len(plan)

    diag, num, off = array(code), array(code), array(code)
    diag_bounds = [0] + [walk(diag, 2 * M, l, l) for l in range(P)]
    num_bounds = [0]
    for p in range(N):
        for l in range(P):
            for i in range(N):
                walk(num, i * N + p, 0, l)
                walk(num, M + p * N + i, l, 0)
            num_bounds.append(len(num))
    pairs = [(i, j, 2 * M + i * N + j)
             for i in range(N) for j in range(N) if i != j]
    # a dd factor recurs in other tuples only through the slots outside
    # its pair, so at N = 2 none is kept
    keep, seen, by_exp = N > 2, {}, {}
    slots, off_bounds = array("i"), array("I", [0])
    for t, tup in enumerate(enumerate_tuples(N, cap)):
        ls = [pid[lam] for lam in tup]
        slots.extend([p * P + l for p, l in enumerate(ls)])
        for i, j, g in pairs:
            key = (g * P + ls[i]) * P + ls[j]
            span = seen.get(key)
            if span is None:
                span = len(off), walk(off, g, ls[i], ls[j])
                if keep:
                    seen[key] = span
            else:
                off.extend(off[span[0]:span[1]])
        off_bounds.append(len(off))
        by_exp.setdefault(colored_counts(tup, N), []).append(t)
    sk.exps = _packed([c for exp in by_exp for c in exp])
    sk.by_exp = _packed([t for ts in by_exp.values() for t in ts])
    sk.exp_bounds = _packed(list(accumulate(map(len, by_exp.values()),
                                            initial=0)))
    renumbered = [0] * sum(map(len, ids))
    for new, old in enumerate(old for at in ids for old in at.values()):
        renumbered[old] = new
    sk.diag, sk.num, sk.off = (array(code, map(renumbered.__getitem__, plan))
                               for plan in (diag, num, off))
    sk.diag_bounds, sk.num_bounds, sk.off_bounds, sk.slots = map(
        _packed, (diag_bounds, num_bounds, off_bounds, slots))
    sk.key_a = _packed([a for at in ids for a, _ in at])
    sk.key_f = _packed([f for at in ids for _, f in at])
    sk.key_bounds = _packed(list(accumulate(map(len, ids), initial=0)))
    return sk


def _packed(values):
    """The sequence of ints ``values`` in an array of the narrowest type
    (1, 2 or 4 bytes, unsigned unless a value is negative) that holds
    them all."""
    codes = "BHI" if min(values, default=0) >= 0 else "bhi"
    for code in codes[:-1]:
        try:
            return array(code, values)
        except OverflowError:
            pass
    return array(codes[-1], values)


def skeleton_sum(N, cap, field, argument, singles, xa, xb, xc, factor=None):
    """The instanton sum at (N, cap) over ``field``, evaluated on its
    skeleton (``instanton_skeleton``) for one parameter set.

    ``argument(x, y)`` forms the argument of a pair, one value on all
    diagonal pairs (x, x) (else ValueError); ``singles(u, keys)`` returns
    the raw single factors of the argument u at the keys (a, f), as a
    list; ``factor(0, N, lam, lam, u, singles=values, plan=plan)``, if
    given, makes a diagonal from the list of all single factors and its
    plan (``nek_sinh``'s form).  Each product is one ``Field.prod`` over a
    plan, and one batch inverts the diagonals and the tuple products.  A
    slot weight is its numerator over its diagonal, a tuple weight the
    product of its slot weights over its off-diagonal product: the product
    over slot pairs (i, j) of n1 n2 / dd of ``pair_weights``, the oracle,
    with whose tuple and pair a vanishing dd product raises
    DegenerateParameters (``_degenerate``)."""
    sk = instanton_skeleton(N, cap)
    M, P, prod = N * N, len(sk.parts), field.prod
    args = [argument(x, y) for xs, ys in ((xa, xb), (xb, xc), (xb, xb))
            for x in xs for y in ys]
    u = args[2 * M]
    if any(args[2 * M + i * (N + 1)] != u for i in range(1, N)):
        raise ValueError("the diagonal pairs have different arguments")
    values = []
    for g, x in enumerate(args):
        values += singles(x, zip(*sk.keys_of(g)))
    get = values.__getitem__

    def products(plan, bounds):
        return [prod(map(get, plan[bounds[r]:bounds[r + 1]]))
                for r in range(len(bounds) - 1)]

    d, db = sk.diag, sk.diag_bounds
    diag = products(d, db) if factor is None else [
        factor(0, N, lam, lam, u, singles=values, plan=d[db[l]:db[l + 1]])
        for l, lam in enumerate(sk.parts)]
    off = products(sk.off, sk.off_bounds)
    try:
        inv = field.inverses(diag + off)
    except ZeroDivisionError:
        _degenerate(sk, field, values, diag, off)
        raise
    mul, slots = field.mul, sk.slots
    slot = [mul(v, inv[s % P])
            for s, v in enumerate(products(sk.num, sk.num_bounds))]
    sget = slot.__getitem__
    weights = [mul(prod(map(sget, slots[N * t:N * (t + 1)])), v)
               for t, v in enumerate(inv[P:])]
    out = MultiSeries.zero(N, cap, field)
    total, by_exp, eb, exps = field.total, sk.by_exp, sk.exp_bounds, sk.exps
    for e in range(len(eb) - 1):
        v = total(map(weights.__getitem__, by_exp[eb[e]:eb[e + 1]]))
        if v:
            out.terms[tuple(exps[N * e:N * (e + 1)])] = v
    return out


def _degenerate(sk, field, values, diag, off):
    """Raise DegenerateParameters at the first tuple whose dd product
    vanishes, with its first zero pair in row-major order: a diagonal pair
    reads its diagonal, an off-diagonal one is walked again
    (``_row_keys``) on its argument's keys."""
    N, P, wrap = sk.N, len(sk.parts), field.wrap
    for t, v in enumerate(off):
        ls = [s % P for s in sk.slots[N * t:N * (t + 1)]]
        if wrap(v) and all(wrap(diag[l]) for l in ls):
            continue
        for c in range(N * N):
            i, j = divmod(c, N)
            g = 2 * N * N + c
            ids = dict(zip(zip(*sk.keys_of(g)), count(sk.key_bounds[g])))
            v = diag[ls[i]] if i == j else field.prod(
                values[ids[key]] for key in _row_keys(
                    (j - i) % N, N, sk.parts[ls[i]], sk.parts[ls[j]]))
            if not wrap(v):
                raise DegenerateParameters(
                    tuple(sk.parts[l] for l in ls), (i + 1, j + 1))


def laumon_partition_function(lp, cap, kind="sinh"):
    """Partition function as a MultiSeries in the N expansion slots,
    truncated at total colored degree ``cap``.  kind is "sinh" or "poch".
    Constant term is one; a vanishing vector-multiplet denominator raises
    DegenerateParameters.

    It is ``skeleton_sum`` on the arguments of ``tuple_weights``, with the
    row-form factors in place of its box-form ones: the sinh single
    brackets [x] = 1/x - x of x = sqrt_u q^{a/2} kappa^{f/2}, made from
    the raw powers and all x of an argument inverted at once, each
    diagonal made by ``nek_sinh`` from its plan; or the Pochhammer single
    factors 1 - u q^a kappa^f."""
    N, nc = lp.N, lp.nc
    field = nc.field
    qpow, kpow, raw = nc.qctx.qpow_half, nc.kctx.qpow_half, field.raw
    if kind == "sinh":
        sub, mul, inverses = field.sub, field.mul, field.inverses

        def singles(sqrt_u, keys):
            u = raw(sqrt_u)
            xs = [mul(mul(u, raw(qpow(a))), raw(kpow(f))) for a, f in keys]
            return list(map(sub, inverses(xs), xs))

        # the module global, looked up per build: a wrapper installed on
        # nek_sinh sees every diagonal factor
        return skeleton_sum(N, cap, field, truediv, singles, lp.sqrt_a,
                            lp.sqrt_b, lp.sqrt_c, partial(nek_sinh, nc=nc))
    one = field.one

    def singles(u, keys):
        return [raw(one - u * qpow(2 * a) * kpow(2 * f)) for a, f in keys]

    return skeleton_sum(N, cap, field, _squared_ratio, singles, lp.sqrt_a,
                        lp.sqrt_b, lp.sqrt_c)


def _squared_ratio(x, y):
    r = x / y
    return r * r


def tuple_weights(lp, kind="sinh", pure=False):
    """The weight of a tuple as a function of the tuple: ``pair_weights``
    with the box-indexed sinh factors (``nek_sinh_box``) or Pochhammer
    factors (``nek_poch_box``) of the arguments x/y, formed from the
    square roots of a, b and c.  It shares no row walk with
    ``laumon_partition_function`` and is its oracle, and it serves the
    comparison of single tuples (``check_poch_sinh_relation``).  ``pure``
    drops the numerator (vector multiplet only)."""
    N, nc = lp.N, lp.nc
    box, argument = ((nek_sinh_box, truediv) if kind == "sinh"
                     else (nek_poch_box, _squared_ratio))

    def pair(x, y, k):
        u = argument(x, y)
        return lambda lam, mu: box(k, N, lam, mu, u, nc)

    return pair_weights(N, nc.field, pair, lp.sqrt_a, lp.sqrt_b, lp.sqrt_c,
                        pure)


def pair_weights(N, field, pair, xa, xb, xc, pure=False):
    """The weight of a tuple as a function of the tuple, from the pair
    factory ``pair(x, y, k)``: it returns the color-k factor of the
    argument formed from x and y as a function of two partitions, a
    scalar of ``field``.  Summed tuple by tuple (``tests/oracles.py``)
    it is the oracle of ``skeleton_sum``.

    A tuple's weight is the product over slot pairs (i, j), color j - i,
    of n1 n2 / dd: n1 pairs (empty, tup[j]) at (xa[i], xb[j]), n2 pairs
    (tup[i], empty) at (xb[i], xc[j]) and dd, the vector multiplet, pairs
    (tup[i], tup[j]) at (xb[i], xb[j]).  Every factor is evaluated afresh
    for each tuple.  A vanishing numerator gives the weight zero; a
    vanishing dd factor raises DegenerateParameters with the first zero
    pair in row-major order.  ``pure`` drops the numerator (vector
    multiplet only)."""
    def factors(xs, ys):
        return [[pair(xs[i], ys[j], j - i) for j in range(N)]
                for i in range(N)]

    n1, n2, dd = factors(xa, xb), factors(xb, xc), factors(xb, xb)

    def weight(tup):
        den = num = field.one
        for i in range(N):
            for j in range(N):
                v = dd[i][j](tup[i], tup[j])
                if not v:
                    raise DegenerateParameters(tup, (i + 1, j + 1))
                den = den * v
                if not pure:
                    num = num * n1[i][j]((), tup[j]) * n2[i][j](tup[i], ())
        return num / den

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
        num = (f.one - ps.d(0) ** n) * (f.one - ps.dbar(0) ** n)
        den = (f.one - ps.q ** n) * (f.one - ps.kappa ** n)
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
        num = single_bracket(rb ** n) * single_bracket(ra ** n)
        den = single_bracket(nc.sqrt_q ** n) * single_bracket(nc.sqrt_kappa ** n)
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
        out = out * r ** kvec[p]
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
    parameters); returns the first differing exponent
    (``MultiSeries.first_offender``) or None."""
    return (_inversion_side(lp, cap)
            - _inversion_side(lp.inverted(), cap)).first_offender()
