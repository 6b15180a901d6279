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
(``instanton_skeleton``) reads no parameter and no field: the tuples and
their exponents, the ids of each tuple's N^2 vector-multiplet (dd)
factors and N slot numerators, and each distinct factor's argument,
partitions and row plan, the indices of the single factors (a, f) its
row walk multiplies.  It is made once per (N, cap) and cached, in flat
arrays of small ints.  The evaluation (``skeleton_sum``) runs per
parameter set: each argument's single factors in one pass (brackets
[u q^{a/2} kappa^{f/2}], or 1 - u q^a kappa^f, with all the inverses of
an argument's brackets taken at once), each distinct factor once as a
product over its plan (sinh factors through ``nek_sinh``), each slot
numerator and each tuple's dd product once, one batch inversion of the
tuple denominators, and one sum per exponent.  The four-dimensional limit
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
from functools import lru_cache, partial
from itertools import accumulate
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

    With ``plan``, the row walk was done beforehand
    (``instanton_skeleton``): ``singles`` is then the list of the raw
    single brackets of the argument sqrt_u and ``plan`` the indices into
    it of this factor's brackets, and the factor is their product.
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
    and no field; built by ``instanton_skeleton``, read by
    ``skeleton_sum``.  Everything is a flat ``array`` of small ints.  One
    skeleton is shared through the cache by every build at (N, cap), so
    it is only ever read.

    The 3 N^2 pair arguments are numbered g = r N^2 + i N + j with role r
    = 0 (n1: x_a[i], x_b[j]), 1 (n2: x_b[i], x_c[j]) or 2 (dd: x_b[i],
    x_b[j]), color (j - i) mod N.  Partitions are numbered by their index
    in ``parts`` (``partitions_up_to(cap)``, so 0 is the empty one).

      * argument g: the single-factor keys (a, f) its factors read, in
        first-read order, at ``key_a`` and ``key_f``
        [``key_bounds[g]``:``key_bounds[g + 1]``] (``keys_of``);
      * factor f: its argument ``fac_arg[f]``, its partitions
        ``fac_lam[f]`` and ``fac_mu[f]``, and its row plan
        ``plan[plan_bounds[f]:plan_bounds[f + 1]]``, the indices into
        the keys of its argument of the single factors the row walk
        (``_row_keys``) multiplies;
      * slot numerator s = p P + l (slot p, partition l): its 2 N
        factors, n1 (i, p) on ((), lam) then n2 (p, j) on (lam, ()), are
        the factors 2 N s to 2 N (s + 1) - 1;
      * tuple t, in ``enumerate_tuples`` order: its slot numerators at
        ``slots[N t:N (t + 1)]`` and its dd factors (i, j), row-major, at
        ``dd[N^2 t:N^2 (t + 1)]``;
      * exponent e, in first-occurrence order: its N colored counts at
        ``exps[N e:N (e + 1)]`` and its tuples
        ``by_exp[exp_bounds[e]:exp_bounds[e + 1]]``.
    """

    __slots__ = ("N", "parts", "key_a", "key_f", "key_bounds", "fac_arg",
                 "fac_lam", "fac_mu", "plan", "plan_bounds", "slots", "dd",
                 "exps", "by_exp", "exp_bounds")

    def keys_of(self, g):
        """The keys of argument g: the arrays of their a and of their f."""
        lo, hi = self.key_bounds[g], self.key_bounds[g + 1]
        return self.key_a[lo:hi], self.key_f[lo:hi]

    def tuple_at(self, t):
        """Tuple t of partitions."""
        N, P = self.N, len(self.parts)
        return tuple(self.parts[s - p * P]
                     for p, s in enumerate(self.slots[N * t:N * (t + 1)]))


@lru_cache(maxsize=16)
def instanton_skeleton(N, cap):
    """The ``InstantonSkeleton`` of the instanton sum at (N, cap): tuples,
    exponents, factor ids and row plans, made once per (N, cap) by one
    pass of the row walk over each distinct factor."""
    sk = InstantonSkeleton()
    sk.N = N
    sk.parts = parts = tuple(partitions_up_to(cap))
    P, M = len(parts), N * N
    pid = {lam: l for l, lam in enumerate(parts)}
    keys = [{} for _ in range(3 * M)]
    ids = {}
    fac_arg, fac_lam, fac_mu = array("i"), array("i"), array("i")
    plan, bounds = array("i"), array("i", [0])

    def factor(g, l, m):
        f = ids.get((g * P + l) * P + m)
        if f is None:
            f = ids[(g * P + l) * P + m] = len(fac_arg)
            fac_arg.append(g)
            fac_lam.append(l)
            fac_mu.append(m)
            at = keys[g]
            plan.extend(at.setdefault(key, len(at)) for key in _row_keys(
                (g % N - g // N) % N, N, parts[l], parts[m]))
            bounds.append(len(plan))
        return f

    for p in range(N):
        for l in range(P):
            for i in range(N):
                factor(i * N + p, 0, l)
            for j in range(N):
                factor(M + p * N + j, l, 0)

    exp_ids = {}
    slots, dd, texp = array("i"), array("i"), array("i")
    for tup in enumerate_tuples(N, cap):
        ls = [pid[lam] for lam in tup]
        slots.extend([p * P + l for p, l in enumerate(ls)])
        dd.extend([factor(2 * M + i * N + j, ls[i], ls[j])
                   for i in range(N) for j in range(N)])
        texp.append(exp_ids.setdefault(colored_counts(tup, N), len(exp_ids)))
    counts = [0] * len(exp_ids)
    for e in texp:
        counts[e] += 1
    sk.exps = _packed([c for exp in exp_ids for c in exp])
    sk.by_exp = _packed(sorted(range(len(texp)), key=texp.__getitem__))
    sk.exp_bounds = _packed(list(accumulate(counts, initial=0)))
    sk.fac_arg, sk.fac_lam, sk.fac_mu = map(_packed, (fac_arg, fac_lam, fac_mu))
    sk.plan, sk.plan_bounds = _packed(plan), _packed(bounds)
    sk.slots, sk.dd = _packed(slots), _packed(dd)
    sk.key_a = _packed([a for at in keys for a, _ in at])
    sk.key_f = _packed([f for at in keys for _, f in at])
    sk.key_bounds = _packed(list(accumulate(map(len, keys), initial=0)))
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

    ``argument(x, y)`` forms the argument of a pair from two parameters;
    ``singles(u, keys)`` returns the raw single factors of the argument u
    at the keys (a, f), as a list; ``factor(k, N, lam, mu, u,
    singles=values, plan=plan)``, if given, returns the raw color-k factor
    of (lam, mu) at u from the list ``values`` of its argument's single
    factors and its plan (``nek_sinh``'s form), and defaults to the
    product over the plan.  The weight of a tuple is the
    product over slot pairs (i, j) of n1 n2 / dd as in ``pair_weights``,
    which stays the oracle: each distinct factor is evaluated once, each
    slot numerator and each tuple's dd product once, the tuple
    denominators are inverted together (``Field.inverses``) and the
    weights of each exponent summed with ``Field.total``.  A vanishing dd
    product raises DegenerateParameters with the first such tuple and its
    first zero pair in row-major order, as ``pair_weights`` does."""
    sk = instanton_skeleton(N, cap)
    prod, parts = field.prod, sk.parts
    args = [argument(x, y) for xs, ys in ((xa, xb), (xb, xc), (xb, xb))
            for x in xs for y in ys]
    values = [singles(u, zip(*sk.keys_of(g))) for g, u in enumerate(args)]
    plan, bounds = sk.plan, sk.plan_bounds
    if factor is None:
        fac = [prod(map(values[g].__getitem__, plan[bounds[f]:bounds[f + 1]]))
               for f, g in enumerate(sk.fac_arg)]
    else:
        fac = [factor((g % N - g // N) % N, N, parts[l], parts[m], args[g],
                      singles=values[g], plan=plan[bounds[f]:bounds[f + 1]])
               for f, (g, l, m) in enumerate(zip(sk.fac_arg, sk.fac_lam,
                                                 sk.fac_mu))]
    get, M, two = fac.__getitem__, N * N, 2 * N
    slots, dd = sk.slots, sk.dd
    numerators = [prod(fac[two * s:two * (s + 1)])
                  for s in range(N * len(parts))]
    T = len(slots) // N
    dens = [prod(map(get, dd[M * t:M * (t + 1)])) for t in range(T)]
    try:
        inv = field.inverses(dens)
    except ZeroDivisionError:
        wrap = field.wrap
        for t, den in enumerate(dens):
            if not wrap(den):
                c = next(c for c in range(M) if not wrap(fac[dd[M * t + c]]))
                raise DegenerateParameters(sk.tuple_at(t),
                                           (c // N + 1, c % N + 1))
        raise
    nget, mul = numerators.__getitem__, field.mul
    weights = [mul(prod(map(nget, slots[N * t:N * (t + 1)])), v)
               for t, v in enumerate(inv)]
    out = MultiSeries.zero(N, cap, field)
    total, by_exp, eb, exps = field.total, sk.by_exp, sk.exp_bounds, sk.exps
    for e in range(len(eb) - 1):
        v = total(map(weights.__getitem__, by_exp[eb[e]:eb[e + 1]]))
        if v:
            out.terms[tuple(exps[N * e:N * (e + 1)])] = v
    return out


def laumon_partition_function(lp, cap, kind="sinh"):
    """Partition function as a MultiSeries in the N expansion slots,
    truncated at total colored degree ``cap``.  kind is "sinh" or "poch".
    Constant term is one; a vanishing vector-multiplet denominator raises
    DegenerateParameters.

    It is ``skeleton_sum`` on the arguments of ``tuple_weights``, with the
    row-form factors in place of its box-form ones: the sinh single
    brackets [x] = 1/x - x of x = sqrt_u q^{a/2} kappa^{f/2},
    all x of an argument inverted at once, each factor made by
    ``nek_sinh`` from its plan; or the Pochhammer single factors
    1 - u q^a kappa^f."""
    N, nc = lp.N, lp.nc
    field = nc.field
    qpow, kpow, raw = nc.qctx.qpow_half, nc.kctx.qpow_half, field.raw
    if kind == "sinh":
        sub, inverses = field.sub, field.inverses

        def singles(sqrt_u, keys):
            xs = [raw(sqrt_u * qpow(a) * kpow(f)) for a, f in keys]
            return list(map(sub, inverses(xs), xs))

        # the module global, looked up per build: a wrapper installed on
        # nek_sinh sees every factor
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
