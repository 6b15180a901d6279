"""Truncated multivariate series and the linear operators acting on them.

A MultiSeries is a sparse map from exponent vectors (tuples of length N,
entries >= 0, total degree <= cap) to scalars.  Every operator here
either preserves or raises total degree, so coefficients up to the cap
are exact: truncation never corrupts the retained range.  Each kernel
is one pass over the terms that evaluates no term past the cap:

  * ``diagonal_op``: x^theta -> fn(theta) x^theta (Borel weights, shift
    scalings, the slot scalings of the solution series);
  * ``rays_op``: a product of rays x^nu -> x^nu + sum_n a_n q^{n
    w.nu/2} x^{nu+nU}, each of which ``qexp_ray`` fills with the
    q-exponential (e_q or phi) of a word of q-commuting letters x_i
    q^{(1/2) w.theta} (the chains of H) or of a monomial (the Lambda and
    center blocks, ``eq_of_monomial``).  It runs on a dense vector over
    the ``exponent_index`` of (N, cap), the exponents of degree <= cap
    in ``all_monomials`` order, holding integer numerators over one
    common denominator (``Field.split``: denominator 1 in GF(p)), one
    pass per ray through a table of successor positions;
  * the series product pairs x^nu only with terms of degree <= cap - |nu|;
  * ``sparse_op``: x^nu -> sum c x^{nu+v} over the pairs (v, c) of
    expand(nu, cap - |nu|), for the normal-ordered operators, which
    evaluate a coefficient at the source exponent nu.

The Neumann inverse and exp are each one ``power_sum_op``, a sum of
explicit operator powers.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache, reduce
from math import factorial
from operator import add, mul

from .scalars import PRIME


class MultiSeries:
    __slots__ = ("N", "cap", "field", "terms")

    def __init__(self, N, cap, field, terms=None):
        self.N = N
        self.cap = cap
        self.field = field
        self.terms = {}
        if terms:
            for k, v in terms.items():
                if v and sum(k) <= cap:
                    self.terms[k] = v

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(N, cap, field):
        return MultiSeries(N, cap, field)

    @staticmethod
    def one(N, cap, field):
        return MultiSeries(N, cap, field, {(0,) * N: field.one})

    @staticmethod
    def monomial(N, cap, field, exponent, coeff=None):
        c = coeff if coeff is not None else field.one
        return MultiSeries(N, cap, field, {tuple(exponent): c})

    # -- basics ------------------------------------------------------------

    def copy(self):
        s = MultiSeries(self.N, self.cap, self.field)
        s.terms = dict(self.terms)
        return s

    def get(self, exponent):
        return self.terms.get(tuple(exponent), self.field.zero)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, MultiSeries) and self.N == other.N
                and self.terms == other.terms)

    def __add__(self, other):
        out = self.copy()
        for k, v in other.terms.items():
            add_term(out.terms, k, v)
        return out

    def __sub__(self, other):
        out = self.copy()
        for k, v in other.terms.items():
            add_term(out.terms, k, -v)
        return out

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        out = MultiSeries(self.N, self.cap, self.field)
        if c == 1:
            out.terms = dict(self.terms)
        elif c:
            out.terms = {k: c * v for k, v in self.terms.items()}
        return out

    def __mul__(self, other):
        """Product truncated at the cap.  The right operand's terms are
        sorted by total degree, so each left term meets only the terms
        within its budget cap - |ka|: no pair past the cap is formed."""
        out = MultiSeries(self.N, self.cap, self.field)
        terms = out.terms
        cap = self.cap
        right = sorted(other.terms.items(), key=lambda t: sum(t[0]))
        degrees = [sum(kb) for kb, _ in right]
        for ka, va in self.terms.items():
            for kb, vb in right[:bisect_right(degrees, cap - sum(ka))]:
                add_term(terms, tuple(map(add, ka, kb)), va * vb)
        return out

    def degrees(self):
        """Map total degree -> list of (exponent, coeff)."""
        out = {}
        for k, v in self.terms.items():
            out.setdefault(sum(k), []).append((k, v))
        return out

    def first_offender(self):
        """The exponent of lowest total degree with a nonzero coefficient,
        lexicographically first among those; None for the zero series."""
        return min(self.terms, key=lambda k: (sum(k), k), default=None)

    def __repr__(self):
        items = ", ".join("%s: %s" % (k, v) for k, v in sorted(self.terms.items())[:6])
        more = "" if len(self.terms) <= 6 else ", ..."
        return "MultiSeries({%s%s})" % (items, more)


def add_term(d, k, v):
    """d[k] += v in a sparse coefficient map, dropping zero entries."""
    w = d.get(k)
    if w is None:
        if v:
            d[k] = v
    else:
        w = w + v
        if w:
            d[k] = w
        else:
            del d[k]


def exp_series(s):
    """exp of a series with zero constant term, exact to the cap: the
    power sum of multiplication by s with coefficients 1/k!, applied to 1."""
    if s.get((0,) * s.N):
        raise ValueError("exp needs zero constant term")
    coeffs = [s.field.one / factorial(k) for k in range(1, s.cap + 1)]
    return power_sum_op(mul_op(s), coeffs)(MultiSeries.one(s.N, s.cap, s.field))


# -- q-function series --------------------------------------------------


def eq_coeff(ctx, z, n):
    """Coefficient of x^n in e_q(z x): z^n / (q;q)_n."""
    return z ** n * ctx.inv_qq(n)


def phi_coeff(ctx, z, n):
    """Coefficient of x^n in phi(z x) = 1/e_q(z x):
    q^{n(n-1)/2} (-z)^n / (q;q)_n."""
    return ctx.q ** (n * (n - 1) // 2) * (-z) ** n * ctx.inv_qq(n)


def eq_of_monomial(ctx, N, cap, prefactor, xvec):
    """e_q(prefactor * x^xvec) = sum_n (pref)^n x^{n.vec} / (q;q)_n."""
    return rays_op([qexp_ray(eq_coeff, ctx, prefactor, xvec, (0,) * N, cap)],
                   ctx)(MultiSeries.one(N, cap, ctx.field))


def phi_of_monomial(ctx, N, cap, prefactor, xvec):
    """phi(prefactor * x^xvec) = sum_n q^{n(n-1)/2} (-pref)^n x^{n.vec} / (q;q)_n.

    Inverse of ``eq_of_monomial`` with the same argument.
    """
    return rays_op([qexp_ray(phi_coeff, ctx, prefactor, xvec, (0,) * N, cap)],
                   ctx)(MultiSeries.one(N, cap, ctx.field))


# -- operators -----------------------------------------------------------


class Op:
    """Linear operator on MultiSeries; composition with @, linear combos
    with +, -, and scalar .scale().  ``grading`` records whether the
    operator preserves or raises total degree (both respect the cap)."""

    __slots__ = ("fn", "grading")

    def __init__(self, fn, grading="raises"):
        self.fn = fn
        self.grading = grading

    def __call__(self, s):
        return self.fn(s)

    def __matmul__(self, other):
        g = "preserves" if self.grading == other.grading == "preserves" else "raises"
        return Op(lambda s: self.fn(other.fn(s)), g)

    def __add__(self, other):
        return Op(lambda s: self.fn(s) + other.fn(s))

    def __sub__(self, other):
        return Op(lambda s: self.fn(s) - other.fn(s))

    def scale(self, c):
        return Op(lambda s: self.fn(s).scale(c), self.grading)


def identity_op():
    return Op(lambda s: s, "preserves")


def compose(ops):
    """Compose a list of operators, leftmost acting last (product order)."""
    return reduce(Op.__matmul__, ops, identity_op())


def mul_op(series):
    return Op(lambda s: series * s)


def sparse_op(expand):
    """The operator  x^nu -> sum c * x^{nu+xvec}  over the pairs
    (xvec, c) of expand(nu, budget), with budget = cap - |nu|.  expand
    lists only pairs with |xvec| <= budget, so nothing past the cap is
    evaluated."""
    def apply(s):
        out = MultiSeries(s.N, s.cap, s.field)
        terms = out.terms
        cap = s.cap
        for nu, c in s.terms.items():
            for xv, coeff in expand(nu, cap - sum(nu)):
                add_term(terms, tuple(map(add, nu, xv)), coeff * c)
        return out
    return Op(apply)


@lru_cache(maxsize=16)
def exponent_index(N, cap):
    """The exponents of total degree <= cap in ``all_monomials`` order,
    and the map from each to its position in a dense vector."""
    keys = all_monomials(N, cap)
    return keys, {k: i for i, k in enumerate(keys)}


@lru_cache(maxsize=512)
def _successors(N, cap, U):
    """Position i -> the position of keys[i] + U, or -1 past the cap."""
    keys, pos = exponent_index(N, cap)
    return [pos.get(tuple(map(add, k, U)), -1) for k in keys]


@lru_cache(maxsize=512)
def _ray_groups(N, cap, U, w):
    """The positions i with a successor along U, grouped by d = w.keys[i]:
    a list of (d, positions, reaches), the positions in order of
    increasing degree and reaches[k] the number of steps along U that
    positions[k] takes before the cap."""
    keys = exponent_index(N, cap)[0]
    groups = {}
    for i, k in sorted(enumerate(keys), key=lambda t: sum(t[1])):
        if reach := (cap - sum(k)) // sum(U):
            positions, reaches = groups.setdefault(sum(map(mul, w, k)),
                                                   ([], []))
            positions.append(i)
            reaches.append(reach)
    return [(d, *members) for d, members in groups.items()]


def rays_op(rays, ctx):
    """The product of the rays  x^nu -> x^nu + sum_n coeffs[n-1] q^{n
    w.nu/2} x^{nu+nU},  one per (U, w, coeffs) in ``rays``, the rightmost
    acting first; each U has positive total degree and w is an integer
    vector.  The kernel runs on integers over one common denominator:
    ``Field.split`` lowers the argument once onto the dense vector of its
    ``exponent_index``.  Each ray is one pass: for each d = w.nu of a
    nonzero source, the weights a_n q^{n d/2} of the powers n that such a
    source reaches before the cap are split over one denominator, the
    pass's scale, by which the vector and its denominator are multiplied;
    each output term is then one integer product and sum, with no gcd.
    ``Field.lift`` turns the result back once and stores no zero.  In
    GF(p) every denominator is 1 and the lift reduces the residues."""
    split, lift = ctx.field.split, ctx.field.lift
    passes = []
    for U, w, coeffs in reversed(rays):
        if sum(U) <= 0:
            raise ValueError("argument must have positive total degree")
        passes.append((tuple(U), tuple(w), coeffs))

    def apply(s):
        N, cap = s.N, s.cap
        keys, pos = exponent_index(N, cap)
        vec = [0] * len(keys)
        nums, den = split(list(s.terms.values()))
        for k, n in zip(s.terms, nums):
            vec[pos[k]] = n
        for U, w, coeffs in passes:
            succ = _successors(N, cap, U)
            work = []
            for d, positions, reaches in _ray_groups(N, cap, U, w):
                for i, top in zip(positions, reaches):
                    if vec[i]:
                        work.append((positions, [
                            a * ctx.qpow_half(n * d)
                            for n, a in enumerate(coeffs[:top], 1)]))
                        break
            nums, scale = split([c for _, cs in work for c in cs])
            out = [v * scale for v in vec]
            k = 0
            for positions, cs in work:
                weights = nums[k:k + len(cs)]
                k += len(cs)
                for i in positions:
                    if t := vec[i]:
                        j = succ[i]
                        for c in weights:
                            out[j] += c * t
                            j = succ[j]
                            if j < 0:
                                break
            vec, den = out, den * scale
        out = MultiSeries(N, cap, s.field)
        out.terms = {k: c for k, c in zip(keys, lift(vec, den)) if c}
        return out
    return Op(apply)


def qexp_ray(coeff, ctx, z, U, w, cap):
    """The ray (U, w, coeffs) of sum_n coeff(ctx, z, n) W^n for the
    operator W x^nu = q^{w.nu/2} x^{nu+U}: W^n x^nu = q^{(n w.nu + C(n,2)
    w.U)/2} x^{nu+nU}.  With w = 0 it is multiplication by the
    q-exponential series sum_n coeff(ctx, z, n) x^{nU} of a monomial."""
    wU = sum(map(mul, w, U))
    return U, w, [coeff(ctx, z, n) * ctx.qpow_half(n * (n - 1) // 2 * wU)
                  for n in range(1, cap // max(sum(U), 1) + 1)]


def diagonal_op(fn):
    """Multiply the coefficient of x^theta by fn(theta), in one map over
    the terms; a product that vanishes is dropped, never stored."""
    def apply(s):
        out = MultiSeries(s.N, s.cap, s.field)
        out.terms = {k: c for k, v in s.terms.items() if (c := fn(k) * v)}
        return out
    return Op(apply, "preserves")


def shift_scaling_op(alphas, field):
    """The substitution x_i -> alpha_i x_i: multiplies x^theta by
    prod alpha_i^theta_i, each power alpha_i^t computed once.  Rejects
    zero alphas."""
    alphas = list(alphas)
    if not all(alphas):
        raise ValueError("zero shift parameter")
    powers = [[field.one] for _ in alphas]  # powers[i][t] = alpha_i^t

    def fn(theta):
        out = field.one
        for a, p, t in zip(alphas, powers, theta):
            while len(p) <= t:
                p.append(p[-1] * a)
            out = out * p[t]
        return out
    return diagonal_op(fn)


def delta_quadratic(theta):
    """sum_i (theta_i^2 - theta_i theta_{i-1}) with cyclic index."""
    N = len(theta)
    return sum(theta[i] * theta[i] - theta[i] * theta[i - 1] for i in range(N))


def qborel_op(twice_c, ctx):
    """Diagonal q^{c * Delta(theta)} with c = twice_c/2 (so c is any
    half-integer).  Delta(theta) is an integer, hence the factor is an
    integer power of sqrt_q."""
    return diagonal_op(lambda th: ctx.qpow_half(twice_c * delta_quadratic(th)))


def normal_ordered_op(terms):
    """Normal-ordered operator from static terms [(xvec, coeff_fn)]:
    on x^nu it adds coeff_fn(nu) * x^{nu+xvec}."""
    terms = sorted(((tuple(xv), fn) for xv, fn in terms),
                   key=lambda t: sum(t[0]))
    degrees = [sum(xv) for xv, _ in terms]

    def expand(nu, budget):
        return [(xv, fn(nu))
                for xv, fn in terms[:bisect_right(degrees, budget)]]
    return sparse_op(expand)


def normal_ordered_dynamic_op(expand):
    """Normal-ordered operator whose x-support depends on the source
    exponent: expand(nu) yields (xvec, scalar) pairs."""
    return sparse_op(lambda nu, budget: [(xv, c) for xv, c in expand(nu)
                                         if sum(xv) <= budget])


def power_sum_op(word, coeffs):
    """The operator  s -> s + sum_n coeffs[n-1] W^n s  for the word W,
    summed until the first power W^n s that vanishes."""
    def apply(s):
        out = s.copy()
        power = s
        for c in coeffs:
            power = word(power)
            if power.is_zero():
                break
            out = out + power.scale(c)
        return out
    return Op(apply)


def neumann_inverse_op(op, cap):
    """Inverse of an operator of the form identity + strictly degree
    raising, via the truncated Neumann series: the power sum of
    s -> s - op(s) with unit coefficients."""
    return power_sum_op(identity_op() - op, [1] * (cap + 1))


def _qexp_product_normal_op(coeff, scales, direction, ctx, N, cap):
    """Normal-ordered product over i of the q-exponential series with
    coefficients coeff(ctx, c_i, n) in the letters
    c_i x_i q^{direction (theta_i - theta_{i-1})}, expanded over
    multi-exponents a with |a| <= cap: on x^nu the a-term is
    prod_i coeff(ctx, c_i, a_i) q^{direction a_i (nu_i - nu_{i-1})} x^{nu+a}."""
    terms = []
    for avec in all_monomials(N, cap):
        pre = ctx.field.one
        for i, ai in enumerate(avec):
            if ai:
                pre = pre * coeff(ctx, scales[i], ai)
        # the exponent sum_i 2 direction a_i (nu_i - nu_{i-1}) as w.nu
        w = [2 * direction * (avec[p] - avec[(p + 1) % N]) for p in range(N)]

        def fn(nu, pre=pre, w=w):
            return pre * ctx.qpow_half(sum(map(mul, w, nu)))
        terms.append((avec, fn))
    return normal_ordered_op(terms)


def phi_product_normal_op(scales, direction, ctx, N, cap):
    """Normal-ordered  :prod_i phi(c_i x_i q^{direction (theta_i - theta_{i-1})}):.

    Expanded over multi-exponents a with |a| <= cap; on x^nu the a-term
    contributes prod_i q^{a_i(a_i-1)/2} (-c_i)^{a_i} q^{direction a_i
    (nu_i - nu_{i-1})} / (q;q)_{a_i}  times x^{nu+a}.
    """
    return _qexp_product_normal_op(phi_coeff, scales, direction, ctx, N, cap)


def eq_product_normal_op(scales, direction, ctx, N, cap):
    """Normal-ordered  :prod_i e_q(c_i x_i q^{direction (theta_i - theta_{i-1})}):,
    the coefficient-wise inverse expansion of ``phi_product_normal_op``."""
    return _qexp_product_normal_op(eq_coeff, scales, direction, ctx, N, cap)


# -- exponent vectors ---------------------------------------------------------


def exponent_vectors(lo, hi, total=None):
    """All integer vectors v with lo <= v <= hi componentwise and, when
    ``total`` is given, sum(v) <= total; in lexicographic order."""
    if total is None:
        total = sum(hi)
    rest = sum(lo)
    out = [((), 0)]
    for a, b in zip(lo, hi):
        rest -= a
        out = [(t + (e,), s + e) for t, s in out
               for e in range(a, min(b, total - s - rest) + 1)]
    return [t for t, _ in out]


def all_monomials(N, degree):
    """All exponent vectors with total degree <= degree, lexicographic."""
    return exponent_vectors((0,) * N, (degree,) * N, degree)


def probe_series(N, degree, cap, field):
    """The sum of every basis monomial of degree <= degree, each with a
    weight in [1, 2^61 - 1) drawn by a ``random.Random`` seeded on
    (N, degree, cap), so that reports are reproducible."""
    rng = random.Random("probe %d %d %d" % (N, degree, cap))
    return MultiSeries(N, cap, field,
                       {exp: field.of(rng.randrange(1, PRIME))
                        for exp in all_monomials(N, degree)})


def first_disagreements(ref, ops, N, degree, cap, field):
    """For each op in ops, the first basis monomial (degree <= degree)
    where it differs from ref, or None if the two agree up to the cap.

    Freivalds' check: ref is applied once per check, and each op once, to
    ``probe_series``.  If ref - op is nonzero on some basis monomial, some
    coefficient of its image of the probe is a nonzero linear form in the
    weights, and weights drawn uniformly from a set of 2^61 - 2 values
    zero it with probability at most 1/(2^61 - 2) (Schwartz-Zippel at
    degree 1).  The bound holds in GF(p) and over Q alike; in GF(p) it
    comes on top of the (total degree)/p bound of checking an identity mod
    p at all.  Only for an op whose image differs are the monomials
    applied one at a time, so the offender reported is the first in
    lexicographic order."""
    probe = probe_series(N, degree, cap, field)
    image = ref(probe)
    return [None if op(probe) == image else next(
        (exp for exp in all_monomials(N, degree)
         if ref(m := MultiSeries.monomial(N, cap, field, exp)) != op(m)),
        None) for op in ops]


def ops_agree_on_monomials(op_a, op_b, N, degree, cap, field):
    """First basis monomial (degree <= degree) where the operators differ,
    or None if they agree up to the cap: ``first_disagreements`` with one
    op, so each operator is applied once to the probe."""
    return first_disagreements(op_a, [op_b], N, degree, cap, field)[0]
