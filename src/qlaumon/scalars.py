"""Exact coefficient domains.

Three interchangeable scalar types are used:

  * ``fractions.Fraction``  -- arbitrary-precision rationals,
  * ``PrimeScalar``         -- residues mod a fixed 61-bit prime,
  * ``Jet``                 -- order-2 jets a + b*h with h^2 = 0.

The first two are the fields of the checks (``Field``, ``FIELDS``); jets
serve the first-order expansions of the four-dimensional limit.  All
three support +, -, *, /, ** with integer exponents, exact equality
and truthiness (falsy iff zero), so series and operator code never needs
to know which domain it is running in.  Integer operands are coerced.

The prime is fixed (not sampled) so that prime-field runs are
reproducible; identity checks mod p are probabilistic verification in
the usual polynomial-identity-testing sense.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import itemgetter

# Mersenne prime 2^61 - 1; comfortably above 2^60 so degree-bounded
# identity tests have negligible collision probability.
PRIME = 2305843009213693951


_new_object = object.__new__


class PrimeScalar:
    """Element of GF(PRIME).  Immutable: ``r`` is never reassigned."""

    __slots__ = ("r",)

    def __init__(self, r):
        self.r = r % PRIME

    # +, - and * between two PrimeScalars skip the coercion and the
    # constructor's modulo: both residues are already in [0, PRIME).

    def __add__(self, other):
        if other.__class__ is PrimeScalar:
            out = _new_object(PrimeScalar)
            r = self.r + other.r
            out.r = r - PRIME if r >= PRIME else r
            return out
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeScalar(self.r + other.r)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is PrimeScalar:
            out = _new_object(PrimeScalar)
            r = self.r - other.r
            out.r = r + PRIME if r < 0 else r
            return out
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeScalar(self.r - other.r)

    def __rsub__(self, other):
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeScalar(other.r - self.r)

    def __mul__(self, other):
        if other.__class__ is PrimeScalar:
            out = _new_object(PrimeScalar)
            out.r = self.r * other.r % PRIME
            return out
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeScalar(self.r * other.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        if other.r == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return PrimeScalar(self.r * pow(other.r, -1, PRIME))

    def __rtruediv__(self, other):
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, e):
        if e >= 0:
            return PrimeScalar(pow(self.r, e, PRIME))
        if self.r == 0:
            raise ZeroDivisionError("negative power of zero in GF(p)")
        return PrimeScalar(pow(self.r, e, PRIME))

    def __neg__(self):
        return PrimeScalar(-self.r)

    def __eq__(self, other):
        other = _as_prime(other)
        if other is NotImplemented:
            return NotImplemented
        return self.r == other.r

    def __hash__(self):
        return hash(("gfp", self.r))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return "PrimeScalar(%d)" % self.r


def _as_prime(x):
    if isinstance(x, PrimeScalar):
        return x
    if isinstance(x, int):
        return PrimeScalar(x)
    return NotImplemented


class Jet:
    """Order-2 jet a + b*h in the deformation parameter h, with h^2 = 0.

    Components are Fractions.  (a+bh)(c+dh) = ac + (ad+bc)h and
    (a+bh)^-1 = a^-1 - a^-2 b h, so a must be nonzero to invert.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return Jet(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def inv(self):
        if self.a == 0:
            raise ZeroDivisionError("jet with zero constant part is not invertible")
        ia = 1 / self.a
        return Jet(ia, -ia * ia * self.b)

    def __truediv__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = Jet(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __neg__(self):
        return Jet(-self.a, -self.b)

    def __eq__(self, other):
        other = _as_jet(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a jet with zero h-part equals its constant, so hashes as it
        return hash(self.a) if self.b == 0 else hash((Jet, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return "Jet(%s, %s)" % (self.a, self.b)


def _as_jet(x):
    if isinstance(x, Jet):
        return x
    if isinstance(x, (int, Fraction)):
        return Jet(x)
    return NotImplemented


class Field:
    """Tiny context object: builds constants in one of the two fields, Q
    and GF(p), and converts to and from the raw form of its hot loops.

    ``raw`` takes a scalar to its raw form, ``mul`` and ``sub`` multiply
    and subtract two raw values, ``prod`` multiplies an iterable of them,
    ``inverses`` inverts a list of them at once (ZeroDivisionError if one
    is zero), ``total`` sums an iterable of them to a scalar, and ``wrap``
    turns a raw value into a scalar again:

      * GF(p): the residue, a plain int; ``mul`` is a*b % PRIME, ``prod``
        reduces once at the end, ``inverses`` is Montgomery's batch
        inversion (one ``pow`` for the whole list) and ``total`` sums the
        residues and reduces once.
      * Q: the pair (numerator, denominator) of ints; ``mul``, ``sub`` and
        ``prod`` work on the two components and cancel nothing, so only
        ``wrap`` and ``total`` (one Fraction, one gcd, per value) reduce;
        ``inverses`` swaps each pair.  A raw pair (0, d) is truthy: test
        ``wrap(v)``, not ``v``, for zero.

    Code written on raw values thus runs unchanged in every field.  The
    ray kernel (``series.rays_op``) runs on integers over one common
    denominator instead: ``split`` takes a list of scalars to their
    numerators over the lcm of their denominators, and ``lift`` takes
    integers over a denominator back to scalars, one Fraction (one gcd)
    each over Q.  In GF(p) the numerators are the residues, the
    denominator is 1 and ``lift`` reduces mod PRIME.
    """

    def __init__(self, name):
        if name not in ("rational", "prime"):
            raise ValueError("unknown field mode %r" % name)
        self.name = name
        self.zero = self.of(0)
        self.one = self.of(1)
        if name == "prime":
            self.raw, self.mul, self.wrap = _residue_of, _mul_mod, PrimeScalar
            self.sub, self.prod = _sub_mod, _prod_mod
            self.inverses, self.total = _inverses_mod, _total_mod
            self.split, self.lift = _split_residues, _lift_residues
        else:
            self.raw, self.mul, self.wrap = _pair_of, _mul_pairs, _fraction_of
            self.sub, self.prod = _sub_pairs, _prod_pairs
            self.inverses, self.total = _inverse_pairs, _total_pairs
            self.split, self.lift = _split_fractions, _lift_fractions

    def of(self, n):
        """Embed an integer or a Fraction."""
        if self.name == "rational":
            return Fraction(n)
        if isinstance(n, Fraction):
            return PrimeScalar(n.numerator) / PrimeScalar(n.denominator)
        return PrimeScalar(n)


def _residue_of(x):
    return x.r


def _split_residues(values):
    return [x.r for x in values], 1


def _lift_residues(nums, den):
    return list(map(PrimeScalar, nums))  # den is 1: split gives no other


def _mul_mod(a, b):
    return a * b % PRIME


def _sub_mod(a, b):
    return (a - b) % PRIME


def _prod_mod(values):
    return prod(values) % PRIME


def _inverses_mod(values):
    """Montgomery's batch inversion: each prefix product is kept, the full
    product is inverted once, and the inverses are peeled off backwards."""
    prefix = list(accumulate(values, _mul_mod, initial=1))
    inv = prefix.pop()
    if not inv:
        raise ZeroDivisionError("division by zero in GF(p)")
    inv = pow(inv, -1, PRIME)
    out = [0] * len(prefix)
    for t in range(len(prefix) - 1, -1, -1):
        out[t] = inv * prefix[t] % PRIME
        inv = inv * values[t] % PRIME
    return out


def _total_mod(values):
    return PrimeScalar(sum(values))


def _pair_of(x):
    return x.numerator, x.denominator


def _mul_pairs(a, b):
    return a[0] * b[0], a[1] * b[1]


def _sub_pairs(a, b):
    return a[0] * b[1] - b[0] * a[1], a[1] * b[1]


def _prod_pairs(values):
    n = d = 1
    for a, b in values:
        n *= a
        d *= b
    return n, d


def _inverse_pairs(values):
    if not all(map(itemgetter(0), values)):
        raise ZeroDivisionError("division by zero")
    return [(d, n) for n, d in values]


def _fraction_of(p):
    return Fraction(p[0], p[1])


def _split_fractions(values):
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _lift_fractions(nums, den):
    return [Fraction(n, den) for n in nums]


def _total_pairs(values):
    return sum(map(_fraction_of, values), Fraction(0))


RATIONAL = Field("rational")
PRIME_FIELD = Field("prime")

FIELDS = {"rational": RATIONAL, "prime": PRIME_FIELD}

