import hashlib
import random

import pytest

from qlaumon import params
from qlaumon.params import (GENERICITY_BOUND, ParamSet, _draw_sqrt,
                            _generic_enough, sample_params)
from qlaumon.scalars import FIELDS, PRIME, PrimeScalar
from oracles import generic_enough_in_field

B = GENERICITY_BOUND


def lattice(q, kappa, bound):
    """The finite set {q^a kappa^c : |a|, |c| <= bound}."""
    out = set()
    qa = q ** -bound
    for _ in range(2 * bound + 1):
        v = qa * kappa ** -bound
        for _ in range(2 * bound + 1):
            out.add(v)
            v = v * kappa
        qa = qa * q
    return out


def generic_enough_by_lattice(ps, bound):
    """The genericity decision made by listing the whole lattice: its
    points are distinct (one of them is one), q is no root of unity of
    order <= 2 bound, and no b_i/b_j lies on it."""
    one = ps.field.one
    base = [ps.q, ps.kappa] + [ps.b(i) for i in range(ps.N)] \
        + [ps.d(i) for i in range(ps.N)] + [ps.dbar(i) for i in range(ps.N)]
    for i, u in enumerate(base):
        if not u or u == one or u == -one:
            return False
        for v in base[i + 1:]:
            if u == v:
                return False
    v = one
    for _ in range(2 * bound):
        v = v * ps.q
        if v == one:
            return False
    lat = lattice(ps.q, ps.kappa, bound)
    if sum(1 for w in lat if w == one) != 1 or len(lat) != (2 * bound + 1) ** 2:
        return False
    return not any(ps.b(i) / ps.b(j) in lat
                   for i in range(ps.N) for j in range(ps.N) if i != j)


def draw(rng, N, mode):
    field = FIELDS[mode]
    return ParamSet(N, field, _draw_sqrt(rng, field), _draw_sqrt(rng, field),
                    *[[_draw_sqrt(rng, field) for _ in range(N)]
                      for _ in range(3)])


def with_b(ps, sqrt_b):
    return ParamSet(ps.N, ps.field, ps.sqrt_q, ps.sqrt_kappa, sqrt_b,
                    ps.sqrt_d, ps.sqrt_dbar)


def with_q_kappa(ps, sqrt_q, sqrt_kappa):
    return ParamSet(ps.N, ps.field, sqrt_q, sqrt_kappa, ps.sqrt_b,
                    ps.sqrt_d, ps.sqrt_dbar)


def lattice_point(ps, a, c):
    """sqrt of q^a kappa^c."""
    return ps.sqrt_q ** a * ps.sqrt_kappa ** c


def element_of_order(n, rng):
    """A square root of an element of GF(p) of multiplicative order n
    (n odd, dividing (p - 1)/2): an element of order 2n."""
    primes = [l for l in range(2, 2 * n + 1)
              if 2 * n % l == 0 and all(l % m for m in range(2, l))]
    while True:
        y = pow(rng.randrange(2, PRIME - 1), (PRIME - 1) // (2 * n), PRIME)
        if all(pow(y, 2 * n // l, PRIME) != 1 for l in primes):
            return PrimeScalar(y)


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_generic_enough_matches_lattice_oracle(mode):
    # random draws, a third of them with b_1/b_2 moved onto or just off the
    # lattice, a sixth with q tied to a power of kappa
    rng = random.Random(("genericity", mode).__repr__())
    decisions = set()
    for _ in range(40):
        N = rng.randrange(1, 6)
        ps = draw(rng, N, mode)
        roll = rng.randrange(6)
        a, c = rng.randrange(-B - 2, B + 3), rng.randrange(-B - 2, B + 3)
        if N >= 2 and roll < 2:
            sb = list(ps.sqrt_b)
            sb[0] = sb[1] * lattice_point(ps, a, c)
            ps = with_b(ps, sb)
        elif roll == 2:
            ps = with_q_kappa(ps, ps.sqrt_kappa ** c, ps.sqrt_kappa)
        want = generic_enough_by_lattice(ps, B)
        assert _generic_enough(ps, B) == want
        decisions.add(want)
    assert decisions == {True, False}


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_generic_enough_lattice_edges(mode):
    base = sample_params(3, 3, mode)
    assert _generic_enough(base, B)
    # b_i/b_j = q^a kappa^c is rejected exactly when |a|, |c| <= B
    for (a, c), on in {(B, 0): True, (B + 1, 0): False, (0, -B): True,
                       (0, B + 1): False, (-B, B): True, (B, -B - 1): False,
                       (-B - 1, 3): False}.items():
        for i, j in ((0, 2), (2, 1)):
            sb = list(base.sqrt_b)
            sb[i] = sb[j] * lattice_point(base, a, c)
            ps = with_b(base, sb)
            assert _generic_enough(ps, B) == (not on), (a, c, i, j)
            assert generic_enough_by_lattice(ps, B) == (not on)
    # q^a = kappa^c is rejected exactly when |a|, |c| <= 2 B
    sq, sk = base.sqrt_q, base.sqrt_kappa
    for sqrt_q, sqrt_kappa, on in ((sk ** (2 * B), sk, True),
                                   (sk ** (-2 * B - 1), sk, False),
                                   (sq, sq ** (2 * B), True),
                                   (sq, sq ** (2 * B + 1), False)):
        ps = with_q_kappa(base, sqrt_q, sqrt_kappa)
        assert _generic_enough(ps, B) == (not on)
        assert generic_enough_by_lattice(ps, B) == (not on)


def test_generic_enough_rejects_small_orders_mod_p():
    # kappa or q of order n <= 2 B puts a relation q^a kappa^c = 1 in the
    # window; order 55 > 2 B does not
    rng = random.Random(9)
    base = sample_params(3, 2, "prime")
    for n in (3, 15, 45, 55):
        root = element_of_order(n, rng)
        for ps in (with_q_kappa(base, base.sqrt_q, root),
                   with_q_kappa(base, root, base.sqrt_kappa)):
            assert _generic_enough(ps, B) == (n > 2 * B)
            assert generic_enough_by_lattice(ps, B) == (n > 2 * B)


def sampler_digest(mode):
    """sha1 of sample_params over seeds 1-40 and N = 1..5, each draw as
    its square roots (residues or numerator/denominator pairs), a draw
    that cannot be sampled as "none"."""
    h = hashlib.sha1()
    for seed in range(1, 41):
        for N in range(1, 6):
            try:
                ps = sample_params(seed, N, mode)
            except RuntimeError:
                h.update(b"none")
                continue
            for v in [ps.sqrt_q, ps.sqrt_kappa] + ps.sqrt_b + ps.sqrt_d \
                    + ps.sqrt_dbar:
                h.update(repr(v.r if hasattr(v, "r")
                              else (v.numerator, v.denominator)).encode())
    return h.hexdigest()


def test_sample_params_pinned():
    # recorded with the sampler that listed the whole q-kappa lattice
    assert sampler_digest("rational") == "1c7ee641ac3ad5d4db32e51b40d2d46031f2d096"
    assert sampler_digest("prime") == "c4b9f053c734277960d4e223cdac94049e848c71"


@pytest.mark.parametrize("mode", ["rational", "prime"])
def test_residue_lattice_test_samples_as_the_field_test(monkeypatch, mode):
    # the same square roots for seeds 1-40 and N = 1-5 as with every
    # power and ratio taken in the draw's own field
    residues = sampler_digest(mode)
    monkeypatch.setattr(params, "_generic_enough", generic_enough_in_field)
    assert sampler_digest(mode) == residues


def test_a_relation_mod_p_alone_rejects_nothing():
    # shifting a square root by PRIME keeps its square mod PRIME but not
    # over Q: b_1/b_2 and q then sit on the lattice mod PRIME only
    base = sample_params(3, 3, "rational")
    sb = list(base.sqrt_b)
    sb[0] = sb[1] * lattice_point(base, 2, -1) + PRIME
    for ps in (with_b(base, sb),
               with_q_kappa(base, base.sqrt_kappa ** 3 + PRIME,
                            base.sqrt_kappa)):
        assert _generic_enough(ps, B) and generic_enough_in_field(ps, B)
    sb[0] = sb[1] * lattice_point(base, 2, -1)
    assert not _generic_enough(with_b(base, sb), B)
