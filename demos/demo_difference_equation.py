#!/usr/bin/env python3
"""Walk through the central eigenfunction check at small rank.

The operator is a composition of six blocks: a diagonal Borel weight, a
left q-exponential chain, a plain multiplication block, a right chain, a
second Borel weight and a parameter shift.  The candidate eigenfunction
is a weighted sum over tuples of partitions.  Everything below is exact
rational arithmetic, so "defect zero" means identically zero
coefficients, not small ones.
"""

from qlaumon import (HamiltonianSpec, hamiltonian_op, sample_params,
                     verify_conjecture)
from qlaumon.nekrasov import gl1_closed_solution, solution_series
from qlaumon.series import ops_agree_on_monomials

print("=== rank one: everything in closed form ===")
ps = sample_params(seed=1, N=1)
print("sampled q =", ps.q, " kappa =", ps.kappa,
      " d =", ps.d(0), " dbar =", ps.dbar(0))
psi = solution_series(ps, cap=8)
closed = gl1_closed_solution(ps, cap=8)
print("series == closed exponential form:", psi == closed)
spec = HamiltonianSpec(ps, "normal", cap=8)
print("H psi == psi through degree 8:",
      (hamiltonian_op(spec)(psi) - psi).is_zero())

print()
print("=== rank two: the proven case, three equivalent forms ===")
ps = sample_params(seed=1, N=2)
psi = solution_series(ps, cap=4)
for form in ("simple", "higher", "normal", "gl2-symmetric"):
    spec = HamiltonianSpec(ps, form, cap=4)
    defect = hamiltonian_op(spec)(psi) - psi
    print("  form %-14s defect zero: %s" % (form, defect.is_zero()))

h_simple = hamiltonian_op(HamiltonianSpec(ps, "simple", 3))
h_normal = hamiltonian_op(HamiltonianSpec(ps, "normal", 3))
print("forms agree on every monomial of degree <= 3:",
      ops_agree_on_monomials(h_simple, h_normal, 2, 3, 3, ps.field) is None)

print()
print("=== rank three: desk-scale evidence for the open case ===")
rep = verify_conjecture(3, 3, seed=1)
for degree, bad in rep.per_degree:
    print("  degree %d: %d bad coefficients" % (degree, bad))
print("verdict:", "PASS" if rep.ok else "FAIL")

print()
print("=== rank three over the 61-bit prime field, one degree higher ===")
rep = verify_conjecture(3, 4, seed=1, mode="prime")
print("degree-4 check mod p:", "PASS" if rep.ok else "FAIL")
