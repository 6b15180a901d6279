"""Exact-arithmetic toolkit for a non-stationary cyclic q-difference
equation: the operator in its equivalent factorized and normal-ordered
forms, the instanton partition function that solves it, the finite
connection R-matrix after mass truncation, the symmetrized cocycle
basis, and the first-order (cohomological) degeneration.

Everything is computed over exact scalar domains (rationals and a fixed
61-bit prime field, with order-2 jets for the degeneration); identities
are verified by coefficient comparison, never numerically.
"""

from .scalars import FIELDS, Jet, PRIME, PrimeScalar, RATIONAL, PRIME_FIELD
from .params import ParamSet, sample_params
from .qfun import QContext, bracket, poch, qbinom
from .series import MultiSeries, Op
from .nekrasov import (LaumonParams, laumon_partition_function,
                       solution_series)
from .hamiltonian import (HamiltonianSpec, build_blocks, hamiltonian_op,
                          verify_conjecture)

__all__ = [
    "FIELDS", "Jet", "PRIME", "PrimeScalar", "RATIONAL", "PRIME_FIELD",
    "ParamSet", "sample_params", "QContext", "bracket", "poch", "qbinom",
    "MultiSeries", "Op", "LaumonParams", "laumon_partition_function",
    "solution_series", "HamiltonianSpec", "build_blocks", "hamiltonian_op",
    "verify_conjecture",
]
