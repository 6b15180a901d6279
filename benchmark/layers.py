"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions of the qlaumon modules with
wrappers that add up wall time and counts, everywhere the function is
referenced (a module that did ``from .qfun import bracket`` holds its own
reference, so every module-level name bound to the function is
replaced); ``Tracer.restore`` puts the originals back.  A wrapper records
only its outermost call, so recursion is not counted twice.

The accumulators and captures cover one operation at a time: ``begin``
clears them, ``take`` returns the accumulated values.
"""

from __future__ import annotations

import time
from collections import defaultdict
from math import comb

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("params.sample_s", "s"),
    ("partitions.enumerate_s", "s"),
    ("partitions.tuples", "count"),
    ("qfun.bracket_calls", "count"),
    ("qfun.bracket_s", "s"),
    ("nekrasov.z_s", "s"),
    ("nekrasov.factor_calls", "count"),
    ("nekrasov.factor_keys", "count"),
    ("nekrasov.factor_s", "s"),
    ("nekrasov.assembly_s", "s"),
    ("nekrasov.scaling_s", "s"),
    ("nekrasov.z_terms", "count"),
    ("nekrasov.z_max_bits", "bit"),
    ("nekrasov.psi_missing", "count"),
    ("scalars.prime_divs", "count"),
    ("series.mul_calls", "count"),
    ("series.mul_s", "s"),
    ("hamiltonian.build_s", "s"),
    ("hamiltonian.B_s", "s"),
    ("hamiltonian.L_s", "s"),
    ("hamiltonian.C_s", "s"),
    ("hamiltonian.R_s", "s"),
    ("hamiltonian.T_s", "s"),
    ("hamiltonian.L_terms", "count"),
    ("hamiltonian.C_terms", "count"),
    ("hamiltonian.R_terms", "count"),
    ("hamiltonian.forms_s", "s"),
    ("hamiltonian.monomials", "count"),
    ("rmatrix.connection_s", "s"),
    ("rmatrix.closed_s", "s"),
    ("rmatrix.zeros_s", "s"),
    ("rmatrix.gauge_s", "s"),
    ("rmatrix.entries", "count"),
    ("jackson.rank_s", "s"),
    ("jackson.evals", "count"),
    ("fourd.limit_s", "s"),
    ("fourd.annihilator_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
]

# Spans that do not nest in one another: together they should cover an
# operation's wall time.  solution_s is solution_series, i.e. z + scaling.
TOP_SPANS = ("params.sample_s", "nekrasov.solution_s", "hamiltonian.build_s", "hamiltonian.B_s",
             "hamiltonian.L_s", "hamiltonian.C_s", "hamiltonian.R_s",
             "hamiltonian.T_s", "hamiltonian.forms_s", "rmatrix.connection_s",
             "rmatrix.closed_s", "rmatrix.zeros_s", "rmatrix.gauge_s",
             "jackson.rank_s", "fourd.limit_s", "fourd.annihilator_s")

BLOCK_LETTERS = ("L", "C", "R", "B", "T")  # the order build_blocks returns


class Tracer:
    def __init__(self, qlaumon):
        """``qlaumon`` is the imported package; its submodules are reached
        through it, so a fresh import is traced, not a stale one."""
        self.pkg = qlaumon
        self.mods = [qlaumon] + [getattr(qlaumon, name) for name in (
            "partitions", "qfun", "nekrasov", "scalars", "series",
            "hamiltonian", "rmatrix", "jackson", "fourd", "params", "cli")]
        self._undo = []
        self._active = defaultdict(int)
        self.acc = defaultdict(float)
        self.factor_keys = set()
        self.z = None          # last partition function built
        self.psi = None        # last solution series returned
        self.block_order = []  # letters of the H blocks, in applied order
        self.block_out = None  # output of the last block applied

    # -- accumulators ------------------------------------------------------

    def begin(self):
        """Start the accumulators and captures of one operation afresh."""
        self.acc.clear()
        self.factor_keys.clear()
        self.block_order.clear()
        self.z = self.psi = self.block_out = None

    def take(self):
        """The accumulators of the operation just run."""
        out = dict(self.acc)
        out["nekrasov.factor_keys"] = len(self.factor_keys)
        return out

    # -- patching ----------------------------------------------------------

    def _set(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _replace(self, fn, new):
        for mod in self.mods:
            for name, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, name, new)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def _timed(self, metric, fn, calls=None, after=None, outside=()):
        acc, active = self.acc, self._active

        def wrapper(*args, **kwargs):
            if active[metric] or any(active[o] for o in outside):
                return fn(*args, **kwargs)
            active[metric] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                acc[metric] += time.perf_counter() - t0
                active[metric] -= 1
            if calls:
                acc[calls] += 1
            if after:
                after(args, out)
            return out

        return wrapper

    def _timed_op(self, metric, op, terms=None, on_output=None):
        """An Op of the series module whose every application is timed."""
        acc, fn = self.acc, op.fn

        def apply(s):
            t0 = time.perf_counter()
            out = fn(s)
            acc[metric] += time.perf_counter() - t0
            if terms:
                acc[terms] += len(out.terms)
            if on_output:
                on_output(out)
            return out

        return self.pkg.series.Op(apply, op.grading)

    def install(self):
        q = self.pkg
        acc = self.acc

        def timed(mod, fname, metric, **kw):
            fn = getattr(mod, fname)
            self._replace(fn, self._timed(metric, fn, **kw))

        # sampling inside a form check counts in that check's span
        timed(q.params, "sample_params", "params.sample_s",
              outside=("hamiltonian.forms_s",))

        enumerate_tuples = q.partitions.enumerate_tuples

        def traced_enumerate(*args, **kwargs):
            it = enumerate_tuples(*args, **kwargs)

            # enumeration inside laumon_partition_function also counts
            # apart, so that assembly_s covers Z alone
            in_z = "nekrasov.enumerate_s" if self._active["nekrasov.z_s"] \
                else None

            def add(dt):
                acc["partitions.enumerate_s"] += dt
                if in_z:
                    acc[in_z] += dt

            def gen():
                while True:
                    t0 = time.perf_counter()
                    try:
                        tup = next(it)
                    except StopIteration:
                        add(time.perf_counter() - t0)
                        return
                    add(time.perf_counter() - t0)
                    acc["partitions.tuples"] += 1
                    yield tup

            return gen()

        self._replace(enumerate_tuples, traced_enumerate)

        timed(q.qfun, "bracket", "qfun.bracket_s", calls="qfun.bracket_calls")

        nek_sinh = q.nekrasov.nek_sinh
        keys = self.factor_keys

        def record_key(args, out):
            k, N, lam, mu, sqrt_u = args[:5]
            keys.add((k % N, lam, mu, sqrt_u))

        self._replace(nek_sinh, self._timed(
            "nekrasov.factor_s", nek_sinh, calls="nekrasov.factor_calls",
            after=record_key))

        def keep_z(args, out):
            self.z = out

        def keep_psi(args, out):
            self.psi = out

        timed(q.nekrasov, "laumon_partition_function", "nekrasov.z_s",
              after=keep_z)
        timed(q.nekrasov, "solution_series", "nekrasov.solution_s",
              after=keep_psi)

        prime_cls = q.scalars.PrimeScalar
        div, power = prime_cls.__truediv__, prime_cls.__pow__

        def counted_div(a, b):
            acc["scalars.prime_divs"] += 1
            return div(a, b)

        def counted_pow(a, e):
            if e < 0:
                acc["scalars.prime_divs"] += 1
            return power(a, e)

        self._set(prime_cls, "__truediv__", counted_div)
        self._set(prime_cls, "__pow__", counted_pow)

        series_cls = q.series.MultiSeries
        self._set(series_cls, "__mul__", self._timed(
            "series.mul_s", series_cls.__mul__, calls="series.mul_calls"))

        build_blocks = q.hamiltonian.build_blocks

        def traced_build_blocks(spec):
            t0 = time.perf_counter()
            blocks = build_blocks(spec)
            acc["hamiltonian.build_s"] += time.perf_counter() - t0
            out = []
            for letter, op in zip(BLOCK_LETTERS, blocks):
                def seen(s, letter=letter):
                    self.block_order.append(letter)
                    self.block_out = s
                terms = ("hamiltonian.%s_terms" % letter
                         if letter in "LCR" else None)
                out.append(self._timed_op("hamiltonian.%s_s" % letter, op,
                                          terms, seen))
            return tuple(out)

        self._replace(build_blocks, traced_build_blocks)

        for fname in ("check_form_equivalence", "check_pentagon",
                      "check_dynkin_family", "check_borel_moved_triple"):
            timed(q.hamiltonian, fname, "hamiltonian.forms_s")

        agree = q.series.ops_agree_on_monomials
        all_monomials = q.series.all_monomials

        def counted_agree(op_a, op_b, N, degree, *args):
            where = agree(op_a, op_b, N, degree, *args)
            acc["hamiltonian.monomials"] += (
                comb(N + degree, N) if where is None
                else all_monomials(N, degree).index(where) + 1)
            return where

        self._replace(agree, counted_agree)

        def count_entries(args, out):
            acc["rmatrix.entries"] += len(out[1]) ** 2

        timed(q.rmatrix, "connection_matrix", "rmatrix.connection_s",
              after=count_entries)
        timed(q.rmatrix, "closed_matrix", "rmatrix.closed_s",
              outside=("rmatrix.gauge_s",))
        timed(q.rmatrix, "b2_triangular_zeros", "rmatrix.zeros_s")
        timed(q.rmatrix, "gauge_match_to_hamiltonian", "rmatrix.gauge_s")

        timed(q.jackson, "cocycle_rank", "jackson.rank_s")
        cocycle_eval = q.jackson.cocycle_eval

        def counted_eval(*args, **kwargs):
            acc["jackson.evals"] += 1
            return cocycle_eval(*args, **kwargs)

        self._replace(cocycle_eval, counted_eval)

        timed(q.fourd, "laumon_4d", "fourd.limit_s")
        annihilator_op = q.fourd.annihilator_op

        def traced_annihilator(*args, **kwargs):
            t0 = time.perf_counter()
            op = annihilator_op(*args, **kwargs)
            acc["fourd.annihilator_s"] += time.perf_counter() - t0
            return self._timed_op("fourd.annihilator_s", op)

        self._replace(annihilator_op, traced_annihilator)


def op_layer_values(acc, z, wall):
    """Per-layer values of one traced operation from its accumulators and
    the partition function it built (or None)."""
    out = {name: (acc.get(name, 0.0) if unit == "s" else int(acc.get(name, 0)))
           for name, unit in LAYER_METRICS}
    out["nekrasov.assembly_s"] = (acc.get("nekrasov.z_s", 0.0)
                                  - acc.get("nekrasov.factor_s", 0.0)
                                  - acc.get("nekrasov.enumerate_s", 0.0))
    out["nekrasov.scaling_s"] = (acc.get("nekrasov.solution_s", 0.0)
                                 - acc.get("nekrasov.z_s", 0.0))
    if z is not None:
        out["nekrasov.z_terms"] = len(z.terms)
        out["nekrasov.z_max_bits"] = max(
            (_bits(v) for v in z.terms.values()), default=0)
    out["trace.unaccounted_s"] = wall - sum(acc.get(s, 0.0) for s in TOP_SPANS)
    return out


def _bits(x):
    """Bit height of a coefficient: max of numerator and denominator bits
    for a rational, the residue's bits in GF(p)."""
    if hasattr(x, "numerator"):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return x.r.bit_length()
