"""Bigraded Poincare duality algebras with derivation differentials.

The objects here are finite-dimensional (Z/2 x N)-bigraded graded-commutative
algebras over a field of characteristic != 2, an orientation functional
supported on bidegree (0, n), and homogeneous differentials that lower the
second grading and act as signed derivations.  The three congruence engines
(even-dimension mod 4, homology preservation, the odd-dimension mechanism
with its skew form) operate on these, and seeded random generators produce
the property-test populations: twisted tensor products of exterior and
truncated polynomial models, with differentials sampled on generators and
extended by the Leibniz rule.

All algebra data is sparse, with no zero entries: the structure constants
are one table ``{(a, b): {c: coeff}}`` with no entry for a zero product, an
orientation is ``{i: phi(e_i)}`` and a differential is the tuple of its
columns delta(e_j) = ``{i: coeff}``.  Products, the law checks, base changes
and homology run on sparse vectors ``{index: coeff}``; dense matrices remain
only where a dense rank or inverse runs (Gram matrices, base-change blocks,
the odd-model pairing).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import exactalg

BiDegree = tuple[int, int]  # (eps in Z/2, j in N)


class BigradedAlgebra:
    """Finite-dimensional bigraded graded-commutative algebra with unit.

    ``table[(a, b)]`` maps c to the nonzero coefficient of e_c in e_a * e_b;
    a pair whose product is 0 has no entry.  Total degree of e_a is
    (eps + j) mod 2; graded commutativity and associativity are checked by
    :meth:`validate`, not assumed.
    """

    def __init__(self, field, bidegrees, table, unit_index=0, labels=None):
        self.field = field
        self.bidegrees: tuple[BiDegree, ...] = tuple((int(e) % 2, int(j)) for e, j in bidegrees)
        self.dim = len(self.bidegrees)
        self.table: dict[tuple[int, int], dict[int, object]] = table
        self.unit_index = unit_index
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(self.dim))
        self._components: dict[BiDegree, list[int]] = {}
        for i, bd in enumerate(self.bidegrees):
            self._components.setdefault(bd, []).append(i)

    def component(self, eps: int, j: int) -> list[int]:
        return self._components.get((eps % 2, j), [])

    def total_degree(self, i: int) -> int:
        e, j = self.bidegrees[i]
        return (e + j) % 2

    def product(self, x: dict, y: dict) -> dict:
        """x * y for sparse vectors ``{index: coeff}``."""
        return accumulate(self.field, ((c, xa * yb * t) for a, xa in x.items() for b, yb in y.items()
                                       for c, t in self.table.get((a, b), {}).items()))

    def max_second_grading(self) -> int:
        return max((j for _, j in self.bidegrees), default=0)

    def validate(self) -> list[str]:
        """Unit law, bidegree additivity, graded commutativity, associativity."""
        problems = []
        T, u = self.table, self.unit_index
        e0 = self.bidegrees[u]
        if e0 != (0, 0):
            problems.append(f"unit has bidegree {e0}, not (0, 0)")
        for a in range(self.dim):
            if not T.get((u, a)) == T.get((a, u)) == {a: 1}:
                problems.append(f"unit law fails at basis {a}")
                break
        for a, b in sorted(T):
            ea, ja = self.bidegrees[a]
            eb, jb = self.bidegrees[b]
            for c in T[a, b]:
                ec, jc = self.bidegrees[c]
                if (ec - ea - eb) % 2 or jc != ja + jb:
                    problems.append(f"product e{a}*e{b} not homogeneous")
        for a, b in sorted({(min(k), max(k)) for k in T}):
            sign = (-1) ** (self.total_degree(a) * self.total_degree(b))
            if self.product({a: 1}, {b: 1}) != self.product({b: sign}, {a: 1}):
                problems.append(f"graded commutativity fails at ({a}, {b})")
        if problems:
            return problems
        for a, b, c in itertools.product(range(self.dim), repeat=3):
            if (a, b) not in T and (b, c) not in T:
                continue  # both sides are 0
            if self.product(T.get((a, b), {}), {c: 1}) != self.product({a: 1}, T.get((b, c), {})):
                problems.append(f"associativity fails at ({a}, {b}, {c})")
                return problems
        return problems


def accumulate(field, terms) -> dict:
    """Sum (index, coefficient) terms into ``{index: coeff}``, dropping zeros."""
    out: dict = {}
    for c, x in terms:
        out[c] = out.get(c, 0) + x
    return {c: r for c, x in out.items() if (r := field.reduce(x))}


def _columns(M) -> list[dict]:
    """The sparse columns (their nonzero entries) of a dense matrix."""
    return [{i: x for i, x in enumerate(col) if x} for col in zip(*M)]


def _apply(field, columns, x: dict) -> dict:
    """M x for the matrix M with the given sparse columns."""
    return accumulate(field, ((k, xi * m) for i, xi in x.items() for k, m in columns[i].items()))


@dataclass(frozen=True)
class Orientation:
    """Linear functional supported on bidegree (0, n): ``values[i]`` = phi(e_i), nonzero only."""

    values: dict[int, object]
    formal_dim: int

    def __call__(self, v: dict):
        """phi(v) for a sparse vector ``{index: coeff}``."""
        return sum(self.values[i] * x for i, x in v.items() if i in self.values)


def make_orientation(A: BigradedAlgebra, values: dict) -> Orientation:
    """The orientation with phi(e_i) = values[i] (``{i: coeff}``; zeros are dropped)."""
    vals = {i: y for i, x in sorted(values.items()) if (y := A.field.coerce(x))}
    if not vals:
        raise ValueError("orientation must be surjective (some nonzero value)")
    degrees = {A.bidegrees[i] for i in vals}
    if len(degrees) != 1 or next(iter(degrees))[0] != 0:
        raise ValueError(f"orientation supported off a single bidegree (0, n): {degrees}")
    n = next(iter(degrees))[1]
    return Orientation(vals, n)


@dataclass(frozen=True)
class Differential:
    """Homogeneous square-zero derivation lowering the second grading."""

    columns: tuple[dict, ...]  # columns[j] = delta(e_j) as {i: coeff}, nonzero only
    shift: BiDegree            # (delta_eps, delta_j), delta_j < 0

    @property
    def total_degree(self) -> int:
        return (self.shift[0] + self.shift[1]) % 2


# ---------------------------------------------------------------------------
# Poincare duality / Euler characteristic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PDAlgebraResult:
    connected: bool
    nondegenerate: bool
    formal_dim: int

    @property
    def is_pd(self) -> bool:
        return self.connected and self.nondegenerate


def check_pd(A: BigradedAlgebra, phi: Orientation) -> PDAlgebraResult:
    """Connectedness and nondegeneracy of the pairing phi(a * b)."""
    _check_orientation_support(A, phi)
    comp00 = A.component(0, 0)
    connected = comp00 == [A.unit_index]
    gram = _gram_matrix(A, phi)
    nondeg = exactalg.rank(gram, A.field) == A.dim
    return PDAlgebraResult(connected, nondeg, phi.formal_dim)


def _check_orientation_support(A: BigradedAlgebra, phi: Orientation):
    if any(A.bidegrees[i] != (0, phi.formal_dim) for i in phi.values):
        raise ValueError("orientation supported outside bidegree (0, n)")
    if not phi.values:
        raise ValueError("orientation is zero")


def _gram_matrix(A: BigradedAlgebra, phi: Orientation) -> list[list]:
    G = A.field.zeros((A.dim, A.dim))
    for (a, b), prod in A.table.items():
        G[a][b] = A.field.reduce(phi(prod))
    return G


def euler_and_dim(A: BigradedAlgebra) -> tuple[int, int]:
    """(total dimension, Euler characteristic by total Z/2 grading)."""
    even = sum(1 for i in range(A.dim) if A.total_degree(i) == 0)
    return A.dim, 2 * even - A.dim


@dataclass(frozen=True)
class CongruenceVerdict:
    lhs: int
    rhs: int
    modulus: int = 4

    @property
    def holds(self) -> bool:
        return (self.lhs - self.rhs) % self.modulus == 0


def lemma_even_congruence(A: BigradedAlgebra, phi: Orientation) -> CongruenceVerdict:
    """dim A = chi(A) mod 4 for even formal dimension, char != 2."""
    if A.field.char == 2:
        raise ValueError("characteristic 2 is excluded")
    if phi.formal_dim % 2:
        raise ValueError("even congruence needs even formal dimension")
    result = check_pd(A, phi)
    if not result.is_pd:
        raise ValueError("not a connected PD algebra")
    total, chi = euler_and_dim(A)
    return CongruenceVerdict(lhs=total, rhs=chi)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationReport:
    is_valid: bool
    violations: tuple[str, ...]


def check_derivation(A: BigradedAlgebra, delta: Differential) -> DerivationReport:
    """Verify homogeneity, delta^2 = 0 and the signed Leibniz rule."""
    problems = []
    de, dj = delta.shift
    if dj >= 0:
        problems.append("differential must lower the second grading")
    cols = delta.columns
    for j, col in enumerate(cols):
        ej, jj = A.bidegrees[j]
        for i in col:
            ei, ji = A.bidegrees[i]
            if (ei - ej - de) % 2 or ji != jj + dj:
                problems.append(f"delta(e{j}) not homogeneous of shift {delta.shift}")
                break
    if problems:
        return DerivationReport(False, tuple(problems))
    if any(_apply(A.field, cols, col) for col in cols):
        problems.append("delta^2 != 0")
    for a, b in itertools.product(range(A.dim), repeat=2):
        if _apply(A.field, cols, A.table.get((a, b), {})) != _leibniz(A, cols, a, b):
            problems.append(f"Leibniz fails at pair ({a}, {b})")
            return DerivationReport(False, tuple(problems))
    return DerivationReport(not problems, tuple(problems))


def _leibniz(A: BigradedAlgebra, cols: list[dict], a: int, b: int) -> dict:
    """delta(e_a) e_b + (-1)^|a| e_a delta(e_b), from the sparse columns of delta."""
    sign = -1 if A.total_degree(a) else 1
    return accumulate(A.field, itertools.chain(A.product(cols[a], {b: 1}).items(),
                                               A.product({a: sign}, cols[b]).items()))


# ---------------------------------------------------------------------------
# Homology of (A, delta)
# ---------------------------------------------------------------------------

def homology(A: BigradedAlgebra, delta: Differential, phi: Orientation):
    """(H(A, delta), induced orientation), or (None, None) when H = 0.

    The induced product multiplies representatives and reduces; the induced
    orientation evaluates phi on representatives, well defined because the
    differential strictly lowers the second grading so the top class is
    never a boundary.  ValueError, naming the first violation, unless delta
    is a square-zero derivation (``check_derivation``); ValueError too when
    the unit is a boundary but H is not 0, which only a table that breaks
    the unit law allows.
    """
    report = check_derivation(A, delta)
    if not report.is_valid:
        raise ValueError(f"delta is not a square-zero derivation: {report.violations[0]}")
    return _homology(A, delta, phi)


def _homology(A: BigradedAlgebra, delta: Differential, phi: Orientation):
    """``homology`` for a delta already known to be a square-zero derivation."""
    field = A.field
    de, dj = delta.shift
    cols = delta.columns
    subq: dict[BiDegree, exactalg.Subquotient] = {}
    # Each basis element's index within its bidegree's component.
    position = {i: k for indices in A._components.values() for k, i in enumerate(indices)}
    offset: dict[BiDegree, int] = {}  # index of the bidegree's first class in H
    h_reps: list[dict] = []
    h_bidegrees: list[BiDegree] = []
    for bd, indices in sorted(A._components.items()):
        e, j = bd
        # Kernel of delta on the component modulo the image of its source.
        kernel_of = exactalg.transpose_rows([cols[i] for i in indices], A.dim)
        image = [{position[i]: x for i, x in cols[s].items()} for s in A.component(e - de, j - dj)]
        sq = subq[bd] = exactalg.Subquotient(exactalg.int_rows(kernel_of),
                                             exactalg.int_rows(image), field, len(indices))
        offset[bd] = len(h_reps)
        for row in sq.basis:
            h_reps.append({indices[k]: x for k, x in row.items()})
            h_bidegrees.append(bd)
    if not h_reps:
        return None, None

    def classes(v: dict, bd: BiDegree) -> dict:
        """The classes of H(A, delta) in the bidegree-bd cycle v."""
        coeffs = subq[bd].express({position[i]: x for i, x in v.items() if A.bidegrees[i] == bd})
        return {offset[bd] + k: x for k, x in enumerate(coeffs) if x}

    table = {}
    for (a, ra), (b, rb) in itertools.product(enumerate(h_reps), repeat=2):
        prod = A.product(ra, rb)
        bd = ((h_bidegrees[a][0] + h_bidegrees[b][0]) % 2, h_bidegrees[a][1] + h_bidegrees[b][1])
        if bd in subq and prod and (coeffs := classes(prod, bd)):
            table[a, b] = coeffs
    unit = classes({A.unit_index: field.one}, (0, 0)) if (0, 0) in h_bidegrees else {}
    if not unit:
        # In an algebra a boundary unit delta(x) makes every cycle
        # z = delta(x) z = delta(x z) a boundary too.
        raise ValueError("unit exact but homology nonzero: the unit law fails")
    H = BigradedAlgebra(field, h_bidegrees, table, unit_index=min(unit))
    phi_values = {k: x for k, rep in enumerate(h_reps) if (x := field.coerce(phi(rep)))}
    if not phi_values:
        return H, None
    return H, make_orientation(H, phi_values)


# ---------------------------------------------------------------------------
# Odd-dimension congruence (skew form mechanism)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OddCongruenceReport:
    """``pd`` and ``derivation`` are the verdicts of the one ``check_pd`` and
    the one ``check_derivation`` it ran."""

    applicable: bool
    failures: tuple[str, ...]
    dim_total: int | None = None
    dim_homology: int | None = None
    quotient_dim: int | None = None
    gamma_skew: bool | None = None
    gamma_nondegenerate: bool | None = None
    derivation: DerivationReport | None = None
    pd: PDAlgebraResult | None = None

    @property
    def congruent(self) -> bool | None:
        if self.dim_total is None or self.dim_homology is None:
            return None
        return (self.dim_total - self.dim_homology) % 4 == 0


def odd_congruence(A: BigradedAlgebra, delta: Differential, phi: Orientation) -> OddCongruenceReport:
    """dim A = dim H(A, delta) mod 4 under the odd-dimension hypotheses.

    Also exhibits the proof mechanism: the form gamma(x, y) = phi(x delta y)
    on the even part modulo cycles must be skew and nondegenerate, forcing
    that quotient to have even dimension.  The dimensions are reported
    whenever H(A, delta) is defined, the form only when the hypotheses hold.
    """
    failures = []
    if A.field.char == 2:
        failures.append("characteristic 2 excluded")
    n = phi.formal_dim
    if n % 2 == 0:
        failures.append(f"formal dimension {n} is even")
    pd = check_pd(A, phi)
    if not pd.is_pd:
        failures.append("not a connected PD algebra")
    der = check_derivation(A, delta)
    if not der.is_valid:
        failures.append("differential is not a square-zero derivation")
    if delta.total_degree != 1:
        failures.append("differential must have odd total degree")
    m = (n - 1) // 2
    for i in range(1, m + 1):
        if i % 2 == 0 and A.component(0, i):
            failures.append(f"A^(0,{i}) nonzero with {i} even <= m={m}")
        if i % 2 == 1 and A.component(1, i):
            failures.append(f"A^(1,{i}) nonzero with {i} odd <= m={m}")
    if not der.is_valid:
        return OddCongruenceReport(False, tuple(failures), derivation=der, pd=pd)
    H, _ = _homology(A, delta, phi)
    dim_h = H.dim if H is not None else 0
    if dim_h == 0 and not failures:
        failures.append("H(A, delta) = 0")
    if failures:
        return OddCongruenceReport(False, tuple(failures), A.dim, dim_h, derivation=der, pd=pd)
    cols = delta.columns
    even_idx = [i for i in range(A.dim) if A.total_degree(i) == 0]
    # Pivot columns of delta|even span a complement of the even cycles.
    rows = exactalg.transpose_rows([cols[i] for i in even_idx], A.dim)
    complement = [even_idx[c] for c in exactalg.pivot_columns(exactalg.int_rows(rows), A.field)]
    s = len(complement)
    gram = [[A.field.reduce(phi(A.product({ia: 1}, cols[ib]))) for ib in complement]
            for ia in complement]
    skew = all(not A.field.reduce(x + y) for row, col in zip(gram, zip(*gram))
               for x, y in zip(row, col))
    nondeg = exactalg.rank(gram, A.field) == s
    return OddCongruenceReport(
        applicable=True,
        failures=(),
        dim_total=A.dim,
        dim_homology=dim_h,
        quotient_dim=s,
        gamma_skew=skew,
        gamma_nondegenerate=nondeg,
        derivation=der,
        pd=pd,
    )


# ---------------------------------------------------------------------------
# Model algebras and random generation
# ---------------------------------------------------------------------------

def _single_generator_model(field, eps: int, j: int, height: int):
    """Truncated algebra k[x]/(x^height) with x at bidegree (eps, j).

    height = 2 is the exterior algebra; odd-total generators require
    height 2 (x^2 = 0 forced by graded commutativity away from char 2).
    """
    n = height
    bidegrees = [((eps * k) % 2, j * k) for k in range(n)]
    table = {(a, b): {a + b: field.one} for a in range(n) for b in range(n - a)}
    A = BigradedAlgebra(field, bidegrees, table)
    A._monomials = [(0,) * k for k in range(n)]  # generator id 0, multiplicity k
    A._generators = [(eps, j)]
    return A


def tensor(A: BigradedAlgebra, B: BigradedAlgebra) -> BigradedAlgebra:
    """Graded tensor product with Koszul signs; preserves monomial data."""
    field = A.field
    dim = A.dim * B.dim
    bidegrees = []
    for i in range(A.dim):
        for k in range(B.dim):
            ea, ja = A.bidegrees[i]
            eb, jb = B.bidegrees[k]
            bidegrees.append(((ea + eb) % 2, ja + jb))
    table = {}
    for (i1, i2), pa in A.table.items():
        for (k1, k2), pb in B.table.items():
            sign = (-1) ** (B.total_degree(k1) * A.total_degree(i2))
            table[i1 * B.dim + k1, i2 * B.dim + k2] = {
                ia * B.dim + ib: field.reduce(sign * x * y) for ia, x in pa.items() for ib, y in pb.items()}
    out = BigradedAlgebra(field, bidegrees, table,
                          unit_index=A.unit_index * B.dim + B.unit_index)
    if hasattr(A, "_monomials") and hasattr(B, "_monomials"):
        offset = len(A._generators)
        out._monomials = [
            ma + tuple(g + offset for g in mb)
            for ma in A._monomials
            for mb in B._monomials
        ]
        out._generators = list(A._generators) + list(B._generators)
    return out


def _tensor_orientation(A: BigradedAlgebra) -> Orientation:
    """Orientation dual to the unique top monomial of a tensor model."""
    top_j = A.max_second_grading()
    top = [i for i in range(A.dim) if A.bidegrees[i] == (0, top_j)]
    if len(top) != 1:
        raise ValueError("tensor model has no unique top class")
    return make_orientation(A, {top[0]: 1})


def random_base_change(A: BigradedAlgebra, phi, delta, rng: random.Random):
    """Conjugate everything by a random bidegree-preserving isomorphism.

    The (0,0) block stays the identity so the unit is untouched.  Returns
    (A', phi', delta'); associativity and all congruence data are invariant.
    """
    field = A.field
    ncols = [{i: field.one} for i in range(A.dim)]  # the sparse columns of N
    ninv_cols = list(ncols)                          # and of N^-1
    for bd, idxs in A._components.items():
        if bd == (0, 0):
            continue
        k = len(idxs)
        while True:
            # Uniform residues over F_p, small integers over Q.
            block = [
                [field.coerce(rng.randrange(field.char) if field.char else rng.randint(-3, 3))
                 for _ in range(k)] for _ in range(k)
            ]
            try:
                inverse = exactalg.invert(block, field)
                break
            except ValueError:
                continue
        for i, col, inv_col in zip(idxs, _columns(block), _columns(inverse)):
            ncols[i] = {idxs[r]: x for r, x in col.items()}
            ninv_cols[i] = {idxs[r]: x for r, x in inv_col.items()}
    # The new product e_a * e_b is Ninv (N e_a * N e_b), and delta(e_j) is Ninv delta(N e_j).
    # A product is homogeneous, so it is 0 where no basis element has its bidegree.
    bd = A.bidegrees
    table = {(a, b): v for a, na in enumerate(ncols) for b, nb in enumerate(ncols)
             if A.component(bd[a][0] + bd[b][0], bd[a][1] + bd[b][1])
             and (v := _apply(field, ninv_cols, A.product(na, nb)))}
    A2 = BigradedAlgebra(field, A.bidegrees, table, unit_index=A.unit_index)
    phi2 = make_orientation(A2, {i: phi(na) for i, na in enumerate(ncols)})
    delta2 = None
    if delta is not None:
        delta2 = Differential(tuple(_apply(field, ninv_cols, _apply(field, delta.columns, na))
                                    for na in ncols), delta.shift)
    return A2, phi2, delta2


_EVEN_FACTORS = [
    (0, 1, 2), (0, 3, 2), (0, 5, 2),            # exterior, odd degree
    (0, 2, 2), (0, 2, 3), (0, 4, 2), (0, 2, 4),  # truncated polynomial
    (1, 2, 2), (1, 4, 2),                        # exterior at eps = 1
]


def random_pd_algebra(rng: random.Random, field, even_dim: bool | None = True):
    """A random connected PD algebra: twisted tensor of standard models.

    Tensor factors are exterior/truncated-polynomial models; PD holds by
    construction, and a random bidegree-preserving base change makes the
    Gram matrices generic.  ``even_dim`` constrains the formal dimension.
    """
    A, phi = _random_tensor_model(rng, field, 40, even_dim)
    A2, phi2, _ = random_base_change(A, phi, None, rng)
    return A2, phi2


def random_differential_algebra(rng: random.Random, field, max_tries: int = 60):
    """A random (A, phi, delta): differential sampled on generators.

    delta is drawn on tensor generators within a random bidegree shift,
    extended by the Leibniz rule, and rejection-checked for delta^2 = 0 and
    full Leibniz consistency (truncations constrain the choices); a random
    base change is applied last.
    """
    while True:
        A, phi = _random_tensor_model(rng, field, 36)
        delta = _sample_differential(A, rng, max_tries)
        if delta is not None:
            return random_base_change(A, phi, delta, rng)


def _random_tensor_model(rng: random.Random, field, max_dim: int, even_dim: bool | None = None):
    """(A, phi): 1-3 random factors, redrawn until the top class lies at
    eps = 0, the formal dimension has the asked parity and dim A <= max_dim."""
    while True:
        k = rng.randint(1, 3)
        factors = [rng.choice(_EVEN_FACTORS) for _ in range(k)]
        if sum(f[0] for f in factors) % 2:
            continue  # top class must land at eps = 0
        n = sum(j * (h - 1) for _, j, h in factors)
        if even_dim is not None and n % 2 == even_dim:
            continue
        if math.prod(h for _, _, h in factors) > max_dim:
            continue
        A = _single_generator_model(field, *factors[0])
        for f in factors[1:]:
            A = tensor(A, _single_generator_model(field, *f))
        return A, _tensor_orientation(A)


def _generator_indices(A: BigradedAlgebra) -> list[int]:
    gens = []
    for g in range(len(A._generators)):
        target = (g,)
        gens.append(A._monomials.index(target))
    return gens


def _sample_differential(A: BigradedAlgebra, rng: random.Random, max_tries: int):
    field = A.field
    gen_idx = _generator_indices(A)
    shifts = [(e, -j) for e in (0, 1) for j in range(1, A.max_second_grading() + 1)]
    # Monomials by length: the Leibniz recursion below needs the shorter first.
    order = sorted(range(A.dim), key=lambda i: len(A._monomials[i]))
    mono_index = {m: i for i, m in enumerate(A._monomials)}
    for _ in range(max_tries):
        de, dj = rng.choice(shifts)
        if rng.random() < 0.8 and (de + dj) % 2 == 0:
            continue  # favour odd total shifts, where delta^2 = 0 is generic
        cols: list[dict] = [{} for _ in range(A.dim)]
        for gi in gen_idx:
            e, j = A.bidegrees[gi]
            for t in A.component(e + de, j + dj):
                if rng.random() < 0.5:
                    # A nonzero residue over F_p, a small integer over Q.
                    x = field.coerce(rng.randrange(1, field.char) if field.char else rng.randint(-2, 2))
                    if x:
                        cols[gi][t] = x
        # Extend to monomials by the Leibniz recursion.
        for i in order:
            mono = A._monomials[i]
            if len(mono) > 1:
                cols[i] = _leibniz(A, cols, mono_index[mono[:1]], mono_index[mono[1:]])
        delta = Differential(tuple(cols), (de, dj))
        if check_derivation(A, delta).is_valid:
            return delta
    return None


def odd_model(field, m: int, r: int, pairing=None):
    """The odd-dimension family: dims (1, r, r, 1) in degrees 0, 1, 2m, 2m+1.

    Products a_i * u_j = C[i][j] * w with C invertible; everything else in
    positive degrees vanishes.  This realises the Betti profile of the
    surgered S^1 x S^2m example (rank 2 in degrees 1 and 2m for r = 2).
    """
    dim = 2 * r + 2
    if pairing is None:
        C = [[field.one if i == j else 0 for j in range(r)] for i in range(r)]
    else:
        C = [list(row) for row in pairing]
    bidegrees = [(0, 0)] + [(0, 1)] * r + [(0, 2 * m)] * r + [(0, 2 * m + 1)]
    a0, u0, w = 1, 1 + r, 2 * r + 1
    table = {key: {x: field.one} for x in range(dim) for key in ((0, x), (x, 0))}
    for i, j in itertools.product(range(r), repeat=2):
        if c := field.reduce(C[i][j]):
            table[a0 + i, u0 + j] = {w: c}
            table[u0 + j, a0 + i] = {w: c}  # |u| even: commutes
    A = BigradedAlgebra(field, bidegrees, table)
    phi = make_orientation(A, {w: 1})
    return A, phi, C


def odd_model_differential(A: BigradedAlgebra, C, skew) -> Differential:
    """delta(u) = C^{-T} S a with S skew: the unique Leibniz-consistent shape.

    Leibniz on pairs (u_i, u_j) forces C^T D + D^T C = 0, so D = C^{-T} S
    parametrises exactly the valid differentials of shift (0, 1-2m).
    """
    field = A.field
    r = (A.dim - 2) // 2
    Cinv_t = exactalg.invert(list(zip(*C)), field)
    m = (max(j for _, j in A.bidegrees) - 1) // 2
    cinv_cols, cols = _columns(Cinv_t), [{} for _ in range(A.dim)]
    for j, s in enumerate(_columns(skew)):
        # delta(u_j) = sum_i (C^{-T} S)_ij a_i
        cols[1 + r + j] = {1 + i: x for i, x in _apply(field, cinv_cols, s).items()}
    return Differential(tuple(cols), (0, 1 - 2 * m))
