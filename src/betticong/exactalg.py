"""Exact linear algebra over the integers, the rationals, and prime fields.

Everything downstream (cohomology, group actions, the Borel complex) reduces
to the primitives in this module: the dense reduced row echelon form, the
one sparse elimination loop (over Q and over F_p), the one
kernel-modulo-image engine ``Subquotient``, the integer Smith normal form of
sparse rows (whose divisors give the ranks over every field and, through
``p_valuation_profile``, the p-local torsion) and the Jordan block partition
of a nilpotent operator.  All arithmetic is exact: Python ints,
``fractions.Fraction`` for the rationals, canonical residues in ``[0, p)``
for prime fields.  A dense matrix is a list of rows, a short coefficient
vector a list, of such elements.  The two field objects own that carrier:
``one``, ``zeros``, ``coerce`` and ``reduce`` (the identity over Q, ``% p``
over F_p), so no other module tests which field it holds.  The sparse
routines work on dict-of-rows and exist because the corpus coboundary
matrices are large but eliminate with tiny fill-in.  A cochain, and every
vector ``Subquotient`` takes or publishes, is sparse too:
``{index: value}``, 0 wherever an index is absent.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain

# Primality is decided by trial division, which a huge input would make
# run for hours; the bound turns that into an immediate error.
_MAX_FIELD_PRIME = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def checked_prime(p: int) -> int:
    """*p* if it is a prime that ``PrimeField`` accepts, else ValueError.

    The size bound is tested first, so a huge input fails at once instead
    of running trial division.
    """
    if p >= _MAX_FIELD_PRIME:
        raise ValueError(f"{p} is too large: prime fields need p < 2**31")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _zeros(shape):
    """A matrix of 0s, ``shape`` (rows, cols)."""
    m, n = shape
    return [[0] * n for _ in range(m)]


class RationalField:
    """The field Q; elements are ints or ``Fraction`` in lowest terms."""

    char = 0
    name = "Q"
    one = Fraction(1)
    zeros = staticmethod(_zeros)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def reduce(self, a):
        """Canonical form of an element: nothing to do over Q."""
        return a

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p; elements are canonical residues in ``[0, p)``."""

    one = 1
    zeros = staticmethod(_zeros)

    def __init__(self, p: int):
        self.p = checked_prime(p)
        self.char = p
        self.name = f"F{p}"

    def coerce(self, x):
        """Residue of an int or a ``Fraction`` (its denominator inverted mod p)."""
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def reduce(self, a):
        """Canonical residue of an integer element (``% p``)."""
        return a % self.p

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_matrix(rows, field) -> list[list]:
    """A fresh copy of a matrix (a sequence of rows) in the dense carrier of *field*."""
    return [[field.reduce(x) for x in row] for row in rows]


def identity(n: int) -> list[list[int]]:
    """The n x n identity matrix."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _axpy(y: dict, a, x: dict):
    """y += a x, for sparse vectors; zeros and unreduced values stay until ``_reduced``."""
    get = y.get
    for m, v in x.items():
        y[m] = get(m, 0) + a * v


def _reduced(y: dict, p: int) -> dict:
    """y's nonzero entries, reduced mod p (p a prime, or 0 for Z and Q)."""
    if p:
        return {m: r for m, v in y.items() if (r := v % p)}
    return {m: v for m, v in y.items() if v}


# ---------------------------------------------------------------------------
# Dense reduced row echelon form and kernels
# ---------------------------------------------------------------------------

def rref(matrix, field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over *field*; returns ``(R, pivot_columns)``.

    Deterministic: pivots are the first nonzero entry scanning down each
    column in input row order.  *matrix* is not modified.
    """
    M = field_matrix(matrix, field)
    pivots: list[int] = []
    r = 0
    for c in range(len(M[0]) if M else 0):
        if r == len(M):
            break
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        row = M[r]
        # The pivot inverse, in either field.
        inv = field.coerce(Fraction(1, row[c]))
        if inv != 1:
            row[c:] = [field.reduce(x * inv) for x in row[c:]]
        for other in M:
            f = other[c]
            if f and other is not row:
                other[c:] = [field.reduce(x - f * y) for x, y in zip(other[c:], row[c:])]
        pivots.append(c)
        r += 1
    return M, pivots


def rank(matrix, field) -> int:
    return len(rref(matrix, field)[1])


def matmul(A, B, field):
    """Exact product over *field* of the matrices A and B (lists of rows).

    A B with no rows carries no column count, so it is refused unless A has
    no rows either.
    """
    if A and not B:
        raise ValueError("matmul needs a right factor with at least one row")
    cols = list(zip(*B))
    return [[field.reduce(sum(a * b for a, b in zip(row, col))) for col in cols] for row in A]


def invert(M, field) -> list[list]:
    """Exact inverse of a square matrix over *field*; raises if singular."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("invert needs a square matrix")
    R, piv = rref([list(row) + e for row, e in zip(M, identity(n))], field)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


# ---------------------------------------------------------------------------
# Sparse exact elimination: one loop for Q and F_p
# ---------------------------------------------------------------------------

def _subtract_pivot_row(rows, col_rows, dst: int, src: int, pc: int, p):
    """Clear column *pc* of ``rows[dst]`` with ``rows[src]``, keeping the index.

    ``col_rows[c]`` is the set of rows with a nonzero entry in column c.
    Over F_p (the source pivot is 1): dst <- dst - f*src.  Over Q
    fraction-free: dst <- pv*dst - f*src, then dst is divided by the gcd of
    its entries.
    """
    other, row = rows[dst], rows[src]
    f = other[pc]
    modp = p is not None
    if not modp:
        pv = row[pc]
        for c in list(other):
            if c not in row:
                other[c] = other[c] * pv
    for c, v in row.items():
        if modp:
            nv = (other.get(c, 0) - f * v) % p
        else:
            nv = (other[c] * pv if c in other else 0) - f * v
        if nv:
            if c not in other:
                col_rows.setdefault(c, set()).add(dst)
            other[c] = nv
        elif c in other:
            del other[c]
            col_rows[c].discard(dst)
    if other and not modp:
        g = 0
        for v in other.values():
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            for c in other:
                other[c] //= g


def _eliminate(rows: list[dict[int, int]], p: int | None = None):
    """Sparse Gaussian elimination shared by every sparse rank and echelon form.

    Rows are dicts {column: nonzero int}; they are not modified, and every
    row that a step can change is a copy.
    Two modes: over Q (``p`` None) fraction-free on integer rows with gcd
    normalisation, so it is exact; over F_p (``p`` a prime) on residues mod
    p with each pivot scaled to 1.  Pivot choice: sparsest active row
    first, then its column that hits the fewest active rows (classic
    fill-in heuristic); ties break on indices so the elimination is
    deterministic.  A one-entry row alone in its column is a pivot under
    that rule and meets no other row, so it is taken first, as given (over
    F_p scaled to 1).

    Returns ``(work, pivots)``: the reduced rows and the (row, column)
    pivots in elimination order.  Each pivot row is zero at the column of
    every earlier pivot.
    """
    modp = p is not None
    work: list[dict[int, int]] = []
    col_rows: dict[int, set[int]] = {}
    active: set[int] = set()
    ones: list[tuple[int, int, int]] = []  # (row, column, entry) of the one-entry rows
    single: dict[int, int] = {}  # their columns: the row, or -1 if several share it
    for i, r in enumerate(rows):  # empty and one-entry rows are held uncopied for now
        if len(r) == 1:
            (c, v), = r.items()
            if not modp or v % p:
                ones.append((i, c, v))
                single[c] = -1 if c in single else i
                work.append(r)
                continue
        if r:
            r = {c: v % p for c, v in r.items() if v % p} if modp else dict(r)
            for c in r:
                col_rows.setdefault(c, set()).add(i)
            if r:
                active.add(i)
        work.append(r)
    # No step can give another row an entry in the column of a one-entry
    # row alone there, so it stays as given; the others are copied.
    pivots: list[tuple[int, int]] = []
    for i, c, v in ones:
        if single[c] == i and c not in col_rows:
            if modp and v != 1:
                work[i] = {c: 1}
            pivots.append((i, c))
        else:
            work[i] = {c: v % p if modp else v}
            col_rows.setdefault(c, set()).add(i)
            active.add(i)
    heap = [(len(work[i]), i) for i in active]
    heapq.heapify(heap)
    # col_rows[c] holds active rows only: a pivot row leaves it at the end of
    # its step, and a row leaves active only as a pivot or once it is empty.
    while heap:
        k, i = heapq.heappop(heap)
        if i not in active:
            continue
        row = work[i]
        if len(row) != k:  # stale heap entry
            heapq.heappush(heap, (len(row), i))
            continue
        pc = min(row, key=lambda c: (len(col_rows[c]), c))
        active.discard(i)
        pivots.append((i, pc))
        if modp:
            inv = pow(row[pc], -1, p)
            if inv != 1:
                for c in row:
                    row[c] = row[c] * inv % p
        for j in col_rows[pc] - {i}:
            _subtract_pivot_row(work, col_rows, j, i, pc, p)
            if not work[j]:
                active.discard(j)
            else:
                heapq.heappush(heap, (len(work[j]), j))
        for c in row:
            col_rows[c].discard(i)
    return work, pivots


def sparse_rank_modp(rows: list[dict[int, int]], p: int) -> int:
    """Exact rank over F_p of a dict-of-rows matrix."""
    return len(_eliminate(rows, p)[1])


def sparse_rank_q(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of an integer dict-of-rows matrix."""
    return len(_eliminate(rows)[1])


def sparse_rref_q(rows: list[dict[int, int]]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Sparse reduced echelon basis of the row space over Q.

    Returns (pivot rows as dicts with the pivot entry normalised to 1,
    pivot columns, sorted).  Pivot columns follow the fill-in heuristic, so
    the basis may differ from the dense rref's while spanning the same row
    space; each pivot column is 1 in its own row and 0 in every other.
    Fraction-free elimination with gcd row normalisation keeps the
    arithmetic integral until the final scaling, so large sparse coboundary
    matrices reduce in near-linear time.  Deterministic for fixed input.
    """
    work, pivots = _eliminate(rows)
    # Backward pass: clear each pivot column from the other pivot rows.
    col_rows: dict[int, set[int]] = {}
    for i, _ in pivots:
        for c in work[i]:
            col_rows.setdefault(c, set()).add(i)
    for i, pc in reversed(pivots):
        for j in [j for j in col_rows[pc] if j != i]:
            _subtract_pivot_row(work, col_rows, j, i, pc, None)
    # Normalise pivots to 1 and sort by pivot column.
    out_rows: list[dict[int, Fraction]] = []
    out_pivots: list[int] = []
    for (i, pc) in sorted(pivots, key=lambda t: t[1]):
        row = work[i]
        pv = row[pc]
        out_rows.append({c: Fraction(v, pv) for c, v in row.items()})
        out_pivots.append(pc)
    return out_rows, out_pivots


def back_substitute(rows, x: dict, field) -> dict:
    """Extend sparse x so that row . x = 0 for each ``(pivot, row)`` in turn.

    Each row is 1 at its pivot, where x is unset; the other columns it uses
    must be fixed in x from the start or be pivots of earlier rows.
    """
    for pc, row in rows:
        s = field.reduce(-sum(v * x[c] for c, v in row.items() if c in x))
        if s:
            x[pc] = s
    return x


# ---------------------------------------------------------------------------
# Kernel modulo image: one sparse engine for both fields
# ---------------------------------------------------------------------------

def _unit_echelon(rows, field) -> list[tuple[int, dict]]:
    """(pivot, row) pairs of a sparse echelon form, each row 1 at its pivot.

    The pairs run last pivot first: each row is 0 at the pivots after it,
    the order in which ``back_substitute`` solves them.  Over F_p the engine
    already scales pivots to 1; over Q its rows are fraction-free and are
    divided by their pivot entry here.
    """
    work, pivots = _eliminate(rows, field.char or None)
    out = []
    for i, pc in pivots:
        row, pv = work[i], work[i][pc]
        out.append((pc, row if pv == 1 else {c: Fraction(v, pv) for c, v in row.items()}))
    return out[::-1]


def int_multiple(values: dict) -> tuple[int, dict[int, int]]:
    """``(m, w)``: w = m * values, a sparse int vector, m the lcm of the denominators."""
    m = math.lcm(*(x.denominator for x in values.values()))
    return m, {c: int(x * m) for c, x in values.items() if x}


def int_rows(rows) -> list[dict[int, int]]:
    """The nonzero sparse rows ``{column: coeff}`` as the sparse int rows ``Subquotient`` takes.

    Residues pass unchanged; a row over Q is scaled by the lcm of its
    denominators, which keeps the spans the engine depends on.
    """
    return [r for _, r in map(int_multiple, rows) if r]


def sparse_rows(matrix) -> list[dict[int, int]]:
    """``int_rows`` of the rows of a dense matrix."""
    return int_rows(dict(enumerate(row)) for row in matrix)


def transpose_rows(rows: list[dict], ncols: int) -> list[dict]:
    """The sparse rows of the transpose of a matrix given by its sparse rows."""
    out: list[dict] = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[c][r] = v
    return out


def pivot_columns(rows, field) -> list[int]:
    """Sorted pivot columns of an echelon form of sparse int rows over *field*: a column basis."""
    return sorted(pc for _, pc in _eliminate(rows, field.char or None)[1])


def _column_index(rows: list[dict]):
    """``(starts, at)``: the rows of sparse *rows* with an entry in column c are
    ``at[starts[c]:starts[c + 1]]``, in order; ``array``s, 2 bytes an entry where all fit."""
    from array import array  # here, so that importing betticong does not load it
    counts = Counter(chain.from_iterable(rows))
    starts = list(accumulate(map(counts.__getitem__, range(max(counts, default=-1) + 2))))
    at = [0] * starts[-1]
    for i in reversed(range(len(rows))):  # column c ends at starts[c] until it is filled
        for c in rows[i]:
            starts[c] -= 1
            at[starts[c]] = i
    code = "H" if max(len(at), len(rows)) < 1 << 16 else "I"
    return array(code, starts), array(code, at)


class Subquotient:
    """A basis of a complement of a subspace B in ker A, with ``express``.

    ``kernel_of`` holds the sparse int rows of A and ``image`` sparse int
    rows spanning B, on ``n`` columns (``int_rows`` makes both).  Let P be
    the pivot set of the eliminated image rows.  Each pivot row is 0 at the
    earlier pivots, so B meets {v : v|_P = 0} only in 0, and the kernel of
    A off P is a complement of B in ker A.  Every vector here is sparse,
    ``{column: value}``.  ``basis`` holds the complement's vectors by back
    substitution from each free column f: the sparse vector {f: 1} extended
    to the kernel's pivot columns, so it is absent at the other free
    columns and on P.  ``express`` checks A v = 0 on the kept (not copied)
    rows of A, then pairs v with dual vectors ``duals``: z_f is 1 at f,
    solved on P last pivot first to vanish on B, so z_j . basis[k] = [j ==
    k].  ``from_duals`` publishes a basis and duals found another way.  The
    check reads the rows that meet v's support through a column index of A
    (``array('H')`` column starts and row numbers, ``'I'`` where they do not
    fit), built at the first ``express`` if A has rows.
    """

    def __init__(self, kernel_of, image, field, n: int):
        im_rows = _unit_echelon(image, field)
        P = {pc for pc, _ in im_rows}
        rows = [{c: v for c, v in row.items() if c not in P} for row in kernel_of]
        solve = _unit_echelon(rows, field)
        bound = P | {pc for pc, _ in solve}
        free = [f for f in range(n) if f not in bound]
        self._rows, self._index, self.field = kernel_of, [], field
        self.basis = [back_substitute(solve, {f: 1}, field) for f in free]
        self.duals = [back_substitute(im_rows, {f: 1}, field) for f in free]

    @classmethod
    def from_duals(cls, kernel_of, field, basis, duals, index=None) -> "Subquotient":
        """A basis of a complement of B in ker A with its dual vectors.

        Both are sparse.  Each z_j in *duals* vanishes on B and z_j .
        basis[k] = [j == k].  With no basis, B = ker A: only ``express``'s
        kernel check runs.  *index*, a list, receives A's column index when
        it is built; Subquotients on the same rows may share one.
        """
        sq = cls.__new__(cls)
        sq._rows, sq._index = kernel_of, [] if index is None else index
        sq.field, sq.basis, sq.duals = field, basis, duals
        return sq

    def __len__(self):
        return len(self.basis)

    def express(self, v: dict) -> list:
        """Coefficients (a list) of sparse v's class in ``basis``; ValueError unless A v = 0.

        A v = 0 is checked on v's integer multiple, in the rows of A that meet its support."""
        w = int_multiple(v)[1]
        if self._rows:
            if not self._index:
                self._index += _column_index(self._rows)
            (starts, at), rows, sums = self._index, self._rows, {}
            for c, x in w.items():
                if 0 <= c < len(starts) - 1:
                    for r in at[starts[c]:starts[c + 1]]:
                        sums[r] = sums.get(r, 0) + rows[r][c] * x
            if any(map(self.field.reduce, sums.values())):
                raise ValueError("vector is not in the kernel modulo the image")
        coeffs = [0] * len(self.duals)
        for j, z in enumerate(self.duals):
            s = self.field.coerce(sum(x * v[c] for c, x in z.items() if c in w))
            if s:
                coeffs[j] = s
        return coeffs


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """Divisor chain of an integer matrix: d_1 | d_2 | ... , zeros last.

    ``divisors`` has length min(rows, cols); ``rank`` counts the nonzero
    entries.
    """

    divisors: tuple[int, ...]
    rank: int


def smith_normal_form(rows: list[dict[int, int]], ncols: int) -> SmithForm:
    """Smith normal form (the divisor chain) of an integer matrix on *ncols*
    columns, given by its sparse rows ``{column: int}``; they are not modified.

    First diagonalise.  The pivot is the entry of least absolute value, ties
    on (row, col).  Floor-division row operations clear its column and
    column operations its row; the least remainder left in either becomes
    the next pivot, and a pivot alone in its row and column goes on the
    diagonal.  Each diagonal entry starts with a scan of the remaining rows
    in index order, which stops at the first row holding a +-1.  Then, as
    diag(a, b) ~ diag(gcd(a, b), lcm(a, b)), pairwise gcd and lcm over the
    diagonal entries above 1 give the chain, after the 1s and before the
    zeros.
    """
    size = min(len(rows), ncols)
    rows = {i: r for i, row in enumerate(rows) if (r := {c: v for c, v in row.items() if v})}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)

    def add(i: int, j: int, v: int):
        row = rows[i]
        nv = row.get(j, 0) + v
        if nv:
            row[j] = nv
            cols.setdefault(j, set()).add(i)
        else:
            del row[j]
            cols[j].discard(i)

    diagonal: list[int] = []
    while rows:
        least = math.inf
        for i, row in rows.items():  # rows are only ever deleted, so stay in index order
            m = min(map(abs, row.values()))
            if m < least:
                least, pi = m, i
                if m == 1:
                    break
        pc = min(c for c, v in rows[pi].items() if abs(v) == least)
        while True:
            pivot = rows[pi][pc]
            for i in cols[pc] - {pi}:
                q = rows[i][pc] // pivot
                if q:
                    for c, v in rows[pi].items():
                        add(i, c, -q * v)
                    if not rows[i]:
                        del rows[i]
            for c in [c for c in rows[pi] if c != pc]:
                q = rows[pi][c] // pivot
                if q:
                    for i in list(cols[pc]):
                        add(i, c, -q * rows[i][pc])
            left = [(abs(rows[i][pc]), i, pc) for i in cols[pc] if i != pi]
            left += [(abs(v), pi, c) for c, v in rows[pi].items() if c != pc]
            if not left:
                break
            _, pi, pc = min(left)
        diagonal.append(abs(pivot))
        del rows[pi], cols[pc]

    big = [d for d in diagonal if d > 1]
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            g = math.gcd(big[a], big[b])
            big[a], big[b] = g, big[a] // g * big[b]
    divisors = [1] * (len(diagonal) - len(big)) + big
    return SmithForm(divisors=tuple(divisors + [0] * (size - len(divisors))), rank=len(diagonal))


def p_valuation_profile(divisors, p: int) -> list[int]:
    """p-adic valuations of the nonzero divisors of a Smith divisor chain.

    In a chain d_1 | d_2 | ... the valuations ascend.  A divisor of
    valuation k >= 1 is a summand Z/p^k of the p-local cokernel, so the
    Bockstein hypothesis (no Z/p summand) is that no valuation is 1.
    """
    vals = []
    for d in divisors:
        if d:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            vals.append(k)
    return vals


# ---------------------------------------------------------------------------
# Nilpotent block structure
# ---------------------------------------------------------------------------

def nilpotent_block_sizes(matrix, field, bound: int) -> list[int]:
    """Jordan block size partition of a nilpotent operator, descending.

    Derived from the kernel-dimension profile: dim ker(n^k) = sum over
    blocks of min(k, size).  Rejects input with ``n**bound != 0``.
    """
    N = field_matrix(matrix, field)
    dim = len(N)
    if any(len(row) != dim for row in N):
        raise ValueError("nilpotent_block_sizes needs a square matrix")
    if dim == 0:
        return []
    power = N
    ker_dims = [0, dim - rank(N, field)]
    k = 1
    while ker_dims[-1] < dim and k < bound:
        power = matmul(power, N, field)
        ker_dims.append(dim - rank(power, field))
        k += 1
    if ker_dims[-1] < dim:
        raise ValueError(f"matrix is not nilpotent within bound {bound}")
    # blocks of size >= k: ker_dims[k] - ker_dims[k-1]
    at_least = [ker_dims[k] - ker_dims[k - 1] for k in range(1, len(ker_dims))]
    at_least.append(0)
    sizes: list[int] = []
    for s in range(1, len(at_least)):
        sizes.extend([s] * (at_least[s - 1] - at_least[s]))
    return sorted(sizes, reverse=True)
