"""Borel equivariant cohomology of a simplicial Z/p action.

Instead of triangulating EG x_G X (combinatorially hopeless), the standard
2-periodic free resolution of F_p over F_p[Z/p] is tensored with a cochain
model of X: a first-quadrant double complex K^{i,j} = C^j with horizontal
maps alternating (sigma^# - 1) and the norm, and total differential
d_h + (-1)^i d_v.  Total-complex ranks are computed exactly with the sparse
mod-p engine; for degrees above dim X the matrices repeat with period two,
which the rank cache exploits.

The model is a ``PermutationComplex``, the simplicial cochains of the action
as given, reduced.  No subdivision is needed: C^*(X) -> C^*(sd X) is an
equivariant quasi-isomorphism of bounded complexes, which Hom over F_p[G]
out of the resolution keeps.  The reduction (Kaczynski-Mischaikow-Mrozek,
Computational Homology, 2004) runs in three steps: the seed zeroes delta^0's
column at a G-fixed vertex, the coreduction queue of ``simplicial`` cancels
G-stable pairs of unit pivots that change no other entry, and a Markowitz
heap cancels G-stable pairs of the cells left by Schur complements on delta.
The result is an F_p[G]-complex chain homotopy equivalent to the cochains.
The unreduced model is the test oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate

from . import exactalg
from .exactalg import GF
from .group_action import GroupAction, fixed_set_cohomology, pullback_permutation
from .simplicial import coreduce, orbit


@dataclass(frozen=True)
class PermutationComplex:
    """A cochain complex C^0..C^dim of signed permutation F_p[Z/p]-modules.

    ``sizes[j]`` counts the cells of C^j, ``rows[j]`` holds the sparse rows
    of delta^j: C^j -> C^{j+1} (one per cell of C^{j+1}) and
    ``pullbacks[j] = (perm, signs)`` gives sigma^# on C^j as
    (sigma^# a)[s] = signs[s] * a[perm[s]].
    """

    p: int
    sizes: tuple[int, ...]
    rows: tuple[list[dict[int, int]], ...]
    pullbacks: tuple[tuple[list[int], list[int]], ...]

    @property
    def dim(self) -> int:
        return len(self.sizes) - 1

    @classmethod
    def of_action(cls, action: GroupAction) -> "PermutationComplex":
        """The simplicial cochains of *action*'s complex, unsubdivided."""
        X = action.complex
        degrees = range(X.dim + 1)
        return cls(action.p, X.f_vector, tuple(X.coboundary_rows(j) for j in degrees[:-1]),
                   tuple(pullback_permutation(action, j) for j in degrees))

    def reduced(self) -> "PermutationComplex":
        """Seed, coreduce, then cancel G-stable pairs (tau in C^{j+1}, s in C^j) by Schur steps.

        ``simplicial.coreduce`` with G's permutations runs first.  It zeroes
        delta^0's column at a G-fixed vertex, if there is one: the vertex's
        basis vector becomes the indicator of its component (on a connected
        X the constant cochain), which sigma^# fixes and delta kills.  Then
        its queue cancels orbits of unit pivots that change no other entry,
        so the live cells carry submatrices of delta.  The Markowitz heap
        runs on those.  Its cancellation is the Schur complement on delta^j
        at the pivots of one G-stable block with delta^j[tau, s] != 0: two
        fixed cells, or two free orbits where row tau meets orbit(s) only at
        s (the p pivots (sigma^k tau, sigma^k s) are then independent); never
        a fixed cell against a free orbit.  Pairs go cheapest Markowitz cost
        (row length - 1) * (column length - 1) first, so the pairs without
        fill-in lead.  Each orbit of entries has one heap entry, the one whose
        row tau is the least cell of its orbit: the live part of delta is
        G-stable, so its G-images have the same cost.  The orbits are walked
        once per degree; G has prime order, so tau and s have orbits of one
        size exactly when both are fixed or both move.
        """
        p, top = self.p, self.dim
        rows = [[{c: v % p for c, v in r.items() if v % p} for r in R] for R in self.rows]
        perms = [perm for perm, _ in self.pullbacks]
        rows, alive, *_ = coreduce(rows, self.sizes, perms)
        for j, R in enumerate(rows):
            live_rows, live_cols = alive[j + 1], alive[j]
            for t, r in enumerate(R):
                R[t] = {c: v for c, v in r.items() if live_cols[c]} if live_rows[t] else {}
        orbits = []  # per degree, each cell's orbit, listed from its least cell
        for perm in perms:
            orbits.append(O := [None] * len(perm))
            for o in (orbit(perm, q) for q in range(len(perm)) if O[q] is None):
                for x in o:
                    O[x] = o
        cols = [[set() for _ in range(n)] for n in self.sizes[:-1]]
        for R, C in zip(rows, cols):
            for t, r in enumerate(R):
                for c in r:
                    C[c].add(t)

        def cost(j: int, t: int, c: int) -> int:
            return (len(rows[j][t]) - 1) * (len(cols[j][c]) - 1)

        def push_free(j: int, entries):  # pairs a cancellation made fill-free
            R, C, O = rows[j], cols[j], orbits[j + 1]
            for t, c in entries:
                if O[t][0] == t and (len(R[t]) == 1 or len(C[c]) == 1):
                    heapq.heappush(heap, (0, j, t, c))

        def cancel(j: int, t: int, s: int):
            R, C = rows[j], cols[j]
            pivot, inv = R[t], pow(R[t][s], -1, p)
            others = C[s] - {t}
            for r in others:
                f = R[r][s] * inv % p
                for c, v in pivot.items():
                    R[r][c] = (R[r].get(c, 0) - f * v) % p
                    C[c].add(r)
                    if not R[r][c]:
                        del R[r][c]
                        C[c].discard(r)
            for c in pivot:
                C[c].discard(t)
            R[t] = {}
            push_free(j, [(r, c) for r in others for c in R[r]])
            if j > 0:  # s leaves C^j: drop row s of delta^{j-1}
                gone, rows[j - 1][s] = rows[j - 1][s], {}
                for c in gone:
                    cols[j - 1][c].discard(s)
                push_free(j - 1, [(r, c) for c in gone for r in cols[j - 1][c]])
            if j + 1 < top:  # t leaves C^{j+1}: drop column t of delta^{j+1}
                for r in cols[j + 1][t]:
                    del rows[j + 1][r][t]
                push_free(j + 1, [(r, c) for r in cols[j + 1][t] for c in rows[j + 1][r]])
                cols[j + 1][t] = set()
            alive[j + 1][t] = alive[j][s] = 0

        progress = True
        while progress:  # until a full sweep cancels nothing
            progress = False
            heap = [(cost(j, t, c), j, t, c) for j, R in enumerate(rows)
                    for t, r in enumerate(R) if orbits[j + 1][t][0] == t for c in r]
            heapq.heapify(heap)
            while heap:
                old, j, t, s = heapq.heappop(heap)
                if s not in rows[j][t]:
                    continue
                if cost(j, t, s) > old:
                    heapq.heappush(heap, (cost(j, t, s), j, t, s))
                    continue
                if (perms[j + 1][t] == t) != (perms[j][s] == s):
                    continue
                o = orbits[j][s]
                cells = o[o.index(s):] + o[:o.index(s)]  # from s, in step with t's orbit
                if any(c in rows[j][t] for c in cells[1:]):
                    continue
                progress = True
                for tau, cell in zip(orbits[j + 1][t], cells):
                    cancel(j, tau, cell)

        keep = [[s for s, a in enumerate(A) if a] for A in alive]
        new = [{s: k for k, s in enumerate(K)} for K in keep]
        return PermutationComplex(
            p,
            tuple(map(len, keep)),
            tuple([{new[j][c]: v for c, v in rows[j][t].items()} for t in keep[j + 1]]
                  for j in range(top)),
            tuple(([new[j][perm[s]] for s in keep[j]], [signs[s] for s in keep[j]])
                  for j, (perm, signs) in enumerate(self.pullbacks)),
        )


class BorelComplex:
    """The double complex K^{i,j} = C^j of a permutation cochain complex.

    Horizontal maps out of column i are (sigma^# - 1) for even i and
    Norm = 1 + sigma^# + ... + (sigma^#)^{p-1} for odd i; both commute with
    the simplicial coboundary, and Norm o (sigma^#-1) = (sigma^#-1) o Norm
    = 0 because (sigma^#)^p = 1.
    """

    def __init__(self, cochains: PermutationComplex):
        self.C = cochains
        self.p = cochains.p
        self._horizontal: dict[tuple[int, int], list[dict[int, int]]] = {}
        self._rank_cache: dict = {}

    def horizontal_rows(self, i: int, j: int) -> list[dict[int, int]]:
        """Sparse rows of K^{i,j} -> K^{i+1,j}: sigma^# - 1 or the norm.

        sigma^# is a signed permutation, so its powers compose in O(n) and
        the norm rows have at most p entries.
        """
        key = (i % 2, j)
        if key not in self._horizontal:
            perm, signs = self.C.pullbacks[j]
            rows: list[dict[int, int]] = []
            for s in range(len(perm)):
                row, cur, sgn = {s: 1 if i % 2 else -1}, s, 1
                for _ in range(self.p - 1 if i % 2 else 1):
                    sgn, cur = sgn * signs[cur], perm[cur]
                    row[cur] = row.get(cur, 0) + sgn
                rows.append({c: v % self.p for c, v in row.items() if v % self.p})
            self._horizontal[key] = rows
        return self._horizontal[key]

    def slice_dims(self, n: int) -> list[tuple[int, int]]:
        """Blocks (i, j) of total degree n, ordered by j."""
        return [(n - j, j) for j in range(min(n, self.C.dim) + 1) if n - j >= 0]

    def total_dim(self, n: int) -> int:
        return sum(self.C.sizes[j] for _, j in self.slice_dims(n))

    def total_differential_rows(self, n: int) -> list[dict[int, int]]:
        """Sparse rows of D_n: total degree n -> n + 1.

        Row indices run over the degree-(n+1) slice blocks in slice_dims
        order, columns over the degree-n slice.
        """
        src = self.slice_dims(n)
        src_offset = dict(zip(src, accumulate((self.C.sizes[j] for _, j in src), initial=0)))
        rows: list[dict[int, int]] = []
        p = self.p
        for (i, j) in self.slice_dims(n + 1):
            block_rows: list[dict[int, int]] = [dict() for _ in range(self.C.sizes[j])]
            # Horizontal: from K^{i-1, j}.
            if (i - 1, j) in src_offset:
                base = src_offset[(i - 1, j)]
                for r, hrow in enumerate(self.horizontal_rows(i - 1, j)):
                    block_rows[r] = {base + c: v for c, v in hrow.items()}
            # Vertical: from K^{i, j-1} with sign (-1)^i.
            if (i, j - 1) in src_offset:
                sign = -1 if i % 2 else 1
                base = src_offset[(i, j - 1)]
                for r, row in enumerate(self.C.rows[j - 1]):
                    tgt = block_rows[r]
                    for c, v in row.items():
                        tgt[base + int(c)] = (tgt.get(base + int(c), 0) + sign * v) % p
            rows.extend(block_rows)
        return [{c: v for c, v in row.items() if v % p} for row in rows]

    def differential_rank(self, n: int) -> int:
        """rank of D_n; cached, and stable degrees share one computation."""
        if n < 0:
            return 0
        key = ("stable", n % 2) if n >= self.C.dim else ("deg", n)
        if key not in self._rank_cache:
            rows = self.total_differential_rows(n)
            self._rank_cache[key] = exactalg.sparse_rank_modp(rows, self.p)
        return self._rank_cache[key]

    def cohomology_dim(self, n: int) -> int:
        if n < 0:
            return 0
        return self.total_dim(n) - self.differential_rank(n) - self.differential_rank(n - 1)


def equivariant_betti(action: GroupAction, degrees) -> list[int]:
    """dim H^n_G(X; F_p) for each n in *degrees*, exactly.

    For the one-point trivial action this reproduces the classifying-space
    answer: one dimension in every degree.  The Borel complex is built on
    the reduced cochains of the action as given.
    """
    K = BorelComplex(PermutationComplex.of_action(action).reduced())
    return [K.cohomology_dim(n) for n in degrees]


def localization_check(action: GroupAction) -> dict:
    """Stabilized equivariant Betti numbers against the fixed-set total Betti.

    The evaluation/localization theorem's numerical shadow: for n above
    dim X, dim H^n_G equals dim H^*(X^G; F_p).  Checks n = dim X + 1 and
    dim X + 2.  Neither side is subdivided: the fixed set is read off the
    invariant simplices, and the Borel complex is built on the reduced
    cochains of the action as given.
    """
    fixed_total = fixed_set_cohomology(action, GF(action.p)).total
    K = BorelComplex(PermutationComplex.of_action(action).reduced())
    d = action.complex.dim
    dims = [K.cohomology_dim(d + 1), K.cohomology_dim(d + 2)]
    return {
        "stable_dims": dims,
        "fixed_total": fixed_total,
        "ok": all(x == fixed_total for x in dims),
    }


def group_cohomology_dims(g_matrix, p: int) -> tuple[int, int]:
    """Evaluated positive-degree group cohomology dims of a Z/p module.

    Returns (even, odd) after inverting the polynomial generator and killing
    the exterior generator, i.e. the Tate groups modulo the image of
    cup-with-s; these are the E2-bar entries of the evaluated spectral
    sequence.  On a module with only trivial / free / ker-epsilon summands
    this gives (dim T, #ker-eps summands).

    The s-action is computed honestly as the connecting map of
    0 -> V -> V (x) J_2 -> V -> 0 on the 2-periodic complexes, with
    J_2 the nontrivial self-extension of the trivial module.
    """
    field = GF(p)
    g = exactalg.field_matrix(g_matrix, field)
    n = len(g)
    if n == 0:
        return 0, 0
    norm, g_p = _norm(g, field)
    if g_p != exactalg.identity(n):
        raise ValueError("operator does not have order dividing p")
    gm1 = _minus_identity(g, field)

    # Tate representatives: even classes in ker(g-1)/im(norm), odd classes
    # in ker(norm)/im(g-1).
    rows = exactalg.sparse_rows
    even = exactalg.Subquotient(rows(gm1), rows(zip(*norm)), field, n)
    odd = exactalg.Subquotient(rows(norm), rows(zip(*gm1)), field, n)

    # V (x) J_2 with g acting as  [g  g] (one unipotent Jordan step on J_2):
    #                             [0  g]
    big = [row + row for row in g] + [[0] * n + row for row in g]
    bgm1 = _minus_identity(big, field)
    bnorm, _ = _norm(big, field)

    # Connecting map: lift a class rep z to (z, 0)... the extension is
    # 0 -> V -i-> V(x)J2 -pi-> V -> 0 with i(v) = (v, 0), pi(v, w) = w.
    # Lift z in the quotient copy to (0, z), apply the relevant periodic
    # differential of V(x)J2, land in the image of i, pull back.
    def connecting(z: dict, diff_big: list[list]) -> dict:
        out = {i: x for i, row in enumerate(diff_big)
               if (x := field.reduce(sum(row[n + k] * v for k, v in z.items())))}
        if any(i >= n for i in out):
            raise ArithmeticError("connecting image must lie in the subrepresentation")
        return out

    # s: even -> odd uses the differential (g-1) on the big module; the
    # boundary of an even rep is the odd-position obstruction.  s: odd ->
    # even uses the norm.
    s_even_to_odd = [connecting(z, bgm1) for z in even.basis]
    s_odd_to_even = [connecting(z, bnorm) for z in odd.basis]

    even_dim = _dim_modulo(even, s_odd_to_even)
    odd_dim = _dim_modulo(odd, s_even_to_odd)
    return even_dim, odd_dim


def _minus_identity(g: list[list], field) -> list[list]:
    return [[field.reduce(x - (i == j)) for j, x in enumerate(row)] for i, row in enumerate(g)]


def _norm(g: list[list], field) -> tuple[list[list], list[list]]:
    """The norm 1 + g + ... + g^(p-1) and g^p, over F_p."""
    power = norm = exactalg.identity(len(g))
    for _ in range(field.p - 1):
        power = exactalg.matmul(power, g, field)
        norm = [[field.reduce(x + y) for x, y in zip(r, s)] for r, s in zip(norm, power)]
    return norm, exactalg.matmul(power, g, field)


def _dim_modulo(sq: exactalg.Subquotient, incoming):
    """dim of the subquotient after killing the classes of the incoming s-image.

    The s-images are cocycles (D^2 = 0 on V (x) J_2), so ``express`` takes them.
    """
    return len(sq) - exactalg.rank([sq.express(v) for v in incoming], sq.field)
