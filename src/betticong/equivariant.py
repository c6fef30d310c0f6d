"""Borel equivariant cohomology of a simplicial Z/p action.

Instead of triangulating EG x_G X (combinatorially hopeless), the standard
2-periodic free resolution of F_p over F_p[Z/p] is tensored with the
simplicial cochains: a first-quadrant double complex K^{i,j} = C^j(X;F_p)
with horizontal maps alternating (sigma^# - 1) and the norm, and total
differential d_h + (-1)^i d_v.  Total-complex ranks are computed exactly
with the sparse mod-p engine; for degrees above dim X the matrices repeat
with period two, which the rank cache exploits.
"""

from __future__ import annotations

import numpy as np

from . import exactalg
from .exactalg import GF
from .group_action import (
    GroupAction,
    fixed_set_cohomology,
    make_regular,
    pullback_permutation,
)

class BorelComplex:
    """The double complex K^{i,j} = C^j(X; F_p) for a Z/p action.

    Horizontal maps out of column i are (sigma^# - 1) for even i and
    Norm = 1 + sigma^# + ... + (sigma^#)^{p-1} for odd i; both commute with
    the simplicial coboundary, and Norm o (sigma^#-1) = (sigma^#-1) o Norm
    = 0 because (sigma^#)^p = 1.
    """

    def __init__(self, action: GroupAction):
        self.action = action
        self.p = action.p
        self.X = action.complex
        self.field = GF(self.p)
        self._horizontal: dict[tuple[int, int], list[dict[int, int]]] = {}
        self._rank_cache: dict = {}

    def horizontal_rows(self, i: int, j: int) -> list[dict[int, int]]:
        """Sparse rows of K^{i,j} -> K^{i+1,j}: sigma^# - 1 or the norm.

        sigma^# is a signed permutation, so its powers compose in O(n) and
        the norm rows have at most p entries.
        """
        key = (i % 2, j)
        if key not in self._horizontal:
            perm, signs = pullback_permutation(self.action, j)
            n = len(perm)
            p = self.p
            rows: list[dict[int, int]] = []
            if i % 2 == 0:
                for s in range(n):
                    row: dict[int, int] = {s: -1 % p}
                    row[perm[s]] = (row.get(perm[s], 0) + signs[s]) % p
                    rows.append({c: v for c, v in row.items() if v % p})
            else:
                for s in range(n):
                    row = {s: 1}
                    cur, sgn = s, 1
                    for _ in range(p - 1):
                        sgn = sgn * signs[cur]
                        cur = perm[cur]
                        row[cur] = (row.get(cur, 0) + sgn) % p
                    rows.append({c: v % p for c, v in row.items() if v % p})
            self._horizontal[key] = rows
        return self._horizontal[key]

    def slice_dims(self, n: int) -> list[tuple[int, int]]:
        """Blocks (i, j) of total degree n, ordered by j."""
        return [(n - j, j) for j in range(min(n, self.X.dim) + 1) if n - j >= 0]

    def total_dim(self, n: int) -> int:
        return sum(self.X.n_simplices(j) for _, j in self.slice_dims(n))

    def total_differential_rows(self, n: int) -> list[dict[int, int]]:
        """Sparse rows of D_n: total degree n -> n + 1.

        Row indices run over the degree-(n+1) slice blocks in slice_dims
        order, columns over the degree-n slice.
        """
        src = self.slice_dims(n)
        dst = self.slice_dims(n + 1)
        src_offset = {}
        off = 0
        for (i, j) in src:
            src_offset[(i, j)] = off
            off += self.X.n_simplices(j)
        rows: list[dict[int, int]] = []
        p = self.p
        for (i, j) in dst:
            block_rows: list[dict[int, int]] = [dict() for _ in range(self.X.n_simplices(j))]
            # Horizontal: from K^{i-1, j}.
            if (i - 1, j) in src_offset:
                base = src_offset[(i - 1, j)]
                for r, hrow in enumerate(self.horizontal_rows(i - 1, j)):
                    block_rows[r] = {base + c: v for c, v in hrow.items()}
            # Vertical: from K^{i, j-1} with sign (-1)^i.
            if (i, j - 1) in src_offset:
                sign = -1 if i % 2 else 1
                base = src_offset[(i, j - 1)]
                for r, row in enumerate(self.X.coboundary_rows(j - 1)):
                    tgt = block_rows[r]
                    for c, v in row.items():
                        tgt[base + int(c)] = (tgt.get(base + int(c), 0) + sign * v) % p
            rows.extend(block_rows)
        return [
            {c: v for c, v in row.items() if v % p} for row in rows
        ]

    def differential_rank(self, n: int) -> int:
        """rank of D_n; cached, and stable degrees share one computation."""
        if n < 0:
            return 0
        key = ("stable", n % 2) if n >= self.X.dim else ("deg", n)
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
    answer: one dimension in every degree.
    """
    K = BorelComplex(action)
    return [K.cohomology_dim(n) for n in degrees]


def localization_check(action: GroupAction) -> dict:
    """Stabilized equivariant Betti numbers against the fixed-set total Betti.

    The evaluation/localization theorem's numerical shadow: for n above
    dim X, dim H^n_G equals dim H^*(X^G; F_p).  Checks n = dim X + 1 and
    dim X + 2.
    """
    reg = make_regular(action)
    fixed_total = fixed_set_cohomology(action, GF(action.p)).total
    K = BorelComplex(reg)
    d = reg.complex.dim
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
    n = g.shape[0]
    if n == 0:
        return 0, 0
    norm, g_p = _norm(g, field)
    if np.any(g_p != np.eye(n, dtype=np.int64)):
        raise ValueError("operator does not have order dividing p")
    gm1 = field.reduce(g - np.eye(n, dtype=np.int64))

    # Tate representatives: even classes in ker(g-1)/im(norm), odd classes
    # in ker(norm)/im(g-1).
    rows = exactalg.sparse_rows
    even = exactalg.Subquotient(rows(gm1), rows(norm.T), field, n)
    odd = exactalg.Subquotient(rows(norm), rows(gm1.T), field, n)

    # V (x) J_2 with g acting as  [g  g] (one unipotent Jordan step on J_2):
    #                             [0  g]
    big = field.zeros((2 * n, 2 * n))
    big[:n, :n] = g
    big[n:, n:] = g
    big[:n, n:] = g
    bgm1 = field.reduce(big - np.eye(2 * n, dtype=np.int64))
    bnorm, _ = _norm(big, field)

    # Connecting map: lift a class rep z to (z, 0)... the extension is
    # 0 -> V -i-> V(x)J2 -pi-> V -> 0 with i(v) = (v, 0), pi(v, w) = w.
    # Lift z in the quotient copy to (0, z), apply the relevant periodic
    # differential of V(x)J2, land in the image of i, pull back.
    def connecting(z: np.ndarray, diff_big: np.ndarray) -> np.ndarray:
        lifted = field.zeros(2 * n)
        lifted[n:] = z
        out = exactalg.matmul(diff_big, lifted, field)
        assert not out[n:].any(), "connecting image must lie in the subrepresentation"
        return out[:n]

    # s: even -> odd uses the differential (g-1) on the big module; the
    # boundary of an even rep is the odd-position obstruction.  s: odd ->
    # even uses the norm.
    s_even_to_odd = [connecting(z, bgm1) for z in even.basis]
    s_odd_to_even = [connecting(z, bnorm) for z in odd.basis]

    even_dim = _dim_modulo(even, s_odd_to_even)
    odd_dim = _dim_modulo(odd, s_even_to_odd)
    return even_dim, odd_dim


def _norm(g: np.ndarray, field) -> tuple[np.ndarray, np.ndarray]:
    """The norm 1 + g + ... + g^(p-1) and g^p, over F_p."""
    power = norm = np.eye(g.shape[0], dtype=np.int64)
    for _ in range(field.p - 1):
        power = exactalg.matmul(power, g, field)
        norm = field.reduce(norm + power)
    return norm, exactalg.matmul(power, g, field)


def _dim_modulo(sq: exactalg.Subquotient, incoming):
    """dim of the subquotient after killing the classes of the incoming s-image.

    The s-images are cocycles (D^2 = 0 on V (x) J_2), so ``express`` takes them.
    """
    return len(sq) - exactalg.rank([sq.express(v) for v in incoming], sq.field)
