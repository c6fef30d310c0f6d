"""Borel equivariant cohomology of a simplicial Z/p action.

Instead of triangulating EG x_G X, the 2-periodic free resolution W of F_p
over F_p[Z/p] is tensored with the cochains of X: a double complex K^{i,j}
= C^j with horizontal maps epsilon, (sigma^# - 1) out of even columns i and
the norm out of odd ones, and total differential epsilon + (-1)^i delta.
No subdivision is needed: C^*(X) -> C^*(sd X) is an equivariant
quasi-isomorphism of bounded complexes, which Hom over F_p[G] out of W keeps.

The model runs on X's own core, by the basic perturbation lemma (R. Brown,
"The twisted Eilenberg-Zilber theorem", 1965; M. Crainic, "On the
perturbation lemma, and deformations", arXiv:math/0403266).  X's cached
coreduction, ``simplicial.Retraction``, is a strong deformation retraction
(iota, pi, h) of C^*(X; F_p) onto the core: pi iota = 1 and 1 - iota pi =
delta h + h delta, with the side conditions h h = 0, h iota = 0 and pi h =
0.  On column i the vertical differential is (-1)^i delta, retracted by
h_tot = (-1)^i h, and epsilon perturbs it; the lemma transfers the total
differential to

    D' = (-1)^i delta_core + sum_{k >= 0} (-1)^k pi epsilon (h_tot epsilon)^k iota

on core (x) W, a complex homotopy equivalent to the total complex.  h
epsilon lowers the cochain degree, so k <= dim X.  For degrees above dim X
the matrices repeat with period two, which the rank cache exploits.  The
unreduced double complex is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import exactalg
from .exactalg import GF
from .group_action import GroupAction, fixed_set_cohomology, pullback_permutation
from .simplicial import _axpy, _reduced


def horizontal(B: dict, signs: list[int], inverse: list[int], odd: bool, p: int) -> dict:
    """epsilon on the block B of C^j: the norm if *odd*, else sigma^# - 1.
    (sigma^# v)[s] = signs[s] v[perm[s]] moves v(t) to s = inverse[t] (perm's
    inverse) times signs[s]; the norm walks t's orbit that way."""
    out = {}
    for t, col in B.items():
        s, f = t, 1
        for m in range(p if odd else 2):
            _axpy(out.setdefault(s, {}), f if odd or m else -1, col)
            s = inverse[s]
            f *= signs[s]
    return {t: r for t, col in out.items() if (r := _reduced(col, p))}


@dataclass(frozen=True)
class TransferredComplex:
    """The perturbed differential D' on core (x) W, block by block.

    ``sizes[j]`` counts the core cells of degree j, ``rows[j]`` holds the
    sparse rows of delta_core^j (one per core cell of degree j+1), and
    ``horizontal[a, j, k]`` the term (-1)^k pi epsilon (h_tot epsilon)^k iota
    out of a column of parity a and cochain degree j, into cochain degree
    j - k and k + 1 columns on: ``{target: {source: value}}`` in core
    indices, present where nonzero.
    """

    p: int
    sizes: tuple[int, ...]
    rows: tuple[list[dict[int, int]], ...]
    horizontal: dict[tuple[int, int, int], dict[int, dict[int, int]]]

    @property
    def dim(self) -> int:
        return len(self.sizes) - 1

    @classmethod
    def of_action(cls, action: GroupAction) -> "TransferredComplex":
        """Transfer the action's double complex onto X's core: each degree's core
        cells go as one block through iota, then epsilon, pi and h level by level."""
        X, p = action.complex, action.p
        R = X._retraction()
        core, index = R.core, R.index
        rows = tuple([{c: r for c, v in row.items() if (r := v % p)} for row in delta]
                     for delta in R.delta)
        pullbacks = [pullback_permutation(action, j) for j in range(X.dim + 1)]
        inverses = [sorted(range(len(perm)), key=perm.__getitem__) for perm, _ in pullbacks]
        terms = {}
        for j, cells in enumerate(core):
            start = R.lift({q: {i: 1} for i, q in enumerate(cells)}, j, p)
            for a in (0, 1):
                V, sign = start, 1
                for k in range(j + 1):
                    if not (V := horizontal(V, pullbacks[j - k][1], inverses[j - k], (a + k) % 2, p)):
                        break
                    P, V = R.project(V, j - k, p)
                    if P:
                        terms[a, j, k] = {index[j - k][q]: {m: sign * x % p for m, x in col.items()}
                                          for q, col in P.items()}
                    if (a + k) % 2:  # h_tot = (-1)^(a+k+1) h, and (-1)^(k+1) on the next term
                        sign = -sign
        vars(R).pop("cols", None)  # X keeps its retraction, not the columns this transfer read
        return cls(p, tuple(map(len, core)), rows, terms)


class BorelComplex:
    """The total complex of core (x) W with D': block (i, j) is the core's C^j in
    column i, and D' sends it by (-1)^i delta_core into (i, j+1) and by the
    k-th horizontal term into (i+k+1, j-k)."""

    def __init__(self, model: TransferredComplex):
        self.C, self.p, self._rank_cache = model, model.p, {}

    def slice_dims(self, n: int) -> list[tuple[int, int]]:
        """Blocks (i, j) of total degree n, ordered by j."""
        return [(n - j, j) for j in range(min(n, self.C.dim) + 1) if n - j >= 0]

    def total_dim(self, n: int) -> int:
        return sum(self.C.sizes[j] for _, j in self.slice_dims(n))

    def total_differential_rows(self, n: int) -> list[dict[int, int]]:
        """Sparse rows of D'_n: total degree n -> n + 1.

        Row indices run over the degree-(n+1) slice blocks in slice_dims
        order, columns over the degree-n slice.
        """
        C, p = self.C, self.p
        src = self.slice_dims(n)
        offset = dict(zip(src, accumulate((C.sizes[j] for _, j in src), initial=0)))
        rows: list[dict[int, int]] = []
        for (i, j) in self.slice_dims(n + 1):
            block: list[dict[int, int]] = [{} for _ in range(C.sizes[j])]
            if (i, j - 1) in offset:  # vertical, with sign (-1)^i
                base, sign = offset[i, j - 1], -1 if i % 2 else 1
                for r, row in enumerate(C.rows[j - 1]):
                    block[r] = {base + c: sign * v % p for c, v in row.items()}
            for k in range(C.dim - j + 1):  # horizontal, from (i-k-1, j+k)
                if (i - k - 1, j + k) in offset:
                    base = offset[i - k - 1, j + k]
                    for r, col in C.horizontal.get(((i - k - 1) % 2, j + k, k), {}).items():
                        block[r].update((base + c, v) for c, v in col.items())
            rows.extend(block)
        return rows

    def differential_rank(self, n: int) -> int:
        """rank of D'_n; cached, and stable degrees share one computation."""
        if n < 0:
            return 0
        key = ("stable", n % 2) if n >= self.C.dim else ("deg", n)
        if key not in self._rank_cache:
            self._rank_cache[key] = exactalg.sparse_rank_modp(self.total_differential_rows(n), self.p)
        return self._rank_cache[key]

    def cohomology_dim(self, n: int) -> int:
        if n < 0:
            return 0
        return self.total_dim(n) - self.differential_rank(n) - self.differential_rank(n - 1)


def equivariant_betti(action: GroupAction, degrees) -> list[int]:
    """dim H^n_G(X; F_p) for each n in *degrees*, exactly.

    For the one-point trivial action this reproduces the classifying-space
    answer: one dimension in every degree.  The Borel complex is built on
    X's core by the perturbation lemma.
    """
    K = BorelComplex(TransferredComplex.of_action(action))
    return [K.cohomology_dim(n) for n in degrees]


def localization_check(action: GroupAction) -> dict:
    """Stabilized equivariant Betti numbers against the fixed-set total Betti.

    The evaluation/localization theorem's numerical shadow: for n above
    dim X, dim H^n_G equals dim H^*(X^G; F_p).  Checks n = dim X + 1 and
    dim X + 2.  Neither side is subdivided: the fixed set is read off the
    invariant simplices, and the Borel complex is built on X's core by the
    perturbation lemma.
    """
    fixed_total = fixed_set_cohomology(action, GF(action.p)).total
    dims = equivariant_betti(action, [action.complex.dim + 1, action.complex.dim + 2])
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
