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
coreduction is a strong deformation retraction (iota, pi, h) of C^*(X; F_p)
onto the core (``Retraction``): pi iota = 1 and 1 - iota pi = delta h + h
delta, with the side conditions h h = 0, h iota = 0 and pi h = 0.  On
column i the vertical differential is (-1)^i delta, retracted by h_tot =
(-1)^i h, and epsilon perturbs it; the lemma transfers the total
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
from .simplicial import _lift


# A block is a set of cochains held row-major, {cell: {label: value}}: each
# walk below carries every cochain of a block in one pass over the pairs.

def _axpy(y: dict, a: int, x: dict):
    """y += a x, for sparse rows."""
    get = y.get
    for m, v in x.items():
        y[m] = get(m, 0) + a * v


def _reduced(y: dict, p: int) -> dict:
    return {m: r for m, v in y.items() if (r := v % p)}


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


class Retraction:
    """X's coreduction as a strong deformation retraction of C^*(X; F_p) onto its core.

    The core is the live cells, and in degree 0 every seed vertex, vertex 0
    included (``_coreduction`` drops it for reduced cohomology only).  A
    pair (tau, sigma) of degrees (d, d-1), u = delta[tau, sigma] = +-1, is
    the elimination with iota v (sigma) = -u sum_{b != sigma} delta[tau, b]
    v(b), pi v = v - u v(tau) delta e_sigma off tau, and h v = u v(tau)
    e_sigma, an SDR; so is the composite, h = sum_k iota_{<k} h_k pi_{<k}.
    A vertex seed x changes basis in degree 0: iota e_x is x's component's
    indicator (a later seed has zeroed x's column in the rows cancelled
    before it) and pi v (x) = v(x).  The top seeds' row operation M comes
    first: pi and h read M v, and iota is M^-1 on the top core cells.
    """

    def __init__(self, X, p: int):
        live, self.down = X._coreduction()
        self.p, self.top, self.rows = p, X.dim, X._cache["core rows"]
        self.eps, self.seeds = X._cache["orientation"]
        self.core = [[q for q, a in enumerate(flags) if a or (d, q) == (0, 0)]
                     for d, flags in enumerate(live)]
        index = X._simplex_index.get(0, {})
        comps = [[index[(v,)] for v in comp] for comp in X.connected_components()]
        self.components = {x: cells for cells in comps for x in cells if x in self.core[0]}
        # cols[d][sigma]: column sigma of delta^{d-1}, for each sigma cancelled
        # upward by a d-cell, at the d-cells that a walk reads or keeps.
        self.cols = [{}]
        for d in range(1, self.top + 1):
            (cells, partner), rows = self.down[d], self.rows[d - 1]
            self.cols.append(cols := {partner[t]: {} for t in cells})
            for a in (*self.core[d], *cells):
                for s, e in rows[a].items():
                    if s in cols:
                        cols[s][a] = e

    def lift(self, B: dict, j: int) -> dict:
        """iota on a block of core cochains of degree j."""
        if not j:
            return {y: col for x, col in B.items() for y in self.components[x]}
        if j < self.top:
            return _lift(dict(B), self.down[j + 1], self.rows[j], self.p.__rmod__)
        return self._seeded(dict(B), -1)

    def project(self, B: dict, j: int) -> tuple[dict, dict]:
        """(pi B, h B) for a block B of X's cochains of degree j.

        One walk of the pairs (tau, sigma) of degrees (j, j-1), first first,
        gives pi B and h's coefficients c(sigma) = u (pi_{<k} B)(tau); h B =
        sum_k c(sigma_k) iota_{<k} e_sigma_k is their ``_lift`` along the
        same pairs, last first.
        """
        p, W, c = self.p, {t: dict(col) for t, col in B.items()}, {}
        if j == self.top:
            self._seeded(W, 1)
        if j:
            (cells, partner), rows, cols = self.down[j], self.rows[j - 1], self.cols[j]
            for tau in cells:
                if (w := W.pop(tau, None)) and (w := _reduced(w, p)):
                    sigma = partner[tau]
                    u = rows[tau][sigma]
                    c[sigma] = {m: u * x for m, x in w.items()}
                    for a, e in cols[sigma].items():
                        if a != tau:
                            _axpy(W.setdefault(a, {}), -e * u, w)
        h = _lift({}, self.down[j], self.rows[j - 1], p.__rmod__, c) if c else {}
        return {q: r for q in self.core[j] if q in W and (r := _reduced(W[q], p))}, h

    def _seeded(self, W: dict, f: int):
        """M W for f = 1, M^-1 W for f = -1: W(tau) += f sum_{t != tau} eps_t W(t)
        over each top seed tau's component."""
        for tau, comp in self.seeds.items():
            acc = dict(W.get(tau, {}))
            for t in comp:
                if t != tau and t in W:
                    _axpy(acc, f * self.eps[t], W[t])
            if acc := _reduced(acc, self.p):
                W[tau] = acc
            else:
                W.pop(tau, None)
        return W


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
        R = Retraction(X, p)
        core = R.core
        index = [{q: i for i, q in enumerate(cells)} for cells in core]
        rows = tuple([{index[j][c]: r for c, v in R.rows[j][t].items() if c in index[j]
                       and (r := v % p)} for t in core[j + 1]] for j in range(X.dim))
        pullbacks = [pullback_permutation(action, j) for j in range(X.dim + 1)]
        inverses = [sorted(range(len(perm)), key=perm.__getitem__) for perm, _ in pullbacks]
        terms = {}
        for j, cells in enumerate(core):
            start = R.lift({q: {i: 1} for i, q in enumerate(cells)}, j)
            for a in (0, 1):
                V, sign = start, 1
                for k in range(j + 1):
                    if not (V := horizontal(V, pullbacks[j - k][1], inverses[j - k], (a + k) % 2, p)):
                        break
                    P, V = R.project(V, j - k)
                    if P:
                        terms[a, j, k] = {index[j - k][q]: {m: sign * x % p for m, x in col.items()}
                                          for q, col in P.items()}
                    if (a + k) % 2:  # h_tot = (-1)^(a+k+1) h, and (-1)^(k+1) on the next term
                        sign = -sign
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
