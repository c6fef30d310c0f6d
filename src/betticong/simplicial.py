"""Finite simplicial complexes with exact cohomology and cup products.

Vertex labels are opaque strings carrying an explicit total order (default
lexicographic); every cochain-level formula (coboundary signs, the
front-face/back-face cup product, staircase product triangulations) is
stated against that order, so the order is fixed at construction and never
changes.  Complexes are immutable; derived data (Betti numbers, cocycle
bases) is cached on the instance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, repeat

from . import exactalg

Simplex = tuple[int, ...]  # strictly increasing vertex indices


@dataclass(frozen=True)
class GradedBetti:
    """Per-degree cohomology dimensions over a stated coefficient ring.

    For integer coefficients ``torsion[i]`` lists the torsion divisors (> 1)
    of H^i; it is ``None`` for field coefficients.
    """

    field_name: str
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] | None = None

    @property
    def total(self) -> int:
        return sum(self.betti)

    def __str__(self) -> str:
        s = f"H^*(-;{self.field_name}) = {self.betti}"
        if self.torsion is not None and any(self.torsion):
            s += f" torsion {self.torsion}"
        return s


def _vertex_star(simplices) -> dict[int, list]:
    """Each vertex's simplices, in input order."""
    star: dict[int, list] = {}
    for s in simplices:
        for v in s:
            star.setdefault(v, []).append(s)
    return star


def _maximal(simplices: list[Simplex]) -> list[Simplex]:
    """The simplices not properly contained in another one, in input order.

    A simplex can only lie in a larger simplex through each of its vertices,
    so it is checked against the star of its rarest vertex alone.
    """
    if len({len(s) for s in simplices}) <= 1:
        return list(simplices)
    sets = [frozenset(s) for s in simplices]
    star = _vertex_star(sets)
    return [
        f for f, s in zip(simplices, sets)
        if not any(s < g for g in star[min(f, key=lambda v: len(star[v]))])
    ]


def orbit(perm: list[int], q: int) -> list[int]:
    """The orbit of q under the permutation *perm*: q, perm[q], ... until q recurs."""
    out = [q]
    while perm[out[-1]] != q:
        out.append(perm[out[-1]])
    return out


def _orient(faces, cofaces, t0: int, eps) -> list[int] | None:
    """Walk t0's component of top cells across their shared faces, orienting it.

    *faces* are the rows of delta^{d-1} (entries +-1), ``cofaces[s]`` the
    top cells on the face s, and ``eps`` is 0 on the cells not yet walked.
    The walk sets eps_t0 = 1 and eps_u = -eps_t delta[t, s] delta[u, s]
    across each face s of a walked t.  Returns the component, t0 first, if
    it is a closed orientable pseudomanifold: every face on exactly two of
    its cells, with those signs consistent, so sum_t eps_t row_t = 0.
    """
    eps[t0], comp, closed = 1, [t0], True
    for t in comp:
        e = eps[t]
        for s, a in faces[t].items():
            cs = cofaces[s]
            closed = closed and len(cs) == 2
            for u in cs:
                if u != t:
                    want = -e * a * faces[u][s]
                    if not eps[u]:
                        eps[u] = want
                        comp.append(u)
                    elif eps[u] != want:
                        closed = False
    return comp if closed else None


def coreduce(rows: list[list[dict[int, int]]], sizes):
    """Cancel cells in pairs of unit pivots that change no other entry of delta.

    ``rows[d]`` are the sparse rows of delta^d (the faces of the (d+1)-cells,
    with entries that are units) and ``sizes[d]`` counts the d-cells.
    Coreduction (Mrozek and Batko, Discrete Comput. Geom. 41, 2009;
    Kaczynski, Mischaikow and Mrozek, *Computational Homology*, 2004):

    - Top seed, with d = dim >= 1: in each component of d-cells (joined by
      shared faces) that ``_orient`` finds a closed orientable
      pseudomanifold, the row of delta^{d-1} at its first cell tau is
      replaced by sum_t eps_t eps_tau row_t, which is 0.  That is the
      unimodular row operation M (M v)_tau = eps_tau sum_t eps_t v_t, the
      identity off tau; delta^d = 0, so M delta^{d-1} is again a cochain
      complex, and tau stays live and isolated.  It runs before the queue,
      which then collapses the rest of the component from the top.  It is
      the vertex seed's dual: a row operation by the component's
      fundamental cycle, where that is a column operation by its indicator.
      For d = 1 the component is a cycle, still connected without tau's
      row, so the vertex seed below is unchanged.
    - Seed: delta^0's column at a live vertex x is zeroed, a change of basis
      from e_x to the indicator of x's component among the live cells.
      That indicator is a cocycle while no live edge has just one live
      face; x stays live and isolated.  Vertex 0 is seeded before the queue
      runs, and each time the queue empties, the next live vertex.  No live
      edge has one live face then (the queue would have cancelled it), and a
      seeded component keeps no other live vertex (its core's H^0 is one
      dimension, the seed's), so each component is seeded once.
    - Queue: a FIFO queue cancels tau against sigma, a face of tau, when
      sigma is tau's only live face or tau is sigma's only live coface.  A
      cell joins the queue when either count falls to 1, or if it starts at
      1; a cancelled pair pushes tau's cofaces, tau's faces, sigma's
      cofaces, then sigma's faces.

    Either way row tau or column sigma of the live part of delta is that
    unit entry alone, so the unit pivot there changes no other entry: the
    live cells (the core) carry the submatrices of the seeded coboundaries,
    a complex chain homotopy equivalent to the cochains.

    Returns ``(rows, live, down, (eps, seeds))``: the coboundaries with
    the seeds' columns of delta^0 and top rows zeroed (the input is not
    modified); per degree the live flags and ``(cells, partner)``, the
    cells cancelled downward in order and each cell's partner or -1; the
    walk's orientation of the top cells and each top seed's component.
    """
    from array import array  # here, so that importing betticong does not load it
    top = len(sizes) - 1
    rows = [list(rows[0]), *rows[1:]] if rows else []
    cofaces = [[[] for _ in range(n)] for n in sizes]  # in row order
    for R, cs in zip(rows, cofaces):
        for t, fs in enumerate(R):
            for s in fs:
                cs[s].append(t)
    eps, seeds = array("b"), {}
    if top > 0:
        eps = array("b", bytes(sizes[top]))
        seeds = {t: array("i", comp) for t in range(sizes[top]) if not eps[t]
                 and (comp := _orient(rows[top - 1], cofaces[top - 1], t, eps)) is not None}
        if seeds and top > 1:
            rows[top - 1] = list(rows[top - 1])
        for t in seeds:
            for s in rows[top - 1][t]:
                cofaces[top - 1][s].remove(t)
            rows[top - 1][t] = {}
    # faces[d][q]: the (d-1)-cells of q; vertices have none.
    faces = [[()] * n for n in sizes[:1]] + rows
    n_faces = [list(map(len, F)) for F in faces] + [[]]  # no (top+1)-cells
    n_cofaces = [list(map(len, cs)) for cs in cofaces]
    live = [bytearray(b"\x01") * n for n in sizes]
    down = [(array("i"), array("i", [-1]) * n) for n in sizes]
    queue: deque[tuple[int, int]] = deque()
    push, pop = queue.append, queue.popleft

    def seed(x: int):
        for t in cofaces[0][x]:
            rows[0][t] = {c: v for c, v in rows[0][t].items() if c != x}
            n_faces[1][t] -= 1
            if n_faces[1][t] == 1:
                push((1, t))
        cofaces[0][x], n_cofaces[0][x] = [], 0

    # steps[d - 1]: what a pair of degrees (d, d - 1) reads and updates; n_cofaces[-1]
    # (d = 1, as vertices have no faces) and n_faces[top + 1] go unread.
    steps = [(live[d], live[d - 1], *down[d], cofaces[d], faces[d], cofaces[d - 1], faces[d - 1],
              n_faces[d + 1], n_cofaces[d - 1], n_faces[d], n_cofaces[d - 2])
             for d in range(1, top + 1)]
    fresh = (x for x in range(sizes[0] if sizes else 0) if live[0][x])
    x = next(fresh, None)
    if x is not None:
        seed(x)
    for d in range(top + 1):
        queue.extend((d, q) for q, (f, c) in enumerate(zip(n_faces[d], n_cofaces[d]))
                     if f == 1 or c == 1)
    while True:
        while queue:
            d, q = pop()
            if not live[d][q]:
                continue
            if n_faces[d][q] == 1:
                tau, lv = q, live[d - 1]
                for sigma in faces[d][q]:
                    if lv[sigma]:
                        break
            elif n_cofaces[d][q] == 1:
                sigma, d, lv = q, d + 1, live[d + 1]
                for tau in cofaces[d - 1][q]:
                    if lv[tau]:
                        break
            else:
                continue
            lt, ls, cells, partner, up_t, dn_t, up_s, dn_s, f_up, c_dn, f_s, c_s = steps[d - 1]
            lt[tau] = ls[sigma] = c_dn[sigma] = f_s[tau] = 0  # a zero count pushes neither again
            cells.append(tau)
            partner[tau] = sigma
            for t in up_t[tau]:
                f_up[t] -= 1
                if f_up[t] == 1:
                    push((d + 1, t))
            for s in dn_t[tau]:
                c_dn[s] -= 1
                if c_dn[s] == 1:
                    push((d - 1, s))
            for t in up_s[sigma]:
                f_s[t] -= 1
                if f_s[t] == 1:
                    push((d, t))
            for s in dn_s[sigma]:
                c_s[s] -= 1
                if c_s[s] == 1:
                    push((d - 2, s))
        x = next(fresh, None)
        if x is None:
            return rows, live, down, (eps, seeds)
        seed(x)


def _lift(B: dict, pairs, up, reduce, c=None) -> dict:
    """Extend a block B = {cell: {label: value}} of core cochains (X's indices) to X.

    *pairs* are ``(cells, partner)`` from ``coreduce``, tau in cells against
    sigma = partner[tau] in B's degree, and *up* the rows of delta out of it.
    Walked last pair first, each sets B(sigma) = c(sigma) - u sum_{b !=
    sigma} delta[tau, b] B(b), u = delta[tau, sigma] = +-1, in place; c is 0
    but in ``equivariant.Retraction``'s homotopy.
    """
    (cells, partner), c = pairs, c or {}
    for tau in reversed(cells):  # sigma is not set yet, so not in B
        row, sigma = up[tau], partner[tau]
        if B.keys().isdisjoint(row) and sigma not in c:
            continue
        acc, u = dict(c.get(sigma, {})), row[sigma]
        for b, e in row.items():
            if b in B:
                for m, x in B[b].items():
                    acc[m] = acc.get(m, 0) - u * e * x
        if acc := {m: r for m, x in acc.items() if (r := reduce(x))}:
            B[sigma] = acc
    return B


def _pull_back(z: dict[int, int], pairs, faces, reduce) -> dict[int, int]:
    """The functional z o pi on X's cochains, for z (sparse) on the core's cells.

    pi v = (v - delta c) on the core, c(sigma) = u (v - delta c)(tau) over
    the earlier *pairs* (as in ``_lift``, tau in z's degree, *faces* the
    rows of the coboundary into it): c = (I + U A)^-1 U S v, S v = (v(tau)),
    U = diag(u) and A[k, j] = delta[tau_k, sigma_j] strictly lower
    triangular.  So z . pi v = z . v - y . c with y = delta^T z, and y . c
    = sum_k u_k g_k v(tau_k) with g = (I + A^T U)^-1 y solved last pair
    first: g_k is y(sigma_k) once every later pair j has pushed -delta[tau_j,
    b] u_j g_j onto each face b of tau_j.
    """
    y: dict[int, int] = {}
    for a, x in z.items():
        for b, e in faces[a].items():
            y[b] = y.get(b, 0) + e * x
    out, (cells, partner) = dict(z), pairs
    for tau in reversed(cells):
        sigma = partner[tau]
        g = reduce(y.get(sigma, 0))
        if g:
            row = faces[tau]
            t = row[sigma] * g
            out[tau] = reduce(-t)
            for b, e in row.items():
                y[b] = y.get(b, 0) - e * t
    return out


class SimplicialComplex:
    """Finite simplicial complex on an ordered vertex set."""

    def __init__(self, vertices: tuple[str, ...], facets: tuple[Simplex, ...]):
        # Internal constructor: facets already index tuples, sorted, no
        # redundancy.  Use from_facets for validated construction.
        self.vertices = vertices
        self.facets = facets
        self._vertex_index = dict(zip(vertices, range(len(vertices))))
        # A facet with fewer than k vertices has no k-subsets.
        self._simplices: dict[int, list[Simplex]] = {
            k - 1: sorted(set(chain.from_iterable(map(combinations, facets, repeat(k)))))
            for k in range(1, max(map(len, facets), default=0) + 1)
        }
        self._simplex_index: dict[int, dict[Simplex, int]] = {
            d: dict(zip(lst, range(len(lst)))) for d, lst in self._simplices.items()
        }
        self.dim = max(self._simplices) if self._simplices else -1
        self._cache: dict = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_facets(cls, facets, vertex_order=None) -> "SimplicialComplex":
        """Build a complex from facet vertex sets.

        Redundant (contained) facets are dropped.  ``vertex_order`` fixes
        the total vertex order; by default labels sort lexicographically.
        """
        facet_sets = [frozenset(map(str, f)) for f in facets]
        if not facet_sets:
            raise ValueError("empty facet list")
        if any(not f for f in facet_sets):
            raise ValueError("empty facet")
        labels = set().union(*facet_sets)
        if vertex_order is None:
            order = tuple(sorted(labels))
        else:
            order = tuple(str(v) for v in vertex_order)
            if len(set(order)) != len(order):
                raise ValueError("duplicate vertex in vertex_order")
            unknown = labels - set(order)
            if unknown:
                raise ValueError(f"facet references unknown vertex: {sorted(unknown)}")
        index = dict(zip(order, range(len(order))))
        idx_facets = sorted({tuple(sorted(map(index.__getitem__, f))) for f in facet_sets})
        return cls(order, tuple(_maximal(idx_facets)))

    @classmethod
    def empty(cls) -> "SimplicialComplex":
        return cls((), ())

    @classmethod
    def from_simplices(cls, vertex_order: tuple[str, ...], simplices) -> "SimplicialComplex":
        """Internal builder tolerating the empty complex (e.g. fixed sets)."""
        index = {v: i for i, v in enumerate(vertex_order)}
        maximal = _maximal(sorted({tuple(sorted(index[str(v)] for v in s)) for s in simplices}))
        used = sorted({v for f in maximal for v in f})
        remap = {v: i for i, v in enumerate(used)}
        verts = tuple(vertex_order[v] for v in used)
        return cls(verts, tuple(tuple(remap[v] for v in f) for f in maximal))

    # -- basic invariants ----------------------------------------------

    def simplices(self, k: int) -> list[Simplex]:
        return self._simplices.get(k, [])

    def simplex_labels(self, k: int) -> list[tuple[str, ...]]:
        return [tuple(self.vertices[v] for v in s) for s in self.simplices(k)]

    def n_simplices(self, k: int) -> int:
        return len(self._simplices.get(k, []))

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(self.n_simplices(k) for k in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1))

    def connected_components(self) -> list[set[int]]:
        # Only vertices that are simplices count; a label can sit in the
        # declared order without being used by any facet.
        used = [s[0] for s in self.simplices(0)]
        parent = {v: v for v in used}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for (a, b) in self.simplices(1):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps: dict[int, set[int]] = {}
        for v in used:
            comps.setdefault(find(v), set()).add(v)
        return sorted(comps.values(), key=min)

    def is_pure(self) -> bool:
        return all(len(f) - 1 == self.dim for f in self.facets)

    def __repr__(self):
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector})"

    # -- coboundary matrices --------------------------------------------

    def coboundary_rows(self, k: int) -> list[dict[int, int]]:
        """delta^k: C^k -> C^{k+1} as sparse rows indexed by (k+1)-simplices."""
        key = ("cob", k)
        if key not in self._cache:
            idx = self._simplex_index.get(k, {})
            rows = []
            for tau in self.simplices(k + 1):
                row = {}
                for i in range(len(tau)):
                    face = tau[:i] + tau[i + 1:]
                    row[idx[face]] = 1 if i % 2 == 0 else -1
                rows.append(row)
            self._cache[key] = rows
        return self._cache[key]

    def _coreduction(self) -> tuple[list[bytearray], list[tuple]]:
        """Per degree, the live cells (flags) and the cells cancelled downward, with their partners.

        ``coreduce``, then vertex 0, the first seed, goes against the
        augmentation: the live cells (the core) carry submatrices of the
        coboundaries in the seeded bases (M delta^{d-1} in the top degree d,
        M the top seeds' row operation), a cochain complex with the reduced
        cohomology of X over every ring.  Cells
        neither live nor cancelled downward were cancelled upward.  The top
        seeds are the live d-cells whose seeded row is empty; their components
        and the walk's orientation, kept as ``"orientation"``, give their H^d.
        """
        if "core" not in self._cache:
            rows, live, down, self._cache["orientation"] = coreduce(
                [self.coboundary_rows(d) for d in range(self.dim)], self.f_vector)
            if live:
                live[0][0] = 0
            self._cache["core"], self._cache["core rows"] = (live, down), rows
        return self._cache["core"]

    def _reduced_rows(self, k: int) -> list[dict[int, int]]:
        """delta^k after the coreduction's unit pivots, in X's own row and column indices.

        A row cancelled downward is its +-1 entry at its partner, a live row
        keeps its live columns (of delta^0 in the seeded basis, of M
        delta^{d-1} in the top degree), and every other row is empty.  This
        matrix has delta^k's rank over every field and its nonzero Smith
        divisors (see ``cohomology``), and the partners are among its pivots.
        """
        if k >= self.dim:
            return self.coboundary_rows(k)
        live, down = self._coreduction()
        partner, live_rows, live_cols = down[k + 1][1], live[k + 1], live[k]
        return [{s: row[s]} if (s := partner[q]) >= 0
                else {c: v for c, v in row.items() if live_cols[c]} if live_rows[q] else {}
                for q, row in enumerate(self._cache["core rows"][k])]

    def _coboundary_rank(self, k: int, field) -> int:
        """rank delta^k over *field*, read off the Smith divisors once they exist; uncached."""
        p = field.char
        if "smith" in self._cache:
            return sum(1 for d in self._cache["smith"][k] if (d % p if p else d))
        rows = self._reduced_rows(k)
        return exactalg.sparse_rank_modp(rows, p) if p else exactalg.sparse_rank_q(rows)

    def _smith_divisors(self) -> list[tuple[int, ...]]:
        """The Smith divisors of delta^0..delta^dim (delta^dim is zero), in one pass.

        Each pass eliminates ``_reduced_rows``, whose nonzero divisors are
        delta^k's (see ``cohomology``); the dense Smith form sees at most the
        core's block of delta^k.  Over Q the rank of delta^k is its number of
        nonzero divisors, over F_p the number prime to p; once this pass has
        run, ``cohomology`` eliminates nothing.
        """
        if "smith" not in self._cache:
            self._cache["smith"] = [
                exactalg.sparse_smith_divisors(self._reduced_rows(k), self.n_simplices(k))
                if k < self.dim else () for k in range(self.dim + 1)]
        return self._cache["smith"]

    # -- cohomology ------------------------------------------------------

    def cohomology(self, field) -> GradedBetti:
        """Betti numbers over Q or F_p from coboundary ranks.

        Every route eliminates ``_reduced_rows``, delta^k after the unit
        pivots of the coreduction.  Its live rows are the core's delta^k, and
        its one-entry rows (each cell cancelled downward, at its partner)
        meet no other row's column.  The seeds are unimodular: each vertex
        seed after vertex 0's zeroes a column of delta^0 (the seed's basis
        vector becomes its component's indicator cocycle), and the top seeds
        replace delta^{d-1} (d = dim) by M delta^{d-1}.  So it has the rank
        of delta^k over every field and its nonzero Smith divisors.
        """
        key = ("betti", field.name)
        if key not in self._cache:
            # r[i] is rank delta^{i-1}; delta^{-1} is zero.
            r = [0] + [self._coboundary_rank(k, field) for k in range(self.dim + 1)]
            self._cache[key] = GradedBetti(field.name, tuple(
                self.n_simplices(i) - r[i] - r[i + 1] for i in range(self.dim + 1)))
        return self._cache[key]

    def integral_cohomology(self) -> GradedBetti:
        """Free ranks and torsion divisors of H^*(X;Z) from the Smith pass.

        The rank of delta^i is its number of nonzero divisors; the torsion
        of H^i is the divisors > 1 of delta^{i-1}.
        """
        # divisors[i] belongs to delta^{i-1}; delta^{-1} is zero.
        divisors = [()] + self._smith_divisors()
        r = [sum(1 for d in ds if d) for ds in divisors]
        return GradedBetti(
            "Z",
            tuple(self.n_simplices(i) - r[i] - r[i + 1] for i in range(self.dim + 1)),
            tuple(tuple(d for d in divisors[i] if d > 1) for i in range(self.dim + 1)),
        )

    def torsion_valuation_profile(self, p: int) -> dict[int, list[int]]:
        """Per degree i >= 1, the p-adic valuations of the nonzero Smith
        divisors of delta^{i-1}, where the torsion of H^i(X;Z) lives.

        Every prime reads the one cached Smith pass.
        """
        divisors = self._smith_divisors()
        return {i: exactalg.p_valuation_profile(divisors[i - 1], p)
                for i in range(1, self.dim + 1)}

    # -- cocycle bases and class arithmetic -------------------------------

    def cohomology_basis(self, field, degree: int) -> exactalg.Subquotient:
        """Cocycle representatives of H^i, with ``express``, computed on the core.

        Cochains are sparse, ``{simplex index: value}``.  ``basis`` holds
        one cocycle of X per class; ``express(v)`` gives the coefficients
        (a list) of v's class, raising ValueError unless delta^i v = 0 on
        X's rows of delta^i.  Where b_i = 0 (from the cached ranks)
        nothing is eliminated.  The core carries reduced cohomology, so
        degree 0 is read off the components: one indicator cocycle per entry
        of ``connected_components``, in that order, whose dual vector is the
        value at the component's least vertex.  No elimination runs.

        For i >= 1 the one sparse engine, ``exactalg.Subquotient``, runs on
        the core (see ``_coreduction``): ker delta^i modulo the columns of
        delta^{i-1}, both live submatrices.  Its classes are lifted to X
        (``_lift``), and its dual vectors composed with the projection to
        the core (``_pull_back``), so ``express`` is the core's on pi v.
        The coreduction is a sequence of elementary reductions: K' is K less
        a pair (tau, sigma) of degrees (d, d-1), u = delta[tau, sigma] = +-1
        = u^-1, where row tau or column sigma of K's delta is u alone, so
        delta[a, sigma] delta[tau, b] = 0 for a != tau, b != sigma and K'
        carries the submatrices of delta.  Let iota: C(K') -> C(K) be the
        identity but at sigma, iota v (sigma) = -u sum_{b != sigma}
        delta[tau, b] v(b), so that (delta iota v)(tau) = 0; and pi: C(K) ->
        C(K') the restriction but in degree d, pi v = v - v(tau) u delta
        e_sigma off tau.  Then pi iota = id: iota changes only sigma, which
        pi drops, and iota v (tau) = 0.  Both are cochain maps:

        - into sigma's degree: iota delta' w (sigma) = -u sum_{b != sigma}
          delta[tau, b] (delta w)(b) = (delta w)(sigma), as (delta delta
          w)(tau) = 0;
        - out of it, off tau: (delta iota v)(a) - (delta' v)(a) = delta[a,
          sigma] iota v (sigma) = 0 (a row tau that is u alone makes iota v
          (sigma) = 0), and pi delta v (a) - delta' pi v (a) = delta[a,
          sigma] (v(sigma) - u (delta v)(tau)) = 0 the same way;
        - out of tau's degree: (delta' pi v)(c) = (delta v)(c) - delta[c,
          tau] v(tau) - u v(tau) sum_{a != tau} delta[c, a] delta[a,
          sigma], and delta^2 = 0 makes that sum -delta[c, tau] u.

        X and the core have the same cohomology in degree i >= 1, so H(iota)
        and H(pi) are inverse isomorphisms.  Composed, the lift walks the
        pairs of degrees (i+1, i) last first: the cells not yet set, of
        earlier pairs, are dead in that step's K, and their zeros keep its
        sums.  The projection walks the pairs of degrees (i, i-1) first
        first; X's full column delta e_sigma differs from K's only at dead
        cells, which no later step reads.  A seed changes the basis of C^0
        at no partner.

        In the top degree d, delta^{d-1} is block diagonal over the
        components of d-cells, and so is the core's.  A top seed tau's
        component (walked with eps, eps_tau = 1) has H^d spanned by e_tau:
        each face s there lies on two cells t, u with eps_t delta[t, s] +
        eps_u delta[u, s] = 0, so the fundamental cycle w(v) = sum_t eps_t
        v(t) vanishes on delta e_s, and a functional on the block that does
        is a multiple of w.  So w is e_tau's dual.  The other components take
        the route above on their live d-cells alone: an elementary reduction
        keeps H^d and changes one block, so it keeps each block's H^d, and
        the lifts and projections there stay off the seeded components.
        """
        key = ("basis", field.name, degree)
        if key not in self._cache:
            basis, duals = [], []
            if not degree:
                index = self._simplex_index.get(0, {})
                for comp in self.connected_components():
                    basis.append({index[(v,)]: 1 for v in comp})
                    duals.append({index[(min(comp),)]: 1})
            elif self.cohomology(field).betti[degree]:
                basis, duals = self._core_basis(field, degree)
            self._cache[key] = exactalg.Subquotient.from_duals(
                self.coboundary_rows(degree), field, basis, duals,
                self._cache.setdefault(("cob index", degree), []))
        return self._cache[key]

    def _core_basis(self, field, i: int) -> tuple[list[dict], list[dict]]:
        """(basis, duals) of H^i (i >= 1): the top seeds', then the core's carried to X."""
        live, down = self._coreduction()
        rows = self._cache["core rows"]
        cells = [[q for q, a in enumerate(flags) if a] for flags in live[i - 1: i + 1]]
        # Top degree: e_tau at each top seed, dual to its component's fundamental cycle.
        eps, seeds = self._cache["orientation"] if i == self.dim else ((), {})
        basis = [{tau: 1} for tau in seeds]
        duals = [{t: field.reduce(eps[t]) for t in comp} for comp in seeds.values()]
        seeded = set().union(*seeds.values())
        cells[1] = [t for t in cells[1] if t not in seeded]
        if not cells[1]:
            return basis, duals
        index = [{c: j for j, c in enumerate(cs)} for cs in cells]
        # Image of the core's delta^{i-1} in C^i: the columns of its rows.
        image = exactalg.transpose_rows(
            [{index[0][c]: v for c, v in rows[i - 1][a].items() if c in index[0]} for a in cells[1]],
            len(cells[0]))
        kernel, up = [], (((), ()), [])  # no pairs above the top degree
        if i < self.dim:
            up = (down[i + 1], rows[i])
            kernel = [{index[1][c]: v for c, v in row.items() if c in index[1]}
                      for q, row in enumerate(rows[i]) if live[i + 1][q]]
        core = exactalg.Subquotient(kernel, image, field, len(cells[1]))

        def lift(v: dict, pairs, up, reduce) -> dict:  # one cochain, as a block
            return {c: col[0] for c, col in _lift({c: {0: x} for c, x in v.items()}, pairs, up,
                                                   reduce).items()}

        def carry(move, values: dict, pairs, rows_of) -> dict:
            # On the integer multiple; residues over F_p have m = 1.
            m, v = exactalg.int_multiple({cells[1][j]: x for j, x in values.items()})
            v = move(v, pairs, rows_of, field.reduce)
            return v if m == 1 else {c: Fraction(x, m) for c, x in v.items()}

        basis += [carry(lift, row, *up) for row in core.basis]
        duals += [carry(_pull_back, z, down[i], rows[i - 1]) for z in core.duals]
        return basis, duals

    def cup_cochain(self, field, i: int, j: int, a: dict, b: dict) -> dict:
        """Front-face/back-face cup product of sparse cochains a in C^i, b in C^j: sparse
        too, nonzero only where the front i-face is in a's support and the back j-face in b's."""
        idx_i = self._simplex_index.get(i, {})
        idx_j = self._simplex_index.get(j, {})
        out = {}
        for t, s in enumerate(self.simplices(i + j)):
            if (av := a.get(idx_i[s[: i + 1]])) and (bv := b.get(idx_j[s[i:]])):
                out[t] = field.reduce(av * bv)
        return out


# ---------------------------------------------------------------------------
# Cohomology ring / Poincare duality
# ---------------------------------------------------------------------------

@dataclass
class CohomologyRing:
    """Graded cohomology ring data: bases, structure constants, orientation.

    ``structure[(i, j)][a][b]`` is the coefficient vector of the product of
    the a-th degree-i and b-th degree-j basis classes in the degree-(i+j)
    basis.  ``orientation`` is the functional on the top-degree basis when
    the top Betti number is one (normalised to 1 on the basis class).
    """

    field: object
    betti: tuple[int, ...]
    top_degree: int
    structure: dict
    orientation: list | None

    def pairing_matrix(self, i: int) -> list[list]:
        """Gram matrix of H^i x H^{n-i} -> H^n composed with the orientation."""
        n = self.top_degree
        bi, bj = self.betti[i], self.betti[n - i]
        M = self.field.zeros((bi, bj))
        if self.orientation is None:
            return M
        for a in range(bi):
            for b in range(bj):
                coeffs = self.structure[(i, n - i)][a][b]
                M[a][b] = self.field.coerce(sum(c * o for c, o in zip(coeffs, self.orientation)))
        return M


@dataclass(frozen=True)
class PDResult:
    is_pd: bool
    formal_dim: int | None
    orientation: list | None
    failures: tuple[str, ...] = ()


def cup_pairing(X: SimplicialComplex, field) -> CohomologyRing:
    """Cohomology ring with cup products on the cocycle bases of ``cohomology_basis``."""
    key = ("ring", field.name)
    if key in X._cache:
        return X._cache[key]
    betti = X.cohomology(field).betti
    top = max((i for i, b in enumerate(betti) if b), default=0)
    bases = {i: X.cohomology_basis(field, i) for i in range(X.dim + 1)}
    structure: dict = {}
    for i in range(top + 1):
        for j in range(top + 1 - i):
            if betti[i] == 0 or betti[j] == 0:
                continue
            tbl = []
            target = bases[i + j]
            for a in range(betti[i]):
                row = []
                for b in range(betti[j]):
                    cochain = X.cup_cochain(field, i, j, bases[i].basis[a], bases[j].basis[b])
                    row.append(target.express(cochain))
                tbl.append(row)
            structure[(i, j)] = tbl
    orientation = [field.one] if betti[top] == 1 else None
    ring = CohomologyRing(field, betti, top, structure, orientation)
    X._cache[key] = ring
    return ring


def pd_check(X: SimplicialComplex, field) -> PDResult:
    """Poincare duality over a field: b_n = 1 and all cup pairings perfect.

    The formal dimension is the top degree with nonzero cohomology; a
    cohomologically trivial complex (a point up to the field) passes with
    formal dimension 0.
    """
    comps = X.connected_components()
    if len(comps) != 1:
        raise ValueError(f"pd_check requires a connected complex ({len(comps)} components)")
    ring = cup_pairing(X, field)
    n = ring.top_degree
    failures = []
    if ring.betti[n] != 1:
        failures.append(f"top Betti number b_{n} = {ring.betti[n]} != 1")
    else:
        for i in range(n + 1):
            bi, bj = ring.betti[i], ring.betti[n - i]
            if bi != bj:
                failures.append(f"pairing H^{i} x H^{n - i} not square: {bi} vs {bj}")
            elif bi and exactalg.rank(ring.pairing_matrix(i), field) != bi:
                failures.append(f"pairing H^{i} x H^{n - i} is degenerate")
    ok = not failures
    return PDResult(
        is_pd=ok,
        formal_dim=n if ok else None,
        orientation=ring.orientation if ok else None,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Constructors: subdivision, join, suspension, product
# ---------------------------------------------------------------------------

def bary_label(labels: tuple[str, ...]) -> str:
    return "(" + "|".join(labels) + ")"


def barycentric_subdivision(X: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision: vertices are simplices, simplices are chains.

    The new vertex order sorts barycenters by (dimension, source simplex),
    so the construction is deterministic and homeomorphism-invariant data
    (Euler characteristic, Betti numbers) is preserved.
    """
    all_simps = []
    for d in range(X.dim + 1):
        all_simps.extend(X.simplices(d))
    order = tuple(
        bary_label(tuple(X.vertices[v] for v in s))
        for s in sorted(all_simps, key=lambda s: (len(s), s))
    )
    label_facets = [
        [bary_label(tuple(X.vertices[v] for v in s)) for s in chain] for chain in maximal_chains(X)
    ]
    return SimplicialComplex.from_facets(label_facets, vertex_order=order)


def maximal_chains(X: SimplicialComplex):
    """The maximal chains of X's face poset, each from a facet down to a vertex.

    They are the facets of sd X: a facet heads one chain per order in which
    its vertices are dropped.
    """
    for f in X.facets:
        for order in permutations(f):
            yield tuple(tuple(sorted(order[k:])) for k in range(len(f)))


def _relabel_disjoint(X: SimplicialComplex, Y: SimplicialComplex):
    clash = set(X.vertices) & set(Y.vertices)
    if not clash:
        return X, Y
    xv = tuple("L:" + v for v in X.vertices)
    yv = tuple("R:" + v for v in Y.vertices)
    return SimplicialComplex(xv, X.facets), SimplicialComplex(yv, Y.facets)


def join(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: all unions of a simplex of X and a simplex of Y."""
    X, Y = _relabel_disjoint(X, Y)
    order = X.vertices + Y.vertices
    facets = []
    for f in X.facets:
        for g in Y.facets:
            facets.append(
                tuple(X.vertices[v] for v in f) + tuple(Y.vertices[v] for v in g)
            )
    return SimplicialComplex.from_facets(facets, vertex_order=order)


def suspension(X: SimplicialComplex, poles: tuple[str, str] = ("N*", "S*")) -> SimplicialComplex:
    lo, hi = poles
    while lo in X.vertices or hi in X.vertices:
        lo, hi = lo + "*", hi + "*"
    two_points = SimplicialComplex((lo, hi), ((0,), (1,)))
    return join(X, two_points)


def product(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of |X| x |Y| determined by the vertex orders.

    Top cells are monotone unit-step lattice paths through each facet pair's
    vertex grid; no new vertices are introduced.
    """
    pair_label = {}
    order = []
    for xi, xv in enumerate(X.vertices):
        for yi, yv in enumerate(Y.vertices):
            lbl = f"({xv},{yv})"
            pair_label[(xi, yi)] = lbl
            order.append(lbl)
    facets = []
    for f in X.facets:
        for g in Y.facets:
            a, b = len(f) - 1, len(g) - 1

            def walk(i, j, path):
                if i == a and j == b:
                    facets.append(tuple(pair_label[(v, w)] for v, w in path))
                    return
                if i < a:
                    walk(i + 1, j, path + [(f[i + 1], g[j])])
                if j < b:
                    walk(i, j + 1, path + [(f[i], g[j + 1])])

            walk(0, 0, [(f[0], g[0])])
    return SimplicialComplex.from_facets(facets, vertex_order=tuple(order))


def link(X: SimplicialComplex, simplex_labels) -> SimplicialComplex:
    """Link of a simplex: all faces disjoint from it whose union is a face."""
    s = tuple(sorted(X._vertex_index[str(v)] for v in simplex_labels))
    d = len(s) - 1
    if X._simplex_index.get(d, {}).get(s) is None:
        raise ValueError("not a simplex of the complex")
    # Every facet containing s lies in the star of s's rarest vertex.
    if "star" not in X._cache:
        X._cache["star"] = _vertex_star(X.facets)
    star = X._cache["star"]
    sset = set(s)
    candidates = []
    for f in star[min(s, key=lambda v: len(star[v]))]:
        if sset <= set(f):
            rest = tuple(v for v in f if v not in sset)
            if rest:
                candidates.append(tuple(X.vertices[v] for v in rest))
    if not candidates:
        return SimplicialComplex.empty()
    return SimplicialComplex.from_simplices(X.vertices, candidates)
