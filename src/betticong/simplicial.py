"""Finite simplicial complexes with exact cohomology and cup products.

Vertex labels are opaque strings carrying an explicit total order (default
lexicographic); every cochain-level formula (coboundary signs, the
front-face/back-face cup product, staircase product triangulations) is
stated against that order, so the order is fixed at construction and never
changes.  Complexes are immutable; derived data (Betti numbers, cocycle
bases) is cached on the instance.
"""

from __future__ import annotations

import operator
import weakref
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations, repeat

from . import exactalg
from .exactalg import _axpy, _reduced
from .pd_algebra import BigradedAlgebra, Orientation, pairing_matrix

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


def _lift(B: dict, pairs, up, p: int, c=None) -> dict:
    """Extend a block B = {cell: {label: value}} of core cochains (X's indices) to X.

    *pairs* are ``(cells, partner)`` from ``coreduce``, tau in cells against
    sigma = partner[tau] in B's degree, and *up* the rows of delta out of it.
    Walked last pair first, each sets B(sigma) = c(sigma) - u sum_{b !=
    sigma} delta[tau, b] B(b), u = delta[tau, sigma] = +-1, in place and mod
    p; c is 0 but in ``Retraction.project``'s homotopy.
    """
    (cells, partner), c = pairs, c or {}
    for tau in reversed(cells):  # sigma is not set yet, so not in B
        row, sigma = up[tau], partner[tau]
        if B.keys().isdisjoint(row) and sigma not in c:
            continue
        acc, u = dict(c.get(sigma, {})), row[sigma]
        for b, e in row.items():
            if b in B:
                _axpy(acc, -u * e, B[b])
        if acc := _reduced(acc, p):
            B[sigma] = acc
    return B


# A block holds cochains row-major, {cell: {label: value}}: one walk over the pairs
# carries them all.  p is a prime, or 0 for integers: the retraction is integral,
# and over Q it runs on integer multiples.

def _mod(p: int):
    return p.__rmod__ if p else operator.pos


class Retraction:
    """X's coreduction as a strong deformation retraction (iota, pi, h) of C^*(X) onto its core.

    The only reader of ``coreduce``'s output.  The core is the ``live``
    cells, every seed vertex included (without vertex 0 it would carry the
    reduced cohomology), the top seeds first in the top degree;
    ``delta[j]`` is its delta^j in core indices (``index[j]``), one row per
    core cell of degree j+1: the live submatrix of the seeded coboundaries
    ``rows``.  Cells neither live nor cancelled downward (``down``) were
    cancelled upward.

    A pair (tau, sigma) of degrees (d, d-1), u = delta[tau, sigma] = +-1 =
    u^-1, is an elementary reduction: row tau or column sigma of the live
    delta is u alone, so delta[a, sigma] delta[tau, b] = 0 for a != tau and
    b != sigma, and the rest carries the submatrices of delta.  Its iota v
    (sigma) = -u sum_{b != sigma} delta[tau, b] v(b) makes (delta iota
    v)(tau) = 0, pi v = v - u v(tau) delta e_sigma off tau, and h v = u
    v(tau) e_sigma: delta^2 = 0 and that unit alone give pi iota = 1, 1 -
    iota pi = delta h + h delta, h h = 0, h iota = 0 and pi h = 0.  So does
    the composite, h = sum_k iota_{<k} h_k pi_{<k}: iota walks the pairs of
    degrees (j+1, j) last first (the cells of earlier pairs, not set yet,
    are dead in that step, and their zeros keep its sums), pi those of
    degrees (j, j-1) first first (X's full column delta e_sigma differs
    from the live one only at dead cells, which no later step reads).  A
    vertex seed x changes basis in degree 0: iota e_x is x's component's
    indicator (a later seed has zeroed x's column in the rows cancelled
    before it) and pi v (x) = v(x).  The top seeds' row operation M comes
    first: pi and h read M v, iota is M^-1 on the top core cells, and
    ``pull_back``, pi^T, ends with M^T.

    ``components``, ``delta`` and ``cols`` are built when first read, so a
    complex whose ranks alone are asked for pays for none of them; the
    Borel transfer, which alone reads ``cols``, drops them when it is done.
    """

    def __init__(self, X: "SimplicialComplex"):
        self.rows, self.live, self.down, (self.eps, self.seeds) = coreduce(
            [X.coboundary_rows(d) for d in range(X.dim)], X.f_vector)
        self.top, self._complex = X.dim, weakref.ref(X)  # X caches self

    @cached_property
    def core(self) -> list[list[int]]:
        core = [[q for q, a in enumerate(flags) if a] for flags in self.live]
        if self.seeds:
            core[-1] = [*self.seeds, *(q for q in core[-1] if q not in self.seeds)]
        return core

    @cached_property
    def index(self) -> list[dict[int, int]]:
        return [{q: i for i, q in enumerate(cells)} for cells in self.core]

    @cached_property
    def delta(self) -> list[list[dict[int, int]]]:
        return [[{index[c]: v for c, v in self.rows[j][t].items() if c in index}
                 for t in self.core[j + 1]] for j, index in enumerate(self.index[:-1])]

    @cached_property
    def components(self) -> dict[int, list[int]]:
        """Each seed vertex's component, as vertex cells: iota e_x."""
        X = self._complex()
        index = X._simplex_index.get(0, {})
        comps = [[index[(v,)] for v in comp] for comp in X.connected_components()]
        return {x: cells for cells in comps for x in cells if self.live[0][x]}

    @cached_property
    def cols(self) -> list[dict[int, dict[int, int]]]:
        """cols[d][sigma]: column sigma of delta^{d-1}, for each sigma cancelled
        upward by a d-cell, at the d-cells that ``project`` reads or keeps."""
        out = [{}]
        for d in range(1, self.top + 1):
            (cells, partner), rows = self.down[d], self.rows[d - 1]
            out.append(cols := {partner[t]: {} for t in cells})
            for a in (*self.core[d], *cells):
                for s, e in rows[a].items():
                    if s in cols:
                        cols[s][a] = e
        return out

    def lift(self, B: dict, j: int, p: int) -> dict:
        """iota on a block B of core cochains of degree j."""
        if not j:
            return {y: col for x, col in B.items() for y in self.components[x]}
        if j < self.top:
            return _lift(dict(B), self.down[j + 1], self.rows[j], p)
        return self._seeded(dict(B), -1, p)

    def project(self, B: dict, j: int, p: int) -> tuple[dict, dict]:
        """(pi B, h B) for a block B of X's cochains of degree j.

        One walk of the pairs (tau, sigma) of degrees (j, j-1), first first,
        gives pi B and h's coefficients c(sigma) = u (pi_{<k} B)(tau); h B =
        sum_k c(sigma_k) iota_{<k} e_sigma_k is their ``_lift`` along the
        same pairs, last first.
        """
        W, c = {t: dict(col) for t, col in B.items()}, {}
        if j == self.top:
            self._seeded(W, 1, p)
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
        h = _lift({}, self.down[j], self.rows[j - 1], p, c) if c else {}
        return {q: r for q in self.core[j] if q in W and (r := _reduced(W[q], p))}, h

    def pull_back(self, z: dict[int, int], j: int, p: int) -> dict[int, int]:
        """pi^T: z o pi on X's cochains of degree j >= 1, for z sparse on the core's cells.

        Off M, pi v = (v - delta c) on the core, c(sigma) = u (v - delta
        c)(tau) over the pairs of degrees (j, j-1): c = (I + U A)^-1 U S v,
        S v = (v(tau)), U = diag(u) and A[k, i] = delta[tau_k, sigma_i]
        strictly lower triangular.  So z . pi v = z . v - y . c with y =
        delta^T z, and y . c = sum_k u_k g_k v(tau_k) with g = (I + A^T
        U)^-1 y solved last pair first: g_k is y(sigma_k) once every later
        pair i has pushed -delta[tau_i, b] u_i g_i onto each face b of
        tau_i.  In the top degree M^T follows: (M^T w)(t) = w(t) + eps_t
        w(tau) over each top seed tau's component.
        """
        reduce, faces, y = _mod(p), self.rows[j - 1], {}
        for a, x in z.items():
            _axpy(y, x, faces[a])
        out, (cells, partner) = dict(z), self.down[j]
        for tau in reversed(cells):
            sigma = partner[tau]
            g = reduce(y.get(sigma, 0))
            if g:
                row = faces[tau]
                t = row[sigma] * g
                out[tau] = reduce(-t)
                _axpy(y, -t, row)
        if j == self.top:
            for tau, comp in self.seeds.items():
                if g := out.get(tau):
                    for t in comp[1:]:  # comp[0] is tau
                        if x := reduce(out.get(t, 0) + self.eps[t] * g):
                            out[t] = x
                        else:
                            out.pop(t, None)
        return out

    def _seeded(self, W: dict, f: int, p: int):
        """M W for f = 1, M^-1 W for f = -1: W(tau) += f sum_{t != tau} eps_t W(t)
        over each top seed tau's component."""
        for tau, comp in self.seeds.items():
            acc = dict(W.get(tau, {}))
            for t in comp:
                if t != tau and t in W:
                    _axpy(acc, f * self.eps[t], W[t])
            if acc := _reduced(acc, p):
                W[tau] = acc
            else:
                W.pop(tau, None)
        return W


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
        """The vertex sets of the components, by least vertex; cached, not to be modified."""
        if "components" in self._cache:
            return self._cache["components"]
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
        self._cache["components"] = sorted(comps.values(), key=min)
        return self._cache["components"]

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

    def _retraction(self) -> Retraction:
        """X's coreduction (``Retraction``), built once."""
        if "retraction" not in self._cache:
            self._cache["retraction"] = Retraction(self)
        return self._cache["retraction"]

    def _reduced_rows(self, k: int) -> list[dict[int, int]]:
        """delta^k after the coreduction's unit pivots, in X's own row and column indices.

        A row cancelled downward is its +-1 entry at its partner, a live row
        keeps its live columns (of delta^0 in the seeded basis, of M
        delta^{d-1} in the top degree), and every other row is empty.  The
        rank routes eliminate this matrix, which has delta^k's rank over
        every field (see ``cohomology``); the partners are among its pivots.
        """
        if k >= self.dim:
            return self.coboundary_rows(k)
        R = self._retraction()
        partner, live_rows, live_cols = R.down[k + 1][1], R.live[k + 1], R.live[k]
        return [{s: row[s]} if (s := partner[q]) >= 0
                else {c: v for c, v in row.items() if live_cols[c]} if live_rows[q] else {}
                for q, row in enumerate(R.rows[k])]

    def _coboundary_rank(self, k: int, field) -> int:
        """rank delta^k over *field*, read off the Smith divisors once they exist; uncached."""
        p = field.char
        if "smith" in self._cache:
            return sum(1 for d in self._cache["smith"][k] if (d % p if p else d))
        rows = self._reduced_rows(k)
        return exactalg.sparse_rank_modp(rows, p) if p else exactalg.sparse_rank_q(rows)

    def _smith_divisors(self) -> list[tuple[int, ...]]:
        """The Smith divisors of delta^0..delta^dim (delta^dim is zero), off the coreduction.

        Those of delta^k (see ``cohomology``): a 1 per cancelled pair of
        degrees (k+1, k), the divisors of the core's block of delta^k
        (``Retraction.delta``, all that ``smith_normal_form`` sees), then 0s
        up to min(n_{k+1}, n_k).  Over Q the rank of delta^k is its number of
        nonzero divisors, over F_p the number prime to p; once this pass has
        run, ``cohomology`` eliminates nothing.
        """
        if "smith" not in self._cache:
            smith, n = [()] * (self.dim + 1), self.f_vector
            for k in range(self.dim):
                R = self._retraction()
                ds = (1,) * len(R.down[k + 1][0]) + exactalg.smith_normal_form(
                    R.delta[k], len(R.core[k])).divisors
                smith[k] = ds + (0,) * (min(n[k + 1], n[k]) - len(ds))
            self._cache["smith"] = smith
        return self._cache["smith"]

    # -- cohomology ------------------------------------------------------

    def cohomology(self, field) -> GradedBetti:
        """Betti numbers over Q or F_p from coboundary ranks.

        Every route reads delta^k after the unit pivots of the coreduction
        (``_reduced_rows``; the Smith pass reads it off ``Retraction``).  Its
        live rows are the core's delta^k, and its one-entry rows (each cell
        cancelled downward, at its partner) meet no other row's column.  The
        seeds are unimodular: each vertex seed after vertex 0's zeroes a
        column of delta^0 (the seed's basis vector becomes its component's
        indicator cocycle), and the top seeds replace delta^{d-1} (d = dim)
        by M delta^{d-1}.  So it has the rank of delta^k over every field
        and its nonzero Smith divisors.
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
        nothing is eliminated.  Degree 0 is read off the components: one
        indicator cocycle per entry of ``connected_components``, in that
        order, whose dual vector is the value at the component's least
        vertex.  No elimination runs.

        For i >= 1 the one sparse engine, ``exactalg.Subquotient``, runs on
        the core (``Retraction.delta``): ker delta^i modulo the columns of
        delta^{i-1}.  The retraction is a homotopy equivalence, so iota and
        pi are inverse isomorphisms on H^i: each class is lifted to X by
        iota (``Retraction.lift``) and each dual vector z becomes z o pi
        (``Retraction.pull_back``), so ``express`` is the core's on pi v.
        In the top degree d each top seed tau has an empty row in the
        core's delta^{d-1}, so its class e_tau comes first, with the dual
        e_tau, which M^T pulls back to the fundamental cycle of tau's
        component.
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
        """(basis, duals) of H^i (i >= 1): the core's, carried to X by iota and pi^T."""
        R, p = self._retraction(), field.char
        cells = R.core[i]
        core = exactalg.Subquotient(R.delta[i] if i < self.dim else [],
                                    exactalg.transpose_rows(R.delta[i - 1], len(R.core[i - 1])),
                                    field, len(cells))

        def carry(move, values: dict) -> dict:
            # On the integer multiple; residues over F_p have m = 1.
            m, v = exactalg.int_multiple({cells[j]: x for j, x in values.items()})
            v = move(v)
            return v if m == 1 else {c: Fraction(x, m) for c, x in v.items()}

        def lift(v: dict) -> dict:  # one cochain, as a block
            return {c: col[0] for c, col in R.lift({c: {0: x} for c, x in v.items()}, i, p).items()}

        return ([carry(lift, v) for v in core.basis],
                [carry(lambda z: R.pull_back(z, i, p), z) for z in core.duals])

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

@dataclass(frozen=True)
class PDResult:
    is_pd: bool
    formal_dim: int | None
    failures: tuple[str, ...] = ()


def cup_pairing(X: SimplicialComplex, field) -> tuple[BigradedAlgebra, Orientation | None]:
    """H^*(X) of a connected X as a ``BigradedAlgebra``, with its orientation.

    The basis is the classes of ``cohomology_basis`` in each degree i, at
    bidegree (0, i), the unit first.  Products with the unit are written
    (1 cup v = v cup 1 = v on cochains); every other product is the class
    of ``cup_cochain``.  The orientation is dual to the top class where
    b_top = 1, and None otherwise.
    """
    key = ("ring", field.name)
    if key in X._cache:
        return X._cache[key]
    comps = X.connected_components()
    if len(comps) != 1:
        raise ValueError(f"cup_pairing requires a connected complex ({len(comps)} components)")
    betti = X.cohomology(field).betti
    top = max(i for i, b in enumerate(betti) if b)
    bases = [X.cohomology_basis(field, i) for i in range(top + 1)]
    start = [sum(betti[:i]) for i in range(top + 2)]
    table = {k: {c: field.one} for c in range(start[-1]) for k in ((0, c), (c, 0))}
    for i in range(1, top):
        for j in range(1, top + 1 - i):
            for a, u in enumerate(bases[i].basis):
                for b, v in enumerate(bases[j].basis):
                    coeffs = bases[i + j].express(X.cup_cochain(field, i, j, u, v))
                    if prod := {start[i + j] + c: x for c, x in enumerate(coeffs) if x}:
                        table[start[i] + a, start[j] + b] = prod
    A = BigradedAlgebra(field, [(0, i) for i in range(top + 1) for _ in range(betti[i])], table)
    phi = Orientation({start[top]: field.one}, top) if betti[top] == 1 else None
    X._cache[key] = A, phi
    return A, phi


def pd_check(X: SimplicialComplex, field) -> PDResult:
    """Poincare duality over a field: b_n = 1 and all cup pairings perfect.

    The formal dimension is the top degree with nonzero cohomology; a
    cohomologically trivial complex (a point up to the field) passes with
    formal dimension 0.
    """
    comps = X.connected_components()
    if len(comps) != 1:
        raise ValueError(f"pd_check requires a connected complex ({len(comps)} components)")
    A, phi = cup_pairing(X, field)
    n, betti = A.max_second_grading(), X.cohomology(field).betti
    failures = []
    if phi is None:
        failures.append(f"top Betti number b_{n} = {betti[n]} != 1")
    else:
        for i in range(n + 1):
            bi, bj = betti[i], betti[n - i]
            if bi != bj:
                failures.append(f"pairing H^{i} x H^{n - i} not square: {bi} vs {bj}")
            elif bi and exactalg.rank(pairing_matrix(A, phi, i), field) != bi:
                failures.append(f"pairing H^{i} x H^{n - i} is degenerate")
    ok = not failures
    return PDResult(
        is_pd=ok,
        formal_dim=n if ok else None,
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
