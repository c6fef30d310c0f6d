"""Dense and plain-loop routes the tests compare the library against.

No library path calls these: the library computes kernels, cocycle bases,
g* and cup pairings sparsely, and reads an input document in one pass.  They stay here as independent references,
with the checks that several test modules run against them.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from betticong import exactalg, simplicial
from betticong.cli import InputDocument, InputError, _field_named, _first_repeat, _logical_lines
from betticong.equivariant import TransferredComplex
from betticong.exactalg import QQ, SmithForm, rref
from betticong.group_action import (
    GroupAction,
    induced_cohomology_action,
    pullback_permutation,
    validate_action,
)
from betticong.pd_algebra import BigradedAlgebra, Differential, accumulate, make_orientation
from betticong.simplicial import Simplex, SimplicialComplex, bary_label, orbit


def dense(v: dict, n: int) -> list:
    """The sparse vector v as a list of n entries, 0 where v has none.

    Every index of v must lie in range(n).
    """
    assert all(0 <= i < n for i in v), (sorted(v), n)
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return out


def sparse(v: list) -> dict:
    """The nonzero entries of a list, as the sparse vector ``{index: value}``."""
    return {i: x for i, x in enumerate(v) if x}


def dense_pullback(action: GroupAction, degree: int, v: list, field) -> list:
    """sigma^# on a dense cochain: (sigma^# v)[s] = signs[s] * v[perm[s]]."""
    perm, signs = pullback_permutation(action, degree)
    return [field.reduce(sign * v[q]) for q, sign in zip(perm, signs)]


def dense_cup(X: SimplicialComplex, field, i: int, j: int, a: list, b: list) -> list:
    """Front-face/back-face cup product of dense cochains a in C^i, b in C^j."""
    idx_i = X._simplex_index.get(i, {})
    idx_j = X._simplex_index.get(j, {})
    target = X.simplices(i + j)
    out = [0] * len(target)
    for t, s in enumerate(target):
        av = a[idx_i[s[: i + 1]]]
        if av:
            out[t] = field.reduce(av * b[idx_j[s[i:]]])
    return out


def kernel_from_rref(R, pivots: list[int], n: int, field) -> list[list]:
    """One kernel vector per free column of an rref: 1 there, pivots back-substituted."""
    piv_set = set(pivots)
    basis = []
    for f in range(n):
        if f in piv_set:
            continue
        v = [0] * n
        v[f] = 1
        for row, c in zip(R, pivots):
            v[c] = field.reduce(-row[f])
        basis.append(v)
    return basis


def rank_and_kernel(matrix, field) -> tuple[int, list[list]]:
    """Rank and a deterministic kernel basis; rank + len(kernel) = ncols.

    One kernel vector per free column: entry 1 at the free column, pivot
    entries back-substituted from the rref.  A matrix with no rows carries no
    column count, so it is refused rather than given an empty kernel.
    """
    if not matrix:
        raise ValueError("rank_and_kernel needs at least one row to know the column count")
    R, pivots = rref(matrix, field)
    return len(pivots), kernel_from_rref(R, pivots, len(R[0]), field)


def kernel_basis(matrix, field) -> list[list]:
    return rank_and_kernel(matrix, field)[1]


def assert_complements(subquotients, kernel_of, image: list[list], kernel: list[list]):
    """Each ``Subquotient`` publishes a complement of B in ker A, with dual vectors.

    A has the sparse rows *kernel_of*, B is spanned by the dense rows
    *image*, and *kernel* is a dense oracle basis of ker A.  Every basis
    vector is in ker A.  rank([image; basis]) = dim ker A for each engine,
    and stays so with the oracle and every basis stacked together, so each
    basis spans ker A modulo B.  Each dual z_j vanishes on the image rows
    and z_j . basis[k] = [j == k], so the basis is independent modulo B.
    """
    field, n = subquotients[0].field, len(kernel[0]) if kernel else 0

    def dot(z: dict, v) -> int:
        return field.reduce(sum(x * v[c] for c, x in z.items()))

    bases = [[dense(v, n) for v in sq.basis] for sq in subquotients]
    stacked = image + kernel + [v for basis in bases for v in basis]
    assert exactalg.rank(stacked, field) == len(kernel)
    for sq, basis in zip(subquotients, bases):
        assert not any(dot(row, v) for row in kernel_of for v in basis)
        assert exactalg.rank(image + basis, field) == len(kernel)
        assert len(sq.duals) == len(basis) == len(sq)
        for j, z in enumerate(sq.duals):
            assert not any(dot(z, b) for b in image)
            assert [dot(z, v) for v in basis] == [int(j == k) for k in range(len(sq))]


def x_route_basis(X: SimplicialComplex, field, d: int) -> exactalg.Subquotient:
    """H^d as ker delta^d modulo the columns of delta^{d-1} on X's full rows.

    ``exactalg.Subquotient`` there publishes a basis of a complement of the
    image and its ``express``; the basis tests check both against the dense
    route with ``assert_complements``.
    """
    image = exactalg.transpose_rows(X.coboundary_rows(d - 1), X.n_simplices(d - 1)) if d else []
    return exactalg.Subquotient(X.coboundary_rows(d), image, field, X.n_simplices(d))


def cocycle_bases_and_change(X: SimplicialComplex, field, d: int):
    """The basis of ``cohomology_basis``, the route on X's full rows
    (``x_route_basis``) and C, whose column j is the class of the j-th
    published basis vector in that route's basis."""
    B, oracle = X.cohomology_basis(field, d), x_route_basis(X, field, d)
    C = [list(col) for col in zip(*map(oracle.express, B.basis))]
    assert len(B) == len(oracle) == exactalg.rank(C, field)
    return B, oracle, C


def assert_gstar_conjugate(action: GroupAction, field):
    """C g*_new = g*_old C in every degree, g*_old the matrix of sigma^* in
    the basis of the route on X's full rows."""
    X = action.complex
    for d, M in enumerate(induced_cohomology_action(action, field)):
        B, oracle, C = cocycle_bases_and_change(X, field, d)
        if not len(B):
            continue
        n = X.n_simplices(d)
        old = [list(col) for col in zip(*(
            oracle.express(sparse(dense_pullback(action, d, dense(v, n), field)))
            for v in oracle.basis))]
        assert exactalg.matmul(C, M, field) == exactalg.matmul(old, C, field), (action, d)


def assert_pairings_congruent(X: SimplicialComplex, field):
    """Each Gram matrix G of H^i x H^{n-i} -> H^n is congruent to that of
    the route on X's full rows: c G = C_i^T G_old C_{n-i}, c the class of
    the published top class in that route's basis; so the ranks agree."""
    ring = simplicial.cup_pairing(X, field)
    n = ring.top_degree
    if ring.orientation is None:
        return
    change = {i: cocycle_bases_and_change(X, field, i) for i in range(n + 1)}
    top, ((c,),) = change[n][1:]
    for i in range(n + 1):
        (_, old_i, C_i), (_, old_j, C_j) = change[i], change[n - i]
        if not (C_i and C_j):
            continue
        old = [[top.express(X.cup_cochain(field, i, n - i, a, b))[0] for b in old_j.basis]
               for a in old_i.basis]
        G = ring.pairing_matrix(i)
        Ct = [list(col) for col in zip(*C_i)]
        assert ([[field.reduce(c * x) for x in row] for row in G]
                == exactalg.matmul(exactalg.matmul(Ct, old, field), C_j, field))
        assert exactalg.rank(G, field) == exactalg.rank(old, field)


def coboundary_matrix(X: SimplicialComplex, k: int) -> list[list[int]]:
    """delta^k as a dense integer matrix, rows indexed by the (k+1)-simplices."""
    rows = X.coboundary_rows(k)
    M = [[0] * X.n_simplices(k) for _ in rows]
    for out, row in zip(M, rows):
        for c, v in row.items():
            out[c] = v
    return M


# The library's dense Smith form before it diagonalised first and read the
# chain off the diagonal by gcd and lcm: the smallest-pivot rule with a
# column swap, a sign-normalising helper and a divisibility restart.  Kept
# unchanged as the oracle of the one that replaced it.
def smith_normal_form(matrix) -> SmithForm:
    """Smith normal form (the divisor chain) of an integer matrix.

    Pivot selection: smallest absolute value among the remaining nonzero
    entries, ties broken by lowest (row, col); this bounds entry growth and
    makes the reduction deterministic.  Arithmetic is arbitrary-precision, but
    each pivot choice scans every remaining entry: large matrices belong to
    ``sparse_smith_divisors``, which uses this on its small core.
    """
    M = [[int(x) for x in row] for row in matrix]
    m, n = len(M), len(M[0]) if M else 0

    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if x:
                rows.setdefault(i, {})[j] = x
                col_rows.setdefault(j, set()).add(i)

    def row_sub(dst: int, src: int, q: int):
        src_row = rows.get(src, {})
        d = rows.setdefault(dst, {})
        for c, v in src_row.items():
            nv = d.get(c, 0) - q * v
            if nv:
                d[c] = nv
                col_rows.setdefault(c, set()).add(dst)
            elif c in d:
                del d[c]
                col_rows[c].discard(dst)
        if not d:
            rows.pop(dst, None)

    def col_sub(dst: int, src: int, q: int):
        for i in list(col_rows.get(src, ())):
            row = rows[i]
            v = row[src]
            nv = row.get(dst, 0) - q * v
            if nv:
                row[dst] = nv
                col_rows.setdefault(dst, set()).add(i)
            elif dst in row:
                del row[dst]
                col_rows[dst].discard(i)

    def negate_row(i: int):
        row = rows.get(i)
        if row:
            for c in row:
                row[c] = -row[c]

    divisors: list[int] = []

    while rows:
        best = None
        for i in sorted(rows):
            for c, v in rows[i].items():
                key = (abs(v), i, c)
                if best is None or key < best:
                    best = key
        _, pi, pc = best

        while True:
            if rows[pi][pc] < 0:
                negate_row(pi)
            pv = rows[pi][pc]
            # Clear the pivot column with floor-division row operations, then
            # re-select if a smaller remainder appeared.
            for j in sorted(col_rows.get(pc, set()) - {pi}):
                q = rows[j][pc] // pv
                if q:
                    row_sub(j, pi, q)
            residual = sorted(col_rows.get(pc, set()) - {pi})
            if residual:
                # Remainders in [0, pv) became new, smaller pivot candidates.
                j = min(residual, key=lambda r: (abs(rows[r][pc]), r))
                pi = j
                continue
            # Clear the pivot row by column operations.
            pv = rows[pi][pc]
            for c in sorted(set(rows[pi]) - {pc}):
                q = rows[pi][c] // pv
                if q:
                    col_sub(c, pc, q)
            rest = sorted(set(rows[pi]) - {pc})
            if rest:
                c = min(rest, key=lambda cc: (abs(rows[pi][cc]), cc))
                # Move the smaller entry into the pivot column.
                for i in set(col_rows.get(pc, set())) | set(col_rows.get(c, set())):
                    row = rows[i]
                    a, b = row.get(pc), row.get(c)
                    if a is None and b is None:
                        continue
                    if b is None:
                        del row[pc]
                        col_rows[pc].discard(i)
                        row[c] = a
                        col_rows.setdefault(c, set()).add(i)
                    elif a is None:
                        del row[c]
                        col_rows[c].discard(i)
                        row[pc] = b
                        col_rows.setdefault(pc, set()).add(i)
                    else:
                        row[pc], row[c] = b, a
                continue
            # Pivot isolated; enforce that it divides every remaining entry.
            pv = rows[pi][pc]
            offender = None
            for i in sorted(rows):
                if i == pi:
                    continue
                for c, v in sorted(rows[i].items()):
                    if v % pv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(pi, offender, -1)  # add offending row, restart reduction

        divisors.append(abs(rows[pi][pc]))
        col_rows[pc].discard(pi)
        del rows[pi]

    divisors += [0] * (min(m, n) - len(divisors))
    return SmithForm(divisors=tuple(divisors), rank=sum(1 for d in divisors if d))


def cochain_pullback_matrix(action: GroupAction, degree: int, field) -> list[list]:
    """Matrix of the pullback sigma^# on C^degree in the simplex basis."""
    perm, signs = pullback_permutation(action, degree)
    M = field.zeros((len(perm), len(perm)))
    # (sigma^# a)(s) = sign * a(sigma(s)); column perm[i] feeds row i.
    for row, q, sign in zip(M, perm, signs):
        row[q] = field.reduce(sign)
    return M


def vertex_orbit_reps(action: GroupAction) -> dict[str, str]:
    """Each vertex's least orbit-mate, walking the vertex map label by label."""
    m = action.mapping
    reps = {}
    for v in action.complex.vertices:
        orbit = [v]
        w = m[v]
        while w != v:
            orbit.append(w)
            w = m[w]
        for u in orbit:
            reps[u] = min(orbit)
    return reps


def power_map(action: GroupAction, k: int) -> tuple[tuple[str, str], ...]:
    """The vertex map of g^k, sorted by source: g applied k mod p times."""
    m = action.mapping
    out = {}
    for v in action.complex.vertices:
        w = v
        for _ in range(k % action.p):
            w = m[w]
        out[v] = w
    return tuple(sorted(out.items()))


def simplex_orbits(action: GroupAction, k: int) -> list[list[Simplex]]:
    """The orbits of the k-simplices, each from its first simplex, in simplex
    order, taking a simplex's image as its sorted vertex image."""
    perm = action.perm()
    seen: set[Simplex] = set()
    orbits = []
    for s in action.complex.simplices(k):
        if s in seen:
            continue
        orb, t = [s], tuple(sorted(perm[v] for v in s))
        while t != s:
            orb.append(t)
            t = tuple(sorted(perm[v] for v in t))
        seen.update(orb)
        orbits.append(orb)
    return orbits


def subdivided_map(action: GroupAction) -> tuple[tuple[str, str], ...]:
    """The vertex map of the action on sd X, sorted by source: each
    barycentre to that of its simplex's image, sorted by vertex index."""
    X, m = action.complex, action.mapping
    idx = X._vertex_index
    return tuple(sorted((bary_label(s), bary_label(tuple(sorted((m[v] for v in s), key=idx.get))))
                        for d in range(X.dim + 1) for s in X.simplex_labels(d)))


def trivial_rational_action_check(action: GroupAction) -> bool:
    """Whether sigma^* = id on H^*(X;Q).

    A linear map of order p on a rational space of dimension below p - 1
    has minimal polynomial x - 1, so this must hold whenever the total
    rational Betti number is smaller than p; the property tests pin that.
    """
    return all(M == exactalg.identity(len(M)) for M in induced_cohomology_action(action, QQ))


def top_seeds(X: SimplicialComplex) -> dict[int, dict[int, int]]:
    """Each closed orientable component of X's top cells (d = dim X >= 1), by
    its first cell tau, with the orientation eps (eps_tau = 1) for which sum_t
    eps_t row_t of delta^{d-1} is 0.  Found here by label: components grow
    over the faces that top cells share, each face of a closed component is
    on two of its cells, and a sign set on one of them is carried across
    the face until nothing changes; the cycle condition is then checked."""
    d = X.dim
    if d < 1:
        return {}
    rows = X.coboundary_rows(d - 1)
    on: dict[int, list[int]] = {}
    for t, row in enumerate(rows):
        for s in row:
            on.setdefault(s, []).append(t)
    seeds, seen = {}, set()
    for tau in range(len(rows)):
        if tau in seen:
            continue
        comp, grown = {tau}, True
        while grown:
            grown = False
            for s, ts in on.items():
                if comp.intersection(ts) and not comp.issuperset(ts):
                    comp.update(ts)
                    grown = True
        seen |= comp
        faces = {s for t in comp for s in rows[t]}
        if any(len(on[s]) != 2 for s in faces):
            continue
        eps, grown = {tau: 1}, True
        while grown:
            grown = False
            for s in faces:
                t, u = on[s]
                if (t in eps) != (u in eps):
                    t, u = (t, u) if t in eps else (u, t)
                    eps[u] = -eps[t] * rows[t][s] * rows[u][s]
                    grown = True
        cycle = {}
        for t, e in eps.items():
            for s, x in rows[t].items():
                cycle[s] = cycle.get(s, 0) + e * x
        if not any(cycle.values()):
            seeds[tau] = eps
    return seeds


def simplices_by_facet_loop(facets) -> dict[int, list[Simplex]]:
    """Each degree's simplices, sorted: every k-subset of every facet,
    gathered by one ``set.update`` per facet and k."""
    simplices: dict[int, set[Simplex]] = {}
    for f in facets:
        for k in range(1, len(f) + 1):
            simplices.setdefault(k - 1, set()).update(combinations(f, k))
    return {d: sorted(simplices[d]) for d in simplices}


def coreduce_with_cancel(rows: list[list[dict[int, int]]], sizes, perms=None):
    """``simplicial.coreduce`` written plainly, with the pairs in dicts.

    The same seeds and the same FIFO queue, with each cell cancelled by a
    nested ``cancel`` that pushes its cofaces, then its faces (tau's, then
    sigma's).  Returns ``(rows, live, down)``, ``down[d]`` the dict {tau:
    sigma} of the cells cancelled downward in that order.
    """
    top = len(sizes) - 1
    rows = [list(rows[0]), *rows[1:]] if rows else []
    cofaces = [[[] for _ in range(n)] for n in sizes]
    for R, cs in zip(rows, cofaces):
        for t, fs in enumerate(R):
            for s in fs:
                cs[s].append(t)
    if perms is None and top > 0:
        eps = [0] * sizes[top]
        seeds = [t for t in range(sizes[top]) if not eps[t]
                 and simplicial._orient(rows[top - 1], cofaces[top - 1], t, eps) is not None]
        if seeds and top > 1:
            rows[top - 1] = list(rows[top - 1])
        for t in seeds:
            for s in rows[top - 1][t]:
                cofaces[top - 1][s].remove(t)
            rows[top - 1][t] = {}
    n_faces = [[0] * n for n in sizes[:1]] + [list(map(len, R)) for R in rows]
    n_cofaces = [list(map(len, cs)) for cs in cofaces]
    live = [bytearray(b"\x01") * n for n in sizes]
    down: list[dict[int, int]] = [{} for _ in sizes]
    queue: deque[tuple[int, int]] = deque()

    def cancel(d: int, q: int):
        live[d][q] = 0
        if d < top:
            counts = n_faces[d + 1]
            for t in cofaces[d][q]:
                counts[t] -= 1
                if counts[t] == 1:
                    queue.append((d + 1, t))
        if d:
            counts = n_cofaces[d - 1]
            for s in rows[d - 1][q]:
                counts[s] -= 1
                if counts[s] == 1:
                    queue.append((d - 1, s))

    def seed(x: int):
        for t in cofaces[0][x]:
            rows[0][t] = {c: v for c, v in rows[0][t].items() if c != x}
            n_faces[1][t] -= 1
            if n_faces[1][t] == 1:
                queue.append((1, t))
        cofaces[0][x], n_cofaces[0][x] = [], 0

    fresh = (x for x in range(sizes[0] if sizes else 0)
             if live[0][x] and (perms is None or perms[0][x] == x))
    x = next(fresh, None)
    if x is not None:
        seed(x)
    for d in range(top + 1):
        queue.extend((d, q) for q, (f, c) in enumerate(zip(n_faces[d], n_cofaces[d]))
                     if f == 1 or c == 1)
    while True:
        while queue:
            d, q = queue.popleft()
            if not live[d][q]:
                continue
            if n_faces[d][q] == 1:
                tau, sigma = q, next(s for s in rows[d - 1][q] if live[d - 1][s])
            elif n_cofaces[d][q] == 1:
                d, tau, sigma = d + 1, next(t for t in cofaces[d][q] if live[d + 1][t]), q
            else:
                continue
            if perms and len(orbit(perms[d], tau)) != len(orbit(perms[d - 1], sigma)):
                continue
            while live[d][tau]:  # tau's orbit against sigma's
                down[d][tau] = sigma
                cancel(d, tau)
                cancel(d - 1, sigma)
                if perms:
                    tau, sigma = perms[d][tau], perms[d - 1][sigma]
        x = next(fresh, None)
        if x is None or top and any(f == 1 and a for f, a in zip(n_faces[1], live[1])):
            return rows, live, down
        seed(x)


def assert_coreduce_matches_oracle(rows, sizes):
    """``simplicial.coreduce`` cancels the pairs of ``coreduce_with_cancel``,
    in the same order, and leaves the same rows and live cells; its top
    seeds are the rows it emptied, each first in its component."""
    got_rows, live, down, (eps, seeds) = simplicial.coreduce(rows, sizes)
    want_rows, want_live, want_down = coreduce_with_cancel(rows, sizes)
    assert [[list(r.items()) for r in R] for R in got_rows] \
        == [[list(r.items()) for r in R] for R in want_rows]
    assert live == want_live
    for d, ((cells, partner), pairs) in enumerate(zip(down, want_down, strict=True)):
        assert list(cells) == list(pairs)
        assert [partner[t] for t in cells] == list(pairs.values())
        assert len(partner) == sizes[d] and sum(1 for s in partner if s >= 0) == len(cells)
    top = len(sizes) - 1
    emptied = [] if top < 1 else [t for t, r in enumerate(got_rows[top - 1]) if not r]
    assert list(seeds) == emptied and all(comp[0] == t and eps[t] == 1 for t, comp in seeds.items())


def assert_lift_and_projection(X: SimplicialComplex, forwards: bool = False):
    """The lift and projection between X and its core in degrees d >= 1
    are integral cochain maps with pi iota = id, and ``Retraction.pull_back``
    gives the functional z o pi.  pi is computed here as stated in
    ``Retraction``: walk the pairs cancelled downward first first,
    subtracting v(tau) u delta e_sigma with X's full column of delta.  In the
    top degree the core is that of M delta, M the row operation of the top
    seeds (``top_seeds``): pi is composed with M, iota with M^-1, and the
    seeds' rows are zero.  The coreduction's empty top rows are exactly the
    seeds.  With ``forwards`` the lift walks its pairs first first, a
    planted defect."""
    R = X._retraction()
    live, down = R.live, R.down
    rng = random.Random(sum(X.f_vector))
    seeds = top_seeds(X)
    if X.dim >= 1:
        assert {t for t, row in enumerate(R.rows[X.dim - 1]) if not row} == set(seeds)

    def seeded(v, d, inverse=False):  # M v in the top degree; M^-1 v with *inverse*
        if d == X.dim:
            for tau, eps in seeds.items():
                s = sum(e * v.get(t, 0) for t, e in eps.items() if t != tau)
                v[tau] = v.get(tau, 0) + (-s if inverse else s)
        return {a: x for a, x in v.items() if x}

    def lift(x, d):
        cells, partner = down[d + 1] if d < X.dim else ((), ())
        if forwards:
            cells = cells[::-1]
        block = simplicial._lift({a: {0: y} for a, y in x.items()}, (cells, partner),
                                 X.coboundary_rows(d), int)
        return seeded({a: col[0] for a, col in block.items()}, d, inverse=True)

    def project(v, d):
        v, rows = seeded(dict(v), d), X.coboundary_rows(d - 1)
        cols = exactalg.transpose_rows(rows, X.n_simplices(d - 1))
        cells, partner = down[d]
        for tau in cells:
            sigma = partner[tau]
            t = v.get(tau, 0) * rows[tau][sigma]
            for a, e in cols[sigma].items():
                if not (d == X.dim and a in seeds):
                    v[a] = v.get(a, 0) - t * e
        return {a: x for a, x in v.items() if live[d][a] and x}

    def delta(v, d, core=False):
        out = {}
        for t, row in enumerate(X.coboundary_rows(d)):
            if core and (not live[d + 1][t] or d + 1 == X.dim and t in seeds):
                continue
            s = sum(e * v.get(c, 0) for c, e in row.items() if live[d][c] or not core)
            if s:
                out[t] = s
        return out

    def random_cochain(cells):
        return {c: x for c in cells if (x := rng.randint(-2, 2))}

    for d in range(1, X.dim + 1):
        cells = [q for q, a in enumerate(live[d]) if a]
        for _ in range(3):
            x, z = random_cochain(cells), random_cochain(cells)
            v = random_cochain(range(X.n_simplices(d)))
            assert project(lift(x, d), d) == x
            pulled = R.pull_back(z, d, 0)
            assert (sum(z.get(a, 0) * y for a, y in project(v, d).items())
                    == sum(y * v.get(c, 0) for c, y in pulled.items()))
            if d < X.dim:
                assert delta(lift(x, d), d) == lift(delta(x, d, core=True), d + 1), d
                assert project(delta(v, d), d + 1) == delta(project(v, d), d, core=True), d


def in_kernel(rows: list[dict[int, int]], v: dict, field) -> bool:
    """A v = 0, checked row by row over every row of A on the integer multiple of v
    (``Subquotient.express``'s check before it read a column index)."""
    w = exactalg.int_multiple(v)[1]
    return not any(field.reduce(sum(val * w[c] for c, val in row.items() if c in w))
                   for row in rows)


def one_row_defects(rows: list[dict[int, int]], n: int, field) -> list[dict]:
    """Sparse u with A u = e_r, for each row r of A (on n columns) where one exists.

    A u is then nonzero in row r alone.  The dense rref of [A | I] is
    [E A | E]; A u = e_r is solvable iff E e_r is 0 on the zero rows of E A,
    and then u is E e_r at the pivot columns of E A.
    """
    m = len(rows)
    if not m:
        return []
    R, pivots = rref([dense(row, n) + [int(i == k) for k in range(m)]
                      for i, row in enumerate(rows)], field)
    out = []
    for r in range(m):
        if not any(R[i][n + r] for i, pc in enumerate(pivots) if pc >= n):
            u = {pc: x for i, pc in enumerate(pivots) if pc < n and (x := R[i][n + r])}
            assert [field.reduce(sum(x * u.get(c, 0) for c, x in row.items())) for row in rows] \
                == [int(i == r) for i in range(m)]
            out.append(u)
    return out


def assert_kernel_check_as_oracle(sq: exactalg.Subquotient, rows, n: int, field, rng,
                                  defects=()) -> int:
    """``sq.express`` accepts exactly the vectors ``in_kernel`` accepts.

    The vectors are sq's basis, the *defects*, random sparse vectors on n
    columns, and some of these with an entry beyond every row's last column
    or at -1.
    Returns the number of vectors rejected.
    """
    def scalar():
        x = rng.choice((-2, -1, 1, 2, 3))
        return field.coerce(x if field.char else Fraction(x, rng.choice((1, 7))))

    beyond = max((max(r) for r in rows if r), default=-1) + 1
    vectors = [*sq.basis, *defects]
    vectors += [{c: scalar() for c in rng.sample(range(n), rng.randint(1, min(n, 3)))}
                for _ in range(5 if n else 0)]
    vectors += [{**v, c: scalar()} for c in (beyond, beyond + 4, -1) for v in vectors[-3:]]
    vectors.append({beyond: field.one})
    rejected = 0
    for v in vectors:
        try:
            sq.express(v)
        except ValueError:
            rejected += 1
            assert not in_kernel(rows, v, field), v
        else:
            assert in_kernel(rows, v, field), v
    return rejected


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


def horizontal_rows(C: PermutationComplex, i: int, j: int) -> list[dict[int, int]]:
    """Sparse rows of K^{i,j} -> K^{i+1,j}: sigma^# - 1 for even i, the norm
    1 + sigma^# + ... + (sigma^#)^{p-1} for odd i, walked along perm."""
    perm, signs = C.pullbacks[j]
    rows: list[dict[int, int]] = []
    for s in range(len(perm)):
        row, cur, sgn = {s: 1 if i % 2 else -1}, s, 1
        for _ in range(C.p - 1 if i % 2 else 1):
            sgn, cur = sgn * signs[cur], perm[cur]
            row[cur] = row.get(cur, 0) + sgn
        rows.append({c: v % C.p for c, v in row.items() if v % C.p})
    return rows


def borel_model(C: PermutationComplex) -> TransferredComplex:
    """The double complex of C itself for ``BorelComplex``: delta mod p, and
    epsilon as the only horizontal term (k = 0), as no homotopy enters."""
    p = C.p
    horizontal = {}
    for a in (0, 1):
        for j in range(C.dim + 1):
            if block := {r: row for r, row in enumerate(horizontal_rows(C, a, j)) if row}:
                horizontal[a, j, 0] = block
    rows = tuple([{c: v % p for c, v in r.items() if v % p} for r in R] for R in C.rows)
    return TransferredComplex(p, C.sizes, rows, horizontal)


def unreduced_model(action: GroupAction) -> TransferredComplex:
    """The Borel double complex on all of X's cochains: the test oracle of the transfer."""
    return borel_model(PermutationComplex.of_action(action))


def pairwise_signs(action: GroupAction, degree: int) -> list[int]:
    """The signs of sigma^# on C^degree by counting the inverted vertex pairs of each simplex."""
    perm_v = action.perm()
    return [-1 if sum(perm_v[a] > perm_v[b] for a, b in combinations(s, 2)) % 2 else 1
            for s in action.complex.simplices(degree)]


def _block_delta(rows: list[dict[int, int]], B: dict, p: int) -> dict:
    """delta on a block {cell: {label: value}}: row t of the result is sum_s delta[t, s] B[s]."""
    out = {}
    for t, row in enumerate(rows):
        acc = {}
        for s, e in row.items():
            for m, x in B.get(s, {}).items():
                acc[m] = acc.get(m, 0) + e * x
        if acc := _mod(acc, p):
            out[t] = acc
    return out


def _mod(col: dict, p: int) -> dict:
    """The nonzero entries of col, mod p if p is a prime, as integers if p = 0."""
    return {m: r for m, v in col.items() if (r := v % p if p else v)}


def _block_sum(p: int, *terms) -> dict:
    """sum of f * B over the (f, B) *terms*, reduced mod p, zero rows dropped."""
    out = {}
    for f, B in terms:
        for t, col in B.items():
            acc = out.setdefault(t, {})
            for m, x in col.items():
                acc[m] = acc.get(m, 0) + f * x
    return {t: r for t, col in out.items() if (r := _mod(col, p))}


def assert_retraction(X: SimplicialComplex, p: int):
    """X's ``Retraction`` is a strong deformation retraction over F_p, or over
    Q (on integers) for p = 0, checked on the block of every basis cochain
    in each degree: pi iota = 1; iota and pi are cochain maps between X's
    delta and the core's (the seeded rows on the core's cells); 1 - iota pi
    = delta h + h delta; and h h = 0, h iota = 0 and pi h = 0.  In every
    degree >= 1, ``pull_back`` of each core cell's e_q is that row of pi:
    (pull_back z) . v = z . pi v.  The core's degree-0 cells are the seed
    vertices, and iota of each is its component's indicator."""
    R = X._retraction()
    core = R.core
    local = [set(cells) for cells in core]
    delta = [X.coboundary_rows(d) for d in range(X.dim)]
    core_delta = [[{c: v for c, v in R.rows[d][t].items() if c in local[d]} if t in local[d + 1]
                   else {} for t in range(X.n_simplices(d + 1))] for d in range(X.dim)]

    def d_X(B, d):
        return _block_delta(delta[d], B, p) if d < X.dim else {}

    def d_core(B, d):
        return _block_delta(core_delta[d], B, p) if d < X.dim else {}

    def pi(B, d):
        return R.project(B, d, p)[0]

    def h(B, d):
        return R.project(B, d, p)[1] if 0 <= d <= X.dim else {}

    if core:
        comps = {frozenset(c) for c in R.components.values()}
        assert len(comps) == len(core[0]) == len(X.connected_components())
        assert 0 in core[0] and all(x in R.components[x] for x in core[0])
    for d in range(X.dim + 1):
        ident_core = {q: {q: 1} for q in core[d]}
        ident = {q: {q: 1} for q in range(X.n_simplices(d))}
        lifted = R.lift(ident_core, d, p)
        assert pi(lifted, d) == ident_core, ("pi iota", d)
        assert d_X(lifted, d) == R.lift(d_core(ident_core, d), d + 1, p) if d < X.dim else True, \
            ("iota chain map", d)
        projected = pi(ident, d)
        assert pi(d_X(ident, d), d + 1) == d_core(projected, d) if d < X.dim else True, \
            ("pi chain map", d)
        if d:
            assert all(R.pull_back({q: 1}, d, p) == projected.get(q, {}) for q in core[d]), \
                ("pull_back = pi^T", d)
        hB = h(ident, d)
        assert _block_sum(p, (1, ident), (-1, R.lift(projected, d, p))) \
            == _block_sum(p, (1, d_X(hB, d - 1) if d else {}), (1, h(d_X(ident, d), d + 1))), \
            ("1 - iota pi = delta h + h delta", d)
        assert not h(hB, d - 1), ("h h", d)
        assert not h(lifted, d), ("h iota", d)
        assert not (pi(hB, d - 1) if d else {}), ("pi h", d)


def reduced_per_cell(C: PermutationComplex) -> PermutationComplex:
    """C reduced by G-stable pairs: a G-stable coreduction, then a Markowitz heap.

    ``coreduce_with_cancel`` with G's permutations seeds a G-fixed vertex
    and cancels orbits of unit pivots.  The heap then cancels G-stable pairs
    (tau in C^{j+1}, s in C^j) by Schur complements on delta: two fixed
    cells, or two free orbits where row tau meets orbit(s) only at s; never a
    fixed cell against a free orbit.  Pairs go cheapest Markowitz cost (row
    length - 1) * (column length - 1) first; every entry of delta has a heap
    entry, and each pop finds the orbits of its row and column cells afresh.
    The result is an F_p[G]-complex chain homotopy equivalent to C, the
    route the transfer replaced.
    """
    p, top = C.p, C.dim
    rows = [[{c: v % p for c, v in r.items() if v % p} for r in R] for R in C.rows]
    perms = [perm for perm, _ in C.pullbacks]
    rows, alive, *_ = coreduce_with_cancel(rows, C.sizes, perms)
    for j, R in enumerate(rows):
        live_rows, live_cols = alive[j + 1], alive[j]
        for t, r in enumerate(R):
            R[t] = {c: v for c, v in r.items() if live_cols[c]} if live_rows[t] else {}
    cols = [[set() for _ in range(n)] for n in C.sizes[:-1]]
    for R, K in zip(rows, cols):
        for t, r in enumerate(R):
            for c in r:
                K[c].add(t)

    def cost(j: int, t: int, c: int) -> int:
        return (len(rows[j][t]) - 1) * (len(cols[j][c]) - 1)

    def push_free(j: int, entries):
        R, K = rows[j], cols[j]
        for t, c in entries:
            if len(R[t]) == 1 or len(K[c]) == 1:
                heapq.heappush(heap, (0, j, t, c))

    def cancel(j: int, t: int, s: int):
        R, K = rows[j], cols[j]
        pivot, inv = R[t], pow(R[t][s], -1, p)
        others = K[s] - {t}
        for r in others:
            f = R[r][s] * inv % p
            for c, v in pivot.items():
                R[r][c] = (R[r].get(c, 0) - f * v) % p
                K[c].add(r)
                if not R[r][c]:
                    del R[r][c]
                    K[c].discard(r)
        for c in pivot:
            K[c].discard(t)
        R[t] = {}
        push_free(j, [(r, c) for r in others for c in R[r]])
        if j > 0:
            gone, rows[j - 1][s] = rows[j - 1][s], {}
            for c in gone:
                cols[j - 1][c].discard(s)
            push_free(j - 1, [(r, c) for c in gone for r in cols[j - 1][c]])
        if j + 1 < top:
            for r in cols[j + 1][t]:
                del rows[j + 1][r][t]
            push_free(j + 1, [(r, c) for r in cols[j + 1][t] for c in rows[j + 1][r]])
            cols[j + 1][t] = set()
        alive[j + 1][t] = alive[j][s] = 0

    progress = True
    while progress:
        progress = False
        heap = [(cost(j, t, c), j, t, c) for j, R in enumerate(rows)
                for t, r in enumerate(R) for c in r]
        heapq.heapify(heap)
        while heap:
            old, j, t, s = heapq.heappop(heap)
            if s not in rows[j][t]:
                continue
            if cost(j, t, s) > old:
                heapq.heappush(heap, (cost(j, t, s), j, t, s))
                continue
            taus, cells = orbit(perms[j + 1], t), orbit(perms[j], s)
            if len(taus) != len(cells) or any(c in rows[j][t] for c in cells[1:]):
                continue
            progress = True
            for tau, cell in zip(taus, cells):
                cancel(j, tau, cell)

    keep = [[s for s, a in enumerate(A) if a] for A in alive]
    new = [{s: k for k, s in enumerate(K)} for K in keep]
    return PermutationComplex(
        p,
        tuple(map(len, keep)),
        tuple([{new[j][c]: v for c, v in rows[j][t].items()} for t in keep[j + 1]]
              for j in range(top)),
        tuple(([new[j][perm[s]] for s in keep[j]], [signs[s] for s in keep[j]])
              for j, (perm, signs) in enumerate(C.pullbacks)),
    )


# ---------------------------------------------------------------------------
# the replaced two-pass document parser
# ---------------------------------------------------------------------------

@dataclass
class ComplexBlock:
    name: str
    vertices: list[str]
    facets: list[tuple[str, ...]]
    line: int = 0


@dataclass
class ActionBlock:
    name: str
    complex_name: str
    p: int
    pairs: list[tuple[str, str]]
    line: int = 0


@dataclass
class AlgebraBlock:
    name: str
    field_name: str
    basis: list[tuple[str, int, int]]  # label, eps, j
    mult: dict = field(default_factory=dict)   # (a, b) -> list[(coeff str, label)]
    phi: dict = field(default_factory=dict)    # label -> coeff str
    delta: dict = field(default_factory=dict)  # label -> list[(coeff str, label)]
    line: int = 0


def two_pass_parse(text: str) -> InputDocument:
    """The document as the replaced two-pass parser read it: every block into a
    record with string coefficients, then every record into its object."""
    blocks = []
    lines = list(_logical_lines(text))
    i = 0
    while i < len(lines):
        lineno, tok = lines[i]
        if tok[0] == "complex":
            if len(tok) != 2:
                raise InputError("expected: complex <name>", lineno)
            block, i = _parse_complex(lines, i)
            blocks.append(block)
        elif tok[0] == "action":
            if len(tok) != 6 or tok[2] != "on" or tok[4] != "p":
                raise InputError("expected: action <name> on <complex> p <p>", lineno)
            block, i = _parse_action(lines, i)
            blocks.append(block)
        elif tok[0] == "algebra":
            if len(tok) != 4 or tok[2] != "field":
                raise InputError("expected: algebra <name> field <Q|Fp>", lineno)
            block, i = _parse_algebra(lines, i)
            blocks.append(block)
        else:
            raise InputError(f"unknown directive {tok[0]!r}", lineno)
    return _build_document(blocks)


def _parse_complex(lines, i):
    lineno, tok = lines[i]
    block = ComplexBlock(name=tok[1], vertices=[], facets=[], line=lineno)
    declared: set[str] = set()
    i += 1
    while i < len(lines):
        lineno, tok = lines[i]
        if tok[0] == "end":
            return block, i + 1
        if tok[0] == "vertices":
            if block.vertices:
                raise InputError("duplicate vertices line", lineno)
            if len(tok) < 2:
                raise InputError("vertices line needs at least one vertex", lineno)
            block.vertices, declared = tok[1:], set(tok[1:])
            if len(declared) != len(tok) - 1:
                raise InputError(f"vertices line repeats label {_first_repeat(tok[1:])!r}", lineno)
        elif tok[0] == "facet":
            if len(tok) < 2:
                raise InputError("facet line needs at least one vertex", lineno)
            facet = tuple(tok[1:])
            if not declared.issuperset(facet):
                v = next(v for v in facet if v not in declared)
                raise InputError(f"facet references undeclared vertex {v!r}", lineno)
            if len(set(facet)) != len(facet):
                raise InputError(f"facet repeats vertex {_first_repeat(facet)!r}", lineno)
            block.facets.append(facet)
        else:
            raise InputError(f"unexpected {tok[0]!r} in complex block", lineno)
        i += 1
    raise InputError("unterminated complex block (missing end)", block.line)


def _parse_action(lines, i):
    lineno, tok = lines[i]
    try:
        p = int(tok[5])
    except ValueError:
        raise InputError(f"p must be an integer, got {tok[5]!r}", lineno)
    block = ActionBlock(name=tok[1], complex_name=tok[3], p=p, pairs=[], line=lineno)
    sources = set()
    i += 1
    while i < len(lines):
        lineno, tok = lines[i]
        if tok[0] == "end":
            return block, i + 1
        if tok[0] == "map":
            if len(tok) != 4 or tok[2] != "->":
                raise InputError("expected: map <v> -> <w>", lineno)
            if tok[1] in sources:
                raise InputError(f"map repeats source vertex {tok[1]!r}", lineno)
            sources.add(tok[1])
            block.pairs.append((tok[1], tok[3]))
        else:
            raise InputError(f"unexpected {tok[0]!r} in action block", lineno)
        i += 1
    raise InputError("unterminated action block (missing end)", block.line)


def _parse_algebra(lines, i):
    lineno, tok = lines[i]
    block = AlgebraBlock(name=tok[1], field_name=tok[3], basis=[], line=lineno)
    try:
        if _field_named(block.field_name).char == 2:
            raise ValueError("characteristic 2 is excluded")
    except ValueError as e:
        raise InputError(f"field must be Q or Fp for an odd prime p, got {tok[3]!r}: {e}", lineno)
    i += 1
    labels = set()
    while i < len(lines):
        lineno, tok = lines[i]
        if tok[0] == "end":
            return block, i + 1
        if tok[0] == "basis":
            if len(tok) != 5 or tok[2] != "bidegree":
                raise InputError("expected: basis <b> bidegree <eps> <j>", lineno)
            try:
                eps, j = int(tok[3]), int(tok[4])
            except ValueError:
                raise InputError("bidegree components must be integers", lineno)
            if j < 0:
                raise InputError(f"the second grading j must be >= 0, got {j}", lineno)
            if tok[1] in labels:
                raise InputError(f"duplicate basis label {tok[1]!r}", lineno)
            labels.add(tok[1])
            block.basis.append((tok[1], eps, j))
        elif tok[0] in ("mult", "phi", "delta"):
            _parse_algebra_line(block, tok, labels, lineno)
        else:
            raise InputError(f"unexpected {tok[0]!r} in algebra block", lineno)
        i += 1
    raise InputError("unterminated algebra block (missing end)", block.line)


def _parse_algebra_line(block, tok, labels, lineno):
    if "=" not in tok:
        raise InputError(f"{tok[0]} line needs '='", lineno)
    eq = tok.index("=")
    lhs, rhs = tok[1:eq], tok[eq + 1:]
    for lab in lhs:
        if lab not in labels:
            raise InputError(f"unknown basis label {lab!r}", lineno)
    field = _field_named(block.field_name)
    if tok[0] == "phi":
        if len(lhs) != 1 or len(rhs) != 1:
            raise InputError("expected: phi <b> = <coeff>", lineno)
        block.phi[lhs[0]] = _check_scalar(rhs[0], lineno, field)
        return
    terms = _parse_terms(rhs, labels, lineno, field)
    if tok[0] == "mult":
        if len(lhs) != 2:
            raise InputError("expected: mult <a> <b> = <coeff> <c> [+ ...]", lineno)
        block.mult[(lhs[0], lhs[1])] = terms
    else:
        if len(lhs) != 1:
            raise InputError("expected: delta <b> = <coeff> <c> [+ ...]", lineno)
        block.delta[lhs[0]] = terms


def _check_scalar(s: str, lineno: int, field) -> str:
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad coefficient {s!r}", lineno)
    if field.char and x.denominator % field.char == 0:
        raise InputError(f"coefficient {s!r} has no value in {field.name}: "
                         f"its denominator is divisible by {field.char}", lineno)
    return s


def _parse_terms(rhs, labels, lineno, field):
    if list(rhs) == ["0"]:
        return []
    terms = []
    chunk: list[str] = []
    for t in list(rhs) + ["+"]:
        if t == "+":
            if len(chunk) != 2:
                raise InputError("each term must be '<coeff> <label>'", lineno)
            if chunk[1] not in labels:
                raise InputError(f"unknown basis label {chunk[1]!r}", lineno)
            terms.append((_check_scalar(chunk[0], lineno, field), chunk[1]))
            chunk = []
        else:
            chunk.append(t)
    return terms


def _build_document(blocks) -> InputDocument:
    complexes: dict[str, SimplicialComplex] = {}
    actions: dict[str, GroupAction] = {}
    algebras = {}
    names = set()
    for b in blocks:
        if b.name in names:
            raise InputError(f"duplicate name {b.name!r}", b.line)
        names.add(b.name)
        if isinstance(b, ComplexBlock):
            if not b.facets:
                raise InputError(f"complex {b.name!r} has no facets", b.line)
            try:
                complexes[b.name] = SimplicialComplex.from_facets(
                    b.facets, vertex_order=b.vertices
                )
            except ValueError as e:
                raise InputError(str(e), b.line)
        elif isinstance(b, ActionBlock):
            if b.complex_name not in complexes:
                raise InputError(
                    f"action {b.name!r} references unknown complex {b.complex_name!r}",
                    b.line,
                )
            try:
                actions[b.name] = validate_action(
                    complexes[b.complex_name], dict(b.pairs), b.p
                )
            except ValueError as e:
                raise InputError(str(e), b.line)
        else:
            try:
                algebras[b.name] = _build_algebra(b)
            except ValueError as e:
                raise InputError(str(e), b.line)
    return InputDocument(complexes, actions, algebras, [b.name for b in blocks])


def _scalar(field_obj, s: str):
    return field_obj.coerce(Fraction(s))


def _build_algebra(b: AlgebraBlock):
    field_obj = _field_named(b.field_name)
    n = len(b.basis)
    index = {lab: i for i, (lab, _, _) in enumerate(b.basis)}
    bidegrees = [(e, j) for _, e, j in b.basis]
    if not b.basis:
        raise ValueError(f"algebra {b.name!r} has no basis")
    if bidegrees[0] != (0, 0):
        raise ValueError("first basis element is the unit and must sit at bidegree (0, 0)")
    table = {key: {i: field_obj.one} for i in range(n) for key in ((0, i), (i, 0))}
    for (a, c), terms in b.mult.items():
        # Terms that sum to 0 leave no entry: the product is 0.
        table.pop((index[a], index[c]), None)
        if v := accumulate(field_obj, ((index[lab], _scalar(field_obj, coeff)) for coeff, lab in terms)):
            table[index[a], index[c]] = v
    A = BigradedAlgebra(field_obj, bidegrees, table, unit_index=0,
                        labels=[lab for lab, _, _ in b.basis])
    phi = None
    if b.phi:
        phi = make_orientation(A, {index[lab]: _scalar(field_obj, c) for lab, c in b.phi.items()})
    delta = None
    if b.delta:
        columns = [{} for _ in range(n)]
        shift = None
        for lab, terms in b.delta.items():
            src = index[lab]
            columns[src] = accumulate(field_obj, ((index[t], _scalar(field_obj, c)) for c, t in terms))
            for _, tlab in terms:
                (et, jt), (es, js) = bidegrees[index[tlab]], bidegrees[src]
                term_shift = ((et - es) % 2, jt - js)
                if shift not in (None, term_shift):
                    raise ValueError(f"delta is not homogeneous: shifts {shift} and {term_shift}")
                shift = term_shift
        delta = Differential(tuple(columns), shift or (0, -1))
    return A, phi, delta
