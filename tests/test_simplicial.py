"""Simplicial complex tests.

The coboundary-rank oracle used for the derived Betti values is an
independent plain-loop Gaussian elimination over F_p / Q written here, not
the library's vectorised/sparse path.
"""

from __future__ import annotations

import gc
import random
import time
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

import betticong
from betticong import corpus, exactalg, group_action, simplicial
from betticong.corpus import (
    full_triangle,
    polygon,
    rp2_six_vertex,
    sphere_suspension,
    tetrahedron_boundary,
    torus,
    wedge_fixture,
)
from betticong.equivariant import group_cohomology_dims
from betticong.exactalg import (
    GF,
    QQ,
    field_matrix,
)
from betticong.group_action import (
    GroupAction,
    bockstein_condition,
    induced_cohomology_action,
    quotient_complex,
    trivial_action,
    validate_action,
)
from betticong.pd_algebra import homology, pairing_matrix, random_differential_algebra
from betticong.simplicial import (
    SimplicialComplex,
    _maximal,
    barycentric_subdivision,
    cup_pairing,
    join,
    link,
    pd_check,
    product,
    suspension,
)

from conftest import join_rotation
from oracles import (
    assert_complements,
    assert_gstar_conjugate,
    assert_kernel_check_as_oracle,
    assert_lift_and_projection,
    assert_pairings_congruent,
    assert_ring_matches_oracle,
    assert_smith_divisors_match,
    coboundary_matrix,
    cocycle_bases_and_change,
    dense,
    kernel_basis,
    one_row_defects,
    simplices_by_facet_loop,
    sparse,
    x_route_basis,
)


# ---------------------------------------------------------------------------
# Oracle: plain-loop rank of an integer matrix over F_p or Q
# ---------------------------------------------------------------------------

def oracle_rank(rows: list[list[int]], p: int | None) -> int:
    if not rows:
        return 0
    M = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    m, n = len(M), len(M[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = Fraction(1, 1) / M[r][c] if p is None else pow(M[r][c], -1, p)
        M[r] = [x * inv if p is None else x * inv % p for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [
                    (a - f * b) if p is None else (a - f * b) % p
                    for a, b in zip(M[i], M[r])
                ]
        r += 1
    return r


def oracle_betti(X: SimplicialComplex, p: int | None) -> tuple[int, ...]:
    out = []
    for i in range(X.dim + 1):
        r_i = oracle_rank(coboundary_matrix(X, i), p)
        r_prev = oracle_rank(coboundary_matrix(X, i - 1), p) if i else 0
        out.append(X.n_simplices(i) - r_i - r_prev)
    return tuple(out)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_triangle_boundary():
    X = SimplicialComplex.from_facets([(1, 2), (2, 3), (1, 3)])
    assert X.dim == 1
    assert X.n_simplices(0) == 3 and X.n_simplices(1) == 3


def test_full_simplex_face_count():
    X = SimplicialComplex.from_facets([(1, 2, 3)])
    assert sum(X.n_simplices(k) for k in range(3)) == 7


def test_redundant_facet_dropped():
    X = SimplicialComplex.from_facets([(1, 2, 3), (1, 2)])
    assert X.facets == ((0, 1, 2),)


def test_from_facets_errors():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([])
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets([(1, 2)], vertex_order=[1])


# ---------------------------------------------------------------------------
# Euler characteristic
# ---------------------------------------------------------------------------

def test_euler_pentagon():
    assert polygon(5).euler_characteristic() == 0


def test_euler_suspension_triangle():
    assert sphere_suspension(3).euler_characteristic() == 2


def test_euler_full_simplex():
    assert full_triangle().euler_characteristic() == 1


# ---------------------------------------------------------------------------
# cohomology over fields
# ---------------------------------------------------------------------------

def test_pentagon_rational():
    assert polygon(5).cohomology(QQ).betti == (1, 1)


def test_suspension_pentagon_f3():
    assert sphere_suspension(5).cohomology(GF(3)).betti == (1, 0, 1)


def test_rp2_betti_oracle():
    X = rp2_six_vertex()
    assert oracle_betti(X, 3) == (1, 0, 0)
    assert oracle_betti(X, 2) == (1, 1, 1)
    assert X.cohomology(GF(3)).betti == (1, 0, 0)
    assert X.cohomology(GF(2)).betti == (1, 1, 1)
    assert X.cohomology(QQ).betti == (1, 0, 0)


def test_betti_matches_oracle_on_products():
    T = torus()
    assert T.cohomology(QQ).betti == oracle_betti(T, None) == (1, 2, 1)
    assert T.cohomology(GF(5)).betti == oracle_betti(T, 5)


def test_euler_equals_alternating_betti():
    for X in (polygon(5), sphere_suspension(3), rp2_six_vertex(), torus(), wedge_fixture()):
        for field in (QQ, GF(2), GF(3), GF(5)):
            b = X.cohomology(field).betti
            assert sum((-1) ** i * bi for i, bi in enumerate(b)) == X.euler_characteristic()


def test_universal_coefficients_inequality():
    for X in (polygon(5), rp2_six_vertex(), torus(), sphere_suspension(3)):
        bq = X.cohomology(QQ).betti
        for p in (2, 3, 5):
            bp = X.cohomology(GF(p)).betti
            assert all(f >= q for f, q in zip(bp, bq))


# ---------------------------------------------------------------------------
# integral cohomology
# ---------------------------------------------------------------------------

def test_integral_pentagon():
    g = polygon(5).integral_cohomology()
    assert g.betti == (1, 1)
    assert all(not t for t in g.torsion)


def test_integral_rp2_torsion():
    g = rp2_six_vertex().integral_cohomology()
    assert g.betti == (1, 0, 0)
    assert g.torsion == ((), (), (2,))


def test_integral_suspension_rp2():
    # Suspension isomorphism: the degree-2 torsion moves to degree 3.
    g = suspension(rp2_six_vertex()).integral_cohomology()
    assert g.betti == (1, 0, 0, 0)
    assert g.torsion == ((), (), (), (2,))


def _small_corpus_complexes():
    fixtures = [full_triangle(), rp2_six_vertex(), suspension(rp2_six_vertex()),
                wedge_fixture(), corpus.three_sphere_wedge(), corpus.one_point()]
    actions = [a.complex for a in corpus.corpus_actions().values()]
    return [X for X in fixtures + actions if sum(X.f_vector) <= 500]


def test_faces_are_enumerated_as_by_the_per_facet_loop():
    """Each degree's simplices and their index, on a complex with facets of
    four, three and two vertices, a lone vertex and the empty complex."""
    mixed = SimplicialComplex.from_facets([("a", "b", "c", "d"), ("c", "e", "f"), ("f", "g"),
                                           ("e", "g"), ("b", "e")])
    assert sorted(map(len, mixed.facets)) == [2, 2, 2, 3, 4]
    for X in (mixed, SimplicialComplex.from_facets([("v",)]), SimplicialComplex.empty()):
        want = simplices_by_facet_loop(X.facets)
        assert list(X._simplices.items()) == list(want.items())
        assert X._simplex_index == {d: {s: i for i, s in enumerate(lst)} for d, lst in want.items()}
        assert X.dim == max(want, default=-1)
    assert mixed.f_vector == (7, 12, 5, 1)


def test_integral_divisors_match_dense_snf_on_the_corpus():
    """The Smith divisors read off the coreduction equal those of the full
    coboundary rows (``assert_smith_divisors_match``)."""
    for X in _small_corpus_complexes():
        assert_smith_divisors_match(X)
        assert X.integral_cohomology().betti == X.cohomology(QQ).betti


def test_coreduction_cancels_face_pairs_down_to_a_core():
    """Every cancelled pair is a simplex and a facet of it with a +-1 entry,
    each cell is cancelled at most once, and the core keeps the Euler
    characteristic.  Each component keeps one vertex, its seed, so a
    connected complex keeps vertex 0 alone; S^2 x S^2 (Z/7), seeded at its
    first 4-cell, keeps a core of 1/0/2/0/1 of its 64/516/1464/1680/672
    cells, the rank of its cohomology."""
    s2xs2 = corpus.s2xs2_rotation(7).complex
    for X in _small_corpus_complexes() + [s2xs2, SimplicialComplex.empty()]:
        R = X._retraction()
        live, down = R.live, R.down
        partners = {(d - 1, partner[t]) for d, (cells, partner) in enumerate(down) for t in cells}
        assert len(partners) == sum(len(cells) for cells, _ in down)
        for d, (cells, partner) in enumerate(down):
            assert [t for t, s in enumerate(partner) if s >= 0] == sorted(cells)
            for t in cells:
                s = partner[t]
                assert not live[d][t] and not live[d - 1][s]
                assert X.coboundary_rows(d - 1)[t][s] in (1, -1)
                assert (d, t) not in partners
        assert sum(map(len, live)) == sum(X.f_vector)
        assert sum(map(sum, live)) + 2 * len(partners) == sum(X.f_vector)
        assert sum((-1) ** d * sum(f) for d, f in enumerate(live)) == X.euler_characteristic()
        assert list(map(len, R.core)) == list(map(sum, live))
        if len(X.connected_components()) == 1:
            assert R.core[0] == [0]
    assert list(map(len, s2xs2._retraction().core)) == [1, 0, 2, 0, 1]


def test_integral_lens_space_agrees_with_other_routes():
    L = corpus.lens_space()
    g = L.integral_cohomology()
    assert g.torsion == ((), (), (3,), ())
    assert g.betti == L.cohomology(QQ).betti == (1, 0, 0, 1)
    # The profile at 3 sees the same 3-torsion: one divisor of valuation 1.
    profile = L.torsion_valuation_profile(3)
    assert {i: [v for v in vals if v] for i, vals in profile.items()} == {1: [], 2: [1], 3: []}
    # Universal coefficients: b_i(F_3) = b_i(Q) + t_i(3) + t_{i+1}(3).
    t3 = [len(t) for t in g.torsion] + [0]
    assert L.cohomology(GF(3)).betti == tuple(b + t3[i] + t3[i + 1] for i, b in enumerate(g.betti))


def _recorded_ranks(X, p, monkeypatch) -> list[tuple[int, int]]:
    """The (F_p, Q) ranks of delta^0..delta^(d-1) of a fresh copy of X, read
    off the Smith pass that its p-local profile ran; a rank that needs a
    further elimination fails."""
    X = SimplicialComplex(X.vertices, X.facets)
    X.torsion_valuation_profile(p)
    with monkeypatch.context() as m:
        for name in ("sparse_rank_q", "sparse_rank_modp"):
            m.setattr(exactalg, name, lambda *a: pytest.fail("rank not recorded"))
        return [(X._coboundary_rank(k, GF(p)), X._coboundary_rank(k, QQ)) for k in range(X.dim)]


def test_torsion_profile_records_the_fp_and_q_ranks(monkeypatch):
    """The Smith divisors prime to p count rank delta^k over F_p, and the
    nonzero ones its rank over Q: they agree with fresh eliminations."""
    lens = corpus.lens_space()
    cases = [(a.complex, a.p) for a in corpus.corpus_actions().values()] + [(lens, 3), (lens, 5)]
    for X, p in cases:
        recorded = _recorded_ranks(X, p, monkeypatch)
        rows = [X.coboundary_rows(k) for k in range(X.dim)]
        assert recorded == [(exactalg.sparse_rank_modp(r, p), exactalg.sparse_rank_q(r))
                            for r in rows]
        if X is lens:  # the Z/3 in H^2 is a divisor 3 of delta^1
            q = recorded[1][1]
            assert recorded[1] == ((q - 1, q) if p == 3 else (q, q))


_LENS_REDUCED_ROWS = [(319, 319), (1729, 1691), (1727, 1727), (0, 0)]


@pytest.mark.parametrize("field, kept", [(QQ, _LENS_REDUCED_ROWS), (GF(3), _LENS_REDUCED_ROWS)])
def test_lens_coboundaries_are_eliminated_on_the_rows_that_can_be_independent(
        monkeypatch, field, kept):
    """Bottom-up, each delta^k of L(3,1) is eliminated on the rows its
    coreduction leaves, as (nonempty rows, one-entry rows): the core is
    1/38/38/1 cells.  delta^0: the 319 edges cancelled downward alone, as
    vertex 0, whose column the seed zeroed, is the only live vertex (rank
    319 = n_0 - 1).  delta^1: 1691 one-entry rows and the 38 live
    triangles, whose rows keep their live columns.
    delta^2: the top seed's row is the fundamental cycle's, 0, and the
    other 1727 tetrahedra are cancelled downward, one +-1 entry each.
    delta^3 has no rows.  Every other row is empty, so each delta^k keeps
    its n_{k+1} rows."""
    L = corpus.lens_space()
    L = SimplicialComplex(L.vertices, L.facets)
    calls = []
    for name in ("sparse_rank_q", "sparse_rank_modp"):
        real = getattr(exactalg, name)
        monkeypatch.setattr(exactalg, name,
                            lambda rows, *a, real=real: calls.append(rows) or real(rows, *a))
    betti = L.cohomology(field).betti
    assert [len(rows) for rows in calls] == [L.n_simplices(k + 1) for k in (0, 1, 2, 3)]
    assert [(sum(1 for row in rows if row), sum(1 for row in rows if len(row) == 1))
            for rows in calls] == kept
    assert list(map(len, L._retraction().core)) == [1, 38, 38, 1]
    assert betti == ((1, 0, 0, 1) if field is QQ else (1, 1, 1, 1))


def test_profiles_at_every_prime_share_one_smith_pass(monkeypatch):
    """The profiles at 3 and 5, H^*(X;Z) and the Betti numbers over Q, F_3
    and F_5 of L(3,1) come from one Smith pass: one Smith form of the core's
    block of each nonzero coboundary (38 x 38 for delta^1, where the Z/3
    lives) and no rank elimination."""
    L = corpus.lens_space()
    L = SimplicialComplex(L.vertices, L.facets)
    calls = []
    real = exactalg.smith_normal_form
    monkeypatch.setattr(exactalg, "smith_normal_form",
                        lambda rows, n: calls.append((len(rows), n)) or real(rows, n))
    for name in ("sparse_rank_q", "sparse_rank_modp"):
        monkeypatch.setattr(exactalg, name, lambda *a: pytest.fail("rank eliminated"))
    assert {i: [v for v in vals if v] for i, vals in L.torsion_valuation_profile(3).items()} \
        == {1: [], 2: [1], 3: []}
    assert all(not any(vals) for vals in L.torsion_valuation_profile(5).values())
    assert L.integral_cohomology().torsion == ((), (), (3,), ())
    assert [L.cohomology(F).betti for F in (QQ, GF(3), GF(5))] == [
        (1, 0, 0, 1), (1, 1, 1, 1), (1, 0, 0, 1)]
    core = list(map(len, L._retraction().core))
    assert calls == [(core[k + 1], core[k]) for k in (0, 1, 2)] == [(38, 1), (38, 38), (1, 38)]


def test_uct_equality_iff_no_torsion():
    X = rp2_six_vertex()
    bq = X.cohomology(QQ).betti
    assert X.cohomology(GF(3)).betti == bq  # no 3-torsion
    assert X.cohomology(GF(2)).betti != bq  # 2-torsion present


# ---------------------------------------------------------------------------
# cocycle bases: zero degrees
# ---------------------------------------------------------------------------

def _coboundary_of_simplex(X: SimplicialComplex, k: int, j: int) -> dict[int, int]:
    """delta^k of the indicator of the j-th k-simplex, as a sparse cochain."""
    return {t: row[j] for t, row in enumerate(X.coboundary_rows(k)) if j in row}


def test_zero_degrees_have_empty_bases_and_check_coboundaries():
    # Every corpus complex of at most 500 simplices (see _small_corpus_complexes).
    for X in _small_corpus_complexes():
        for field in (QQ, GF(3)):
            betti = X.cohomology(field).betti
            p = getattr(field, "p", None)
            for d in range(X.dim + 1):
                B = X.cohomology_basis(field, d)
                assert (len(B) == 0) == (betti[d] == 0)
                if betti[d]:
                    continue
                for j in range(X.n_simplices(d - 1)):
                    v = {t: x % p if p else x
                         for t, x in _coboundary_of_simplex(X, d - 1, j).items()}
                    assert len(B.express(v)) == 0
                for j in range(X.n_simplices(d)):
                    if _coboundary_of_simplex(X, d, j):
                        with pytest.raises(ValueError):
                            B.express({j: 1})


def _three_circles_and_a_fixed_one() -> GroupAction:
    """Four triangle boundaries a, b, c, d, with an unused label first in the
    vertex order, so each vertex's 0-simplex index is its vertex index less
    one.  The order interleaves a, b and c, so that index names a vertex of
    another component.  The generator sends a to b to c to a and turns d."""
    order = ["u"] + [f"{x}{i}" for i in range(3) for x in "abc"] + ["d0", "d1", "d2"]
    X = SimplicialComplex.from_facets(
        [(f"{x}{i}", f"{x}{(i + 1) % 3}") for x in "abcd" for i in range(3)], vertex_order=order)
    sigma = {f"{x}{i}": f"{y}{i}" for x, y in ("ab", "bc", "ca") for i in range(3)}
    return validate_action(X, sigma | {f"d{i}": f"d{(i + 1) % 3}" for i in range(3)}, 3)


def test_degree_zero_basis_is_read_off_the_components(monkeypatch):
    """H^0 is one indicator cocycle per component, in the order of
    ``connected_components``, with the value at the component's least vertex
    as its dual: a complement of 0 in the dense kernel of delta^0, whose
    ``express`` rejects a cochain that is not a cocycle, and whose g* on the
    three permuted circles and the fixed one matches the route on X's full
    rows.  No elimination runs."""
    action = _three_circles_and_a_fixed_one()
    X = action.complex
    assert X.vertices[0] == "u" and X.n_simplices(0) == len(X.vertices) - 1
    comps = X.connected_components()
    labels = [{X.vertices[v] for v in comp} for comp in comps]
    assert labels == [{f"{x}{i}" for i in range(3)} for x in "abcd"]
    for field in (QQ, GF(3)):
        with monkeypatch.context() as m:
            m.setattr(exactalg, "_eliminate", lambda *a: pytest.fail("eliminated"))
            B = X.cohomology_basis(field, 0)
        kernel = kernel_basis(coboundary_matrix(X, 0), field)
        assert_complements([B], X.coboundary_rows(0), [], kernel)
        names, n = [v for (v,) in X.simplex_labels(0)], X.n_simplices(0)
        assert [{names[q] for q, x in b.items() if x} for b in B.basis] == labels
        assert B.express(sparse([field.reduce(2 * x + y) for x, y in
                                 zip(dense(B.basis[1], n), dense(B.basis[3], n))])) \
            == [0, field.reduce(2), 0, 1]
        with pytest.raises(ValueError, match="not in the kernel"):
            B.express({1: 1})
        assert_gstar_conjugate(action, field)
        g = induced_cohomology_action(action, field)[0]
        # sigma^* sends the indicator of b to that of a: column j is the
        # class of sigma^* of the j-th basis cocycle.
        assert g == [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]]


# ---------------------------------------------------------------------------
# cup products and Poincare duality
# ---------------------------------------------------------------------------

def test_cup_pairing_sphere():
    A, phi = cup_pairing(sphere_suspension(3), QQ)
    M = pairing_matrix(A, phi, 0)
    assert len(M) == 1 and len(M[0]) == 1 and M[0][0] != 0


def test_cup_pairing_torus_skew():
    A, phi = cup_pairing(torus(), GF(5))
    M = pairing_matrix(A, phi, 1)
    assert len(M) == 2 and all(len(row) == 2 for row in M)
    # Degree-1 classes anticommute, so the pairing is skew with zero diagonal.
    assert M[0][0] % 5 == 0 and M[1][1] % 5 == 0
    assert (M[0][1] + M[1][0]) % 5 == 0
    assert M[0][1] % 5 != 0


def test_cup_direct_evaluation_oracle():
    """Pairing entries agree with direct front/back cochain evaluation."""
    X = sphere_suspension(3)
    field = QQ
    b0 = X.cohomology_basis(field, 0)
    b2 = X.cohomology_basis(field, 2)
    idx0 = {s: i for i, s in enumerate(X.simplices(0))}
    idx2 = {s: i for i, s in enumerate(X.simplices(2))}
    a, b = dense(b0.basis[0], len(idx0)), dense(b2.basis[0], len(idx2))
    direct = [0] * len(idx2)
    for s, t in idx2.items():
        direct[t] = a[idx0[s[:1]]] * b[t]
    via_lib = X.cup_cochain(field, 0, 2, b0.basis[0], b2.basis[0])
    assert direct == dense(via_lib, len(idx2))
    coeffs = b2.express(via_lib)
    assert coeffs[0] != 0


def test_rp2_cup_square_nontrivial_mod_2():
    # The degree-1 class of RP^2 squares to the top class over F_2; this is
    # what separates RP^2 from the wedge of a circle and a sphere.
    A, phi = cup_pairing(rp2_six_vertex(), GF(2))
    assert A.bidegrees == ((0, 0), (0, 1), (0, 2))
    assert A.table[1, 1] == {2: 1}


def test_s2xs2_intersection_form_hyperbolic():
    """Over F_3 the intersection form of S^2 x S^2 is the hyperbolic plane:
    symmetric, nondegenerate and with an isotropic class (in odd
    characteristic these make a binary form hyperbolic).  Its Gram matrix
    depends on the basis that ``cohomology_basis`` publishes."""
    from betticong.corpus import s2xs2

    A, phi = cup_pairing(s2xs2(3), GF(3))
    M = pairing_matrix(A, phi, 2)
    assert M == [list(col) for col in zip(*M)]
    assert (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % 3
    assert any((x * x * M[0][0] + 2 * x * y * M[0][1] + y * y * M[1][1]) % 3 == 0
               for x in range(3) for y in range(3) if x or y)


def test_contractible_products_vanish():
    A, phi = cup_pairing(full_triangle(), QQ)
    assert A.bidegrees == ((0, 0),) and A.table == {(0, 0): {0: 1}}
    assert (phi.values, phi.formal_dim) == ({0: 1}, 0)


def test_ring_structure_graded_commutative():
    for X, field in ((torus(), QQ), (sphere_suspension(3), GF(3)), (rp2_six_vertex(), GF(2))):
        A, _ = cup_pairing(X, field)
        for a, b in A.table:
            sign = (-1) ** (A.bidegrees[a][1] * A.bidegrees[b][1])
            assert A.table[a, b] == {c: field.reduce(sign * x)
                                     for c, x in A.table[b, a].items()}, (a, b)


def test_pd_sphere():
    res = pd_check(sphere_suspension(5), QQ)
    assert res.is_pd and res.formal_dim == 2


def test_pd_full_simplex_dim0():
    res = pd_check(full_triangle(), QQ)
    assert res.is_pd and res.formal_dim == 0


def test_pd_rp2_f3_dim0():
    res = pd_check(rp2_six_vertex(), GF(3))
    assert res.is_pd and res.formal_dim == 0


def test_pd_rp2_f2():
    res = pd_check(rp2_six_vertex(), GF(2))
    assert res.is_pd and res.formal_dim == 2


def test_pd_torus():
    res = pd_check(torus(), QQ)
    assert res.is_pd and res.formal_dim == 2


def test_pd_symmetry_of_betti():
    for X, field in ((torus(), QQ), (sphere_suspension(3), GF(3)), (tetrahedron_boundary(), QQ)):
        res = pd_check(X, field)
        assert res.is_pd
        b = X.cohomology(field).betti
        n = res.formal_dim
        assert all(b[i] == b[n - i] for i in range(n + 1))


def test_pd_wedge_of_circles_fails():
    # Two hollow triangles sharing a vertex: b_1 = 2, so no top class.
    X = SimplicialComplex.from_facets(
        [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]
    )
    res = pd_check(X, QQ)
    assert not res.is_pd
    assert any("b_1 = 2" in f for f in res.failures)


def test_pd_solid_wedge_is_point_like():
    res = pd_check(wedge_fixture(), QQ)
    assert res.is_pd and res.formal_dim == 0


def test_pd_disconnected_rejected():
    X = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="2 components"):
        pd_check(X, QQ)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_subdivision_of_edge():
    X = SimplicialComplex.from_facets([(1, 2)])
    S = barycentric_subdivision(X)
    assert S.f_vector == (3, 2)


def test_subdivision_preserves_euler_and_betti():
    for X in (polygon(5), sphere_suspension(3), rp2_six_vertex(), torus()):
        S = barycentric_subdivision(X)
        assert S.euler_characteristic() == X.euler_characteristic()
    assert barycentric_subdivision(torus()).cohomology(QQ).betti == (1, 2, 1)


def test_join_of_circles_is_s3():
    X = join(polygon(3, "a"), polygon(3, "b"))
    assert X.cohomology(QQ).betti == (1, 0, 0, 1)


def test_suspension_chi():
    assert suspension(polygon(5)).euler_characteristic() == 2


def test_product_torus():
    T = product(polygon(3, "a"), polygon(3, "b"))
    assert T.cohomology(QQ).betti == (1, 2, 1)
    assert T.euler_characteristic() == 0


def test_suspension_shifts_reduced_betti():
    for X in (polygon(5), torus(), rp2_six_vertex()):
        for field in (QQ, GF(3)):
            b = X.cohomology(field).betti
            sb = suspension(X).cohomology(field).betti
            reduced = tuple(bi - (1 if i == 0 else 0) for i, bi in enumerate(b))
            sreduced = tuple(bi - (1 if i == 0 else 0) for i, bi in enumerate(sb))
            assert sreduced == (0,) + reduced


def test_kunneth_over_fields():
    X, Y = polygon(3, "a"), sphere_suspension(3, "b")
    P = product(X, Y)
    for field in (QQ, GF(3)):
        bx = X.cohomology(field).betti
        by = Y.cohomology(field).betti
        bp = P.cohomology(field).betti
        for k in range(P.dim + 1):
            expect = sum(
                bx[i] * by[k - i]
                for i in range(len(bx))
                if 0 <= k - i < len(by)
            )
            assert bp[k] == expect


def test_link_of_sphere_vertex_is_circle():
    X = sphere_suspension(3)
    L = link(X, (X.vertices[-1],))  # a pole
    assert L.cohomology(QQ).betti == (1, 1)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

from hypothesis import given, settings, strategies as st


@st.composite
def random_complexes(draw, max_vertices=6, max_facets=7):
    nverts = draw(st.integers(3, max_vertices))
    labels = [f"u{i}" for i in range(nverts)]
    nfacets = draw(st.integers(1, max_facets))
    facets = []
    for _ in range(nfacets):
        size = draw(st.integers(1, min(4, nverts)))
        facet = draw(
            st.lists(st.sampled_from(labels), min_size=size, max_size=size, unique=True)
        )
        facets.append(tuple(facet))
    return SimplicialComplex.from_facets(facets)


@settings(max_examples=60, deadline=None)
@given(random_complexes())
def test_random_complex_euler_and_uct(X):
    chi = X.euler_characteristic()
    bq = X.cohomology(QQ).betti
    assert sum((-1) ** i * b for i, b in enumerate(bq)) == chi
    integral = X.integral_cohomology()
    assert integral.betti == bq
    assert_smith_divisors_match(X)
    for p in (2, 3, 5):
        bp = X.cohomology(GF(p)).betti
        assert sum((-1) ** i * b for i, b in enumerate(bp)) == chi
        assert all(f >= q for f, q in zip(bp, bq))
        # No p-torsion anywhere forces equality in every degree.
        has_p_torsion = any(
            d % p == 0 for tors in integral.torsion for d in tors
        )
        if not has_p_torsion:
            assert bp == bq


@settings(max_examples=30, deadline=None)
@given(random_complexes())
def test_random_complex_subdivision_preserves_betti(X):
    S = barycentric_subdivision(X)
    assert S.euler_characteristic() == X.euler_characteristic()
    assert S.cohomology(GF(3)).betti[: X.dim + 1] == X.cohomology(GF(3)).betti


def _maximal_pairwise(simplices):
    return [f for f in simplices if not any(set(f) < set(g) for g in simplices)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True), max_size=25))
def test_maximal_matches_pairwise_definition(simplices):
    simplices = [tuple(sorted(s)) for s in simplices]
    assert _maximal(simplices) == _maximal_pairwise(simplices)


def test_maximal_does_not_enumerate_faces_of_a_wide_simplex():
    big = tuple(range(24))
    simplices = [big] + [(v,) for v in big] + list(combinations(big, 2))
    random.Random(0).shuffle(simplices)
    start = time.perf_counter()
    assert _maximal(simplices) == [big]
    assert time.perf_counter() - start < 0.5


def _link_all_facets(X: SimplicialComplex, s):
    """The link by its definition, scanning every facet of X."""
    sset = set(s)
    rest = [tuple(X.vertices[v] for v in f if v not in sset) for f in X.facets if sset <= set(f)]
    rest = [r for r in rest if r]
    return SimplicialComplex.from_simplices(X.vertices, rest) if rest else SimplicialComplex.empty()


@settings(max_examples=60, deadline=None)
@given(random_complexes())
def test_link_matches_all_facets_definition(X):
    for d in range(X.dim + 1):
        for s in X.simplices(d):
            got = link(X, tuple(X.vertices[v] for v in s))
            want = _link_all_facets(X, s)
            assert (got.vertices, got.facets) == (want.vertices, want.facets)


# ---------------------------------------------------------------------------
# cocycle bases over Q and F_p: the sparse route against the dense oracle, express
# ---------------------------------------------------------------------------

def _dense_cocycles(X: SimplicialComplex, field, d: int) -> tuple[list[list], list[list]]:
    """The dense route, kept as the oracle: the image, the columns of
    delta^{d-1}, and a basis of the cocycles ker delta^d from the dense rref."""
    image = field_matrix(zip(*coboundary_matrix(X, d - 1)), field) if d else []
    # delta^dim has no rows; one zero row has the same kernel, all of C^dim.
    return image, kernel_basis(coboundary_matrix(X, d) or [[0] * X.n_simplices(d)], field)


def _check_bases_against_dense(X: SimplicialComplex):
    """The published basis, lifted from the core, and the engine's on X's
    full rows (``x_route_basis``) are each a basis of ker delta^d modulo the
    image of delta^{d-1} with dual vectors, checked against the dense
    route's cocycles by ``assert_complements``."""
    for field in (QQ, GF(2), GF(3), GF(5)):
        for d in range(X.dim + 1):
            B = X.cohomology_basis(field, d)
            # The sparse carrier: nonzero canonical Python ints or Fractions
            # at simplex indices.
            assert all(all(c in range(X.n_simplices(d)) and x and type(x) in (int, Fraction)
                           and field.reduce(x) == x for c, x in row.items()) for row in B.basis)
            image, cocycles = _dense_cocycles(X, field, d)
            assert_complements([B, x_route_basis(X, field, d)], X.coboundary_rows(d), image,
                               cocycles)


def _coboundary(X: SimplicialComplex, k: int, c: list, field) -> list:
    return [field.reduce(sum(v * c[j] for j, v in row.items())) for row in X.coboundary_rows(k)]


def _check_express(X: SimplicialComplex, field, rng: random.Random):
    """express(a . basis + delta c) = a; a cochain with delta v != 0 raises.

    a and c have denominators 1 or 7: fractions over Q, residues over F_2,
    F_3 and F_5.
    """
    def scalar(k):
        return field.coerce(Fraction(rng.randint(-k, k), rng.choice((1, 7))))

    for d in range(X.dim + 1):
        B, n = X.cohomology_basis(field, d), X.n_simplices(d)
        for _ in range(3):
            a = [scalar(4) for _ in range(len(B))]
            v = [0] * n
            for coeff, row in zip(a, B.basis):
                v = [field.reduce(x + coeff * y) for x, y in zip(v, dense(row, n))]
            if d:
                c = [scalar(3) for _ in range(X.n_simplices(d - 1))]
                v = [field.reduce(x + y) for x, y in zip(v, _coboundary(X, d - 1, c, field))]
            assert B.express(sparse(v)) == a
        if len(B):
            for j in range(n):
                if _coboundary_of_simplex(X, d, j):
                    v = dense(B.basis[0], n)
                    v[j] = field.reduce(v[j] + 1)
                    with pytest.raises(ValueError):
                        B.express(sparse(v))
                    break


def test_fp_bases_match_the_dense_route_on_the_corpus():
    for X in _small_corpus_complexes():
        _check_bases_against_dense(X)


def test_express_recovers_coefficients_on_the_corpus():
    rng = random.Random(7)
    for X in _small_corpus_complexes():
        for field in (QQ, GF(2), GF(3), GF(5)):
            _check_express(X, field, rng)


@settings(max_examples=60, deadline=None)
@given(random_complexes(), st.integers(0, 10**6))
def test_random_complex_fp_bases_and_express(X, seed):
    _check_bases_against_dense(X)
    assert_lift_and_projection(X)
    rng = random.Random(seed)
    for field in (QQ, GF(2), GF(3), GF(5)):
        _check_express(X, field, rng)


@settings(max_examples=60, deadline=None)
@given(random_complexes(max_vertices=9, max_facets=12))
def test_lift_and_projection_on_wider_random_complexes(X):
    """Wider non-pure complexes, where a cell cancelled upward is often a
    face of an earlier pair's cell, so the order of the lift's walk matters."""
    assert_lift_and_projection(X)
    _check_express(X, GF(3), random.Random(sum(X.f_vector)))


def _check_kernel_check(X: SimplicialComplex, fields, rng, defect_cells=150) -> tuple[int, int]:
    """Every basis's ``express`` accepts exactly what ``in_kernel`` accepts on
    delta^d (``assert_kernel_check_as_oracle``), with one-row defects where
    delta^d has at most *defect_cells* rows and columns together.  Every
    field's basis of a degree shares one column index.  Returns the numbers
    of defects and of rejected vectors."""
    found = rejected = 0
    for field in fields:
        for d in range(X.dim + 1):
            B, rows, n = X.cohomology_basis(field, d), X.coboundary_rows(d), X.n_simplices(d)
            assert B._index is X.cohomology_basis(fields[0], d)._index
            defects = one_row_defects(rows, n, field) if len(rows) + n <= defect_cells else []
            found += len(defects)
            rejected += assert_kernel_check_as_oracle(B, rows, n, field, rng, defects)
    return found, rejected


def test_express_kernel_check_matches_the_oracle_on_the_corpus():
    """Over Q, F_3 and the action's F_p (F_5 for the fixtures)."""
    rng, found, rejected = random.Random(11), 0, 0
    fixtures = [full_triangle(), rp2_six_vertex(), suspension(rp2_six_vertex()),
                wedge_fixture(), corpus.three_sphere_wedge(), corpus.one_point()]
    for X, p in [*((X, 5) for X in fixtures),
                 *((a.complex, a.p) for a in corpus.corpus_actions().values())]:
        f, r = _check_kernel_check(X, (QQ, GF(3), GF(p)) if p != 3 else (QQ, GF(3)), rng)
        found, rejected = found + f, rejected + r
    assert found > 20 and rejected > found


@settings(max_examples=60, deadline=None)
@given(random_complexes(), st.integers(0, 10**6))
def test_express_kernel_check_matches_the_oracle_on_random_complexes(X, seed):
    _check_kernel_check(X, (QQ, GF(3), GF(5)), random.Random(seed))


def test_a_lift_that_walks_its_pairs_forwards_is_caught():
    """Lifting a core cochain must walk the pairs cancelled upward last
    first.  Walked first first, a partner set early enters the sum of a
    later pair whose cell is not its coface in that step's complex.  On this
    circle (a solid tetrahedron with a triangle on one edge and an edge from
    the triangle's far vertex to the tetrahedron) the lift is then no
    cochain map, and the published H^1 class would be no cocycle."""
    X = SimplicialComplex.from_facets([("0", "2"), ("0", "3", "4"), ("1", "2", "3", "4")])
    assert X.cohomology(QQ).betti == (1, 1, 0, 0)
    _check_bases_against_dense(X)
    assert_lift_and_projection(X)
    with pytest.raises(AssertionError):
        assert_lift_and_projection(X, forwards=True)


def _sphere_beside_three_discs(sphere_first: bool) -> SimplicialComplex:
    """The octahedral S^2 disjoint from three discs glued along one boundary
    circle (cones from x, y and z on the triangle boundary c0 c1 c2), so H^2
    is 1 + 2 dimensions over every field.  Each circle edge lies on three
    triangles, so only the sphere's component of triangles is top-seeded.
    *sphere_first* puts the sphere's vertices first in the vertex order."""
    octahedron = [(f"p{i}", f"q{j}", f"r{k}") for i in range(2) for j in range(2) for k in range(2)]
    discs = [(apex, f"c{i}", f"c{(i + 1) % 3}") for apex in "xyz" for i in range(3)]
    sphere, rest = sorted({v for f in octahedron for v in f}), sorted({v for f in discs for v in f})
    return SimplicialComplex.from_facets(
        octahedron + discs, vertex_order=sphere + rest if sphere_first else rest + sphere)


@pytest.mark.parametrize("sphere_first", [True, False])
def test_top_degree_splits_seeded_and_unseeded_components(sphere_first):
    """The top seed's class, with its component's fundamental cycle as its
    dual, sits beside the core route's classes of a component that is not
    seeded, which keeps live triangles: b_2 classes whose duals are
    biorthogonal to them and vanish on every delta e_s, spanning what the
    route on X's full rows spans."""
    X = _sphere_beside_three_discs(sphere_first)
    d, R = X.dim, X._retraction()
    live, ((tau, comp),) = R.live, R.seeds.items()
    assert len(comp) == 8 and any(live[d][t] for t in set(range(X.n_simplices(d))) - set(comp))
    for field in (QQ, GF(3)):
        assert X.cohomology(field).betti == (2, 0, 3)
        B = X.cohomology_basis(field, d)
        assert len(B) == 3
        assert [[field.coerce(sum(x * v.get(c, 0) for c, x in z.items())) for v in B.basis]
                for z in B.duals] == exactalg.identity(3)
        for s in range(X.n_simplices(d - 1)):
            col = _coboundary_of_simplex(X, d - 1, s)
            assert not any(field.reduce(sum(x * col.get(t, 0) for t, x in z.items()))
                           for z in B.duals), s
        cocycle_bases_and_change(X, field, d)


def test_gstar_is_conjugate_to_the_canonical_basis_route_on_the_corpus():
    """C g*_new = g*_old C on every corpus action over Q, F_2, F_3 and F_p,
    g*_old the matrix of sigma^* in the basis of the route on X's full rows."""
    for a in corpus.corpus_actions().values():
        for field in dict.fromkeys([QQ, GF(2), GF(3), GF(a.p)]):
            assert_gstar_conjugate(a, field)


def test_cup_pairings_are_congruent_to_the_canonical_basis_route():
    for a in corpus.corpus_actions().values():
        for field in dict.fromkeys([QQ, GF(3), GF(a.p)]):
            assert_pairings_congruent(a.complex, field)
    assert_pairings_congruent(corpus.lens_space(), GF(3))


def test_cohomology_rings_match_the_dense_oracle():
    """H^*(X) as a ``BigradedAlgebra``: its table is the dense ring's of
    ``tests/oracles.py``, product by product, on every corpus action over Q,
    F_3 and its own F_p and on L(3,1) over F_3; it satisfies the algebra
    laws, and ``check_pd`` agrees with ``pd_check``."""
    for a in corpus.corpus_actions().values():
        for field in dict.fromkeys([QQ, GF(3), GF(a.p)]):
            assert_ring_matches_oracle(a.complex, field)
    assert_ring_matches_oracle(corpus.lens_space(), GF(3))


@settings(max_examples=40, deadline=None)
@given(random_complexes().filter(lambda X: len(X.connected_components()) == 1),
       st.sampled_from([QQ, GF(2), GF(3)]))
def test_cohomology_rings_match_the_dense_oracle_on_random_complexes(X, field):
    assert_ring_matches_oracle(X, field)


@st.composite
def small_complexes_with_classes(draw):
    """A circle on 3 to 5 vertices or the boundary of a tetrahedron, with up
    to two random edges or triangles added on its vertices; drawn again in
    the rare case that these leave no rational class of positive degree."""
    n = draw(st.integers(3, 5))
    labels = [f"u{i}" for i in range(n)]
    if n == 4 and draw(st.booleans()):
        facets = list(combinations(labels, 3))
    else:
        facets = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    extra = draw(st.lists(st.lists(st.sampled_from(labels), min_size=2, max_size=3, unique=True),
                          max_size=2))
    return SimplicialComplex.from_facets(facets + [tuple(f) for f in extra])


@st.composite
def products_with_cup_products(draw):
    """The staircase ``product`` X x Y of two such complexes.  Over a field
    H^*(X x Y) is H^*(X) (x) H^*(Y) as a ring (Kunneth), so (u x 1)(1 x v)
    = u x v is a nonzero product of two classes of positive degree."""
    small = small_complexes_with_classes().filter(lambda X: X.cohomology(QQ).total > 1)
    return product(draw(small), draw(small))


@settings(max_examples=40, deadline=None)
@given(products_with_cup_products(), st.sampled_from([QQ, GF(2), GF(3)]))
def test_cohomology_rings_match_the_dense_oracle_on_random_products(X, field):
    """Unlike ``random_complexes``, whose rings almost never multiply two
    classes of positive degree to a nonzero class, these rings do: the table
    against the oracle's, and the ring laws of ``validate``, see every
    computed product."""
    A, _ = cup_pairing(X, field)
    assert any(A.bidegrees[a][1] and A.bidegrees[b][1] for a, b in A.table)
    assert_ring_matches_oracle(X, field)


def test_pd_check_computes_no_product_with_the_unit():
    """On a fresh L(3,1) over Q, where H^1 = H^2 = 0, ``pd_check`` expresses
    no class, so delta^0's column index is never built.  A disconnected
    complex is still rejected with ``pd_check``'s own message."""
    L = corpus.lens_space()
    X = SimplicialComplex(L.vertices, L.facets)
    assert pd_check(X, QQ).is_pd
    assert not X._cache.get(("cob index", 0))
    Y = SimplicialComplex.from_facets([(1, 2), (3, 4)])
    with pytest.raises(ValueError, match=r"^pd_check requires a connected complex \(2 components\)$"):
        pd_check(Y, QQ)
    with pytest.raises(ValueError, match=r"^cup_pairing requires a connected complex"):
        cup_pairing(Y, QQ)


def test_cached_bases_keep_no_reference_cycle_through_the_complex():
    """A cached basis holds the coreduction's data, not X: once its last
    reference goes, X is freed at once, with the cyclic collector off."""
    a = corpus.s2xs2_rotation(3)
    X = SimplicialComplex(a.complex.vertices, a.complex.facets)
    action = GroupAction(X, a.p, a.vertex_map)
    for field in (QQ, GF(3)):
        cup_pairing(X, field)
        induced_cohomology_action(action, field)
    assert len(X.cohomology_basis(QQ, 2)) == 2
    ref = weakref.ref(X)
    gc.disable()
    try:
        del X, action
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# cross-route checks: Q, F_p and Z agree
# ---------------------------------------------------------------------------

def test_lens_space_is_pd_over_f3():
    result = pd_check(corpus.lens_space(), GF(3))
    assert result.is_pd and result.formal_dim == 3


def test_trivial_lens_action_induces_the_identity_over_f3():
    mats = induced_cohomology_action(trivial_action(corpus.lens_space(), 3), GF(3))
    assert mats == [[[1]], [[1]], [[1]], [[1]]]
    assert [len(M) for M in mats] == [1, 1, 1, 1]


def _assert_universal_coefficients(X: SimplicialComplex):
    """b_i(F_p) = b_i(Q) + t_i(p) + t_{i+1}(p), t_i(p) the p-divisible torsion of H^i."""
    torsion = X.integral_cohomology().torsion
    bq = X.cohomology(QQ).betti
    for p in (2, 3, 5, 7):
        t = [sum(1 for d in tor if d % p == 0) for tor in torsion] + [0]
        assert X.cohomology(GF(p)).betti == tuple(b + t[i] + t[i + 1] for i, b in enumerate(bq))


def test_universal_coefficients_over_the_corpus_and_the_lens():
    for a in corpus.corpus_actions().values():
        _assert_universal_coefficients(a.complex)
    _assert_universal_coefficients(corpus.lens_space())


@pytest.mark.parametrize("p, f_vector", [
    (5, (528, 3408, 5760, 2880)),
    (7, (736, 4768, 8064, 4032)),
])
def test_larger_lens_spaces(p, f_vector):
    L = quotient_complex(join_rotation(p))
    assert L.f_vector == f_vector
    integral = L.integral_cohomology()
    assert integral.betti == (1, 0, 0, 1)
    assert integral.torsion == ((), (), (p,), ())
    _assert_universal_coefficients(L)
    assert not bockstein_condition(L, p)
    for field in (GF(p), QQ):
        result = pd_check(L, field)
        assert result.is_pd and result.formal_dim == 3


def test_cocycle_bases_take_no_dense_route():
    """Bases, g*, cup products, PD-algebra homology and Tate groups take no
    dense kernel: the dense coboundary, ``kernel_basis``, ``rank_and_kernel``
    and the dense pullback are test oracles (``tests/oracles.py``), absent
    from the library."""
    assert not hasattr(SimplicialComplex, "coboundary_matrix")
    # H^*(X) is a ``BigradedAlgebra``; the dense ring is the test oracle.
    assert not hasattr(simplicial, "CohomologyRing") and not hasattr(betticong, "CohomologyRing")
    for module, names in ((exactalg, ("_kernel_from_rref", "rank_and_kernel", "kernel_basis")),
                          (group_action, ("cochain_pullback_matrix",
                                          "trivial_rational_action_check"))):
        assert [name for name in names if hasattr(module, name)] == []
    for a in corpus.corpus_actions().values():
        # A fresh complex: nothing cached by other tests.
        X = SimplicialComplex(a.complex.vertices, a.complex.facets)
        action = GroupAction(X, a.p, a.vertex_map)
        for field in dict.fromkeys([QQ, GF(2), GF(3), GF(a.p)]):
            for d in range(X.dim + 1):
                X.cohomology_basis(field, d)
            mats = induced_cohomology_action(action, field)
            cup_pairing(X, field)
            if field.char == a.p:
                for M in mats:
                    group_cohomology_dims(M, a.p)
    for field in (QQ, GF(3), GF(5)):
        for seed in range(10):
            A, phi, delta = random_differential_algebra(random.Random(seed), field)
            homology(A, delta, phi)
