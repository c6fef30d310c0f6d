"""Group action tests: validation, regularity, fixed sets, induced maps,
Lefschetz numbers, Bockstein condition, T/F/R decomposition, quotients."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from betticong import corpus, group_action, theorems
from betticong.cli import parse
from betticong.exactalg import GF, QQ
from betticong.group_action import (
    _invariant_simplices,
    _orbits_embed,
    _vertex_orbit_reps,
    bockstein_condition,
    fixed_set_cohomology,
    fixed_subcomplex,
    induced_cohomology_action,
    is_regular,
    lefschetz_number,
    make_regular,
    pullback_cochain,
    pullback_permutation,
    quotient_complex,
    subdivide_action,
    tfr_decomposition,
    trivial_action,
    validate_action,
)
from betticong.simplicial import SimplicialComplex, orbit
from betticong.theorems import check_even_codim

from conftest import join_rotation, small_actions
from oracles import (
    coboundary_matrix,
    cochain_pullback_matrix,
    dense as dense_vector,
    dense_cup,
    dense_pullback,
    pairwise_signs,
    power_map,
    simplex_orbits,
    subdivided_map,
    trivial_rational_action_check,
    vertex_orbit_reps,
)


def rot(prefix, n):
    return {f"{prefix}{i}": f"{prefix}{(i + 1) % n}" for i in range(n)}


def dense(M) -> np.ndarray:
    """A square matrix from the library, as a numpy object array for the oracles."""
    return np.array(M, dtype=object).reshape(len(M), len(M))


def rank_mod_oracle(M, p):
    """Plain-loop exact rank over F_p (independent of the library path)."""
    A = [[int(x) % p for x in row] for row in np.asarray(M)]
    m = len(A)
    n = len(A[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(m):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_pentagon_rotation():
    a = corpus.free_polygon_action(5)
    assert a.p == 5 and any(v != w for v, w in a.vertex_map)


def test_validate_order_mismatch():
    with pytest.raises(ValueError, match="length 5, not 1 or 3"):
        validate_action(corpus.polygon(5), rot("v", 5), 3)


def test_validate_transposition_rejected():
    with pytest.raises(ValueError, match="not 1 or 3"):
        validate_action(corpus.polygon(3), {"v0": "v1", "v1": "v0"}, 3)


def test_validate_non_simplicial_rejected():
    # Swap-free map on a path complex that breaks an edge.
    X = SimplicialComplex.from_facets([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    bad = {"a": "b", "b": "c", "c": "a"}  # d, e fixed; edge (d,e) ok, edge (c,d)->(a,d) missing
    with pytest.raises(ValueError, match="not a simplex"):
        validate_action(X, bad, 3)


def test_validate_unknown_vertices_rejected():
    with pytest.raises(ValueError, match=r"unknown vertices: \['w', 'x'\]"):
        validate_action(corpus.polygon(3), {"v0": "x", "w": "v1"}, 3)


def test_validate_non_bijection_rejected_before_any_orbit_walk():
    """v0 -> v1 with v1 fixed is not a bijection; ``orbit`` would never
    return from v0, so the bijection check must come first."""
    with pytest.raises(ValueError, match="vertex map is not a permutation"):
        validate_action(corpus.polygon(3), {"v0": "v1"}, 3)
    with pytest.raises(ValueError, match="vertex map is not a permutation"):
        validate_action(corpus.polygon(5), {"v0": "v1", "v1": "v2", "v2": "v1"}, 5)


def test_an_action_built_directly_must_permute_the_vertices():
    """``GroupAction`` itself refuses a vertex map that is not a bijection
    of the complex's vertices, so no orbit walk can start on one: on this
    map (v0 -> v1 with v1 fixed) ``_vertex_orbit_reps`` used to run until
    memory ran out.  ``validate_action``'s own messages come first."""
    X = corpus.polygon(3)
    bad = [(("v0", "v1"), ("v1", "v1"), ("v2", "v2")),  # not onto
           (("v0", "v1"), ("v1", "v2")),  # v2 has no image
           (("v0", "v1"), ("v0", "v2"), ("v1", "v0"), ("v2", "v0")),  # v0 twice
           (("v0", "v1"), ("v1", "v2"), ("v2", "w")),  # w is no vertex of X
           ()]
    for vertex_map in bad:
        with pytest.raises(ValueError, match="must map each vertex of the complex once"):
            group_action.GroupAction(X, 3, vertex_map)
    assert group_action.GroupAction(X, 3, (("v0", "v1"), ("v1", "v2"), ("v2", "v0"))).p == 3
    assert group_action.GroupAction(SimplicialComplex.empty(), 3, ()).vertex_map == ()
    with pytest.raises(ValueError, match="vertex map is not a permutation"):
        validate_action(X, {"v0": "v1"}, 3)
    with pytest.raises(ValueError, match="unknown vertices"):
        validate_action(X, {"v2": "w"}, 3)


def test_orbit_walks_read_the_simplex_permutation_without_signs():
    """The fixed set, the quotient, the subdivided action and the manifold
    check read only ``simplex_permutation``; the signs of
    ``pullback_permutation`` are computed for g* alone, on the same list."""
    for a in (corpus.s2xs2_rotation(3), corpus.s3_free_action(), corpus.free_polygon_action(5)):
        X = SimplicialComplex(a.complex.vertices, a.complex.facets)
        action = group_action.GroupAction(X, a.p, a.vertex_map)
        fixed_subcomplex(action)
        theorems.homology_manifold_check(X, a.p, action)
        if not _invariant_simplices(action):
            quotient_complex(action)
        if sum(X.f_vector) < 1000:
            subdivide_action(action)
        assert not [key for key in X._cache if key[0] == "pullperm"]
        for d in range(X.dim + 1):
            perm = group_action.simplex_permutation(action, d)
            assert pullback_permutation(action, d)[0] is perm


def _assert_signs_are_pairwise(action):
    for d in range(action.complex.dim + 1):
        assert pullback_permutation(action, d)[1] == pairwise_signs(action, d), d


def test_pullback_signs_match_the_pairwise_count_on_the_corpus():
    """The sign of each simplex, the parity of the one sort of its vertex
    image, is the parity of its inverted vertex pairs; also on the powers."""
    for action in corpus.corpus_actions().values():
        _assert_signs_are_pairwise(action)
        X = action.complex
        _assert_signs_are_pairwise(group_action.GroupAction(X, action.p, power_map(action, 2)))


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_pullback_signs_match_the_pairwise_count_on_small_actions(action):
    _assert_signs_are_pairwise(action)
    _assert_signs_are_pairwise(make_regular(action))


def test_validate_p2_rejected():
    with pytest.raises(ValueError, match="odd prime"):
        validate_action(corpus.polygon(4), rot("v", 4), 2)


def test_identity_is_valid():
    a = trivial_action(corpus.torus(), 3)
    assert all(v == w for v, w in a.vertex_map)


# ---------------------------------------------------------------------------
# regularity / fixed sets
# ---------------------------------------------------------------------------

def scan_offenders(action):
    """Oracle: direct scan for setwise-invariant, not pointwise-fixed simplices."""
    X = action.complex
    m = action.mapping
    out = []
    for d in range(X.dim + 1):
        for s in X.simplex_labels(d):
            if tuple(sorted(m[v] for v in s)) == s and any(m[v] != v for v in s):
                out.append(s)
    return out


def test_sphere_rotation_already_regular():
    a = corpus.sphere_rotation(3)
    assert scan_offenders(a) == []
    assert is_regular(a)
    assert make_regular(a) is a


def test_free_polygon_regular():
    assert is_regular(corpus.free_polygon_action(5))


def test_disc_rotation_needs_one_subdivision():
    a = corpus.disc_rotation()
    assert scan_offenders(a) == [("a0", "a1", "a2")]
    reg = make_regular(a)
    assert reg.complex.n_simplices(0) == 7  # barycentric subdivision of a triangle
    assert is_regular(reg)
    F = fixed_subcomplex(reg)
    assert F.f_vector == (1,)  # the barycenter: a disc rotation fixes its center


def test_subdivided_action_regular_after_one_more():
    for a in (corpus.sphere_rotation(3), corpus.torus_rotation(3), corpus.disc_rotation()):
        s = subdivide_action(a)
        r = s
        rounds = 0
        while not is_regular(r):
            r = subdivide_action(r)
            rounds += 1
        assert rounds <= 1


def test_fixed_free_rotation_empty():
    F = fixed_subcomplex(corpus.free_polygon_action(5))
    assert F.dim == -1 and F.euler_characteristic() == 0


def test_fixed_sphere_rotation_two_points():
    F = fixed_subcomplex(corpus.sphere_rotation(3))
    assert F.f_vector == (2,)
    assert F.cohomology(QQ).betti == (2,)


def test_fixed_second_factor_action_two_circles():
    a = corpus.second_factor_sphere_action()
    F = fixed_subcomplex(a)
    assert F.cohomology(QQ).total == 4
    assert len(F.connected_components()) == 2


def scan_fixed(action):
    """Oracle: direct scan for pointwise-fixed simplices, as label tuples."""
    X = action.complex
    m = action.mapping
    return {s for d in range(X.dim + 1) for s in X.simplex_labels(d)
            if all(m[v] == v for v in s)}


def assert_fixed_subcomplex_matches_oracle(a):
    """Regular: the pointwise-fixed scan.  Otherwise: the fixed subcomplex
    of the subdivided action, with the same theorem verdict, on every power."""
    for k in range(1, a.p):
        b = a.power(k)
        F = fixed_subcomplex(b)
        regular = not scan_offenders(b)
        assert is_regular(b) == regular
        if regular:
            fixed = scan_fixed(b)
            assert {s for d in range(F.dim + 1) for s in F.simplex_labels(d)} == fixed
            assert F.vertices == tuple(v for v in b.complex.vertices if (v,) in fixed)
        else:
            sd = subdivide_action(b)
            F_sd = fixed_subcomplex(sd)
            assert (F.vertices, F.facets) == (F_sd.vertices, F_sd.facets)
            assert check_even_codim(b) == check_even_codim(sd)


def test_fixed_subcomplex_of_non_regular_actions_without_subdivision(s4_document):
    actions = [corpus.disc_rotation()]
    actions += [parse(s4_document(n)).actions["rot"] for n in (3, 9)]
    for a in actions:
        assert not is_regular(a)
        assert_fixed_subcomplex_matches_oracle(a)
    assert fixed_subcomplex(corpus.disc_rotation()).vertices == ("(a0|a1|a2)",)


def test_fixed_subcomplex_matches_oracle_on_the_corpora():
    actions = [*corpus.corpus_actions().values(), *corpus.lefschetz_corpus().values()]
    actions.append(make_regular(corpus.disc_rotation()))
    for a in actions:
        assert_fixed_subcomplex_matches_oracle(a)


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_fixed_subcomplex_matches_oracle_on_small_actions(a):
    assert_fixed_subcomplex_matches_oracle(a)


def test_fixed_subcomplex_same_for_powers():
    for a in (corpus.sphere_rotation(5), corpus.s3_free_action()):
        F1 = fixed_subcomplex(a)
        for k in range(2, a.p):
            Fk = fixed_subcomplex(a.power(k))
            assert F1.vertices == Fk.vertices and F1.facets == Fk.facets


# ---------------------------------------------------------------------------
# one orbit walk: the library's walks against the label-by-label loops
# ---------------------------------------------------------------------------

def decided_orbits(action) -> list[list[tuple[int, ...]]]:
    """The simplex orbits that ``_link_failures`` walks, as simplices, with
    every link passed unseen."""
    X = action.complex
    degree = {id(pullback_permutation(action, k)[0]): k for k in range(X.dim + 1)}
    walked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "_link_passes", lambda *a: True)
        mp.setattr(theorems, "orbit", lambda perm, q: walked.append((perm, orbit(perm, q))) or walked[-1][1])
        theorems._link_failures(X, action.p, action)
    return [[X.simplices(degree[id(perm)])[r] for r in o] for perm, o in walked]


def assert_orbit_walks_match_oracles(action):
    """Vertex orbits, invariant simplices, the orbits the manifold check
    decides, every power and the subdivided action agree with the loops
    that follow the vertex map label by label and sort simplex images."""
    X = action.complex
    assert _vertex_orbit_reps(action) == vertex_orbit_reps(action)
    for k in range(action.p + 1):
        g = action.power(k)
        assert g.vertex_map == power_map(action, k), k
        orbits = [orb for d in range(X.dim + 1) for orb in simplex_orbits(g, d)]
        assert _invariant_simplices(g) == [orb[0] for orb in orbits if len(orb) == 1], k
        assert decided_orbits(g) == orbits, k
    if sum(X.f_vector) <= 1000:  # building sd(S^2 x S^2) alone takes seconds
        assert subdivide_action(action).vertex_map == subdivided_map(action)


def test_orbit_walks_match_oracles_on_the_corpus():
    for action in corpus.corpus_actions().values():
        assert_orbit_walks_match_oracles(action)


@settings(max_examples=40, deadline=None)
@given(small_actions())
def test_orbit_walks_match_oracles_on_small_actions(a):
    assert_orbit_walks_match_oracles(a)


# ---------------------------------------------------------------------------
# induced maps on cohomology
# ---------------------------------------------------------------------------

def assert_sparse_cochains_match_the_dense_formulas(action, field):
    """sigma^# (``pullback_cochain``) of every basis cocycle and the cup
    product (``cup_cochain``) of every pair of basis cocycles equal, once
    densified, the dense formulas of the oracles; every basis vector, dual
    vector, pullback and product is sparse, with nonzero values at indices
    in range(n) only (``dense_vector`` refuses any other index)."""
    X = action.complex
    n = [X.n_simplices(d) for d in range(X.dim + 1)]
    bases = [X.cohomology_basis(field, d) for d in range(X.dim + 1)]
    for d, sq in enumerate(bases):
        for z in sq.duals:
            dense_vector(z, n[d])
        for v in sq.basis:
            pulled = pullback_cochain(action, d, v, field)
            assert all(v.values()) and all(pulled.values())
            assert dense_vector(pulled, n[d]) == dense_pullback(
                action, d, dense_vector(v, n[d]), field), (d, v)
    for i, j in product(range(X.dim + 1), repeat=2):
        if i + j > X.dim:
            continue
        for a, b in product(bases[i].basis, bases[j].basis):
            cup = X.cup_cochain(field, i, j, a, b)
            assert all(cup.values())
            assert dense_vector(cup, n[i + j]) == dense_cup(
                X, field, i, j, dense_vector(a, n[i]), dense_vector(b, n[j])), (i, j)


def test_sparse_pullback_and_cup_match_the_dense_formulas_on_the_corpus():
    for a in corpus.corpus_actions().values():
        for field in dict.fromkeys([QQ, GF(3), GF(a.p)]):
            assert_sparse_cochains_match_the_dense_formulas(a, field)


@settings(max_examples=40, deadline=None)
@given(small_actions())
def test_sparse_pullback_and_cup_match_the_dense_formulas_on_small_actions(a):
    for field in (QQ, GF(a.p)):
        assert_sparse_cochains_match_the_dense_formulas(a, field)


def test_rotation_trivial_on_circle_cohomology():
    a = corpus.free_polygon_action(5)
    mats = induced_cohomology_action(a, QQ)
    for M in mats:
        assert M == [[1]]


def test_identity_action_identity_matrices():
    a = corpus.trivial_torus_action()
    for field in (QQ, GF(3)):
        for M in induced_cohomology_action(a, field):
            assert M == np.eye(len(M), dtype=int).tolist()


def test_free_join_orientation_preserved():
    a = corpus.s3_free_action()
    mats = induced_cohomology_action(a, QQ)
    assert mats[0][0][0] == 1
    assert mats[3][0][0] == 1


def test_pullback_has_order_p():
    a = corpus.sphere_rotation(3)
    for field in (QQ, GF(3)):
        for d in range(a.complex.dim + 1):
            P = cochain_pullback_matrix(a, d, field)
            Pp = np.linalg.matrix_power(dense(P), 3)
            if field is not QQ:
                Pp = Pp % field.p
            assert (Pp == np.eye(len(P), dtype=int)).all()


def test_induced_action_order_divides_p():
    for a in (corpus.s2xs2_rotation(3), corpus.wedge_spheres_action()):
        for M in induced_cohomology_action(a, GF(3)):
            Mp = np.linalg.matrix_power(dense(M), 3) % 3
            assert (Mp == np.eye(len(M), dtype=int)).all()


# ---------------------------------------------------------------------------
# Lefschetz numbers vs fixed-set Euler characteristics
# ---------------------------------------------------------------------------

def test_lefschetz_free_rotation_zero():
    assert lefschetz_number(corpus.free_polygon_action(5)) == 0


def test_lefschetz_sphere_rotation_two():
    a = corpus.sphere_rotation(3)
    assert lefschetz_number(a) == 2
    assert fixed_set_cohomology(a, QQ).total == 2  # chi(S^0) = 2 as well


def test_lefschetz_trivial_torus():
    assert lefschetz_number(corpus.trivial_torus_action()) == 0


def test_lefschetz_number_refuses_a_trace_that_is_not_an_integer(monkeypatch):
    """A non-integral trace raises, also under ``python -O``, instead of
    being truncated by int()."""
    monkeypatch.setattr(group_action, "induced_cohomology_action",
                        lambda action, field: [[[Fraction(1, 2)]]])
    with pytest.raises(ArithmeticError, match="1/2"):
        lefschetz_number(corpus.free_polygon_action(5))


# ---------------------------------------------------------------------------
# trivial rational action
# ---------------------------------------------------------------------------

def test_trivial_rational_small_betti():
    a = corpus.sphere_rotation(3)  # dim H^* = 2 < 3
    assert trivial_rational_action_check(a)


def test_trivial_rational_identity():
    assert trivial_rational_action_check(corpus.trivial_torus_action())


def test_minimal_polynomial_bound_over_corpus():
    for name, a in corpus.corpus_actions().items():
        if name == "s2xs2_rotation_p7":
            continue  # rational bases on the large product are exercised elsewhere
        total = a.complex.cohomology(QQ).total
        if total < a.p:
            assert trivial_rational_action_check(a), name


# ---------------------------------------------------------------------------
# Bockstein condition
# ---------------------------------------------------------------------------

def test_bockstein_torsion_free_complexes():
    for X in (corpus.sphere_suspension(3), corpus.torus(), corpus.s3_join()):
        assert bockstein_condition(X, 3)
        assert bockstein_condition(X, 5)


def test_bockstein_rp2_p3():
    # Only 2-torsion: fine at p = 3.
    assert bockstein_condition(corpus.rp2_six_vertex(), 3)


def test_bockstein_lens_space_fails_p3():
    L = corpus.lens_space()
    assert not bockstein_condition(L, 3)
    # SNF oracle: the Z/3 must sit in H^2, i.e. in the divisors of delta^1.
    from betticong.exactalg import smith_normal_form

    divisors = smith_normal_form(coboundary_matrix(L, 1)).divisors
    assert any(d % 3 == 0 and d > 1 for d in divisors)
    assert L.cohomology(GF(3)).betti == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# T/F/R decomposition
# ---------------------------------------------------------------------------

def test_tfr_trivial_torus():
    d = tfr_decomposition(corpus.trivial_torus_action())
    assert d.t == (1, 2, 1) and sum(d.f) == 0 and sum(d.r) == 0
    assert d.dim_t == 4
    assert not d.hypothesis_failing


def test_tfr_free_join():
    d = tfr_decomposition(corpus.s3_free_action())
    assert d.dim_t == 2 and d.dim_f == 0 and d.dim_r == 0
    assert d.t == (1, 0, 0, 1)


def test_tfr_wedge_has_free_block():
    d = tfr_decomposition(corpus.wedge_spheres_action())
    assert d.t[0] == 1
    assert d.f[2] == 1 and d.t[2] == 0 and d.r[2] == 0
    # Kernel-profile oracle: the permutation block on H^2 is a single J_3.
    a = corpus.wedge_spheres_action()
    M = induced_cohomology_action(a, GF(3))[2]
    N = (dense(M) - np.eye(3, dtype=int)) % 3
    dims = [3 - rank_mod_oracle(np.linalg.matrix_power(N, k) % 3, 3) for k in (1, 2, 3)]
    assert dims == [1, 2, 3]


def test_tfr_dimension_bookkeeping():
    for name, a in corpus.corpus_actions().items():
        if name == "s2xs2_rotation_p7":
            continue
        d = tfr_decomposition(a)
        betti = a.complex.cohomology(GF(a.p)).betti
        for i, b in enumerate(betti):
            total = d.t[i] + a.p * d.f[i] + (a.p - 1) * d.r[i] + sum(d.other[i])
            assert total == b, (name, i)


def test_tfr_invariant_lines_count():
    # One sigma^*-invariant line per Jordan block.
    for a in (corpus.wedge_spheres_action(), corpus.s3_free_action()):
        p = a.p
        d = tfr_decomposition(a)
        mats = induced_cohomology_action(a, GF(p))
        for i, M in enumerate(mats):
            b = len(M)
            if not b:
                continue
            N = (dense(M) - np.eye(b, dtype=int)) % p
            inv_dim = b - rank_mod_oracle(N, p)
            assert inv_dim == d.t[i] + d.f[i] + d.r[i] + len(d.other[i])


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_pentagon_circle():
    a = corpus.free_polygon_action(5)
    Q = quotient_complex(a)
    assert Q.cohomology(QQ).betti == (1, 1)
    assert Q.euler_characteristic() * 5 == a.complex.euler_characteristic()


def test_quotient_lens_space_betti():
    L = corpus.lens_space()
    assert L.cohomology(GF(3)).betti == (1, 1, 1, 1)
    assert L.cohomology(QQ).betti == (1, 0, 0, 1)


def test_quotient_chi_divides():
    """chi(sd^k X) = chi(X), and the quotient of sd^k X is a p-fold cover."""
    for a in (corpus.free_polygon_action(3), corpus.free_polygon_action(5)):
        Q = quotient_complex(a)
        assert Q.euler_characteristic() * a.p == a.complex.euler_characteristic()


def quotient_by_subdivision(action) -> SimplicialComplex:
    """The quotient by the direct route: subdivide until the simplex orbits
    embed, then label each vertex orbit by its least vertex."""
    while not _orbits_embed(action):
        action = subdivide_action(action)
    X = action.complex
    reps = vertex_orbit_reps(action)
    facets = {tuple(sorted({reps[X.vertices[v]] for v in f})) for f in X.facets}
    return SimplicialComplex.from_facets(sorted(facets), vertex_order=sorted(set(reps.values())))


def turned_polygon(n: int, step: int, p: int):
    return validate_action(corpus.polygon(n), {f"v{i}": f"v{(i + step) % n}" for i in range(n)}, p)


def test_quotient_matches_the_subdivision_route():
    """The orbit poset gives the complex that subdividing until the orbits
    embed does: X/G when they embed (sd^2 S^3), sd(X)/G when X's simplices
    meet distinct vertex orbits (the hexagon and 14-gon turned by two,
    sd S^3), else sd^2(X)/G."""
    s3 = corpus.s3_free_action()
    sd_s3 = subdivide_action(s3)
    cases = [corpus.free_polygon_action(3), corpus.free_polygon_action(5),
             turned_polygon(6, 2, 3), turned_polygon(14, 2, 7),
             s3, sd_s3, subdivide_action(sd_s3), join_rotation(5), join_rotation(7)]
    for a in cases:
        Q, oracle = quotient_complex(a), quotient_by_subdivision(a)
        assert (Q.vertices, Q.facets) == (oracle.vertices, oracle.facets)


def test_lens_quotient_subdivides_once(monkeypatch):
    """L(3,1) is read off the orbit poset of sd S^3: sd^2(S^3) is never built."""
    sizes = []
    real = group_action.barycentric_subdivision
    monkeypatch.setattr(group_action, "barycentric_subdivision",
                        lambda X: sizes.append(len(X.vertices)) or real(X))
    assert quotient_complex(corpus.s3_free_action()).f_vector == (320, 2048, 3456, 1728)
    assert sizes == [6]


def quotient_obstruction(action) -> str | None:
    """Why the simplex orbits do not yet form a simplicial complex, if they
    don't: orbit by orbit, the p images of every simplex compared."""
    X, m = action.complex, action.mapping
    reps = vertex_orbit_reps(action)
    image_owner: dict[tuple, tuple] = {}
    for d in range(X.dim + 1):
        for s in X.simplex_labels(d):
            rep_set = tuple(sorted({reps[v] for v in s}))
            if len(rep_set) != len(s):
                return f"simplex {s} meets a vertex orbit twice"
            orbit = [tuple(sorted(s))]
            cur = s
            for _ in range(action.p - 1):
                cur = tuple(m[v] for v in cur)
                orbit.append(tuple(sorted(cur)))
            canon = min(orbit)
            owner = image_owner.setdefault(rep_set, canon)
            if owner != canon:
                return f"distinct simplex orbits {owner} and {canon} share the image {rep_set}"
    return None


def test_orbits_embed_by_counting_matches_the_orbit_oracle():
    """Counting vertex-orbit images decides what comparing orbits does: the
    hexagon turned by two steps has edge orbits {0,1} and {1,2} on one image."""
    s3 = corpus.s3_free_action()
    hexagon = turned_polygon(6, 2, 3)
    cases = {
        "triangle": corpus.free_polygon_action(3),
        "pentagon": corpus.free_polygon_action(5),
        "s3": s3,
        "sd s3": subdivide_action(s3),
        "sd2 s3": subdivide_action(subdivide_action(s3)),
        "hexagon": hexagon,
    }
    verdicts = {name: _orbits_embed(a) for name, a in cases.items()}
    assert verdicts == {name: quotient_obstruction(a) is None for name, a in cases.items()}
    assert verdicts == {"triangle": False, "pentagon": False, "s3": False, "sd s3": False,
                        "sd2 s3": True, "hexagon": False}
    assert "share" in quotient_obstruction(hexagon)


def test_quotient_rejects_nonfree():
    with pytest.raises(ValueError, match="free"):
        quotient_complex(corpus.sphere_rotation(3))


def hopf_trace(action) -> int:
    """L(g) = sum_i (-1)^i tr(g^# on C^i) (Munkres, section 22): the signed
    count of the simplices that g maps to themselves."""
    total = 0
    for i in range(action.complex.dim + 1):
        perm, signs = pullback_permutation(action, i)
        total += (-1) ** i * sum(sign for s, (image, sign) in enumerate(zip(perm, signs))
                                 if image == s)
    return total


def test_hopf_trace_is_a_third_lefschetz_route():
    """Chain-level trace = cohomology trace = chi(X^(g^k)), every power."""
    pairs = [(name, k, action.power(k)) for name, action in corpus.lefschetz_corpus().items()
             for k in range(1, action.p)]
    assert len(pairs) == 32
    for name, k, g in pairs:
        chi = sum((-1) ** i * b for i, b in enumerate(fixed_set_cohomology(g, QQ).betti))
        assert hopf_trace(g) == lefschetz_number(g) == chi, (name, k)
