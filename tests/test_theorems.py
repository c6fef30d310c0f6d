"""Theorem pipelines: hypothesis checklists, congruence verdicts, guards."""

from __future__ import annotations

from itertools import combinations

from fractions import Fraction
import pytest
from hypothesis import given, settings, strategies as st

from betticong import corpus, exactalg, simplicial, theorems
from betticong.exactalg import GF, QQ
from betticong.group_action import (
    GroupAction,
    fixed_set_cohomology,
    lefschetz_number,
    tfr_decomposition,
    trivial_action,
    validate_action,
)
from betticong.equivariant import BorelComplex, TransferredComplex, localization_check
from betticong.pd_algebra import (
    Differential,
    _single_generator_model,
    _tensor_orientation,
    odd_model,
    odd_model_differential,
    tensor,
)
from betticong.theorems import (
    check_even_codim,
    check_theorem1_algebraic,
    check_theorem2,
    check_theorem4,
    euler_route_congruence,
    homology_manifold_check,
    smith_inequality_check,
)
from betticong.simplicial import SimplicialComplex, join, link, product, suspension

from conftest import small_actions
from oracles import (
    PermutationComplex,
    assert_coreduce_matches_oracle,
    assert_gstar_conjugate,
    assert_lift_and_projection,
    assert_pairings_congruent,
    assert_retraction,
    borel_model,
    dense,
    reduced_per_cell,
    sparse,
    top_seeds,
    unreduced_model,
)


# ---------------------------------------------------------------------------
# Theorem 2
# ---------------------------------------------------------------------------

def test_theorem2_sphere_rotation():
    rep = check_theorem2(corpus.sphere_rotation(3))
    assert rep.applicable
    assert rep.lhs == 2 and rep.rhs == 2
    assert rep.verdict == "PASS"


def test_theorem2_torus_rotation():
    rep = check_theorem2(corpus.torus_rotation(3))
    assert rep.applicable
    assert rep.lhs == 0 and rep.rhs == 4
    assert rep.verdict == "PASS"  # 0 = 4 mod 4


def test_theorem2_free_pentagon_guard():
    rep = check_theorem2(corpus.free_polygon_action(5))
    assert not rep.applicable
    assert rep.verdict == "N/A"
    assert rep.lhs == 0 and rep.rhs == 2
    assert rep.congruent is False  # the violation the guard must exhibit
    parity = [h for h in rep.hypotheses if h.name == "parity"][0]
    assert parity.satisfied is False and "fixed set empty" in parity.evidence


def test_theorem2_s3_guard():
    rep = check_theorem2(corpus.s3_free_action())
    assert not rep.applicable
    assert rep.lhs == 0 and rep.rhs == 2
    assert rep.congruent is False


def test_theorem2_odd_applicable_instance():
    # S^1 x S^2 with the sphere rotated: n = 3 odd, fixed set nonempty,
    # window conditions hold with R^* = 0.
    rep = check_theorem2(corpus.second_factor_sphere_action())
    assert rep.applicable
    assert rep.lhs == 4 and rep.rhs == 4
    assert rep.verdict == "PASS"


def test_theorem2_wedge_not_pd():
    rep = check_theorem2(corpus.wedge_spheres_action())
    assert not rep.applicable
    pd_h = [h for h in rep.hypotheses if h.name == "fp_poincare_duality"][0]
    assert pd_h.satisfied is False


def test_theorem2_trivial_actions():
    for a in (corpus.trivial_torus_action(3), corpus.trivial_sphere_action(3)):
        rep = check_theorem2(a)
        assert rep.applicable
        assert rep.lhs == rep.rhs
        assert rep.verdict == "PASS"


def test_theorem2_disc_rotation():
    rep = check_theorem2(corpus.disc_rotation())
    assert rep.applicable and rep.lhs == 1 and rep.rhs == 1


# ---------------------------------------------------------------------------
# Theorem 1 (algebraic)
# ---------------------------------------------------------------------------

def test_theorem1_even_sphere_model():
    A = _single_generator_model(QQ, 0, 2, 2)
    phi = _tensor_orientation(A)
    rep = check_theorem1_algebraic(A, None, phi)
    assert rep.applicable and rep.lhs == 2 and rep.rhs == 2
    assert rep.verdict == "PASS"


def test_theorem1_odd_1221_fixture():
    A, phi, C = odd_model(QQ, m=1, r=2)
    S = [[0, Fraction(1)], [Fraction(-1), 0]]
    delta = odd_model_differential(A, C, S)
    rep = check_theorem1_algebraic(A, delta, phi, fixed_set_dim=2)
    assert rep.applicable
    assert rep.lhs == 6 and rep.rhs == 2
    assert rep.verdict == "PASS"  # 6 = 2 mod 4


def test_theorem1_s3s5s9_necessity():
    # Betti profile of S^3 x S^5 x S^9 with the fixed-set dimension 6 from
    # the sphere-bundle example: hypotheses fail (nonzero degree 8 <= m) and
    # the congruence indeed breaks: 8 vs 6.
    A = _single_generator_model(QQ, 0, 3, 2)
    A = tensor(A, _single_generator_model(QQ, 0, 5, 2))
    A = tensor(A, _single_generator_model(QQ, 0, 9, 2))
    phi = _tensor_orientation(A)
    mono = {m: i for i, m in enumerate(A._monomials)}
    columns = [{} for _ in range(8)]
    columns[mono[(2,)]] = {mono[(0, 1)]: Fraction(1)}
    delta = Differential(tuple(columns), shift=(0, -1))
    rep = check_theorem1_algebraic(A, delta, phi)
    assert not rep.applicable
    assert rep.lhs == 8 and rep.rhs == 6
    assert rep.congruent is False


# ---------------------------------------------------------------------------
# homology manifolds / Theorem 4 / even codimension
# ---------------------------------------------------------------------------

def test_hm_sphere_and_torus():
    assert homology_manifold_check(corpus.sphere_suspension(5), 3).orientable_hm
    assert homology_manifold_check(corpus.torus(), 3).orientable_hm
    assert homology_manifold_check(corpus.grid_torus(3, 3), 5).orientable_hm


def test_hm_wedge_fails_at_shared_vertex():
    rep = homology_manifold_check(corpus.wedge_fixture(), 3)
    assert not rep.is_hm
    assert ("w0",) in rep.failures


def test_hm_rp2_not_orientable():
    rep = homology_manifold_check(corpus.rp2_six_vertex(), 3)
    assert rep.is_hm  # links are circles
    assert not rep.orientable  # b_2(Q) = 0


def test_hm_orientability_sees_p_torsion_in_the_top_degree():
    """A mod-3 Moore space beside a 2-sphere has H^2(;Z) = Z + Z/3, so b_2 = 1
    over Q: it is orientable for p = 5 only, as the p-local profile of
    delta^1 says."""
    for p in (3, 5):
        X = _moore_space_and_sphere()
        no_top_torsion = all(v == 0 for v in X.torsion_valuation_profile(p)[2])
        assert homology_manifold_check(_moore_space_and_sphere(), p).orientable == no_top_torsion
        assert no_top_torsion == (p == 5)


# The rank oracle: build every link and compare its Betti numbers over Q and
# over F_p with those of the sphere.

def _is_field_sphere(L: SimplicialComplex, n: int, field) -> bool:
    """Does L have the reduced cohomology of S^n over the field?

    S^(-1) is the empty complex; its reduced cohomology is trivial in
    non-negative degrees.
    """
    if n < 0:
        return L.dim < 0
    if L.dim < 0:
        return False
    betti = L.cohomology(field).betti
    reduced = [b - (1 if i == 0 else 0) for i, b in enumerate(betti)]
    return all(r == (1 if i == n else 0) for i, r in enumerate(reduced)) and len(reduced) > n


def rank_oracle_failures(X: SimplicialComplex, *primes: int) -> dict[int, tuple]:
    """For each p, the simplices whose link is not a sphere over both Q and
    F_p.  Each link, and its verdict over Q, is built once for all primes."""
    if not X.is_pure():
        return dict.fromkeys(primes, ())
    failures = {p: [] for p in primes}
    for k in range(X.dim + 1):
        for s in X.simplex_labels(k):
            L = link(X, s)
            n = X.dim - k - 1
            over_q = _is_field_sphere(L, n, QQ)
            for p in primes:
                if not over_q or not _is_field_sphere(L, n, GF(p)):
                    failures[p].append(s)
    return {p: tuple(f) for p, f in failures.items()}


def assert_hm_matches_oracle(X: SimplicialComplex, p: int) -> tuple:
    fresh = SimplicialComplex(X.vertices, X.facets)  # no cached report
    failures = homology_manifold_check(fresh, p).failures
    assert failures == rank_oracle_failures(X, p)[p]
    return failures


def assert_orbit_route_matches_oracle(action: GroupAction, *primes: int) -> dict[int, tuple]:
    """At each p, with and without the action, the failures are the oracle's."""
    oracle = rank_oracle_failures(action.complex, *primes)
    fresh, plain = _fresh_action(action), _fresh_action(action).complex  # no cached reports
    for p in primes:
        orbit_route = homology_manifold_check(fresh.complex, p, fresh)
        assert orbit_route == homology_manifold_check(plain, p)
        assert orbit_route.failures == oracle[p], p
    return oracle


def _wedge_of_spheres() -> SimplicialComplex:
    """Two tetrahedron boundaries sharing the vertex a0."""
    b = corpus.tetrahedron_boundary("b").simplex_labels(2)
    return SimplicialComplex.from_facets([*corpus.tetrahedron_boundary("a").simplex_labels(2),
                                          *(["a0" if v == "b0" else v for v in f] for f in b)])


def _pinched_torus() -> SimplicialComplex:
    """The 4 x 4 grid torus with g0_0 and g2_2 made one vertex."""
    return SimplicialComplex.from_facets(
        [["g0_0" if v == "g2_2" else v for v in f] for f in corpus.grid_torus(4, 4).simplex_labels(2)])


def _moore_space_and_sphere() -> SimplicialComplex:
    """A mod-3 Moore space (a disc whose boundary wraps three times round
    the triangle 0 1 2) with a 2-sphere on the vertex 0: the rational
    homology of S^2, but b_1 = 1 and b_2 = 2 over F_3."""
    b = [str(i % 3) for i in range(9)]
    m = [f"m{i}" for i in range(9)]
    disc = [tri for i in range(9) for tri in (
        (b[i], b[(i + 1) % 9], m[i]), (b[(i + 1) % 9], m[i], m[(i + 1) % 9]), (m[i], m[(i + 1) % 9], "c"))]
    sphere = [["0" if v == "t0" else v for v in f]
              for f in corpus.tetrahedron_boundary().simplex_labels(2)]
    return SimplicialComplex.from_facets(disc + sphere)


def _disjoint(X: SimplicialComplex, Y: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex.from_facets(
        [*(("x" + v for v in f) for f in X.simplex_labels(X.dim)),
         *(("y" + v for v in f) for f in Y.simplex_labels(Y.dim))])


def _non_manifolds() -> dict[str, SimplicialComplex]:
    wedge, torus = _wedge_of_spheres(), corpus.torus()
    s1xs2 = product(corpus.polygon(3, "c"), corpus.tetrahedron_boundary())
    # A 2-sphere with a triangle hung on one vertex: the homology of S^2,
    # not a manifold, so its suspensions pass the fallback at their poles.
    flap = SimplicialComplex.from_facets(
        [*(corpus.tetrahedron_boundary().simplex_labels(2)), ("t0", "f1", "f2")])
    # Two spheres sharing both poles: connected, chi = 2, not a sphere.
    two_spheres = suspension(SimplicialComplex.from_facets(
        [*corpus.polygon(4, "a").simplex_labels(1), *corpus.polygon(4, "b").simplex_labels(1)]))
    return {
        "wedge": wedge,
        "pinched torus": _pinched_torus(),
        "cone on torus": join(torus, corpus.one_point()),
        "suspended wedge": suspension(wedge),
        "double suspended wedge": suspension(suspension(wedge)),
        "suspended torus": suspension(torus),
        "double suspended torus": suspension(suspension(torus)),
        "suspended S1xS2": suspension(s1xs2),
        "suspended sphere with a flap": suspension(flap),
        "double suspended sphere with a flap": suspension(suspension(flap)),
        # Disconnected links that pass every count: S^2 beside T^2 (chi 2), and
        # S^3 beside S^1 x S^2 (rank delta^1 = E - V + 1).
        "suspended sphere and torus": suspension(_disjoint(corpus.tetrahedron_boundary(), torus)),
        "suspended 3-sphere and S1xS2": suspension(_disjoint(join(*[corpus.polygon(3)] * 2), s1xs2)),
        # A non-manifold link that is a sphere over Q but not over F_3.
        "suspended Moore space": suspension(_moore_space_and_sphere()),
        "double suspended Moore space": suspension(suspension(_moore_space_and_sphere())),
        "suspended two spheres on two poles": suspension(two_spheres),
        "double suspended two spheres on two poles": suspension(suspension(two_spheres)),
        "two triangles on a vertex": corpus.wedge_fixture(),
    }


def test_hm_certificates_match_rank_oracle_on_the_corpus():
    """Every corpus complex at p = 3, 5 and 7, with and without its action."""
    for action in corpus.corpus_actions().values():
        assert_orbit_route_matches_oracle(action, 3, 5, 7)
    assert assert_hm_matches_oracle(corpus.lens_space(), 3) == ()


def test_hm_certificates_match_rank_oracle_on_non_manifolds():
    """The codimension 3 and 4 certificates fail on the suspended torus and
    S^1 x S^2 at their poles; below a failed link the fallback decides, and
    the two spheres on two poles fail there although their chi is 2."""
    cases = _non_manifolds()
    for p in (3, 5):
        for name, X in cases.items():
            assert assert_hm_matches_oracle(X, p), name
    for name in ("suspended torus", "suspended S1xS2"):
        X = cases[name]
        assert homology_manifold_check(X, 3).failures == tuple((v,) for v in X.vertices[-2:])


def test_hm_sees_p_torsion_in_a_codimension_4_link():
    """L(3,1) is a sphere over Q and F_5, not over F_3: its suspension fails
    at the two poles for p = 3 only."""
    X = suspension(corpus.lens_space())
    assert homology_manifold_check(X, 3).failures == tuple((v,) for v in X.vertices[-2:])
    assert homology_manifold_check(X, 5).failures == ()


@st.composite
def pure_complexes(draw):
    """Pure complexes of dimension 0-2 on at most 6 vertices, often a simplex
    boundary with facets added or removed, suspended up to twice, so that
    links of every codimension up to 4 occur, spheres and non-spheres."""
    d = draw(st.integers(0, 2))
    n = draw(st.integers(d + 2, 6))
    faces = list(combinations(range(n), d + 1))
    base = set(combinations(range(d + 2), d + 1)) if draw(st.booleans()) else set()
    facets = base ^ set(draw(st.lists(st.sampled_from(faces), max_size=6)))
    X = SimplicialComplex.from_facets([[f"v{v}" for v in f] for f in facets or faces[:1]])
    for _ in range(draw(st.integers(0, 2))):
        X = suspension(X)
    return X


@settings(max_examples=80, deadline=None)
@given(pure_complexes(), st.sampled_from([3, 5]))
def test_hm_certificates_match_rank_oracle_on_pure_complexes(X, p):
    assert_hm_matches_oracle(X, p)


# ---------------------------------------------------------------------------
# The reduced routes: every rank and Smith route eliminates delta^k after the
# coreduction's unit pivots, and agrees with X's full rows
# ---------------------------------------------------------------------------

# Each order runs the four routes on a fresh complex, so that the ranks are
# read off fresh eliminations before the Smith pass and off its divisors
# after it, and the cocycle bases are built after either.
_ROUTE_ORDERS = (("Q", "Fp", "pval", "Z"), ("Z", "pval", "Fp", "Q"), ("Fp", "Q", "Z", "pval"))


def _express_or_reject(sq, v):
    try:
        return sq.express(v)
    except ValueError:
        return "not a cocycle"


def _assert_reduced_routes_agree(X: SimplicialComplex, p: int):
    """Ranks over Q and F_p, the p-local profile, the nonzero Smith divisors
    and the cocycle bases of the routes on the coreduced rows equal those of
    X's full rows (the profile oracle is v_p of the Smith divisors of the
    full rows), and ``express`` agrees with the route on X's full rows."""
    rows = [X.coboundary_rows(k) for k in range(X.dim + 1)]
    n = [X.n_simplices(k) for k in range(X.dim + 1)]
    smith = [exactalg.sparse_smith_divisors(r, n[k]) for k, r in enumerate(rows[:-1])]
    profile = [exactalg.p_valuation_profile(d, p) for d in smith]
    ranks = {QQ: [exactalg.sparse_rank_q(r) for r in rows] + [0],
             GF(p): [exactalg.sparse_rank_modp(r, p) for r in rows] + [0]}
    oracles = {}
    for field, rank in ranks.items():
        for d in range(X.dim + 1):
            image = exactalg.transpose_rows(rows[d - 1], n[d - 1]) if d else []
            oracles[field, d] = (exactalg.Subquotient(rows[d], image, field, n[d])
                                 if n[d] - rank[d] - rank[d - 1] else
                                 exactalg.Subquotient.from_duals(rows[d], field, [], []))
    assert_lift_and_projection(X)
    for order in _ROUTE_ORDERS:
        Y = SimplicialComplex(X.vertices, X.facets)
        run = {"Q": lambda: Y.cohomology(QQ), "Fp": lambda: Y.cohomology(GF(p)),
               "pval": lambda: Y.torsion_valuation_profile(p), "Z": Y.integral_cohomology}
        for route in order:
            run[route]()
        for k, r in enumerate(rows[:-1]):
            for field, rank in ranks.items():
                assert Y._coboundary_rank(k, field) == rank[k], (order, field, k)
            assert Y.torsion_valuation_profile(p)[k + 1] == profile[k], (order, k)
            reduced = Y._reduced_rows(k)
            assert len(reduced) == len(r)
            assert exactalg.sparse_smith_divisors(reduced, n[k]) == smith[k]
            assert exactalg.sparse_rank_modp(reduced, p) == ranks[GF(p)][k], k
            assert exactalg.sparse_rank_q(reduced) == ranks[QQ][k], k
        r_z = [0] + [sum(1 for d in ds if d) for ds in smith] + [0]
        assert Y.integral_cohomology().betti == tuple(
            n[i] - r_z[i] - r_z[i + 1] for i in range(X.dim + 1))
        assert Y.integral_cohomology().torsion == tuple(
            tuple(d for d in ds if d > 1) for ds in [()] + smith)
        for (field, d), oracle in oracles.items():
            sq = Y.cohomology_basis(field, d)
            # oracle.express raises unless each basis vector is a cocycle of
            # X; column j of C is its class in the oracle's basis, so C is
            # invertible iff rank([image; basis]) = rank(image) + b_d.
            C = [list(col) for col in zip(*map(oracle.express, sq.basis))]
            assert len(sq) == len(oracle) == exactalg.rank(C, field)
            vectors = [{0: 1}] + list(sq.basis)  # e_0: a cocycle only where delta^d e_0 = 0
            for j, b in enumerate(sq.basis):  # a class plus a coboundary
                v = dense(b, n[d])
                for t, row in enumerate(rows[d - 1] if d else []):
                    v[t] += row.get(j % n[d - 1], 0)
                vectors.append(sparse([field.reduce(x) for x in v]))
            for v in vectors:
                got = _express_or_reject(sq, v)
                if got != "not a cocycle" and got:
                    got = [row[0] for row in exactalg.matmul(C, [[x] for x in got], field)]
                assert got == _express_or_reject(oracle, v)


def test_cleared_routes_agree_with_the_full_rows():
    for action in corpus.corpus_actions().values():
        _assert_reduced_routes_agree(action.complex, action.p)
    _assert_reduced_routes_agree(corpus.lens_space(), 3)
    for p in (2, 3):
        _assert_reduced_routes_agree(corpus.rp2_six_vertex(), p)
    _assert_reduced_routes_agree(_moore_space_and_sphere(), 3)
    # The cone over RP^2: every Q pivot set of delta^2 on the cone triangles
    # has an even minor, as H_1(RP^2;Z) = Z/2.
    for p in (2, 3):
        _assert_reduced_routes_agree(join(corpus.rp2_six_vertex(), corpus.one_point()), p)
    # The torus is not connected to vertex 0: its first vertex seeds it, and
    # its first triangle, as it is closed and orientable, while RP^2 is not
    # top-seeded.  That leaves a core of 2/7/6 of 15/42/28 cells: RP^2's
    # vertex 0 and 5/5, and the torus's seed vertex and 2/1.
    X = _disjoint(corpus.rp2_six_vertex(), corpus.torus())
    _assert_reduced_routes_agree(X, 2)
    assert list(map(len, X._retraction().core)) == [2, 7, 6]
    _assert_reduced_routes_agree(corpus.one_point(), 3)


@settings(max_examples=40, deadline=None)
@given(pure_complexes(), st.sampled_from([2, 3]))
def test_cleared_routes_agree_on_pure_complexes(X, p):
    _assert_reduced_routes_agree(X, p)


def _klein_bottle(n: int = 4) -> SimplicialComplex:
    """The n x n grid of squares, each cut into two triangles, with its top
    and bottom glued straight and its sides glued with a flip."""
    def v(i, j):
        if i == n:
            i, j = 0, n - j
        return f"k{i}_{j % n}"
    return SimplicialComplex.from_facets(
        [tri for i in range(n) for j in range(n)
         for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)), (v(i, j), v(i, j + 1), v(i + 1, j + 1)))])


def _top_seed_cases() -> dict[str, tuple[SimplicialComplex, int, list[int]]]:
    """name -> (X, number of top seeds, core sizes of ``Retraction``)."""
    rp2 = corpus.rp2_six_vertex()
    return {
        # Closed orientable components of top cells: each is seeded once.
        "circle": (corpus.polygon(5), 1, [1, 1]),
        "torus": (corpus.torus(), 1, [1, 2, 1]),
        "S^2 x S^2 (Z/3)": (corpus.s2xs2(3), 1, [1, 0, 2, 0, 1]),
        "S^2 x S^2 (Z/7)": (corpus.s2xs2(7), 1, [1, 0, 2, 0, 1]),
        "L(3,1)": (corpus.lens_space(), 1, [1, 38, 38, 1]),
        "S^2 * S^1": (_join_action(corpus.sphere_rotation(3), corpus.free_polygon_action(3)).complex,
                      1, [1, 0, 0, 0, 1]),
        # Components of top cells, not of X: spheres sharing a vertex, and
        # spheres hung on edges (not pure).
        "two spheres on a vertex": (_wedge_of_spheres(), 2, [1, 0, 2]),
        "three spheres on edges": (corpus.three_sphere_wedge(), 3, [1, 0, 3]),
        # Not seeded: non-orientable, a face on three top cells, faces on one.
        "RP^2": (rp2, 0, [1, 5, 5]),
        "Klein bottle": (_klein_bottle(), 0, [1, 15, 14]),
        "three discs on a circle": (join(corpus.polygon(3, "c"), SimplicialComplex.from_facets(
            [("x",), ("y",), ("z",)])), 0, [1, 0, 2]),
        "two triangles on a vertex": (corpus.wedge_fixture(), 0, [1, 0, 0]),
        # The orientable component alone is seeded.
        "RP^2 beside the torus": (_disjoint(rp2, corpus.torus()), 1, [2, 7, 6]),
    }


def test_coreduction_seeds_each_closed_orientable_component_at_its_top():
    """The rows of delta^{d-1} that the coreduction empties are the first
    cells of the closed orientable components of top cells, found by label
    in ``top_seeds``, and on every seeded complex here without torsion the
    core is the rank of the reduced cohomology.  The lift and projection,
    composed with the seeds' row operation in the top degree, are inverse
    cochain maps."""
    klein = _top_seed_cases()["Klein bottle"][0].integral_cohomology()
    assert (klein.betti, klein.torsion) == ((1, 1, 0), ((), (), (2,)))
    for name, (X, n_seeds, core) in _top_seed_cases().items():
        X = SimplicialComplex(X.vertices, X.facets)
        R = X._retraction()
        assert [t for t, row in enumerate(R.rows[X.dim - 1]) if not row] \
            == sorted(top_seeds(X)), name
        assert len(top_seeds(X)) == n_seeds, name
        assert list(map(len, R.core)) == core, name
        assert R.core[-1][:n_seeds] == list(R.seeds), name  # the top seeds first
        integral = X.integral_cohomology()
        if n_seeds and not any(integral.torsion):
            assert core == list(integral.betti), name
        if sum(X.f_vector) < 2000:
            assert_lift_and_projection(X)


def _assert_coreduce_matches_oracle(X: SimplicialComplex):
    assert_coreduce_matches_oracle([X.coboundary_rows(d) for d in range(X.dim)], X.f_vector)


def test_coreduce_cancels_the_pairs_of_the_plain_queue():
    """The inlined queue of ``simplicial.coreduce`` cancels the pairs of the
    plain one with a nested ``cancel`` (``oracles.coreduce_with_cancel``),
    in the same order, and leaves the same rows and live cells: on every
    corpus complex, L(3,1), the top-seed cases, RP^2 beside a disc and the
    empty complex."""
    actions = list(corpus.corpus_actions().values())
    fixtures = [corpus.full_triangle(), suspension(corpus.rp2_six_vertex()), corpus.one_point(),
                _rp2_beside_a_disc(), SimplicialComplex.empty()]
    fixtures += [X for X, _, _ in _top_seed_cases().values()]
    for X in [a.complex for a in actions] + fixtures:
        _assert_coreduce_matches_oracle(X)


@settings(max_examples=40, deadline=None)
@given(pure_complexes())
def test_coreduce_cancels_the_pairs_of_the_plain_queue_on_pure_complexes(X):
    _assert_coreduce_matches_oracle(X)


@settings(max_examples=40, deadline=None)
@given(small_actions())
def test_coreduce_cancels_the_pairs_of_the_plain_queue_on_small_actions(action):
    _assert_coreduce_matches_oracle(action.complex)


def _rp2_beside_a_disc() -> SimplicialComplex:
    """RP^2 (vertex 0, seeded first) beside a disc that collapses to a later seed."""
    return _disjoint(corpus.rp2_six_vertex(), join(corpus.polygon(5), corpus.one_point()))


def test_the_coreduction_is_a_strong_deformation_retraction():
    """``simplicial.Retraction`` over Q, F_3 and F_5: pi iota = 1, iota and
    pi are cochain maps, 1 - iota pi = delta h + h delta, h h = 0, h iota =
    0 and pi h = 0, and ``pull_back`` is pi^T, M^T in the top degree
    included (``oracles.assert_retraction``).  On the corpus complexes, the
    top-seed cases (L(3,1) and RP^2 beside the torus among them) and RP^2
    beside a disc, whose disc keeps a later vertex seed: an edge cancelled
    before it has lost the seed's column, so only the component's indicator
    lifts that seed to a cocycle."""
    X = _rp2_beside_a_disc()
    R = X._retraction()
    later = R.core[0][1:]
    assert len(later) == 1 and any(later[0] in X.coboundary_rows(0)[t]
                                   and later[0] not in R.rows[0][t]
                                   for t in R.down[1][0])
    complexes = [X, *(a.complex for a in corpus.corpus_actions().values())]
    complexes += [Y for name, (Y, _, _) in _top_seed_cases().items()
                  if not name.startswith("S^2 x S^2")]  # as in the corpus
    for Y in complexes:
        for p in (0, 3, 5):
            assert_retraction(Y, p)


@settings(max_examples=40, deadline=None)
@given(pure_complexes(), st.sampled_from([0, 3, 5]))
def test_the_coreduction_is_a_strong_deformation_retraction_on_pure_complexes(X, p):
    assert_retraction(X, p)


def test_top_seeded_routes_agree_with_the_full_rows():
    """Ranks over Q and F_p, Smith divisors, the p-local profile, cocycle
    bases and ``express``, g* and the cup pairings on complexes that are
    top-seeded and that are not, against the routes on X's full rows.  The
    corpus actions (circles, spheres, tori, S^2 x S^2) and L(3,1) are
    checked so by the corpus tests."""
    join_action = _join_action(corpus.sphere_rotation(3), corpus.free_polygon_action(3))
    cases = _top_seed_cases()
    actions = [join_action] + [trivial_action(cases[name][0], 3) for name in (
        "two spheres on a vertex", "three spheres on edges", "Klein bottle",
        "three discs on a circle", "two triangles on a vertex")]
    for action in actions:
        X = action.complex
        for p in (2, 3):
            _assert_reduced_routes_agree(X, p)
        for field in (QQ, GF(2), GF(3)):
            assert_gstar_conjugate(action, field)
            assert_pairings_congruent(X, field)


def test_hm_check_decides_all_but_the_vertex_links_by_counting(monkeypatch):
    """On S^2 x S^2 (Z/7) only the 64 vertex links (codimension 4) are built
    and eliminated; the other 4332 links are counted off the facets."""
    X = corpus.s2xs2_rotation(7).complex
    X = SimplicialComplex(X.vertices, X.facets)
    links, built = [], []
    real_link, real_init = simplicial.link, SimplicialComplex.__init__
    for module in (simplicial, theorems):
        monkeypatch.setattr(module, "link", lambda *a: links.append(a) or real_link(*a),
                            raising=False)
    monkeypatch.setattr(SimplicialComplex, "__init__",
                        lambda self, *a: built.append(a) or real_init(self, *a))
    assert homology_manifold_check(X, 7).orientable_hm
    assert len(links) <= X.n_simplices(0) == 64
    assert len(built) <= 64


def test_sphere_links_pass_on_their_core_with_no_rank(monkeypatch):
    """On a fresh S^2 x S^2 (Z/7) each of the 64 vertex links coreduces to
    one 3-cell and passes on that core: the only F_p ranks taken are the
    five of X's own coboundaries (orientability; delta^4 has no rows)."""
    X = corpus.s2xs2(7)
    X = SimplicialComplex(X.vertices, X.facets)
    calls = _record_engine_calls(monkeypatch, ("sparse_rank_modp",))
    assert homology_manifold_check(X, 7).orientable_hm
    assert sorted(n for _, n in calls) == sorted(X.n_simplices(k + 1) for k in range(X.dim + 1))


def test_hm_core_certificate_reads_every_degree():
    """S^3 beside a solid tetrahedron coreduces to vertex 0, one 3-cell and
    the tetrahedron's seed vertex: one top cell is not enough, and this link
    fails at both poles of the suspension."""
    Y = SimplicialComplex.from_facets(
        [*combinations(["a0", "a1", "a2", "a3", "a4"], 4), ("b0", "b1", "b2", "b3")])
    assert list(map(len, Y._retraction().core)) == [2, 0, 0, 1]
    X = suspension(Y)
    for p in (3, 5):
        assert {("N*",), ("S*",)} <= set(assert_hm_matches_oracle(X, p))


# The orbit route: theorem 4 passes its action's permutation, and each orbit
# of simplices is decided once.

def _free_triangle_join_torus() -> GroupAction:
    """The free Z/3 triangle joined with the torus, fixed: the triangle's
    vertices (link S^0 * T^2) and edges (link T^2) fail in free orbits."""
    X = join(corpus.polygon(3), corpus.torus())
    return validate_action(X, corpus.free_polygon_action(3).mapping, 3)


def _hexagon_join_two_squares() -> GroupAction:
    """The hexagon turned by two steps, joined with two disjoint squares,
    fixed.  A hexagon vertex has the link S^0 * (two squares): two spheres
    on two poles, connected with chi 2, which passes the surface count and
    fails only below its failed hexagon edges (link: the two squares).  In
    this vertex order c3 is first in its orbit {c3, c5, c1}, but neither
    hexagon edge at c3 is first in its own orbit."""
    hexagon = [f"c{i}" for i in (0, 2, 3, 1, 4, 5)]
    squares = [(f"{x}{i}", f"{x}{(i + 1) % 4}") for x in "ab" for i in range(4)]
    X = SimplicialComplex.from_facets(
        [(f"c{i}", f"c{(i + 1) % 6}", *e) for i in range(6) for e in squares],
        vertex_order=hexagon + [v for x in "ab" for v in (f"{x}0", f"{x}1", f"{x}2", f"{x}3")])
    return validate_action(X, {f"c{i}": f"c{(i + 2) % 6}" for i in range(6)}, 3)


@settings(max_examples=40, deadline=None)
@given(small_actions(), st.sampled_from([3, 5, 7]))
def test_hm_orbit_route_matches_rank_oracle_on_small_actions(action, p):
    assert_orbit_route_matches_oracle(action, p)


def test_hm_orbit_route_fails_whole_free_orbits():
    """Deciding an orbit at its first simplex must fail every member, and put
    the faces of every member below a failure."""
    assert assert_orbit_route_matches_oracle(_free_triangle_join_torus(), 3, 5) == dict.fromkeys(
        (3, 5), (("v0",), ("v1",), ("v2",), ("v0", "v1"), ("v0", "v2"), ("v1", "v2")))
    assert assert_orbit_route_matches_oracle(_hexagon_join_two_squares(), 3, 5) == dict.fromkeys(
        (3, 5), (("c0",), ("c2",), ("c3",), ("c1",), ("c4",), ("c5",),
                 ("c0", "c1"), ("c0", "c5"), ("c2", "c3"), ("c2", "c1"), ("c3", "c4"), ("c4", "c5")))


def _fresh_action(action: GroupAction) -> GroupAction:
    """The action on a copy of its complex, with no cached report."""
    X = action.complex
    return GroupAction(SimplicialComplex(X.vertices, X.facets), action.p, action.vertex_map)


def test_cold_theorem4_builds_one_vertex_link_per_orbit(monkeypatch):
    """A cold theorem 4 on S^2 x S^2 (Z/7) builds the links of the 8 fixed
    vertices and of one vertex in each of the 8 free orbits: 16 of the 64
    vertex links that the check without the permutation builds."""
    action = _fresh_action(corpus.s2xs2_rotation(7))
    X = action.complex
    built, real_init = [], SimplicialComplex.__init__
    monkeypatch.setattr(SimplicialComplex, "__init__",
                        lambda self, *a: built.append(a[0] is X.vertices) or real_init(self, *a))
    assert check_theorem4(action).verdict == "PASS"
    assert built.count(True) == 16
    assert sum(1 for v, w in action.vertex_map if v == w) == 8


def test_hm_orbit_route_refuses_an_action_on_another_complex(monkeypatch):
    """The orbits come from the action's own complex, so an action on a
    copy of X, even an equal one, raises before any link is decided and
    caches nothing on X, warm or cold.  That a vertex map is an automorphism
    is ``validate_action``'s to check (tests/test_group_action.py)."""
    action = _fresh_action(corpus.sphere_rotation(3))
    decided = []
    real = theorems._link_passes
    monkeypatch.setattr(theorems, "_link_passes", lambda *a: decided.append(a) or real(*a))
    copy = SimplicialComplex(action.complex.vertices, action.complex.facets)
    with pytest.raises(ValueError, match="not on this complex"):
        homology_manifold_check(copy, 3, action)
    assert not decided and not copy._cache
    assert homology_manifold_check(copy, 3).is_hm and decided
    with pytest.raises(ValueError, match="not on this complex"):
        homology_manifold_check(copy, 3, action)


def _join_action(a: GroupAction, b: GroupAction) -> GroupAction:
    """Both generators acting on A * B, under the labels that ``join`` gives."""
    X = join(a.complex, b.complex)
    left, right = ("L:", "R:") if set(a.complex.vertices) & set(b.complex.vertices) else ("", "")
    sigma = {left + v: left + w for v, w in a.vertex_map} | {right + v: right + w for v, w in b.vertex_map}
    return validate_action(X, sigma, a.p)


def _reduced_betti(X: SimplicialComplex, field) -> list[int]:
    betti = list(X.cohomology(field).betti)
    return [betti[0] - 1, *betti[1:]] if betti else []


def test_theorems_hold_on_pairwise_joins_of_the_p3_corpus_actions():
    """The 36 pairwise joins of the p = 3 corpus actions give no applicable
    FAIL from theorems 2 and 4; L(g) = chi(X^g) for g = sigma and sigma^2;
    the localization check holds; the T/F/R blocks of g* fill each
    H^i(X;F_3); and over F_3 and Q the reduced Betti numbers follow the join
    formula, H~^{n+1}(A * B) = sum_{i+j=n} H~^i(A) (x) H~^j(B).  The joins
    with ``sphere_factor_p3`` or ``s2xs2_rotation_p3`` (5,625 to 182,844
    cells) are left out for time; most others are top-seeded manifolds."""
    actions = [a for name, a in corpus.corpus_actions().items()
               if a.p == 3 and name not in ("sphere_factor_p3", "s2xs2_rotation_p3")]
    assert len(actions) == 9
    verdicts = []
    for a, b in combinations(actions, 2):
        j = _join_action(a, b)
        verdicts += [check_theorem2(j).verdict, check_theorem4(j).verdict]
        for g in (j, j.power(2)):
            fixed = fixed_set_cohomology(g, QQ).betti
            assert lefschetz_number(g) == sum((-1) ** i * x for i, x in enumerate(fixed)), g
        assert localization_check(j)["ok"]
        tfr = tfr_decomposition(j)
        assert [t + 3 * f + 2 * r + sum(o) for t, f, r, o in zip(tfr.t, tfr.f, tfr.r, tfr.other)] \
            == list(j.complex.cohomology(GF(3)).betti)
        for field in (GF(3), QQ):
            ra, rb = _reduced_betti(a.complex, field), _reduced_betti(b.complex, field)
            expected = [0] * (j.complex.dim + 1)
            for i, x in enumerate(ra):
                for k, y in enumerate(rb):
                    expected[i + k + 1] += x * y
            assert _reduced_betti(j.complex, field) == expected, (j, field)
    assert "FAIL" not in verdicts and verdicts.count("PASS") == 24


def test_transfer_matches_the_oracles_on_pairwise_joins_of_the_p3_corpus_actions():
    """The Borel dimensions of the transfer onto X's core, n = 0..dim+3, equal
    those of the G-stable heap (``oracles.reduced_per_cell``) on the 36 joins
    of ``test_theorems_hold_on_pairwise_joins_of_the_p3_corpus_actions``, and
    those of the unreduced model on the joins below 1,000 cells."""
    actions = [a for name, a in corpus.corpus_actions().items()
               if a.p == 3 and name not in ("sphere_factor_p3", "s2xs2_rotation_p3")]
    unreduced = 0
    for a, b in combinations(actions, 2):
        j = _join_action(a, b)
        degrees = range(j.complex.dim + 4)
        dims = _borel_dims(TransferredComplex.of_action(j), degrees)
        assert dims == _borel_dims(borel_model(reduced_per_cell(PermutationComplex.of_action(j))),
                                   degrees), j
        if sum(j.complex.f_vector) < 1000:
            unreduced += 1
            assert dims == _borel_dims(unreduced_model(j), degrees), j
    assert unreduced == 22


def _borel_dims(model, degrees) -> list[int]:
    K = BorelComplex(model)
    return [K.cohomology_dim(n) for n in degrees]


def test_hm_passes_on_joins_of_spheres():
    """A join of spheres is a sphere, so every link passes, with the
    action's orbits and without them; links of codimension 4 and above
    reach the core certificate."""
    joins = [_join_action(corpus.s3_free_action(), corpus.sphere_rotation(3)),
             _join_action(corpus.sphere_rotation(5), corpus.sphere_rotation(5)),
             _join_action(corpus.sphere_rotation(3), corpus.free_polygon_action(3))]
    assert [a.complex.f_vector for a in joins] == [(11, 54, 153, 270, 297, 189, 54),
                                                   (14, 79, 230, 365, 300, 100),
                                                   (8, 27, 48, 45, 18)]
    for a in joins:
        fresh = _fresh_action(a)
        report = homology_manifold_check(fresh.complex, a.p, fresh)
        assert report == homology_manifold_check(_fresh_action(a).complex, a.p)
        assert report.orientable_hm and report.dim == a.complex.dim


def _degrees_by_row_count(X: SimplicialComplex) -> dict[int, int]:
    """k for each row count n_{k+1} of X's nonzero coboundaries delta^k.

    Every route hands the engine delta^k with its n_{k+1} rows, as new row
    dicts, so a call's row count names the degree.  The vertex links of
    S^2 x S^2 have far fewer cells, so their calls match none.
    """
    degree_of = {X.n_simplices(k + 1): k for k in range(X.dim)}
    assert len(degree_of) == X.dim
    return degree_of


def _record_engine_calls(monkeypatch, names) -> list:
    calls = []
    for name in names:
        real = getattr(exactalg, name)
        monkeypatch.setattr(exactalg, name, lambda rows, *a, name=name, real=real:
                            calls.append((name, len(rows))) or real(rows, *a))
    return calls


def test_theorems_2_and_4_eliminate_no_coboundary_twice(monkeypatch):
    """On S^2 x S^2 (Z/7) the Smith pass that theorem 2's Bockstein
    condition runs gives every F_p and Q rank of delta^0..delta^3 that the
    two theorems ask for later, orientability included: no rank elimination
    runs on one of the complex's own nonzero coboundaries."""
    action = corpus.s2xs2_rotation(7)
    X = SimplicialComplex(action.complex.vertices, action.complex.facets)
    fresh = GroupAction(X, 7, action.vertex_map)
    degree_of = _degrees_by_row_count(X)
    calls = _record_engine_calls(monkeypatch, ("sparse_rank_q", "sparse_rank_modp"))
    assert check_theorem2(fresh).verdict == check_theorem4(fresh).verdict == "PASS"
    assert not [n for _, n in calls if n in degree_of]


def test_cold_theorem4_eliminates_each_coboundary_once(monkeypatch):
    """A cold theorem 4 on S^2 x S^2 (Z/7) reads the F_p ranks (p exceeds the
    total Betti number) and the Q ranks (orientability, the rhs) off one
    Smith pass per coboundary: of the complex's own nonzero
    coboundaries (delta^4 has no rows), none is eliminated over Q and none
    twice.  Link ranks are not counted."""
    action = corpus.s2xs2_rotation(7)
    X = SimplicialComplex(action.complex.vertices, action.complex.facets)
    degree_of = _degrees_by_row_count(X)
    calls = _record_engine_calls(
        monkeypatch, ("sparse_rank_q", "sparse_rank_modp", "sparse_smith_divisors"))
    assert check_theorem4(GroupAction(X, 7, action.vertex_map)).verdict == "PASS"
    on_x = [(name, degree_of[n]) for name, n in calls if n in degree_of]
    assert [name for name, _ in on_x] == ["sparse_smith_divisors"] * 4
    assert sorted(k for _, k in on_x) == [0, 1, 2, 3]


def test_theorem4_sphere_rotations():
    for p in (3, 5):
        rep = check_theorem4(corpus.sphere_rotation(p))
        assert rep.applicable, rep
        assert rep.lhs == 2 and rep.rhs == 2
        assert rep.verdict == "PASS"


def test_theorem4_torus_rotation_p5():
    rep = check_theorem4(corpus.torus_rotation(5))
    assert rep.applicable
    assert rep.lhs == 0 and rep.rhs == 4
    assert rep.verdict == "PASS"


def test_theorem4_torus_p3_not_applicable():
    rep = check_theorem4(corpus.torus_rotation(3))
    assert not rep.applicable  # p = 3 < dim H^* = 4
    hyp = [h for h in rep.hypotheses if h.name == "p_exceeds_total_betti"][0]
    assert hyp.satisfied is False
    skipped = [h for h in rep.hypotheses if h.name == "orientable_homology_manifold"][0]
    assert skipped.satisfied is None  # expensive check short-circuited


def test_theorem4_wedge_not_applicable():
    rep = check_theorem4(trivial_action(corpus.wedge_fixture(), 5))
    assert not rep.applicable
    hm = [h for h in rep.hypotheses if h.name == "orientable_homology_manifold"][0]
    assert hm.satisfied is False


def test_even_codim_sphere_rotation():
    rep = check_even_codim(corpus.sphere_rotation(3))
    assert rep.ok
    assert len(rep.components) == 2
    assert all(c.codimension == 2 for c in rep.components)


def test_even_codim_trivial():
    rep = check_even_codim(corpus.trivial_sphere_action(3))
    assert rep.ok
    assert rep.components[0].codimension == 0


def test_even_codim_sphere_factor():
    rep = check_even_codim(corpus.second_factor_sphere_action())
    assert rep.ok
    assert len(rep.components) == 2
    assert all(c.component_dim == 1 and c.codimension == 2 for c in rep.components)


def test_smith_inequality_samples():
    for a in (
        corpus.sphere_rotation(3),
        corpus.free_polygon_action(5),
        corpus.wedge_spheres_action(),
        corpus.trivial_torus_action(3),
    ):
        assert smith_inequality_check(a)["ok"]


def test_cross_route_consistency_trivial_actions():
    # Theorem-2 route and the Euler-characteristic route agree on trivial
    # even-dimensional instances.
    for a in (corpus.trivial_torus_action(3), corpus.trivial_sphere_action(3)):
        rep = check_theorem2(a)
        route = euler_route_congruence(a.complex, a.p)
        assert rep.applicable and route["ok"] == (rep.verdict == "PASS")


def test_lefschetz_equals_fixed_chi_spotcheck():
    for a in (corpus.sphere_rotation(3), corpus.disc_rotation(), corpus.s3_free_action()):
        reg_chi = fixed_set_cohomology(a, QQ)
        lam = lefschetz_number(a)
        # chi of fixed set equals alternating sum over its Betti numbers.
        chi = sum((-1) ** i * b for i, b in enumerate(reg_chi.betti))
        assert lam == chi


def test_report_lines_format():
    rep = check_theorem2(corpus.sphere_rotation(3), subject="s2/rot p=3")
    lines = rep.lines()
    assert lines[0] == "THEOREM 2 on s2/rot p=3"
    assert lines[-1] == "CHECK theorem2: PASS — 2 vs 2 (mod 4)"
