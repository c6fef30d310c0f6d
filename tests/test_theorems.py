"""Theorem pipelines: hypothesis checklists, congruence verdicts, guards."""

from __future__ import annotations

import numpy as np
from fractions import Fraction

from betticong import corpus
from betticong.exactalg import QQ
from betticong.group_action import lefschetz_number, fixed_set_cohomology, trivial_action
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
    S = np.array([[0, Fraction(1)], [Fraction(-1), 0]], dtype=object)
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
