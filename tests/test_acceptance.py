"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one summary line per
criterion.  Nothing here is tolerance-based: every comparison is exact.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction


from betticong import corpus
from betticong.equivariant import group_cohomology_dims, localization_check
from betticong.exactalg import GF, QQ
from betticong.group_action import (
    bockstein_condition,
    fixed_set_cohomology,
    induced_cohomology_action,
    lefschetz_number,
    tfr_decomposition,
    trivial_action,
)
from betticong.pd_algebra import (
    check_derivation,
    check_pd,
    euler_and_dim,
    homology,
    lemma_even_congruence,
    odd_congruence,
    odd_model,
    odd_model_differential,
    random_base_change,
    random_differential_algebra,
    random_pd_algebra,
)
from betticong.theorems import (
    check_even_codim,
    check_theorem2,
    check_theorem4,
    euler_route_congruence,
    homology_manifold_check,
    smith_inequality_check,
)


def _announce(number: int, name: str):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# 1 ------------------------------------------------------------------------

def test_criterion_1_lemma_2_2_property_suite():
    """>=100 even-dimensional PD algebras per field: dim = chi mod 4, always."""
    per_field = 100
    for seed, field in ((11, QQ), (13, GF(3)), (17, GF(5)), (19, GF(7))):
        rng = random.Random(seed)
        for _ in range(per_field):
            A, phi = random_pd_algebra(rng, field, even_dim=True)
            verdict = lemma_even_congruence(A, phi)
            assert verdict.holds, (field.name, A.bidegrees)
            assert phi.formal_dim % 2 == 0
    _announce(1, "even-dimension congruence suite, 100 algebras x 4 fields")


# 2 ------------------------------------------------------------------------

def test_criterion_2_prop_2_3_property_suite():
    """>=100 differential PD algebras: homology zero or PD of the same dim."""
    rng = random.Random(29)
    fields = [QQ, GF(3), GF(5), GF(7)]
    count = 0
    while count < 100:
        field = fields[count % len(fields)]
        A, phi, delta = random_differential_algebra(rng, field)
        assert check_derivation(A, delta).is_valid
        H, phi_H = homology(A, delta, phi)
        if H is not None:
            res = check_pd(H, phi_H)
            assert res.is_pd, (field.name, A.bidegrees, delta.shift)
            assert res.formal_dim == phi.formal_dim
        _, chi_a = euler_and_dim(A)
        chi_h = euler_and_dim(H)[1] if H is not None else 0
        assert chi_a == chi_h
        count += 1
    _announce(2, "homology-preservation suite, 100 differential algebras")


# 3 ------------------------------------------------------------------------

def test_criterion_3_prop_2_4_and_1221_fixture():
    """Odd-case congruence on every hypothesis-satisfying instance + fixture."""
    # The surgered S^1 x S^2m Betti profile (1,2,2,1): 6 = 2 mod 4.
    A, phi, C = odd_model(QQ, m=1, r=2)
    S = [[0, Fraction(1)], [Fraction(-1), 0]]
    rep = odd_congruence(A, odd_model_differential(A, C, S), phi)
    assert rep.applicable and rep.dim_total == 6 and rep.dim_homology == 2
    assert rep.congruent

    rng = random.Random(31)
    ran = 0
    while ran < 100:
        r = rng.choice([1, 2, 3])
        m = rng.choice([1, 2, 3])
        field = rng.choice([QQ, GF(3), GF(5), GF(7)])
        while True:
            if field is QQ:
                Cr = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
            else:
                Cr = [[rng.randrange(field.p) for _ in range(r)] for _ in range(r)]
            from betticong.exactalg import rank

            if rank(Cr, field) == r:
                break
        Sk = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                c = Fraction(rng.randint(-3, 3)) if field is QQ else rng.randrange(field.p)
                Sk[i][j] = c
                Sk[j][i] = -c
        Am, phim, Cm = odd_model(field, m=m, r=r, pairing=Cr)
        delta = odd_model_differential(Am, Cm, Sk)
        Am, phim, delta = random_base_change(Am, phim, delta, rng)
        rep = odd_congruence(Am, delta, phim)
        assert rep.applicable, (field.name, m, r)
        assert rep.congruent, (field.name, m, r)
        assert rep.gamma_skew and rep.gamma_nondegenerate
        ran += 1
    _announce(3, "odd-dimension congruence suite incl. the (1,2,2,1) -> 2 fixture")


# 4 ------------------------------------------------------------------------

def test_criterion_4_lefschetz_identity():
    """Lefschetz number equals the fixed-set Euler characteristic, all powers."""
    actions = corpus.lefschetz_corpus()
    assert len(actions) >= 8
    for name, action in actions.items():
        for k in range(1, action.p):
            power = action.power(k)
            lam = lefschetz_number(power)
            betti = fixed_set_cohomology(power, QQ).betti
            chi = sum((-1) ** i * b for i, b in enumerate(betti))
            assert lam == chi, (name, k, lam, chi)
    _announce(4, f"Lefschetz identity over {len(actions)} actions, all powers")


# 5 ------------------------------------------------------------------------

def test_criterion_5_prop_4_1_block_structure():
    """Bockstein-true corpus: blocks within {1, p-1, p}; lens fixture fails."""
    for name, action in corpus.corpus_actions().items():
        decomp = tfr_decomposition(action)
        assert decomp.bockstein_ok, name  # corpus complexes are torsion-clean
        p = action.p
        betti = action.complex.cohomology(GF(p)).betti
        for i in range(len(decomp.t)):
            assert not decomp.other[i], (name, i, decomp.other[i])
            # Blocks of sizes 1, p and p - 1 fill H^i(X;F_p).
            assert decomp.t[i] + p * decomp.f[i] + (p - 1) * decomp.r[i] == betti[i], (name, i)
    lens = corpus.lens_space()
    assert not bockstein_condition(lens, 3)
    lens_decomp = tfr_decomposition(trivial_action(lens, 3))
    assert lens_decomp.hypothesis_failing
    _announce(5, "block structure in {1, p-1, p} + lens hypothesis failure")


# 6 ------------------------------------------------------------------------

def test_criterion_6_theorem2_congruences():
    expected = {
        "s2_rotation_p3": (2, 2),
        "s2_rotation_p5": (2, 2),
        "torus_rotation_p3": (0, 4),
        "s2xs2_rotation_p3": (4, 4),
        "s2xs2_rotation_p7": (4, 4),
    }
    actions = corpus.corpus_actions()
    for name, (lhs, rhs) in expected.items():
        rep = check_theorem2(actions[name], subject=name)
        assert rep.applicable, name
        assert (rep.lhs, rep.rhs) == (lhs, rhs), (name, rep.lhs, rep.rhs)
        assert rep.verdict == "PASS", name
    for name in ("trivial_torus_p3", "trivial_s2_p3", "point_trivial_p3"):
        rep = check_theorem2(actions[name], subject=name)
        assert rep.applicable and rep.lhs == rep.rhs
        assert rep.verdict == "PASS"
    # Every applicable corpus instance passes.
    for name, action in actions.items():
        rep = check_theorem2(action, subject=name)
        if rep.applicable:
            assert rep.verdict == "PASS", name
    _announce(6, "Theorem 2 congruence on all applicable corpus instances")


# 7 ------------------------------------------------------------------------

def test_criterion_7_counterexample_guards():
    """Free odd-sphere actions stay NOT APPLICABLE and congruence-violating."""
    actions = corpus.corpus_actions()
    for name in ("free_pentagon_p5", "s3_join_free_p3"):
        rep = check_theorem2(actions[name], subject=name)
        assert not rep.applicable, name
        assert rep.verdict == "N/A"
        assert rep.lhs == 0 and rep.rhs == 2, name
        assert (rep.lhs - rep.rhs) % 4 != 0  # a genuine mod-4 violation
        parity = [h for h in rep.hypotheses if h.name == "parity"][0]
        assert parity.satisfied is False
    _announce(7, "free-sphere guards: X^G nonempty is necessary")


# 8 ------------------------------------------------------------------------

def test_criterion_8_localization_stabilization():
    for name, action in corpus.corpus_actions().items():
        start = time.monotonic()
        res = localization_check(action)
        elapsed = time.monotonic() - start
        assert res["ok"], (name, res)
        assert elapsed < 30.0, (name, elapsed)
    _announce(8, "localization stabilization on every corpus action")


# 9 ------------------------------------------------------------------------

def test_criterion_9_e2bar_consistency():
    for name, action in corpus.corpus_actions().items():
        p = action.p
        decomp = tfr_decomposition(action)
        mats = induced_cohomology_action(action, GF(p))
        for mu, M in enumerate(mats):
            even, odd = group_cohomology_dims(M, p) if M else (0, 0)
            assert even == decomp.t[mu], (name, mu)
            assert odd == decomp.r[mu], (name, mu)
    _announce(9, "E2-bar consistency across the corpus")


# 10 -----------------------------------------------------------------------

def test_criterion_10_theorem4_pipeline():
    actions = corpus.corpus_actions()
    # Homology-manifold verification.
    assert homology_manifold_check(corpus.sphere_suspension(3), 3).orientable_hm
    assert homology_manifold_check(corpus.grid_torus(5, 3), 5).orientable_hm
    assert homology_manifold_check(corpus.s2xs2(7), 7).orientable_hm
    wedge = homology_manifold_check(corpus.wedge_fixture(), 5)
    assert not wedge.is_hm and ("w0",) in wedge.failures
    # Even-codimension checks on the fixed components of the hm instances.
    for name in ("s2_rotation_p3", "s2_rotation_p5", "torus_rotation_p5",
                 "s2xs2_rotation_p7", "trivial_s2_p3"):
        rep = check_even_codim(actions[name])
        assert rep.ok, name
        for comp in rep.components:
            assert comp.codimension % 2 == 0
    # Rational congruence on every applicable instance.
    expected = {
        "s2_rotation_p3": (2, 2),
        "s2_rotation_p5": (2, 2),
        "torus_rotation_p5": (0, 4),
        "s2xs2_rotation_p7": (4, 4),
        "trivial_s2_p3": (2, 2),
    }
    applicable_seen = set()
    for name, action in actions.items():
        rep = check_theorem4(action, subject=name)
        if rep.applicable:
            applicable_seen.add(name)
            assert rep.verdict == "PASS", name
            if name in expected:
                assert (rep.lhs, rep.rhs) == expected[name], name
    assert set(expected) <= applicable_seen
    wr = check_theorem4(trivial_action(corpus.wedge_fixture(), 5))
    assert wr.verdict == "N/A"
    _announce(10, "Theorem 4 pipeline: manifolds, codimension, congruence")


# 11 -----------------------------------------------------------------------

def test_criterion_11_cross_route_consistency():
    for name in ("trivial_torus_p3", "trivial_s2_p3", "point_trivial_p3"):
        action = corpus.corpus_actions()[name]
        X = action.complex
        rep = check_theorem2(action, subject=name)
        route = euler_route_congruence(X, action.p)
        assert rep.applicable
        # For trivial actions the Theorem 2 right side is dim H^*(X;F_p).
        assert rep.rhs == X.cohomology(GF(action.p)).total
        assert (rep.verdict == "PASS") == route["ok"], name
        assert route["ok"]
    _announce(11, "Euler-characteristic route agrees with Theorem 2 route")


# Supporting invariant: the Smith inequality across the corpus.

def test_smith_inequality_entire_corpus():
    for name, action in corpus.corpus_actions().items():
        res = smith_inequality_check(action)
        assert res["ok"], (name, res)
