"""Bigraded PD algebra tests: duality, congruences, derivations, homology.

The sphere/torus model Gram matrices are frozen by hand (direct expansion
of the pairing) before being compared with the library computation.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betticong import corpus, exactalg, pd_algebra
from betticong.exactalg import GF, QQ, field_matrix, rank
from betticong.pd_algebra import (
    Differential,
    check_derivation,
    check_pd,
    euler_and_dim,
    homology,
    lemma_even_congruence,
    make_orientation,
    odd_congruence,
    odd_model,
    odd_model_differential,
    pairing_matrix,
    random_base_change,
    random_differential_algebra,
    random_pd_algebra,
    tensor,
    _gram_matrix,
    _leibniz,
    _single_generator_model,
    _tensor_orientation,
)
from betticong.simplicial import cup_pairing

import oracles
from oracles import assert_complements, kernel_basis


_FIELDS = {"Q": QQ, "F3": GF(3), "F5": GF(5), "F7": GF(7)}


def zero_differential(A, shift=(0, -1)) -> Differential:
    return Differential(tuple({} for _ in range(A.dim)), shift)


def sphere_model(field=QQ, n=2):
    """k . 1 + k . v with v at (0, n), v^2 = 0."""
    A = _single_generator_model(field, 0, n, 2)
    phi = _tensor_orientation(A)
    return A, phi


def torus_model(field=QQ):
    """Exterior algebra on two degree-(0,1) generators."""
    A = tensor(_single_generator_model(field, 0, 1, 2), _single_generator_model(field, 0, 1, 2))
    phi = _tensor_orientation(A)
    return A, phi


def cp2_model(field=QQ):
    A = _single_generator_model(field, 0, 2, 3)
    phi = _tensor_orientation(A)
    return A, phi


# ---------------------------------------------------------------------------
# check_pd
# ---------------------------------------------------------------------------

def test_sphere_model_pd():
    A, phi = sphere_model()
    assert not A.validate()
    res = check_pd(A, phi)
    assert res.is_pd and res.formal_dim == 2


def test_torus_model_pd_with_gram_oracle():
    A, phi = torus_model()
    assert not A.validate()
    # Hand-expanded 4x4 Gram in basis (1, b, a, ab): phi(1*ab)=1,
    # phi(b*a) = -1, phi(a*b) = +1, all else 0.
    expected = np.zeros((4, 4), dtype=object)
    expected[0, 3] = expected[3, 0] = Fraction(1)
    expected[1, 2] = Fraction(-1)
    expected[2, 1] = Fraction(1)
    G = np.zeros((4, 4), dtype=object)
    for i in range(4):
        for j in range(4):
            G[i, j] = phi(A.table.get((i, j), {}))
    assert (G == expected).all()
    assert rank(G.tolist(), QQ) == 4
    res = check_pd(A, phi)
    assert res.is_pd and res.formal_dim == 2


def test_orientation_must_be_supported_on_top():
    A, _ = sphere_model()
    with pytest.raises(ValueError):
        make_orientation(A, {0: 1, 1: 1})  # support spread over two bidegrees
    with pytest.raises(ValueError):
        make_orientation(A, {0: 0, 1: 0})  # zero functional
    # Supported on (0,0) alone: a legal functional, but duality fails.
    phi0 = make_orientation(A, {0: 1})
    assert phi0.formal_dim == 0
    assert not check_pd(A, phi0).nondegenerate


def test_truncated_unit_only_algebra_has_no_orientation():
    # Dropping v from the sphere model leaves k in degree (0,0) alone:
    # no functional供 at a positive (0,n), and phi = 0 is rejected.
    A = _single_generator_model(QQ, 0, 2, 1)
    with pytest.raises(ValueError):
        make_orientation(A, {0: 0})


def test_pairing_matrix_is_the_block_of_the_gram_matrix():
    """``pairing_matrix(A, phi, i)`` reads its block off the table: it is the
    block of ``_gram_matrix`` on (0, i) x (0, n - i) for every i, on the
    corpus rings over Q, F3 and their own F_p and on random PD algebras."""
    def assert_blocks(A, phi):
        G, n = _gram_matrix(A, phi), phi.formal_dim
        for i in range(n + 1):
            assert pairing_matrix(A, phi, i) == [[G[a][b] for b in A.component(0, n - i)]
                                                 for a in A.component(0, i)], (A.field, i)

    for a in corpus.corpus_actions().values():
        for field in dict.fromkeys([QQ, GF(3), GF(a.p)]):
            A, phi = cup_pairing(a.complex, field)
            if phi is not None:
                assert_blocks(A, phi)
    rng = random.Random(41)
    for field in _FIELDS.values():
        for _ in range(6):
            assert_blocks(*random_pd_algebra(rng, field, even_dim=None))


# ---------------------------------------------------------------------------
# euler_and_dim / even-dimension congruence
# ---------------------------------------------------------------------------

def test_euler_and_dim_models():
    assert euler_and_dim(sphere_model()[0]) == (2, 2)
    assert euler_and_dim(torus_model()[0]) == (4, 0)
    assert euler_and_dim(cp2_model()[0]) == (3, 3)


def test_even_congruence_sphere_torus():
    for build in (sphere_model, torus_model):
        A, phi = build()
        v = lemma_even_congruence(A, phi)
        assert v.holds


def test_even_congruence_rejects_odd_dim():
    A, phi = sphere_model(n=3)
    with pytest.raises(ValueError, match="even"):
        lemma_even_congruence(A, phi)


def test_even_congruence_rejects_char2():
    A, phi = sphere_model(GF(2))
    with pytest.raises(ValueError, match="characteristic 2"):
        lemma_even_congruence(A, phi)


def test_even_congruence_random_f5():
    rng = random.Random(105)
    for _ in range(25):
        A, phi = random_pd_algebra(rng, GF(5), even_dim=True)
        assert lemma_even_congruence(A, phi).holds


def test_pd_symmetry_of_component_dims():
    rng = random.Random(7)
    for _ in range(10):
        A, phi = random_pd_algebra(rng, QQ, even_dim=None)
        n = phi.formal_dim
        for (e, j), idxs in A._components.items():
            assert len(idxs) == len(A.component(e, n - j)), (e, j, n)


# ---------------------------------------------------------------------------
# the sparse structure constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_sparse_table_and_product_match_the_bilinear_oracle(field):
    """Each stored product is a nonzero {c: coeff} in canonical form, and
    product(x, y)_c = sum over (a, b) of x_a y_b t_ab^c."""
    rng = random.Random(37)
    for _ in range(3):
        for A in (random_pd_algebra(rng, field)[0], random_differential_algebra(rng, field)[0]):
            n = A.dim
            for (a, b), prod in A.table.items():
                assert 0 <= a < n and 0 <= b < n and isinstance(prod, dict) and prod
                assert all(0 <= c < n and x and field.reduce(x) == x for c, x in prod.items())
            x, y = ({a: v for a in range(n) if (v := field.coerce(rng.randint(-3, 3)))}
                    for _ in range(2))

            def oracle(c):
                return field.reduce(sum(x.get(a, 0) * y.get(b, 0) * A.table.get((a, b), {}).get(c, 0)
                                        for a in range(n) for b in range(n)))

            assert A.product(x, y) == {c: v for c in range(n) if (v := oracle(c))}


def _drawn(kind: str, name: str, n: int):
    """((A, phi, delta), the generator's state after it) from
    ``random.Random("<kind>/<field>/<n>")``, seeded as ``perfbench``'s
    population is; delta is None for an even algebra."""
    rng = random.Random(f"{kind}/{name}/{n}")
    if kind == "even":
        return (*random_pd_algebra(rng, _FIELDS[name], even_dim=True), None), rng.getstate()
    return random_differential_algebra(rng, _FIELDS[name]), rng.getstate()


def _one_entry_changed(A, delta: Differential, rng) -> Differential:
    """delta with its coefficient at one homogeneous position raised by 1.
    Where delta's shift reaches no basis element delta is 0, and it is taken
    at the shift from a random class onto the unit instead."""
    cols, (de, dj) = [dict(col) for col in delta.columns], delta.shift
    spots = [(j, i) for j, (e, d) in enumerate(A.bidegrees) for i in A.component(e + de, d + dj)]
    if not spots:
        j = rng.randrange(1, A.dim)
        (de, dj), spots = (A.bidegrees[j][0], -A.bidegrees[j][1]), [(j, A.unit_index)]
    j, i = rng.choice(spots)
    if x := A.field.reduce(cols[j].pop(i, 0) + A.field.one):
        cols[j][i] = x
    return Differential(tuple(cols), (de, dj))


def test_kernels_over_the_nonzero_products_match_the_per_pair_oracles(monkeypatch):
    """The population's algebras (dimensions 2 to 32, 12 and 16 among them)
    over Q, F3, F5 and F7 come out equal as dicts, table, orientation and
    differential, from the same draws of the generator, when generated with
    the per-pair kernels of ``tests/oracles.py`` in place of the library's;
    and ``check_derivation`` reports what the oracle reports, on the valid
    delta and on delta with one entry changed, where ``_leibniz`` equals the
    oracle's on every pair."""
    keys = [(kind, name, n) for kind in ("even", "diff") for name in _FIELDS for n in range(24)]
    drawn = {key: _drawn(*key) for key in keys}
    with monkeypatch.context() as m:
        m.setattr(pd_algebra, "random_base_change", oracles.random_base_change)
        m.setattr(pd_algebra, "check_derivation", oracles.check_derivation)
        m.setattr(pd_algebra, "_leibniz", oracles.leibniz)
        m.setattr(pd_algebra, "_apply", oracles.apply_columns)
        m.setattr(pd_algebra.BigradedAlgebra, "product", oracles.algebra_product)
        expected = {key: _drawn(*key) for key in keys}
    rng, failures = random.Random(29), set()
    for key in keys:
        ((A, phi, delta), state), ((B, psi, eps), expected_state) = drawn[key], expected[key]
        assert state == expected_state, key
        assert (A.table, A.bidegrees, A.unit_index) == (B.table, B.bidegrees, B.unit_index), key
        assert (phi.values, phi.formal_dim) == (psi.values, psi.formal_dim), key
        if delta is None:
            assert eps is None
            delta = zero_differential(A)
        else:
            assert (delta.columns, delta.shift) == (eps.columns, eps.shift), key
        changed = _one_entry_changed(A, delta, rng)
        for d in (delta, changed):
            report = check_derivation(A, d)
            assert report == oracles.check_derivation(A, d), key
            failures.update(v.split(" at ")[0] for v in report.violations)
        for a, b in itertools.product(range(A.dim), repeat=2):
            assert _leibniz(A, changed.columns, a, b) == oracles.leibniz(A, changed.columns, a, b)
    assert {algebra[0].dim for algebra, _ in drawn.values()} >= {12, 16}
    assert failures == {"delta^2 != 0", "Leibniz fails"}


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_zero_differential_valid():
    A, _ = torus_model()
    assert check_derivation(A, zero_differential(A)).is_valid


def test_sphere_delta_v_equals_one():
    # Direct expansion oracle: with v of odd total degree, delta(v) = 1 obeys
    # delta(v*v) = 0 = 1*v - v*1 and delta^2 = 0.  (For even total degree the
    # signed Leibniz rule at (v, v) forces 2 delta(v) v = 0, so only the zero
    # derivation exists; checked below.)
    A, _ = sphere_model(n=3)
    columns = ({}, {0: Fraction(1)})  # delta(v) = 1
    assert check_derivation(A, Differential(columns, shift=(0, -3))).is_valid
    # Same with the odd generator carried by the first grading.
    B = _single_generator_model(QQ, 1, 2, 2)
    assert check_derivation(B, Differential(columns, shift=(1, -2))).is_valid
    # Even-total generator: delta(v) = 1 violates Leibniz at (v, v).
    A2, _ = sphere_model(n=2)
    rep = check_derivation(A2, Differential(columns, shift=(0, -2)))
    assert not rep.is_valid and any("Leibniz" in v for v in rep.violations)


def test_broken_leibniz_reported():
    # Torus model with delta(a) = 1, delta(b) = 0 but delta(ab) forced 0:
    # Leibniz demands delta(ab) = b, so the pair is reported.
    A, _ = torus_model()
    # delta(a) = 1 (basis order 1, b, a, ab)
    delta = Differential(({}, {}, {0: Fraction(1)}, {}), shift=(0, -1))
    rep = check_derivation(A, delta)
    assert not rep.is_valid
    assert any("Leibniz" in v for v in rep.violations)


def test_derivation_must_lower_grading():
    A, _ = sphere_model()
    delta = Differential(({}, {}), shift=(0, 0))
    rep = check_derivation(A, delta)
    assert not rep.is_valid


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def test_homology_zero_differential_is_identity():
    A, phi = torus_model()
    H, phi_H = homology(A, zero_differential(A), phi)
    assert H.dim == A.dim
    assert check_pd(H, phi_H).is_pd


def test_homology_sphere_collapses():
    A, phi = sphere_model(n=3)
    H, phi_H = homology(A, Differential(({}, {0: Fraction(1)}), shift=(0, -3)), phi)
    assert H is None and phi_H is None


def test_homology_s3s5s9_model():
    # Exterior on degrees 3, 5, 9 with delta(x9) = x3 x5: dim drops 8 -> 6,
    # and the survivor is PD of the same formal dimension 17.
    A = _single_generator_model(QQ, 0, 3, 2)
    A = tensor(A, _single_generator_model(QQ, 0, 5, 2))
    A = tensor(A, _single_generator_model(QQ, 0, 9, 2))
    phi = _tensor_orientation(A)
    mono = {m: i for i, m in enumerate(A._monomials)}
    columns = [{} for _ in range(8)]
    columns[mono[(2,)]] = {mono[(0, 1)]: Fraction(1)}  # delta(x9) = x3 x5
    # shift: from (0,9) to (0,8): delta_j = -1
    delta = Differential(tuple(columns), shift=(0, -1))
    assert check_derivation(A, delta).is_valid
    H, phi_H = homology(A, delta, phi)
    assert H.dim == 6
    pd = check_pd(H, phi_H)
    assert pd.is_pd and pd.formal_dim == 17


def test_homology_random_pd_or_zero():
    rng = random.Random(23)
    for _ in range(20):
        A, phi, delta = random_differential_algebra(rng, GF(5))
        H, phi_H = homology(A, delta, phi)
        if H is None:
            continue
        res = check_pd(H, phi_H)
        assert res.is_pd
        assert res.formal_dim == phi.formal_dim
        # Euler characteristic is preserved by taking homology.
        _, chi_a = euler_and_dim(A)
        _, chi_h = euler_and_dim(H)
        assert chi_a == chi_h


def _dense_homology_oracle(A, delta) -> list[tuple[list[list], list[list]]]:
    """Per bidegree, from dense kernels: the image of delta into the
    component, one row per source basis element, and a basis of the cycles."""
    field = A.field
    D = field.zeros((A.dim, A.dim))
    for j, col in enumerate(delta.columns):
        for i, x in col.items():
            D[i][j] = x
    de, dj = delta.shift
    out = []
    for (e, j), indices in sorted(A._components.items()):
        image = field_matrix([[D[i][s] for i in indices] for s in A.component(e - de, j - dj)],
                             field)
        out.append((image, kernel_basis([[row[i] for i in indices] for row in D], field)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["Q", "F3", "F5"]), st.booleans())
def test_homology_bases_match_the_dense_oracle(seed, field_name, odd_family):
    """Random algebras, and odd models with a random skew delta in a random
    basis: per bidegree, a basis of ker delta modulo im delta with dual
    vectors, checked against dense kernels by ``assert_complements``."""
    field = QQ if field_name == "Q" else GF(int(field_name[1:]))
    rng = random.Random(seed)
    if odd_family:
        r = rng.choice([1, 2, 3])
        A, phi, C = odd_model(field, m=rng.choice([1, 2]), r=r,
                              pairing=_random_invertible(rng, field, r))
        delta = odd_model_differential(A, C, _random_skew(rng, field, r))
        A, phi, delta = random_base_change(A, phi, delta, rng)
    else:
        A, phi, delta = random_differential_algebra(rng, field)
    built = []

    class Recording(exactalg.Subquotient):
        def __init__(self, kernel_of, *args):
            super().__init__(kernel_of, *args)
            built.append((self, kernel_of))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "Subquotient", Recording)
        H, _ = homology(A, delta, phi)
    oracle = _dense_homology_oracle(A, delta)
    assert len(built) == len(oracle)
    for (sq, kernel_of), (image, cycles) in zip(built, oracle):
        assert_complements([sq], kernel_of, image, cycles)
    assert sum(len(sq) for sq, _ in built) == (H.dim if H is not None else 0)


# ---------------------------------------------------------------------------
# odd-dimension congruence
# ---------------------------------------------------------------------------

def test_odd_congruence_zero_differential():
    A, phi, _ = odd_model(QQ, m=1, r=2)
    rep = odd_congruence(A, zero_differential(A, (0, -1)), phi)
    assert rep.applicable and rep.congruent


def test_odd_congruence_1221_fixture():
    """The surgered S^1 x S^2 example: profile (1,2,2,1), fixed circle."""
    A, phi, C = odd_model(QQ, m=1, r=2)
    assert not A.validate()
    S = [[0, Fraction(1)], [Fraction(-1), 0]]
    delta = odd_model_differential(A, C, S)
    assert check_derivation(A, delta).is_valid
    rep = odd_congruence(A, delta, phi)
    assert rep.applicable
    assert rep.dim_total == 6 and rep.dim_homology == 2
    assert rep.congruent  # 6 = 2 mod 4
    assert rep.gamma_skew and rep.gamma_nondegenerate
    assert rep.quotient_dim == 2  # even, as the skew form forces


def test_odd_congruence_hypothesis_guards():
    # Clean models pass the hypothesis screen.
    A2, phi2, _ = odd_model(QQ, m=2, r=1)
    assert odd_congruence(A2, zero_differential(A2, (0, -1)), phi2).applicable
    # A class in even degree 2 <= m violates the vanishing hypothesis.
    P = _single_generator_model(QQ, 0, 2, 2)  # 1, x at (0,2)
    E = _single_generator_model(QQ, 0, 5, 2)  # 1, y at (0,5)
    A4 = tensor(P, E)  # formal dim 7, m = 3, but A^(0,2) != 0
    phi4 = _tensor_orientation(A4)
    rep4 = odd_congruence(A4, zero_differential(A4, (0, -1)), phi4)
    assert not rep4.applicable
    assert any("(0,2)" in f for f in rep4.failures)
    # A class at (1,1) with m >= 1 violates the odd-parity hypothesis.
    E11 = _single_generator_model(QQ, 1, 1, 2)
    E12 = _single_generator_model(QQ, 1, 4, 2)
    A5 = tensor(E11, E12)  # top (0,5): m = 2, nonzero (1,1) component
    phi5 = _tensor_orientation(A5)
    rep5 = odd_congruence(A5, zero_differential(A5, (0, -1)), phi5)
    assert not rep5.applicable
    assert any("(1,1)" in f for f in rep5.failures)


def test_odd_congruence_random_instances():
    rng = random.Random(41)
    seen = 0
    for _ in range(40):
        r = rng.choice([1, 2, 3])
        m = rng.choice([1, 2])
        field = rng.choice([QQ, GF(3), GF(5)])
        C = _random_invertible(rng, field, r)
        A, phi, C = odd_model(field, m=m, r=r, pairing=C)
        S = _random_skew(rng, field, r)
        delta = odd_model_differential(A, C, S)
        A, phi, delta = random_base_change(A, phi, delta, rng)
        assert check_derivation(A, delta).is_valid
        rep = odd_congruence(A, delta, phi)
        assert rep.applicable
        assert rep.congruent, (m, r)
        assert rep.gamma_skew and rep.gamma_nondegenerate
        assert rep.quotient_dim % 2 == 0
        seen += 1
    assert seen == 40


def _random_invertible(rng, field, r):
    while True:
        if field is QQ:
            M = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        else:
            M = [[rng.randrange(field.p) for _ in range(r)] for _ in range(r)]
        if rank(M, field) == r:
            return M


def _random_skew(rng, field, r):
    S = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            c = Fraction(rng.randint(-3, 3)) if field is QQ else rng.randrange(field.p)
            S[i][j] = c
            S[j][i] = -c
    return S


def test_algebra_data_takes_no_dense_product(monkeypatch):
    """Generating algebras, checking delta, homology and the odd congruence
    run on the sparse table, phi and delta: no ``exactalg.matmul``."""
    def dense(*args, **kwargs):
        raise AssertionError("dense matmul")

    monkeypatch.setattr(exactalg, "matmul", dense)
    for field in (QQ, GF(3), GF(5)):
        for seed in range(8):
            rng = random.Random(seed)
            A, phi = random_pd_algebra(rng, field, even_dim=None)
            assert check_pd(A, phi).is_pd
            A, phi, delta = random_differential_algebra(rng, field)
            assert check_derivation(A, delta).is_valid
            homology(A, delta, phi)
            odd_congruence(A, delta, phi)
            # The odd family in a random basis reaches the skew form.
            A, phi, C = odd_model(field, m=rng.choice([1, 2]), r=2,
                                  pairing=_random_invertible(rng, field, 2))
            delta = odd_model_differential(A, C, _random_skew(rng, field, 2))
            A, phi, delta = random_base_change(A, phi, delta, rng)
            assert odd_congruence(A, delta, phi).applicable


# ---------------------------------------------------------------------------
# the largest prime field: every dense product must stay exact
# ---------------------------------------------------------------------------

def test_seeded_algebras_over_the_largest_prime_field():
    F = GF(2147483647)
    for seed in range(10):
        A, phi = random_pd_algebra(random.Random(seed), F)
        assert A.validate() == [], seed
        assert check_pd(A, phi).is_pd, seed
        A, phi, delta = random_differential_algebra(random.Random(seed), F)
        assert A.validate() == [], seed
        assert check_pd(A, phi).is_pd, seed
        assert check_derivation(A, delta).is_valid, seed
        H, phi_H = homology(A, delta, phi)
        assert H is None or check_pd(H, phi_H).is_pd, seed


def test_orientation_sum_is_exact_over_the_largest_prime_field():
    from betticong.pd_algebra import BigradedAlgebra

    p = 2147483647
    F = GF(p)
    # Three top classes, each with phi = p - 1; products with the unit only.
    A = BigradedAlgebra(F, [(0, 0)] + [(0, 2)] * 3,
                        {key: {i: 1} for i in range(4) for key in ((0, i), (i, 0))})
    phi = make_orientation(A, {i: p - 1 for i in (1, 2, 3)})
    # Three products of (p-1)^2 each: their sum passes 2**63, so an int64
    # sum wraps around.
    assert F.coerce(phi({i: p - 1 for i in (1, 2, 3)})) == 3
