"""Borel complex, equivariant Betti numbers, localization, group cohomology."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from betticong import corpus
from betticong.cli import parse
from betticong.equivariant import (
    BorelComplex,
    TransferredComplex,
    equivariant_betti,
    group_cohomology_dims,
    horizontal,
    localization_check,
)
from betticong.exactalg import GF
from betticong.group_action import (
    induced_cohomology_action,
    make_regular,
    pullback_permutation,
    tfr_decomposition,
    trivial_action,
)
from betticong.simplicial import SimplicialComplex

from conftest import small_actions
from oracles import (
    PermutationComplex,
    borel_model,
    cochain_pullback_matrix,
    horizontal_rows,
    reduced_per_cell,
    unreduced_model,
)


def total_matrix_dense(K: BorelComplex, n: int) -> np.ndarray:
    rows = K.total_differential_rows(n)
    M = np.zeros((len(rows), K.total_dim(n)), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, v in row.items():
            M[r, c] = v % K.p
    return M


# ---------------------------------------------------------------------------
# double complex structure
# ---------------------------------------------------------------------------

def _models(a):
    """The unreduced double complex and the transfer onto X's core."""
    return BorelComplex(unreduced_model(a)), BorelComplex(TransferredComplex.of_action(a))


def test_total_differential_squares_to_zero():
    for a in (corpus.sphere_rotation(3), corpus.free_polygon_action(5)):
        for K in _models(a):
            for n in range(a.complex.dim + 3):
                D1 = total_matrix_dense(K, n)
                D2 = total_matrix_dense(K, n + 1)
                prod = (D2.astype(object) @ D1.astype(object)) % K.p
                assert not np.any(prod)


def rows_to_dense(rows, ncols, p):
    M = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, v in row.items():
            M[r, c] = v % p
    return M


def _epsilon_dense(a, j: int, odd: bool) -> np.ndarray:
    """``horizontal`` on the block of every basis cochain of C^j, as a matrix."""
    perm, signs = pullback_permutation(a, j)
    inverse = [0] * len(perm)
    for s, t in enumerate(perm):
        inverse[t] = s
    M = np.zeros((len(perm), len(perm)), dtype=np.int64)
    for t, col in horizontal({s: {s: 1} for s in range(len(perm))}, signs, inverse,
                             odd, a.p).items():
        for s, v in col.items():
            M[t, s] = v
    return M


def test_norm_composes_to_zero_with_shift():
    a = corpus.sphere_rotation(3)
    C = PermutationComplex.of_action(a)
    for j in range(3):
        n = a.complex.n_simplices(j)
        gm1, nm = _epsilon_dense(a, j, False), _epsilon_dense(a, j, True)
        assert not np.any((nm.astype(object) @ gm1.astype(object)) % 3)
        assert not np.any((gm1.astype(object) @ nm.astype(object)) % 3)
        # The blocks agree with the rows walked along perm and with the dense pullback matrix.
        assert gm1.tolist() == rows_to_dense(horizontal_rows(C, 0, j), n, 3).tolist()
        assert nm.tolist() == rows_to_dense(horizontal_rows(C, 1, j), n, 3).tolist()
        P = cochain_pullback_matrix(a, j, GF(3))
        assert gm1.tolist() == [[(x - (i == k)) % 3 for k, x in enumerate(row)]
                                for i, row in enumerate(P)]


def test_stable_degree_matrices_coincide():
    a = corpus.sphere_rotation(3)
    d = a.complex.dim
    for K in _models(a):
        assert K.total_differential_rows(d) == K.total_differential_rows(d + 2)
        assert K.total_differential_rows(d + 1) == K.total_differential_rows(d + 3)


# ---------------------------------------------------------------------------
# equivariant Betti numbers
# ---------------------------------------------------------------------------

def test_point_gives_classifying_space():
    a = corpus.point_action(3)
    assert equivariant_betti(a, range(7)) == [1] * 7


def test_free_rotation_gives_quotient_circle():
    a = corpus.free_polygon_action(5)
    dims = equivariant_betti(a, range(6))
    assert dims == [1, 1, 0, 0, 0, 0]


def test_sphere_rotation_stabilises_at_two():
    a = corpus.sphere_rotation(3)
    dims = equivariant_betti(a, [3, 4])
    assert dims == [2, 2]


def test_two_periodicity_above_dim():
    a = corpus.sphere_rotation(3)
    d = a.complex.dim
    dims = equivariant_betti(a, [d + 1, d + 2, d + 3, d + 4])
    assert dims[0] == dims[2] and dims[1] == dims[3]


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localization_free_rotation():
    res = localization_check(corpus.free_polygon_action(5))
    assert res["ok"] and res["fixed_total"] == 0


def test_localization_sphere_rotation():
    res = localization_check(corpus.sphere_rotation(3))
    assert res["ok"] and res["fixed_total"] == 2


def test_localization_torus_rotation():
    res = localization_check(corpus.torus_rotation(3))
    assert res["ok"] and res["fixed_total"] == 0


def test_localization_wedge():
    res = localization_check(corpus.wedge_spheres_action())
    assert res["ok"] and res["fixed_total"] == 1


# ---------------------------------------------------------------------------
# group cohomology of Z/p modules
# ---------------------------------------------------------------------------

def test_group_cohomology_trivial_module():
    assert group_cohomology_dims([[1]], 3) == (1, 0)
    assert group_cohomology_dims([[1, 0], [0, 1]], 5) == (2, 0)


def test_group_cohomology_free_module():
    for p in (3, 5):
        perm = [[0] * p for _ in range(p)]
        for i in range(p):
            perm[(i + 1) % p][i] = 1
        assert group_cohomology_dims(perm, p) == (0, 0)


def test_group_cohomology_augmentation_kernel():
    # ker(eps) for p = 3 in the basis (g - e, g^2 - e): direct kernel/image
    # oracle first.
    g = np.array([[-1, -1], [1, 0]], dtype=np.int64) % 3
    gm1 = (g - np.eye(2, dtype=np.int64)) % 3
    # Norm = 1 + g + g^2 must vanish on the augmentation kernel.
    g2 = (g.astype(object) @ g.astype(object)) % 3
    norm = (np.eye(2, dtype=object) + g + g2) % 3
    assert not np.any(norm)
    # Unlocalized Tate dims are (1, 1): ker(g-1) is one-dimensional and the
    # norm image is zero; evaluation at s = 0 kills the even line.
    assert group_cohomology_dims(g.tolist(), 3) == (0, 1)


def test_group_cohomology_rejects_wrong_order():
    with pytest.raises(ValueError):
        group_cohomology_dims([[2]], 3)  # order 2 mod 3


def test_e2bar_matches_tfr_on_samples():
    for a in (
        corpus.sphere_rotation(3),
        corpus.s3_free_action(),
        corpus.wedge_spheres_action(),
        corpus.trivial_torus_action(3),
    ):
        p = a.p
        decomp = tfr_decomposition(a)
        mats = induced_cohomology_action(a, GF(p))
        for mu, M in enumerate(mats):
            even, odd = group_cohomology_dims(M, p) if M else (0, 0)
            assert even == decomp.t[mu], (mu, a)
            assert odd == decomp.r[mu], (mu, a)


# ---------------------------------------------------------------------------
# the transfer onto X's core against the unreduced, subdivided and heap models
# ---------------------------------------------------------------------------

def _borel_dims(model, degrees) -> list[int]:
    K = BorelComplex(model)
    return [K.cohomology_dim(n) for n in degrees]


def _pullback_dense(C: PermutationComplex, j: int) -> np.ndarray:
    perm, signs = C.pullbacks[j]
    P = np.zeros((len(perm), len(perm)), dtype=np.int64)
    P[range(len(perm)), perm] = signs
    return P % C.p


def _assert_permutation_complex(C: PermutationComplex):
    """delta^2 = 0, delta commutes with sigma^#, and (sigma^#)^p = 1."""
    p = C.p
    D = [rows_to_dense(C.rows[j], C.sizes[j], p).astype(object) for j in range(C.dim)]
    P = [_pullback_dense(C, j).astype(object) for j in range(C.dim + 1)]
    for j, Pj in enumerate(P):
        assert sorted(C.pullbacks[j][0]) == list(range(C.sizes[j]))
        assert not np.any((np.linalg.matrix_power(Pj, p) - np.eye(len(Pj), dtype=int)) % p)
    for j, Dj in enumerate(D):
        assert not np.any((P[j + 1] @ Dj - Dj @ P[j]) % p)
        if j + 1 < C.dim:
            assert not np.any((D[j + 1] @ Dj) % p)


def _assert_squares_to_zero(K: BorelComplex, degrees):
    """D'_{n+1} D'_n = 0 over F_p, on the sparse rows."""
    p = K.p
    for n in degrees:
        lower = K.total_differential_rows(n)
        for row in K.total_differential_rows(n + 1):
            out = {}
            for c, v in row.items():
                for m, x in lower[c].items():
                    out[m] = (out.get(m, 0) + v * x) % p
            assert not any(out.values()), n


def _check_transfer(action) -> TransferredComplex:
    """The transfer onto X's core is a complex no larger than X's cochains,
    with the unreduced H^*_G."""
    T = TransferredComplex.of_action(action)
    assert T.p == action.p and T.dim == action.complex.dim
    assert all(r <= c for r, c in zip(T.sizes, action.complex.f_vector))
    degrees = range(T.dim + 4)
    _assert_squares_to_zero(BorelComplex(T), degrees)
    assert _borel_dims(T, degrees) == _borel_dims(unreduced_model(action), degrees)
    return T


def test_reduction_keeps_borel_dims_on_the_corpus():
    for a in corpus.corpus_actions().values():
        _check_transfer(a)
    # The core is X's, vertex 0 kept: the S^2 x S^2 rotations keep 4 of 2812
    # and of 4396 cells, where the G-stable reduction kept 16 and 32.
    for p in (3, 7):
        assert TransferredComplex.of_action(corpus.s2xs2_rotation(p)).sizes == (1, 0, 2, 0, 1)


def test_reduction_seeds_a_fixed_vertex_in_each_component():
    """RP^2 disjoint from a torus under the trivial Z/3: each component keeps
    its seed vertex, whose lift is the component's indicator.  RP^2's core
    stalls at 5/5 cells; the torus is seeded at its top."""
    X = SimplicialComplex.from_facets(
        [*(("x" + v for v in f) for f in corpus.rp2_six_vertex().simplex_labels(2)),
         *(("y" + v for v in f) for f in corpus.torus().simplex_labels(2))])
    assert _check_transfer(trivial_action(X, 3)).sizes == (2, 7, 6)
    R = X._retraction()
    lifted = R.lift({x: {x: 1} for x in R.core[0]}, 0, 3)
    index = X._simplex_index[0]
    assert [{v for v, col in lifted.items() if x in col} for x in R.core[0]] \
        == [{index[(v,)] for v in comp} for comp in X.connected_components()]


def test_fixed_cells_never_cancel_against_free_orbits():
    """The rotated triangle: sigma^# fixes the 2-cell (invariant, not
    pointwise fixed) and moves vertices and edges in free orbits, whose
    block is not monomial.  The G-stable heap finds no pair and keeps all
    7 cells; X's own core is one vertex."""
    a = corpus.disc_rotation()
    C = PermutationComplex.of_action(a)
    assert reduced_per_cell(C).sizes == C.sizes
    assert _check_transfer(a).sizes == (1, 0, 0)


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_reduced_and_subdivided_models_agree(a):
    T = _check_transfer(a)
    degrees = range(a.complex.dim + 3)
    assert _borel_dims(_check_transfer(make_regular(a)), degrees) == _borel_dims(T, degrees)


def test_per_cell_heap_cancels_free_orbits_that_no_count_reaches():
    """Z/3 on C^1 = A + E and C^2 = B + D, four free orbits, with delta(b_i) =
    a_{i+1} + e_{i+1} and delta(d_i) = a_{i+1} + 2 e_{i+1}: acyclic, yet no
    count is 1, so the coreduction stops at once.  The heap oracle still
    cancels both pairs of orbits, and keeps the Borel dimensions."""
    shift = [1, 2, 0, 4, 5, 3]  # a_i -> a_{i+1}, e_i -> e_{i+1}; likewise b, d
    delta = [{(i + 1) % 3: 1, 3 + (i + 1) % 3: c} for c in (1, 2) for i in range(3)]
    C = PermutationComplex(3, (0, 6, 6), ([{}] * 6, delta),
                           (([], []), (shift, [1] * 6), (shift, [1] * 6)))
    _assert_permutation_complex(C)
    R = reduced_per_cell(C)
    assert R.sizes == (0, 0, 0)
    assert _borel_dims(borel_model(R), range(5)) == _borel_dims(borel_model(C), range(5)) == [0] * 5


def _assert_transfer_as_per_cell(a):
    """The transfer has the Borel dimensions of the G-stable heap's model."""
    C = PermutationComplex.of_action(a)
    H = reduced_per_cell(C)
    _assert_permutation_complex(H)
    degrees = range(C.dim + 4)
    assert _borel_dims(TransferredComplex.of_action(a), degrees) \
        == _borel_dims(borel_model(H), degrees)


def test_transfer_matches_the_per_cell_heap_on_the_corpus(s4_document):
    for a in corpus.corpus_actions().values():
        _assert_transfer_as_per_cell(a)
    s4 = parse(s4_document(9)).actions["rot"]
    for a in (s4, make_regular(s4)):
        _assert_transfer_as_per_cell(a)


@settings(max_examples=60, deadline=None)
@given(small_actions())
def test_transfer_matches_the_per_cell_heap_on_small_actions(a):
    _assert_transfer_as_per_cell(a)
    _assert_transfer_as_per_cell(make_regular(a))


def test_s4_document_models_agree(s4_document):
    """The benchmark's non-regular S^4: 284 cells unsubdivided, 27,614 after."""
    a = parse(s4_document(9)).actions["rot"]
    d = a.complex.dim
    T = _check_transfer(a)
    assert T.sizes == (1, 0, 0, 0, 1)
    assert _borel_dims(T, range(d + 3)) == [1, 1, 1, 1, 2, 2, 2]
    sd = make_regular(a)
    C_sd = unreduced_model(sd)
    assert sum(C_sd.sizes) == 27614
    # The unreduced subdivided model only in the stable degrees.
    stable = [d + 1, d + 2]
    assert _borel_dims(C_sd, stable) == _borel_dims(TransferredComplex.of_action(sd), stable) \
        == [2, 2]
    assert localization_check(a) == {"stable_dims": [2, 2], "fixed_total": 2, "ok": True}
