"""Tests for the exact linear algebra core.

Independent oracles used here:
  * Smith divisors via determinantal divisors (gcd of all k x k minors),
    a textbook characterisation computed by brute force on small matrices.
  * The dense Smith form the library used before it read the divisor chain
    off the diagonal, with a column swap and a divisibility restart
    (``oracles.smith_normal_form``).
  * Jordan block sizes via the kernel-dimension profile identity
    dim ker(n^k) = sum(min(k, s) for s in blocks).
  * The dense rref on numpy arrays (``int64`` residues over F_p, ``object``
    arrays over Q) that the library used before its list carrier.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betticong import corpus, exactalg
from betticong.exactalg import (
    GF,
    QQ,
    Subquotient,
    _eliminate,
    invert,
    matmul,
    nilpotent_block_sizes,
    p_valuation_profile,
    rank,
    rref,
    smith_normal_form,
    sparse_rank_modp,
    sparse_rank_q,
    sparse_rref_q,
    sparse_rows,
)

import oracles
from oracles import (
    assert_complements,
    assert_kernel_check_as_oracle,
    coboundary_matrix,
    dense,
    kernel_basis,
    one_row_defects,
    rank_and_kernel,
    sparse,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def _det(M) -> int:
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * _det(minor)
    return total


def snf_divisors_oracle(M: list[list[int]]) -> list[int]:
    """Divisor chain from determinantal divisors d_k = gcd of k-minors."""
    m, n = len(M), len(M[0]) if M else 0
    dets = [1]
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                g = np.gcd(g, abs(_det(sub)))
        dets.append(int(g))
    divisors = []
    for k in range(1, len(dets)):
        if dets[k] == 0:
            divisors.append(0)
        else:
            divisors.append(dets[k] // dets[k - 1])
    return divisors


def block_profile_oracle(sizes: list[int], max_k: int) -> list[int]:
    return [sum(min(k, s) for s in sizes) for k in range(max_k + 1)]


def jordan_block_matrix(sizes: list[int]) -> list[list[int]]:
    dim = sum(sizes)
    N = [[0] * dim for _ in range(dim)]
    off = 0
    for s in sizes:
        for i in range(s - 1):
            N[off + i][off + i + 1] = 1
        off += s
    return N


def numpy_rref(matrix, n: int, field) -> tuple[list[list], list[int]]:
    """Oracle: the numpy rref of the m x n *matrix*, as ``(rows as lists, pivots)``."""
    if field.char:
        p = field.char
        M = np.array(matrix, dtype=np.int64).reshape(len(matrix), n) % p
    else:
        M = np.array(matrix, dtype=object).reshape(len(matrix), n)
    m = M.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        nz = [i for i in range(r, m) if M[i, c]]
        if not nz:
            continue
        piv = nz[0]
        if piv != r:
            M[[r, piv]] = M[[piv, r]].copy()
        if field.char:
            inv = pow(int(M[r, c]), -1, p)
            if inv != 1:
                M[r, c:] = (M[r, c:] * inv) % p
            hit = np.nonzero(M[:, c])[0]
            hit = hit[hit != r]
            if hit.size:
                f = M[hit, c]
                M[np.ix_(hit, range(c, n))] = (
                    M[np.ix_(hit, range(c, n))] - np.outer(f, M[r, c:])
                ) % p
        else:
            pv = M[r, c]
            if pv != 1:
                M[r, c:] = [Fraction(x) / pv if x else x for x in M[r, c:]]
            for i in range(m):
                if i != r and M[i, c]:
                    M[i, c:] = M[i, c:] - M[i, c] * M[r, c:]
        pivots.append(c)
        r += 1
    return M.tolist(), pivots


def numpy_invert(matrix, field) -> list[list]:
    """Oracle: the inverse from the numpy rref of [M | I]; ValueError if singular."""
    n = len(matrix)
    dtype = np.int64 if field.char else object
    aug = np.concatenate([np.array(matrix, dtype=dtype).reshape(n, n),
                          np.eye(n, dtype=dtype)], axis=1)
    R, piv = numpy_rref(aug.tolist(), 2 * n, field)
    if piv != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def snf(M: list[list[int]]):
    """``smith_normal_form`` of a dense matrix, through its sparse rows."""
    return smith_normal_form([sparse(row) for row in M], len(M[0]) if M else 0)


def test_snf_identity():
    assert snf([[1, 0], [0, 1]]).divisors == (1, 1)


def test_snf_zero_1x1():
    f = snf([[0]])
    assert f.divisors == (0,)
    assert f.rank == 0


def test_snf_diag_2_3():
    # Frozen from the determinantal-divisor oracle: d1 = gcd(2,3) = 1, d2 = 6.
    assert snf_divisors_oracle([[2, 0], [0, 3]]) == [1, 6]
    assert snf([[2, 0], [0, 3]]).divisors == (1, 6)


def test_snf_empty():
    assert smith_normal_form([], 0).divisors == ()
    assert smith_normal_form([{}, {}], 0).divisors == ()
    assert smith_normal_form([], 3).divisors == ()
    assert smith_normal_form([{}, {}], 3).divisors == (0, 0)
    # Explicit zeros are no entries, and the input rows are left as they are.
    rows = [{0: 0, 1: 2}, {0: 4, 1: 0}]
    assert smith_normal_form(rows, 2).divisors == (2, 4)
    assert rows == [{0: 0, 1: 2}, {0: 4, 1: 0}]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
def test_snf_matches_minor_oracle(m, n, seed):
    rng = random.Random(seed)
    M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    expected = snf_divisors_oracle(M)
    f = snf(M)
    assert list(f.divisors) == expected
    # Divisibility chain, zeros last.
    nz = [d for d in f.divisors if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert all(d == 0 for d in f.divisors[len(nz):])
    # Rank over Q equals the count of nonzero divisors.
    assert f.rank == rank(M, QQ)


def test_snf_matches_the_replaced_smith_form():
    """The gcd/lcm chain of the diagonal against the smallest-pivot rule with
    a divisibility restart it replaced (``oracles.smith_normal_form``), on
    5,000 seeded matrices of up to 8 x 8 and on every corpus coboundary of at
    most 500 cells."""
    rng = random.Random(33)
    entries = [0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9, 12, -15]
    matrices = []
    for _ in range(5000):
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        matrices.append([[rng.choice(entries) for _ in range(n)] for _ in range(m)])
    complexes = [a.complex for a in corpus.corpus_actions().values()]
    complexes += [corpus.full_triangle(), corpus.tetrahedron_boundary(), corpus.torus(),
                  corpus.rp2_six_vertex(), corpus.wedge_fixture(), corpus.three_sphere_wedge(),
                  corpus.s3_join(), corpus.s2xs2()]
    coboundaries = [coboundary_matrix(X, k) for X in complexes for k in range(X.dim)
                    if X.n_simplices(k) + X.n_simplices(k + 1) <= 500]
    assert len(coboundaries) == 41
    for M in matrices + coboundaries:
        assert snf(M) == oracles.smith_normal_form(M), M


def test_snf_deterministic():
    M = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert snf(M) == snf(M)


# ---------------------------------------------------------------------------
# rank / kernel
# ---------------------------------------------------------------------------

def test_rank_kernel_identity_f3():
    r, k = rank_and_kernel(exactalg.identity(4), GF(3))
    assert r == 4 and k == []


def test_rank_kernel_zero_matrix():
    r, k = rank_and_kernel([[0, 0, 0], [0, 0, 0]], GF(5))
    assert r == 0 and len(k) == 3


def test_rank_kernel_proportional_rows_q():
    r, k = rank_and_kernel([[1, 1], [2, 2]], QQ)
    assert r == 1
    assert len(k) == 1
    v = k[0]
    # Spanned by (1, -1): kernel vector must be a scalar multiple.
    assert v[0] * (-1) == v[1] * 1


def test_kernel_vectors_annihilated():
    M = [[1, 2, 3], [4, 5, 6]]
    for field in (QQ, GF(7)):
        r, kb = rank_and_kernel(M, field)
        assert r + len(kb) == 3
        for v in kb:
            assert matmul(M, [[x] for x in v], field) == [[0], [0]]


def test_rank_kernel_refuses_a_matrix_without_rows():
    # A list of no rows has no column count, so its kernel (all of k^n) has no n.
    for field in (QQ, GF(3)):
        with pytest.raises(ValueError):
            rank_and_kernel([], field)
        with pytest.raises(ValueError):
            kernel_basis([], field)
        assert rank([], field) == 0
        # One zero row stands for the 0 x n matrix: the kernel is all of k^n.
        assert rank_and_kernel([[0, 0, 0]], field) == (0, exactalg.identity(3))


def test_rank_kernel_deterministic():
    M = [[1, 2, 0, 1], [0, 0, 1, 1]]
    r1, k1 = rank_and_kernel(M, GF(3))
    r2, k2 = rank_and_kernel(M, GF(3))
    assert r1 == r2
    assert k1 == k2


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6), st.sampled_from([3, 5, 7]))
def test_rank_nullity_and_sparse_agreement(m, n, seed, p):
    rng = random.Random(seed)
    M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    r_q, kb = rank_and_kernel(M, QQ)
    assert r_q + len(kb) == n
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    assert sparse_rank_q(rows) == r_q
    rows_p = [{j: v % p for j, v in enumerate(row) if v % p} for row in M]
    assert sparse_rank_modp(rows_p, p) == rank(M, GF(p))


# ---------------------------------------------------------------------------
# nilpotent block sizes
# ---------------------------------------------------------------------------

def test_blocks_zero_matrix():
    assert nilpotent_block_sizes([[0] * 4 for _ in range(4)], GF(3), 3) == [1, 1, 1, 1]


def test_blocks_single_jordan():
    N = jordan_block_matrix([3])
    assert nilpotent_block_sizes(N, QQ, 3) == [3]


def test_blocks_two_one_f5():
    # Kernel-profile oracle: dim ker n^k = min(k,2) + min(k,1) = 0,2,3,3,...
    assert block_profile_oracle([2, 1], 3) == [0, 2, 3, 3]
    N = jordan_block_matrix([2, 1])
    assert nilpotent_block_sizes(N, GF(5), 5) == [2, 1]


def test_blocks_reject_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_block_sizes(exactalg.identity(2), GF(3), 4)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(0, 10**6),
    st.sampled_from([3, 5, 7]),
)
def test_blocks_conjugation_invariant(sizes, seed, p):
    """Block partition survives a random change of basis (kernel profile)."""
    rng = random.Random(seed)
    field = GF(p)
    dim = sum(sizes)
    N = jordan_block_matrix(sizes)
    for _ in range(20):
        P = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if rank(P, field) == dim:
            break
    else:
        pytest.skip("no invertible conjugator found")
    Pinv_cols = []
    # Solve P X = I column by column via kernels of [P | -e_i].
    for i in range(dim):
        aug = [row + [-(1 if r == i else 0) % p] for r, row in enumerate(P)]
        vecs = kernel_basis(aug, field)
        sol = next(v for v in vecs if v[dim] % p != 0)
        scale = pow(int(sol[dim]), -1, p)
        Pinv_cols.append([(int(x) * scale) % p for x in sol[:dim]])
    Pinv = [list(row) for row in zip(*Pinv_cols)]
    conj = matmul(matmul(P, N, field), Pinv, field)
    bound = max(sizes)
    assert nilpotent_block_sizes(conj, field, bound) == sorted(sizes, reverse=True)
    power = lambda k: (np.linalg.matrix_power(np.array(conj, dtype=object), k) % p).tolist()
    profile = [dim - rank(power(k), field) for k in range(bound + 1)]
    assert profile == block_profile_oracle(sorted(sizes, reverse=True), bound)


# ---------------------------------------------------------------------------
# p-local valuation profile of the Smith divisors
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_p_profile_matches_snf(m, n, seed, p):
    """The profile of the Smith divisors is v_p of the determinantal
    divisors, ascending."""
    rng = random.Random(seed)
    M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
    expected = sorted(_val(d, p) for d in snf_divisors_oracle(M) if d)
    assert p_valuation_profile(snf(M).divisors, p) == expected


def _val(d: int, p: int) -> int:
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def test_p_profile_detects_torsion():
    # diag(1, 3, 9, 5): divisors 1, 1, 3, 45, valuations at 3 are 0, 0, 1, 2.
    M = [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 9, 0], [0, 0, 0, 5]]
    rows = [{0: 1}, {1: 3}, {2: 9}, {3: 5}]
    divisors = smith_normal_form(rows, 4).divisors
    assert list(divisors) == snf_divisors_oracle(M) == [1, 1, 3, 45]
    assert p_valuation_profile(divisors, 3) == [0, 0, 1, 2]
    assert p_valuation_profile((1, 2, 0), 3) == [0, 0]  # zero divisors are dropped


# ---------------------------------------------------------------------------
# rref sanity
# ---------------------------------------------------------------------------

def test_rref_fraction_pivots():
    R, piv = rref([[2, 4], [1, 3]], QQ)
    assert piv == [0, 1]
    assert R[0][0] == 1 and R[0][1] == 0
    assert R[1][1] == 1


def test_rref_modp_canonical():
    R, piv = rref([[2, 4], [1, 3]], GF(5))
    assert piv == [0, 1]
    assert R[0][0] == 1 and R[1][1] == 1
    assert R[0][1] == 0 and R[1][0] == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 6), st.integers(0, 10**6),
       st.sampled_from(["Q", "F3", "F7"]))
def test_list_rref_and_invert_match_the_numpy_oracle(m, n, seed, field_name):
    """Same R and pivots as the numpy rref, on every shape from 0 x n and
    m x 0 to 1 x n, and the same inverse (or both singular) on the leading
    square block; the input is left unchanged."""
    rng = random.Random(seed)
    field = QQ if field_name == "Q" else GF(int(field_name[1:]))
    pick = lambda: rng.choice([0, 0, 1, -1, 2, rng.randint(-9, 9),
                               Fraction(rng.randint(-5, 5), rng.choice([1, 2, 4]))])
    M = [[field.coerce(pick()) for _ in range(n)] for _ in range(m)]
    before = [list(row) for row in M]
    assert rref(M, field) == numpy_rref(M, n, field)
    assert M == before
    k = min(m, n)
    S = [row[:k] for row in M[:k]]
    try:
        expect = numpy_invert(S, field)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            invert(S, field)
    else:
        assert invert(S, field) == expect


# ---------------------------------------------------------------------------
# sparse rational echelon bases
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
def test_sparse_rref_q_properties(m, n, seed):
    rng = random.Random(seed)
    M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    out_rows, pivots = sparse_rref_q(rows)
    # Rank agrees with the dense path.
    dense_rank = rank(M, QQ)
    assert len(pivots) == dense_rank
    # Each pivot entry is 1 in its own row and absent from every other.
    for i, (row, pc) in enumerate(zip(out_rows, pivots)):
        assert row[pc] == 1
        for k, other in enumerate(out_rows):
            if k != i:
                assert pc not in other
    # The output rows lie in the row space and span it: stacking them with
    # the original rows does not change the rank.
    stacked = [list(r) for r in M]
    for row in out_rows:
        dense = [0] * n
        for c, v in row.items():
            dense[c] = v
        stacked.append(dense)
    assert rank(stacked, QQ) == dense_rank
    # Determinism.
    again = sparse_rref_q(rows)
    assert again == (out_rows, pivots)


# ---------------------------------------------------------------------------
# one elimination engine, two arithmetic modes, and the Smith form
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
def test_engine_modes_agree(m, n, seed):
    """The Smith divisors prime to p count the rank mod p, and the nonzero
    ones the Q rank; rref rank is the Q rank."""
    rng = random.Random(seed)
    M = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    divisors = smith_normal_form(rows, n).divisors
    for p in (2, 3, 5):
        rows_p = [{j: v % p for j, v in row.items() if v % p} for row in rows]
        assert sum(1 for d in divisors if d % p) == sparse_rank_modp(rows_p, p)
    assert sum(1 for d in divisors if d) == sparse_rank_q(rows)
    assert len(sparse_rref_q(rows)[1]) == sparse_rank_q(rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 10**6),
       st.sampled_from(["Q", 2, 3, 5]))
def test_each_pivot_row_is_zero_at_the_earlier_pivots(m, n, seed, mode):
    """The triangular form that ``Subquotient`` relies on, through
    ``back_substitute`` for its basis and its dual vectors: each pivot row
    is zero at the pivot columns of every earlier pivot."""
    rng = random.Random(seed)
    M = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 4]) for _ in range(n)] for _ in range(m)]
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    p = mode if isinstance(mode, int) else None
    work, pivots = _eliminate(rows, p)
    assert rows == [{j: v for j, v in enumerate(row) if v} for row in M]  # inputs untouched
    for k, (i, pc) in enumerate(pivots):
        assert not any(c in work[i] for _, c in pivots[:k])
        assert not p or work[i][pc] == 1
    assert len(pivots) == rank(M, GF(p) if p else QQ)


def test_prime_field_inverts_fraction_denominators():
    F = GF(7)
    assert F.coerce(Fraction(1, 2)) == 4 and F.coerce(Fraction(-3, 5)) == 5
    assert F.coerce(Fraction(14, 3)) == 0 and F.coerce(5) == 5
    with pytest.raises(ValueError):
        F.coerce(Fraction(1, 7))


# ---------------------------------------------------------------------------
# the kernel-modulo-image engine
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 3), st.integers(0, 10**6),
       st.sampled_from(["Q", "F2", "F3", "F5"]))
def test_subquotient_depends_only_on_the_spans(n, a, k, seed, field_name):
    """Shuffled, unit-scaled and padded spanning rows give a basis of a
    complement of the same B in the same ker A, with dual vectors; each
    ``express`` reads the classes of one in the other by an invertible
    change of basis."""
    rng = random.Random(seed)
    field = QQ if field_name == "Q" else GF(int(field_name[1:]))
    units = [1, -1, 2, Fraction(-1, 3), Fraction(5, 2)] if field is QQ else [
        u for u in (1, 2) if field.coerce(u)]

    def vec():
        return [field.coerce(rng.randint(-2, 2)) for _ in range(n)]

    def combo(vectors):
        out = [field.coerce(0)] * n
        for v in vectors:
            c = field.coerce(rng.randint(-2, 2))
            out = [field.reduce(x + c * y) for x, y in zip(out, v)]
        return out

    A = [vec() for _ in range(a)]
    # One zero row has the kernel of the 0 x n matrix, which lists cannot shape.
    kernel = kernel_basis(A or [[0] * n], field)
    B = [combo(kernel) for _ in range(k)]
    sq = Subquotient(sparse_rows(A), sparse_rows(B), field, n)
    # The sparse carrier: nonzero canonical Python ints or Fractions at
    # columns in range(n).
    assert all(all(c in range(n) and x and type(x) in (int, Fraction) and field.reduce(x) == x
                   for c, x in row.items()) for row in sq.basis)
    assert len(sq) == len(kernel) - (rank(B, field) if B else 0)

    def respan(rows, pad):
        out = [[field.coerce(u * x) for x in v] for v, u in
               zip(rows + pad, (rng.choice(units) for _ in rows + pad))]
        rng.shuffle(out)
        return sparse_rows(out)

    sq2 = Subquotient(respan(A, []), respan(B, [combo(B) for _ in range(2)]), field, n)
    assert_complements([sq, sq2], sparse_rows(A), B, kernel)
    # express round-trips: a . basis + (an element of B) has coefficients
    # a, and C a in sq2's basis, C[k] the class of sq.basis[k] there.
    change = [sq2.express(row) for row in sq.basis]
    assert not change or rank(change, field) == len(sq)
    coeffs = [field.coerce(rng.randint(-3, 3)) for _ in range(len(sq))]
    v = combo(B)
    for c, row in zip(coeffs, sq.basis):
        v = [field.reduce(x + c * y) for x, y in zip(v, dense(row, n))]
    v = sparse(v)
    assert sq.express(v) == coeffs
    assert sq2.express(v) == [field.reduce(sum(c * row[j] for c, row in zip(coeffs, change)))
                              for j in range(len(sq2))]
    outside = vec()
    if A and any(x for row in matmul(A, [[x] for x in outside], field) for x in row):
        with pytest.raises(ValueError):
            sq.express(sparse(outside))


def test_subquotient_zero_runs_only_the_kernel_check(monkeypatch):
    """A subquotient known to be 0 is published with no basis: nothing is
    eliminated and ``express`` only checks A v = 0."""
    monkeypatch.setattr(exactalg, "_eliminate", None)
    rows = sparse_rows([[1, -1, 0], [0, 1, -1]])
    sq = Subquotient.from_duals(rows, QQ, [], [])
    assert len(sq) == 0 and sq.basis == []
    assert sq.express({0: 2, 1: 2, 2: 2}) == []
    with pytest.raises(ValueError):
        sq.express({0: 1})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_express_kernel_check_matches_the_row_by_row_oracle(seed):
    """On random sparse A over Q, F_3 and F_7, ``express`` accepts exactly the
    vectors with A v = 0 row by row: the kernel, random sparse vectors,
    vectors whose A v is nonzero in one row only, and vectors with an
    entry beyond every row's last column."""
    rng = random.Random(seed)
    for field in (QQ, GF(3), GF(7)):
        m, n = rng.randint(0, 6), rng.randint(1, 8)
        rows = [r for r in ({c: field.reduce(rng.choice((-2, -1, 1, 2)))
                             for c in rng.sample(range(n), rng.randint(0, min(n, 4)))}
                            for _ in range(m)) if r]
        sq = Subquotient(rows, [], field, n)
        defects = one_row_defects(rows, n, field)
        assert assert_kernel_check_as_oracle(sq, rows, n, field, rng, defects) >= len(defects)


def test_express_builds_a_column_index_only_for_rows():
    """A Subquotient whose A has no rows never builds an index; one with rows
    builds it at its first ``express``, into the list it was given."""
    for field in (QQ, GF(3)):
        for sq in (Subquotient(sparse_rows([[0, 0, 0]]), sparse_rows([[1, 2, 0]]), field, 3),
                   Subquotient.from_duals([], field, [], [])):
            for v in ({0: 1, 2: 5}, {7: 1}, {}):
                sq.express(v)
            assert sq._index == []
        shared = []
        sq = Subquotient.from_duals(sparse_rows([[1, -1, 0]]), field, [], [], shared)
        assert sq._index is shared and shared == []
        sq.express({0: 1, 1: 1})
        assert [(a.itemsize, list(a)) for a in shared] == [(2, [0, 1, 2]), (2, [0, 0])]
    # Row numbers from 2**16 on take 4-byte entries.
    sq = Subquotient.from_duals([{}] * (1 << 16) + [{0: 1, 3: 2}], QQ, [], [])
    sq.express({0: 2, 3: -1})
    with pytest.raises(ValueError):
        sq.express({0: 1})
    assert [(a.itemsize, list(a)[-2:]) for a in sq._index] == [(4, [1, 2]), (4, [1 << 16] * 2)]


def test_sparse_rows_clear_denominators_row_by_row():
    M = [[Fraction(1, 2), Fraction(-2, 3), 0], [0, 0, 0], [4, 0, 6]]
    assert sparse_rows(M) == [{0: 3, 1: -4}, {0: 4, 2: 6}]
    assert sparse_rows([[2, 0, 1]]) == [{0: 2, 2: 1}]


def test_sparse_rank_modp_reduces_entries():
    # Entries divisible by p are zero over F_p, not pivots.
    assert sparse_rank_modp([{0: 3}], 3) == 0
    assert sparse_rank_modp([{0: 4, 1: 3}], 3) == 1


# ---------------------------------------------------------------------------
# the Smith pass that read X's full rows (unit pivots, then the dense Smith
# form on the core), now ``oracles.sparse_smith_divisors``
# ---------------------------------------------------------------------------

_ENTRIES = {
    "mixed": [0, 0, 1, -1, 2, -2, 3, 4, -6],
    "no_unit": [0, 0, 2, -2, 3, -3, 4, 6, -9],  # the whole matrix is the core
}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 10**6),
       st.sampled_from(sorted(_ENTRIES)), st.booleans())
def test_sparse_smith_divisors_match_dense(m, n, seed, kind, zero_lines):
    rng = random.Random(seed)
    M = [[rng.choice(_ENTRIES[kind]) for _ in range(n)] for _ in range(m)]
    if zero_lines:
        dead_rows = {i for i in range(m) if rng.random() < 0.3}
        dead_cols = {j for j in range(n) if rng.random() < 0.3}
        M = [[0 if i in dead_rows or j in dead_cols else v for j, v in enumerate(row)]
             for i, row in enumerate(M)]
    rows = [{j: v for j, v in enumerate(row) if v} for row in M]
    assert oracles.sparse_smith_divisors(rows, n) == smith_normal_form(rows, n).divisors \
        == oracles.smith_normal_form(M).divisors


def test_sparse_smith_divisors_keep_the_row_content():
    # [[1, 1], [1, 3]] has determinant 2: the row left after the unit pivot
    # is (0, 2), and dividing it by its gcd would lose the divisor 2.
    # No +-1 entry but coprime entries: the core alone gives the divisor 1.
    for rows, n, divisors in [([{0: 1, 1: 1}, {0: 1, 1: 3}], 2, (1, 2)),
                              ([{0: 2, 1: 3}], 2, (1,)), ([], 3, ()), ([{}, {}], 3, (0, 0))]:
        assert oracles.sparse_smith_divisors(rows, n) == divisors
        assert smith_normal_form(rows, n).divisors == divisors


# ---------------------------------------------------------------------------
# the dense carrier: one per field, owned by the field objects
# ---------------------------------------------------------------------------

BIG_PRIME = 2147483647  # 2**31 - 1, the largest prime GF accepts


def test_field_carrier_surface():
    assert QQ.zeros((2, 3)) == [[0, 0, 0], [0, 0, 0]]
    assert QQ.one == Fraction(1) and type(QQ.one) is Fraction
    assert QQ.reduce(Fraction(7, 3)) == Fraction(7, 3)
    F = GF(5)
    Z = F.zeros((2, 3))
    Z[0][0] = 1  # rows are distinct lists
    assert Z == [[1, 0, 0], [0, 0, 0]] and F.one == 1
    assert [F.reduce(x) for x in (-1, 5, 7)] == [4, 0, 2]
    assert not hasattr(QQ, "p")  # spans are labelled F_p or Q by this attribute


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(1, 4), st.integers(0, 10**6))
def test_matmul_exact_for_the_largest_prime(m, k, n, seed):
    p = BIG_PRIME
    rng = random.Random(seed)
    # Entries from the edges of the range, where int64 products would overflow.
    pick = lambda: rng.choice([0, 1, p - 1, p - 2, rng.randrange(p), -rng.randrange(p)])
    A = [[pick() for _ in range(k)] for _ in range(m)]
    B = [[pick() for _ in range(n)] for _ in range(k)]
    if not k:
        # The k x n factor with k = 0 is an empty list: it has no column count.
        with pytest.raises(ValueError):
            matmul(A, B, GF(p))
        return
    expect = [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(n)]
              for i in range(m)]
    assert matmul(A, B, GF(p)) == expect


def test_prime_bound_checked_before_primality():
    import time

    from betticong.exactalg import checked_prime

    start = time.perf_counter()
    for p in (10**30 + 57, 2**31, 2**61 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(p)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="not prime"):
        checked_prime(4)
    assert checked_prime(BIG_PRIME) == BIG_PRIME


def test_only_exactalg_tests_the_field_type():
    import re
    from pathlib import Path

    import betticong

    pattern = re.compile(r"isinstance\([^)]*\b(PrimeField|RationalField)\b")
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(Path(betticong.__file__).parent.glob("*.py"))
        if path.name != "exactalg.py"
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []
