"""Simplicial Z/p actions and their cohomological invariants.

An action is a vertex permutation of order dividing p (p an odd prime) that
sends simplices to simplices.  The fixed set is read off the setwise-invariant
simplices: they are X^G when the action is regular (every invariant simplex
is pointwise fixed), and their chains are X^G in sd X otherwise, so nothing
is subdivided to find it.  The quotient of a free action is X/G when the
simplex orbits embed, and otherwise is read off an orbit poset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations

from . import exactalg
from .exactalg import GF, QQ
from .simplicial import (
    GradedBetti,
    Simplex,
    SimplicialComplex,
    barycentric_subdivision,
    bary_label,
    maximal_chains,
    orbit,
)


@dataclass(frozen=True)
class GroupAction:
    """A validated Z/p generator acting simplicially on a complex."""

    complex: SimplicialComplex
    p: int
    vertex_map: tuple[tuple[str, str], ...]  # full map, sorted by source

    def __post_init__(self):
        # An orbit walk on a map that is not a bijection never ends.
        vertices = sorted(self.complex.vertices)
        if any(sorted(pair[i] for pair in self.vertex_map) != vertices for i in (0, 1)):
            raise ValueError("vertex_map must map each vertex of the complex once, onto all of them")

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.vertex_map)

    def perm(self) -> list[int]:
        """Generator as a permutation of vertex indices."""
        idx = self.complex._vertex_index
        m = self.mapping
        return [idx[m[v]] for v in self.complex.vertices]

    def power(self, k: int) -> "GroupAction":
        perm, vs = self.perm(), self.complex.vertices
        image = ((v, vs[(o := orbit(perm, q))[k % len(o)]]) for q, v in enumerate(vs))
        return GroupAction(self.complex, self.p, tuple(sorted(image)))


def validate_action(X: SimplicialComplex, sigma: dict, p: int) -> GroupAction:
    """Check sigma generates a simplicial Z/p action; errors are specific.

    Vertices omitted from ``sigma`` are fixed.  Requires p an odd prime,
    sigma a vertex bijection with sigma^p = id, and every simplex mapped to
    a simplex.
    """
    if p == 2:
        raise ValueError("p must be an odd prime, got 2")
    try:
        exactalg.checked_prime(p)
    except ValueError as e:
        raise ValueError(f"p must be an odd prime: {e}") from None
    mapping = {str(k): str(v) for k, v in sigma.items()}
    vertices = set(X.vertices)
    unknown = (set(mapping) | set(mapping.values())) - vertices
    if unknown:
        raise ValueError(f"action references unknown vertices: {sorted(unknown)}")
    for v in X.vertices:
        mapping.setdefault(v, v)
    if set(mapping.values()) != vertices:
        raise ValueError("vertex map is not a permutation")
    perm = [X._vertex_index[mapping[v]] for v in X.vertices]
    # Order must divide p: every cycle has length 1 or p.
    for q in range(len(perm)):
        cycle = orbit(perm, q)
        if len(cycle) not in (1, p):
            raise ValueError(
                f"permutation order mismatch: cycle {tuple(X.vertices[v] for v in cycle)} "
                f"has length {len(cycle)}, not 1 or {p}"
            )
    for f in X.facets:
        image = tuple(sorted(perm[v] for v in f))
        if X._simplex_index.get(len(f) - 1, {}).get(image) is None:
            labels = tuple(X.vertices[v] for v in f)
            raise ValueError(f"image of simplex {labels} is not a simplex")
    return GroupAction(X, p, tuple(sorted(mapping.items())))


def trivial_action(X: SimplicialComplex, p: int) -> GroupAction:
    return validate_action(X, {}, p)


# ---------------------------------------------------------------------------
# Regularity and fixed sets
# ---------------------------------------------------------------------------

def _vertex_orbit_reps(action: GroupAction) -> dict[str, str]:
    """Each vertex's least label in its orbit."""
    perm, vs = action.perm(), action.complex.vertices
    return {v: min(vs[u] for u in orbit(perm, q)) for q, v in enumerate(vs)}


def _invariant_simplices(action: GroupAction) -> list[Simplex]:
    """The setwise-invariant simplices, by dimension, then by index."""
    X = action.complex
    return [X.simplices(d)[q] for d in range(X.dim + 1)
            for q, image in enumerate(simplex_permutation(action, d)) if image == q]


def is_regular(action: GroupAction) -> bool:
    """Whether every setwise-invariant simplex is pointwise fixed."""
    perm = action.perm()
    return all(perm[v] == v for s in _invariant_simplices(action) for v in s)


def subdivide_action(action: GroupAction) -> GroupAction:
    """Barycentric subdivision with the induced action."""
    X = action.complex
    new_map = {}
    for d in range(X.dim + 1):
        labels = [bary_label(s) for s in X.simplex_labels(d)]
        new_map.update(zip(labels, (labels[q] for q in simplex_permutation(action, d))))
    return validate_action(barycentric_subdivision(X), new_map, action.p)


def make_regular(action: GroupAction) -> GroupAction:
    """Subdivide so that setwise-invariant simplices are pointwise fixed.

    Betti data is unchanged (subdivision is a homeomorphism).  One round
    suffices: a simplex of sd X is a chain of simplices of distinct
    dimensions, so a chain fixed setwise is fixed link by link.  A regular
    action is returned as it is.
    """
    if is_regular(action):
        return action
    reg = subdivide_action(action)
    if not is_regular(reg):  # pragma: no cover
        raise AssertionError("regularity not reached after one subdivision")
    return reg


def fixed_subcomplex(action: GroupAction) -> SimplicialComplex:
    """The fixed set X^G as a simplicial complex, for any action.

    If the action is regular, X^G is its invariant simplices under their own
    labels.  Otherwise it is the part of sd X that the induced action fixes
    pointwise: the chains of invariant simplices of X (Bredon, Introduction
    to Compact Transformation Groups, III.1).  An invariant simplex is a
    union of vertex orbits, and each maximal chain below it adds one orbit
    at a time, so it gives one chain per ordering of its orbits.  Vertices
    are labelled by ``bary_label`` and ordered by (size, index) as in
    ``barycentric_subdivision``, so the result equals the fixed subcomplex
    of ``make_regular(action)`` without building sd X.  It is cached on X
    per vertex map, so every caller shares it and its Betti caches.
    """
    X = action.complex
    key = ("fixed", action.vertex_map)
    if key in X._cache:
        return X._cache[key]
    perm = action.perm()
    invariant = _invariant_simplices(action)
    labels = [tuple(X.vertices[v] for v in s) for s in invariant]
    if all(perm[v] == v for s in invariant for v in s):
        F = SimplicialComplex.from_simplices(X.vertices, labels)
    else:
        reps = _vertex_orbit_reps(action)
        chains = [
            [bary_label(tuple(v for v in s if reps[v] in order[:k])) for k in range(1, len(order) + 1)]
            for s in labels for order in permutations(sorted({reps[v] for v in s}))
        ]
        F = SimplicialComplex.from_simplices(tuple(map(bary_label, labels)), chains)
    X._cache[key] = F
    return F


# ---------------------------------------------------------------------------
# Induced maps on cochains and cohomology
# ---------------------------------------------------------------------------

def simplex_permutation(action: GroupAction, degree: int) -> list[int]:
    """The generator on the degree-simplices: perm[q] is the index of the
    sorted image of simplex q.  Cached on the complex per vertex map."""
    X = action.complex
    key = ("simplexperm", action.vertex_map, degree)
    if key not in X._cache:
        perm_v, index = action.perm(), X._simplex_index.get(degree, {})
        X._cache[key] = [index[tuple(sorted(perm_v[v] for v in s))] for s in X.simplices(degree)]
    return X._cache[key]


def pullback_permutation(action: GroupAction, degree: int) -> tuple[list[int], list[int]]:
    """sigma^# on C^degree as (``simplex_permutation``, signs).

    (sigma^# a)[s] = signs[s] * a[perm[s]], the sign being the parity of
    the permutation that sorts s's vertex image: one sort per simplex.
    """
    X = action.complex
    key = ("pullperm", action.vertex_map, degree)
    if key not in X._cache:
        perm_v, positions, parity, signs = action.perm(), range(degree + 1), {}, []
        for s in X.simplices(degree):
            order = tuple(sorted(positions, key=[perm_v[v] for v in s].__getitem__))
            if order not in parity:  # inversions, once per distinct sorting permutation
                parity[order] = -1 if sum(a > b for a, b in combinations(order, 2)) % 2 else 1
            signs.append(parity[order])
        X._cache[key] = (simplex_permutation(action, degree), signs)
    return X._cache[key]


def pullback_cochain(action: GroupAction, degree: int, v: dict, field) -> dict:
    """sigma^# of the sparse cochain v in C^degree, sparse too: (sigma^# v)[s]
    = signs[s] * v[perm[s]] at each s whose image perm[s] is in v's support."""
    perm, signs = pullback_permutation(action, degree)
    return {s: field.reduce(signs[s] * v[q]) for s, q in enumerate(perm) if q in v}


def induced_cohomology_action(action: GroupAction, field) -> list[list[list]]:
    """Per-degree matrices of sigma^* on H^*(X; field) in the bases of ``cohomology_basis``:
    column j is the class of ``pullback_cochain`` of the j-th basis cocycle."""
    X = action.complex
    key = ("gstar", field.name, action.vertex_map)
    if key in X._cache:
        return X._cache[key]
    out = []
    for d in range(X.dim + 1):
        basis = X.cohomology_basis(field, d)
        cols = [basis.express(pullback_cochain(action, d, v, field)) for v in basis.basis]
        out.append([list(row) for row in zip(*cols)])
    X._cache[key] = out
    return out


def lefschetz_number(action: GroupAction) -> int:
    """Lefschetz number: alternating trace of sigma^* on rational cohomology, an integer."""
    mats = induced_cohomology_action(action, QQ)
    total = Fraction(0)
    for d, M in enumerate(mats):
        tr = sum((M[i][i] for i in range(len(M))), Fraction(0))
        total += (-1) ** d * tr
    if total.denominator != 1:
        raise ArithmeticError(f"the Lefschetz number {total} is not an integer")
    return int(total)


# ---------------------------------------------------------------------------
# Bockstein condition and the T/F/R decomposition
# ---------------------------------------------------------------------------

def bockstein_condition(X: SimplicialComplex, p: int) -> bool:
    """True iff no integral elementary divisor has p-adic valuation exactly 1.

    Equivalent to: every mod-p class lifts to Z/p^2, i.e. H^*(X;Z_(p)) has
    no Z/p direct summand.
    """
    profiles = X.torsion_valuation_profile(p)
    return all(1 not in vals for vals in profiles.values())


@dataclass(frozen=True)
class TFRDecomposition:
    """Per-degree F_p[Z/p]-module structure of H^*(X;F_p) from block sizes.

    ``t[i]``, ``f[i]``, ``r[i]`` count Jordan blocks of sigma^* - id of
    sizes 1, p and p-1 (trivial, free and augmentation-kernel summands);
    ``other[i]`` lists any remaining block sizes, which the Bockstein
    condition (``bockstein_ok``) rules out.
    """

    p: int
    t: tuple[int, ...]
    f: tuple[int, ...]
    r: tuple[int, ...]
    other: tuple[tuple[int, ...], ...]
    bockstein_ok: bool

    @property
    def dim_t(self) -> int:
        return sum(self.t)

    @property
    def dim_f(self) -> int:
        return self.p * sum(self.f)

    @property
    def dim_r(self) -> int:
        return (self.p - 1) * sum(self.r)

    @property
    def hypothesis_failing(self) -> bool:
        return not self.bockstein_ok or any(self.other)


def tfr_decomposition(action: GroupAction) -> TFRDecomposition:
    """Classify H^i(X;F_p) into trivial/free/ker-epsilon summands per degree."""
    p = action.p
    X = action.complex
    fieldp = GF(p)
    # First, so that its Smith pass also supplies the F_p ranks of g*'s bases.
    bockstein_ok = bockstein_condition(X, p)
    mats = induced_cohomology_action(action, fieldp)
    t, f, r, other = [], [], [], []
    for M in mats:
        N = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(M)]
        sizes = exactalg.nilpotent_block_sizes(N, fieldp, p)
        t.append(sum(1 for s in sizes if s == 1))
        f.append(sum(1 for s in sizes if s == p))
        r.append(sum(1 for s in sizes if s == p - 1 and p - 1 != 1))
        other.append(tuple(s for s in sizes if s not in (1, p - 1, p)))
    return TFRDecomposition(
        p=p,
        t=tuple(t),
        f=tuple(f),
        r=tuple(r),
        other=tuple(other),
        bockstein_ok=bockstein_ok,
    )


# ---------------------------------------------------------------------------
# Quotients of free actions
# ---------------------------------------------------------------------------

def _orbits_embed(action: GroupAction) -> bool:
    """Whether the simplex orbits of a free action form a simplicial complex.

    Each d-simplex must meet d + 1 vertex orbits, and distinct orbits distinct
    sets of them.  The n_d d-simplices fall into n_d / p orbits, the action
    being free of prime order, so that holds iff there are n_d / p such sets.
    """
    X = action.complex
    reps = _vertex_orbit_reps(action)
    rep = [reps[v] for v in X.vertices]
    for d in range(X.dim + 1):
        images = {frozenset(rep[v] for v in s) for s in X.simplices(d)}
        if len(images) * action.p != X.n_simplices(d) or any(len(i) != d + 1 for i in images):
            return False
    return True


def quotient_complex(action: GroupAction) -> SimplicialComplex:
    """Quotient of a free action, as a simplicial complex.

    Rejects non-free actions: for p prime, an action is free exactly when no
    simplex is invariant.  If the simplex orbits of X embed, the quotient is
    X/G, each vertex orbit labelled by its least vertex.

    Otherwise it is sd(Y)/G, read off the orbit poset of Y without building
    sd Y (Bredon, Introduction to Compact Transformation Groups, III.1).
    Y is X if every simplex of X meets dim + 1 vertex orbits, else sd X,
    whose simplices, chains of simplices of distinct dimensions, always do.
    A vertex is a simplex orbit of Y, labelled by its least ``bary_label``
    (its least vertex in sd Y), and a facet is the orbit image of a maximal
    chain of Y.  This is sd(Y)/G because the simplex orbits of sd Y embed:

    - the elements of a chain have distinct dimensions, so they lie in
      distinct orbits;
    - the faces of one simplex of Y meet distinct sets of vertex orbits, so
      they lie in distinct orbits.  If chains c and c' have one orbit set and
      their tops are s and g s, then g^-1 carries each element of c' to a
      face of s in the orbit of an element of c, that element itself: c' = g c.

    And sd X does not embed when a simplex s of X meets an orbit at u and
    g u: the edges (u < s) and (g u < s) have one orbit set, in two orbits.
    So sd Y is the first subdivision of X whose simplex orbits embed.
    """
    if _invariant_simplices(action):
        raise ValueError("quotient_complex requires a free action")
    X = action.complex
    reps = _vertex_orbit_reps(action)
    if _orbits_embed(action):
        orbit_facets = [[reps[X.vertices[v]] for v in f] for f in X.facets]
        return SimplicialComplex.from_facets(orbit_facets, vertex_order=sorted(set(reps.values())))
    if any(len({reps[X.vertices[v]] for v in f}) < len(f) for f in X.facets):
        action = subdivide_action(action)
    Y = action.complex
    label: dict[Simplex, str] = {}
    for d in range(Y.dim + 1):
        simps, names = Y.simplices(d), [bary_label(s) for s in Y.simplex_labels(d)]
        perm = simplex_permutation(action, d)
        for q, s in enumerate(simps):
            if s not in label:
                o = orbit(perm, q)
                label.update(dict.fromkeys((simps[r] for r in o), min(names[r] for r in o)))
    orbit_facets = {frozenset(label[s] for s in chain) for chain in maximal_chains(Y)}
    return SimplicialComplex.from_facets(orbit_facets, vertex_order=sorted(set(label.values())))


# ---------------------------------------------------------------------------
# Convenience wrappers used throughout the theorem checks
# ---------------------------------------------------------------------------

def fixed_set_cohomology(action: GroupAction, field) -> GradedBetti:
    """Betti data of the fixed set."""
    return fixed_subcomplex(action).cohomology(field)
