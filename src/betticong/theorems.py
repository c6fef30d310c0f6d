"""Hypothesis validation and mod-4 congruence verdicts for the main theorems.

Reports are data, never exceptions: the free-sphere counterexamples are
first-class fixtures whose job is to come out NOT APPLICABLE while visibly
violating the congruence.  A congruence is only ever asserted when every
hypothesis on the checklist holds; expensive hypotheses (the full
homology-manifold scan) are skipped, and marked so, once a cheap one fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .exactalg import GF, QQ
from .group_action import (
    GroupAction,
    fixed_set_cohomology,
    fixed_subcomplex,
    simplex_permutation,
    tfr_decomposition,
)
from .simplicial import SimplicialComplex, orbit, pd_check
from .pd_algebra import (
    BigradedAlgebra,
    Differential,
    Orientation,
    check_pd,
    euler_and_dim,
    homology,
    odd_congruence,
)


def check_line(name: str, verdict: str, lhs, rhs) -> str:
    """One asserted check's report line: verdict, then lhs vs rhs mod 4 ("-" for None)."""
    lhs, rhs = ("-" if x is None else x for x in (lhs, rhs))
    return f"CHECK {name}: {verdict} — {lhs} vs {rhs} (mod 4)"


@dataclass(frozen=True)
class Hypothesis:
    name: str
    satisfied: bool | None  # None: not evaluated (earlier hypothesis failed)
    evidence: str = ""


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    subject: str
    hypotheses: tuple[Hypothesis, ...]
    lhs: int | None
    rhs: int | None

    @property
    def applicable(self) -> bool:
        return all(h.satisfied for h in self.hypotheses)

    @property
    def congruent(self) -> bool | None:
        """Informational congruence value; only a claim when applicable."""
        if self.lhs is None or self.rhs is None:
            return None
        return (self.lhs - self.rhs) % 4 == 0

    @property
    def verdict(self) -> str:
        if not self.applicable:
            return "N/A"
        return "PASS" if self.congruent else "FAIL"

    def lines(self) -> list[str]:
        out = [f"THEOREM {self.theorem} on {self.subject}"]
        for h in self.hypotheses:
            state = "yes" if h.satisfied else ("no" if h.satisfied is not None else "skipped")
            ev = f" ({h.evidence})" if h.evidence else ""
            out.append(f"  hypothesis {h.name}: {state}{ev}")
        out.append(f"  applicable: {'yes' if self.applicable else 'no'}")
        out.append(check_line(f"theorem{self.theorem}", self.verdict, self.lhs, self.rhs))
        return out


# ---------------------------------------------------------------------------
# Theorem 2 (Z/p, F_p coefficients)
# ---------------------------------------------------------------------------

def check_theorem2(action: GroupAction, subject: str = "") -> TheoremReport:
    """F_p-PD + Bockstein + parity hypotheses, then
    dim H^*(X^G) = dim T^* + dim R^*/(p-1) mod 4."""
    p = action.p
    X = action.complex
    field = GF(p)
    hyps: list[Hypothesis] = []

    ncomp = len(X.connected_components())
    hyps.append(Hypothesis("connected", ncomp == 1, f"{ncomp} component(s)"))

    decomp = tfr_decomposition(action)
    lhs = fixed_set_cohomology(action, field).total
    rhs = decomp.dim_t + sum(decomp.r)

    if ncomp == 1:
        pd = pd_check(X, field)
        hyps.append(
            Hypothesis(
                "fp_poincare_duality",
                pd.is_pd,
                f"formal dimension {pd.formal_dim}" if pd.is_pd else "; ".join(pd.failures),
            )
        )
        if pd.is_pd:
            n = pd.formal_dim
            bock = decomp.bockstein_ok
            hyps.append(
                Hypothesis(
                    "bockstein_vanishes",
                    bock,
                    "no divisor of p-valuation 1" if bock else "Z/p summand present",
                )
            )
            hyps.append(_parity_hypothesis(action, decomp, n, field))
        else:
            hyps.append(Hypothesis("bockstein_vanishes", None))
            hyps.append(Hypothesis("parity", None))
    else:
        hyps.append(Hypothesis("fp_poincare_duality", None))
        hyps.append(Hypothesis("bockstein_vanishes", None))
        hyps.append(Hypothesis("parity", None))

    return TheoremReport(
        theorem="2",
        subject=subject or f"Z/{p} action on {X!r}",
        hypotheses=tuple(hyps),
        lhs=lhs,
        rhs=rhs,
    )


def _parity_hypothesis(action, decomp, n, field) -> Hypothesis:
    if n % 2 == 0:
        return Hypothesis("parity", True, f"n = {n} even")
    m = (n - 1) // 2
    fixed_empty = fixed_set_cohomology(action, field).total == 0
    if fixed_empty:
        return Hypothesis("parity", False, f"n = {n} odd and fixed set empty")
    bad = []
    for i in range(1, m + 1):
        if i % 2 == 0 and i < len(decomp.t) and decomp.t[i]:
            bad.append(f"T^{i} != 0")
        if i % 2 == 1 and i < len(decomp.r) and decomp.r[i]:
            bad.append(f"R^{i} != 0")
    if bad:
        return Hypothesis("parity", False, f"n = {n} odd; " + ", ".join(bad))
    return Hypothesis("parity", True, f"n = {n} odd, fixed set nonempty, T/R window clear")


# ---------------------------------------------------------------------------
# Theorem 1 (algebraic form)
# ---------------------------------------------------------------------------

def check_theorem1_algebraic(
    A: BigradedAlgebra,
    delta: Differential | None,
    phi: Orientation,
    fixed_set_dim: int | None = None,
    subject: str = "",
) -> TheoremReport:
    """Theorem 1 on user-supplied rational cohomology algebras.

    A document that breaks a law of ``BigradedAlgebra.validate`` is not an
    algebra, and its first violation makes the report not applicable.  The
    hypotheses read off its product table (PD algebra, odd case) are then
    skipped; the CHECK line keeps its dimensions, dim A and, in odd
    dimension, dim H(A, delta) where delta is a square-zero derivation.
    Even formal dimension runs the dim = chi route; odd dimension runs the
    odd-dimension congruence route on (A, delta) and optionally pins the
    homology dimension to a
    supplied fixed-set total Betti number.
    """
    hyps: list[Hypothesis] = []
    problems = A.validate()
    hyps.append(Hypothesis("algebra_laws", not problems, problems[0] if problems else ""))
    hyps.append(Hypothesis("rational_coefficients", A.field is QQ or A.field.char == 0))
    n = phi.formal_dim
    # In odd formal dimension odd_congruence checks PD itself and reports its verdict.
    orep = odd_congruence(A, delta, phi) if not problems and n % 2 and delta is not None else None
    if problems:
        hyps.append(Hypothesis("connected_pd_algebra", None))
    else:
        pd = orep.pd if orep is not None else check_pd(A, phi)
        hyps.append(Hypothesis("connected_pd_algebra", pd.is_pd, f"formal dimension {pd.formal_dim}"))
    concentrated = all(e == 0 for e, _ in A.bidegrees)
    hyps.append(Hypothesis("concentrated_in_second_grading", concentrated))
    lhs = rhs = None
    if n % 2 == 0:
        hyps.append(Hypothesis("parity", True, f"n = {n} even: Euler route"))
        total, chi = euler_and_dim(A)
        lhs, rhs = total, chi
    else:
        if delta is None:
            hyps.append(Hypothesis("parity", False, f"n = {n} odd but no differential supplied"))
        elif problems:
            hyps.append(Hypothesis("odd_case_hypotheses", None))
            try:
                H, _ = homology(A, delta, phi)
                rhs = H.dim if H is not None else 0
            except ValueError:  # not a square-zero derivation, or the unit law fails: rhs "-"
                pass
        else:
            hyps.append(
                Hypothesis(
                    "odd_case_hypotheses",
                    orep.applicable,
                    "; ".join(orep.failures) if orep.failures else
                    f"skew form nondegenerate on a {orep.quotient_dim}-dimensional quotient",
                )
            )
            # Both None when H(A, delta) is undefined: rhs "-".
            lhs, rhs = orep.dim_total, orep.dim_homology
            if orep.applicable and fixed_set_dim is not None:
                hyps.append(
                    Hypothesis(
                        "fixed_set_dimension_matches",
                        orep.dim_homology == fixed_set_dim,
                        f"dim H(A, delta) = {orep.dim_homology} vs fixed set {fixed_set_dim}",
                    )
                )
    return TheoremReport(
        theorem="1-algebraic",
        subject=subject or "rational PD algebra",
        hypotheses=tuple(hyps),
        lhs=lhs if lhs is not None else A.dim,
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# Homology manifolds: Theorem 4 and the even-codimension check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyManifoldReport:
    is_hm: bool
    pure: bool
    orientable: bool
    dim: int
    failures: tuple[tuple[str, ...], ...] = ()

    @property
    def orientable_hm(self) -> bool:
        return self.is_hm and self.orientable


def homology_manifold_check(X: SimplicialComplex, p: int,
                            action: GroupAction | None = None) -> HomologyManifoldReport:
    """Every link must be a sphere of complementary dimension over Z_(p).

    X must be pure of some dimension d; then the link of a k-simplex s has
    the facets f - s for the facets f that contain s, and is pure of
    dimension c - 1, where c = d - k.  It passes when its reduced Betti
    numbers over F_p are those of S^(c-1).  That makes it a sphere over Q
    as well: by universal coefficients b_i(Q) <= b_i(F_p) in every degree,
    and both alternating sums are chi, so no p-torsion is left to detect.
    Links are decided by codimension c, low to high, so that when s is
    reached the links of all its cofaces are known.  Each certificate below
    is exact over F_p for every odd p:

    - c = 0: the link is empty, S^(-1); it passes.
    - c = 1: a set of points; it passes iff two facets contain s.
    - c = 2: a graph; it passes iff it is connected with E = V (b_1 = 1).
    - c = 3, every coface passed: the link is a closed surface (each edge
      in two triangles, each vertex link a circle).  A connected closed
      surface has b_2 <= 1, so it passes iff it is connected and
      V - E + F = 2.
    - Every other link (c >= 4, or a coface failed) passes if its
      coreduction leaves vertex 0 and one cell of degree c - 1: the core
      carries the link's cohomology over every ring, that of S^(c-1), with
      no rank taken.  A vertex link of S^2 x S^2 (Z/7) coreduces so.  Any
      other core passes iff the F_p Betti numbers are (1, 0, ..., 0, 1),
      from the coboundary ranks on the coreduced rows.

    ``action``, if given, is a group action on X, whose generator g is a
    simplicial automorphism of X; then only the first simplex of each
    orbit <g> s is decided, and its verdict is given to the whole orbit.
    The report is the same as without it.  A vertex bijection g maps the
    facets f of X that contain s onto those that contain gs, and f - s
    onto gf - gs, so lk(s) and lk(gs) are isomorphic; it maps the cofaces
    of s onto those of gs.  By induction on the codimension, s has a
    failed coface iff gs has (the failure set above is G-invariant), so
    s and gs reach the same certificate with the same flag; and every
    certificate's answer is an isomorphism invariant of the link (counts,
    connectivity, and, on the last route, the sphere's F_p Betti numbers,
    which a one-cell core implies).  So s fails iff gs fails, and the
    faces of every member of a failed orbit, or of an orbit below a
    failure, are below a failure.  Without ``action`` each orbit is one
    simplex.  ``ValueError`` if ``action`` acts on another complex.

    ``failures`` lists the simplices whose link fails, by dimension, then
    in the complex's simplex order.  Orientability: b_d = 1 over Q, and no
    p-torsion in H^d(X;Z), that is no divisor of delta^(d-1) divisible by p:
    its divisors prime to p count its F_p rank and all of them its Q rank,
    so this holds iff b_d = 1 over F_p too.
    """
    if action is not None and action.complex is not X:
        raise ValueError("the action is not on this complex")
    key = ("hm", p)
    if key in X._cache:
        return X._cache[key]
    d = X.dim
    pure = X.is_pure()
    failures = _link_failures(X, p, action) if pure else []
    orientable = d >= 0 and X.cohomology(QQ).betti[-1] == 1 == X.cohomology(GF(p)).betti[-1]
    report = HomologyManifoldReport(
        is_hm=pure and not failures,
        pure=pure,
        orientable=orientable,
        dim=d,
        failures=tuple(failures),
    )
    X._cache[key] = report
    return report


def _link_failures(X: SimplicialComplex, p: int,
                   action: GroupAction | None = None) -> list[tuple[str, ...]]:
    """The simplices of the pure complex X whose link is not an F_p-sphere,
    deciding one simplex per orbit of ``action`` (see homology_manifold_check)."""
    d = X.dim
    orbits = []  # as simplices from the first, by dimension, then in simplex order
    for k in range(d + 1):
        simps, seen = X.simplices(k), set()
        perm = simplex_permutation(action, k) if action else range(len(simps))
        for q in range(len(simps)):
            if q not in seen:
                seen.update(o := orbit(perm, q))
                orbits.append([simps[r] for r in o])
    firsts = {orb[0] for orb in orbits}
    links: dict[tuple[int, ...], list[tuple[int, ...]]] = {s: [] for s in firsts}
    for f in X.facets:
        for r in range(1, len(f) + 1):
            for s in combinations(f, r):
                if s in firsts:
                    links[s].append(tuple(v for v in f if v not in s))
    failed: set[tuple[int, ...]] = set()
    below_failure: set[tuple[int, ...]] = set()  # simplices with a failed coface
    for orb in reversed(orbits):
        s = orb[0]
        if not _link_passes(X, links[s], d + 1 - len(s), s in below_failure, p):
            failed.update(orb)
        if len(s) > 1 and (s in failed or s in below_failure):
            below_failure.update(t[:i] + t[i + 1:] for t in orb for i in range(len(t)))
    return [tuple(X.vertices[v] for v in s)
            for k in range(d + 1) for s in X.simplices(k) if s in failed]


def _link_passes(X: SimplicialComplex, lk: list, c: int, coface_failed: bool, p: int) -> bool:
    """Is the link with facets ``lk``, of codimension c, an F_p-sphere?"""
    if c <= 1:
        return c == 0 or len(lk) == 2
    vertices = {v for f in lk for v in f}
    if c == 2:
        return len(lk) == len(vertices) and _is_connected(lk)
    if c == 3 and not coface_failed:
        edges = {e for f in lk for e in combinations(f, 2)}
        return len(vertices) - len(edges) + len(lk) == 2 and _is_connected(lk)
    L = SimplicialComplex(X.vertices, tuple(sorted(lk)))
    if list(map(sum, L._retraction().live)) == [1] + [0] * (c - 2) + [1]:
        return True
    return L.cohomology(GF(p)).betti == (1,) + (0,) * (c - 2) + (1,)


def _is_connected(facets: list) -> bool:
    """Is the complex with these facets connected?  Grows the first one's component."""
    reached, rest = set(facets[0]), facets[1:]
    while rest:
        left = [f for f in rest if reached.isdisjoint(f)]
        if len(left) == len(rest):
            return False
        reached.update(v for f in rest if not reached.isdisjoint(f) for v in f)
        rest = left
    return True


def check_theorem4(action: GroupAction, subject: str = "") -> TheoremReport:
    """Even-dimensional orientable Z_(p)-homology manifold with large p:
    rational total Betti numbers of fixed set and ambient agree mod 4."""
    p = action.p
    X = action.complex
    hyps: list[Hypothesis] = []
    ncomp = len(X.connected_components())
    hyps.append(Hypothesis("connected", ncomp == 1, f"{ncomp} component(s)"))
    hyps.append(Hypothesis("even_dimension", X.dim % 2 == 0, f"dim X = {X.dim}"))
    # One Smith pass per coboundary gives its F_p rank, read here, and its
    # Q rank, read by orientability and the rhs.
    X.torsion_valuation_profile(p)
    total_fp = X.cohomology(GF(p)).total
    hyps.append(
        Hypothesis("p_exceeds_total_betti", p > total_fp, f"p = {p}, dim H^*(X;F_p) = {total_fp}")
    )
    cheap_ok = ncomp == 1 and X.dim % 2 == 0 and p > total_fp
    if cheap_ok:
        hm = homology_manifold_check(X, p, action)
        ev = "links are spheres" if hm.is_hm else f"{len(hm.failures)} link failure(s)"
        if hm.is_hm and not hm.orientable:
            ev = "links pass but not orientable"
        hyps.append(Hypothesis("orientable_homology_manifold", hm.orientable_hm, ev))
    else:
        hyps.append(Hypothesis("orientable_homology_manifold", None))
    lhs = fixed_set_cohomology(action, QQ).total
    rhs = X.cohomology(QQ).total
    return TheoremReport(
        theorem="4",
        subject=subject or f"Z/{p} action on {X!r}",
        hypotheses=tuple(hyps),
        lhs=lhs,
        rhs=rhs,
    )


@dataclass(frozen=True)
class ComponentVerdict:
    component_dim: int
    codimension: int
    is_hm: bool
    even_codim: bool

    @property
    def ok(self) -> bool:
        return self.is_hm and self.even_codim


@dataclass(frozen=True)
class EvenCodimReport:
    components: tuple[ComponentVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.components)


def check_even_codim(action: GroupAction) -> EvenCodimReport:
    """Each fixed component is a homology manifold of even codimension."""
    F = fixed_subcomplex(action)
    verdicts = []
    if F.dim >= 0:
        comps = F.connected_components()
        for comp in comps:
            simp = [
                tuple(F.vertices[v] for v in f)
                for f in F.facets
                if set(f) <= comp
            ]
            C = SimplicialComplex.from_simplices(F.vertices, simp)
            hm = homology_manifold_check(C, action.p)
            codim = action.complex.dim - C.dim
            verdicts.append(
                ComponentVerdict(
                    component_dim=C.dim,
                    codimension=codim,
                    is_hm=hm.is_hm,
                    even_codim=codim % 2 == 0,
                )
            )
    return EvenCodimReport(tuple(verdicts))


def smith_inequality_check(action: GroupAction) -> dict:
    """dim H^*(X^G; F_p) <= dim H^*(X; F_p)."""
    field = GF(action.p)
    fixed_total = fixed_set_cohomology(action, field).total
    ambient_total = action.complex.cohomology(field).total
    return {
        "fixed_total": fixed_total,
        "ambient_total": ambient_total,
        "ok": fixed_total <= ambient_total,
    }


def euler_route_congruence(X: SimplicialComplex, p: int) -> dict:
    """The section-3 chain: dim H^*(X;F_p) = chi(X) mod 4 for even-dim F_p-PD X.

    Used as the cross-check route against Theorem 2 on trivial actions.
    """
    total = X.cohomology(GF(p)).total
    chi = X.euler_characteristic()
    return {"total": total, "chi": chi, "ok": (total - chi) % 4 == 0}
