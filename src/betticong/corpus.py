"""Shared fixture complexes and actions used by the test corpus and the CLI.

Everything here is deterministic and cached: building the larger complexes
(staircase products of spheres, the lens-space quotient) costs real time,
and the acceptance suite touches each fixture from several angles.
"""

from __future__ import annotations

from functools import cache

from .group_action import GroupAction, quotient_complex, validate_action
from .simplicial import SimplicialComplex, join, product, suspension


@cache
def polygon(n: int, prefix: str = "v") -> SimplicialComplex:
    """Boundary of an n-gon (a circle) with vertices prefix0..prefix(n-1)."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    labels = [f"{prefix}{i}" for i in range(n)]
    facets = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return SimplicialComplex.from_facets(facets, vertex_order=labels)


@cache
def full_triangle() -> SimplicialComplex:
    return SimplicialComplex.from_facets([("a0", "a1", "a2")], vertex_order=["a0", "a1", "a2"])


@cache
def sphere_suspension(n: int, prefix: str = "v") -> SimplicialComplex:
    """S^2 as the suspension of an n-gon; rotation-symmetric for Z/n."""
    return suspension(polygon(n, prefix))


@cache
def tetrahedron_boundary(prefix: str = "t") -> SimplicialComplex:
    labels = [f"{prefix}{i}" for i in range(4)]
    facets = [tuple(l for l in labels if l != skip) for skip in labels]
    return SimplicialComplex.from_facets(facets, vertex_order=labels)


@cache
def torus(n: int = 3, m: int = 3) -> SimplicialComplex:
    """Staircase product of an n-gon and an m-gon."""
    return product(polygon(n, "x"), polygon(m, "y"))


@cache
def equivariant_circle(p: int) -> SimplicialComplex:
    """A 2p-gon on which the Z/p rotation is order-preserving facet by facet.

    Interleave one orbit of edge midpoints: edges (a_i, m_i) and
    (m_i, a_{i+1}) with every a-label ordered before every m-label.  The
    rotation a_i -> a_{i+1}, m_i -> m_{i+1} then restricts to an order
    isomorphism on each edge, which is exactly what makes the staircase
    product with another complex equivariant.
    """
    a = [f"a{i}" for i in range(p)]
    m = [f"m{i}" for i in range(p)]
    facets = []
    for i in range(p):
        facets.append((a[i], m[i]))
        facets.append((m[i], a[(i + 1) % p]))
    return SimplicialComplex.from_facets(facets, vertex_order=a + m)


@cache
def equivariant_sphere(p: int) -> SimplicialComplex:
    """S^2 as the suspension of the order-friendly 2p-gon (poles last)."""
    return suspension(equivariant_circle(p))


@cache
def grid_torus(p: int, q: int = 3) -> SimplicialComplex:
    """The p x q grid torus; the first-coordinate shift acts simplicially."""
    if p < 3 or q < 3:
        raise ValueError("grid torus needs p, q >= 3")
    lbl = {(i, j): f"g{i}_{j}" for i in range(p) for j in range(q)}
    facets = []
    for i in range(p):
        for j in range(q):
            facets.append((lbl[i, j], lbl[(i + 1) % p, j], lbl[(i + 1) % p, (j + 1) % q]))
            facets.append((lbl[i, j], lbl[i, (j + 1) % q], lbl[(i + 1) % p, (j + 1) % q]))
    order = [lbl[i, j] for i in range(p) for j in range(q)]
    return SimplicialComplex.from_facets(facets, vertex_order=order)


@cache
def s2xs2(p: int = 3) -> SimplicialComplex:
    """S^2 x S^2 carrying the Z/p rotation of the first sphere factor.

    The acting factor is the suspended order-friendly 2p-gon so the
    staircase product is genuinely equivariant.  p = 3 pairs it with a
    suspended triangle (a product of two suspensions); larger p pairs it
    with the tetrahedron boundary to keep the equivariant checks fast.
    """
    first = equivariant_sphere(p)
    if p == 3:
        second = sphere_suspension(3, "y")
    else:
        second = tetrahedron_boundary()
    return product(first, second)


@cache
def s3_join() -> SimplicialComplex:
    """S^3 as the join of two triangles; carries the free diagonal rotation."""
    return join(polygon(3, "a"), polygon(3, "b"))


@cache
def rp2_six_vertex() -> SimplicialComplex:
    """The 6-vertex real projective plane (antipodal icosahedron quotient)."""
    facets = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    labels = [f"r{i}" for i in range(1, 7)]
    return SimplicialComplex.from_facets(
        [tuple(labels[v - 1] for v in f) for f in facets], vertex_order=labels
    )


@cache
def wedge_fixture() -> SimplicialComplex:
    """Two triangles sharing one vertex: fails the homology-manifold check."""
    return SimplicialComplex.from_facets(
        [("w0", "w1", "w2"), ("w0", "w3", "w4")],
        vertex_order=["w0", "w1", "w2", "w3", "w4"],
    )


@cache
def one_point() -> SimplicialComplex:
    return SimplicialComplex.from_facets([("pt",)], vertex_order=["pt"])


@cache
def three_sphere_wedge() -> SimplicialComplex:
    """Three suspended triangles joined to a central vertex by edges.

    Z/3 rotates the three sphere summands; the center is fixed.  H^2 is a
    free F_3[Z/3]-module (one permutation block of size 3).
    """
    facets = []
    for i in range(3):
        tri = [f"s{i}a0", f"s{i}a1", f"s{i}a2"]
        for e in range(3):
            for pole in (f"s{i}N", f"s{i}S"):
                facets.append((tri[e], tri[(e + 1) % 3], pole))
        facets.append(("c", f"s{i}N"))
    order = ["c"]
    for i in range(3):
        order += [f"s{i}a0", f"s{i}a1", f"s{i}a2", f"s{i}N", f"s{i}S"]
    return SimplicialComplex.from_facets(facets, vertex_order=order)


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def _rotation(prefix: str, n: int) -> dict[str, str]:
    return {f"{prefix}{i}": f"{prefix}{(i + 1) % n}" for i in range(n)}


def _product_map(first_map: dict[str, str]) -> dict[str, str]:
    """Lift a first-factor vertex map to product labels '(x,y)'."""

    def lift(label: str) -> str:
        x, y = label[1:-1].split(",", 1)
        return f"({first_map.get(x, x)},{y})"

    return lift


@cache
def free_polygon_action(n: int) -> GroupAction:
    """Free rotation of the n-gon, n an odd prime."""
    return validate_action(polygon(n), _rotation("v", n), n)


@cache
def sphere_rotation(p: int) -> GroupAction:
    """Rotation of the suspended p-gon: poles fixed, equator free."""
    return validate_action(sphere_suspension(p), _rotation("v", p), p)


def _interleaved_rotation(p: int) -> dict[str, str]:
    rot = _rotation("a", p)
    rot.update(_rotation("m", p))
    return rot


@cache
def torus_rotation(p: int = 3) -> GroupAction:
    """Free shift of the first coordinate of the p x 3 grid torus."""
    T = grid_torus(p, 3)
    m = {f"g{i}_{j}": f"g{(i + 1) % p}_{j}" for i in range(p) for j in range(3)}
    return validate_action(T, m, p)


@cache
def s2xs2_rotation(p: int = 3) -> GroupAction:
    """Rotation of the first sphere factor of S^2 x S^2."""
    X = s2xs2(p)
    lift = _product_map(_interleaved_rotation(p))
    return validate_action(X, {v: lift(v) for v in X.vertices}, p)


@cache
def s3_free_action() -> GroupAction:
    """Free diagonal rotation on the join of two triangles (S^3)."""
    m = _rotation("a", 3) | _rotation("b", 3)
    return validate_action(s3_join(), m, 3)


@cache
def second_factor_sphere_action() -> GroupAction:
    """3-gon x S^2 with the rotation on the sphere factor: fixed set 2 circles."""
    X = product(polygon(3, "c"), equivariant_sphere(3))
    rot = _interleaved_rotation(3)

    def lift(label: str) -> str:
        x, y = label[1:-1].split(",", 1)
        return f"({x},{rot.get(y, y)})"

    return validate_action(X, {v: lift(v) for v in X.vertices}, 3)


@cache
def wedge_spheres_action() -> GroupAction:
    """Z/3 permuting the three sphere summands of the wedge-like complex."""
    X = three_sphere_wedge()
    m = {}
    for v in X.vertices:
        if v.startswith("s"):
            m[v] = f"s{(int(v[1]) + 1) % 3}{v[2:]}"
    return validate_action(X, m, 3)


@cache
def disc_rotation() -> GroupAction:
    """Rotation of the solid triangle: regular only after one subdivision."""
    return validate_action(full_triangle(), _rotation("a", 3), 3)


@cache
def trivial_torus_action(p: int = 3) -> GroupAction:
    return validate_action(torus(), {}, p)


@cache
def trivial_sphere_action(p: int = 3) -> GroupAction:
    return validate_action(sphere_suspension(3), {}, p)


@cache
def point_action(p: int = 3) -> GroupAction:
    return validate_action(one_point(), {}, p)


@cache
def lens_space() -> SimplicialComplex:
    """L(3,1) as the quotient of the free diagonal Z/3 action on S^3.

    The action's simplex orbits do not embed, and its edges meet one vertex
    orbit twice, so the quotient is sd^2(S^3)/G: the orbit poset of sd S^3,
    7552 cells, read off without building sd^2(S^3).  Carries 3-torsion in
    H^2, so it is the standard Bockstein-condition failure fixture.
    """
    return quotient_complex(s3_free_action())


def corpus_actions() -> dict[str, GroupAction]:
    """The acceptance corpus of actions: name -> validated action."""
    return {
        "free_pentagon_p5": free_polygon_action(5),
        "free_triangle_p3": free_polygon_action(3),
        "s2_rotation_p3": sphere_rotation(3),
        "s2_rotation_p5": sphere_rotation(5),
        "torus_rotation_p3": torus_rotation(3),
        "torus_rotation_p5": torus_rotation(5),
        "s2xs2_rotation_p3": s2xs2_rotation(3),
        "s2xs2_rotation_p7": s2xs2_rotation(7),
        "s3_join_free_p3": s3_free_action(),
        "sphere_factor_p3": second_factor_sphere_action(),
        "wedge_spheres_p3": wedge_spheres_action(),
        "disc_rotation_p3": disc_rotation(),
        "trivial_torus_p3": trivial_torus_action(3),
        "trivial_s2_p3": trivial_sphere_action(3),
        "point_trivial_p3": point_action(3),
    }


def lefschetz_corpus() -> dict[str, GroupAction]:
    """Criterion-4 corpus: every listed action, all generator powers."""
    names = [
        "free_pentagon_p5",
        "free_triangle_p3",
        "s2_rotation_p3",
        "s2_rotation_p5",
        "torus_rotation_p3",
        "torus_rotation_p5",
        "s2xs2_rotation_p3",
        "s3_join_free_p3",
        "sphere_factor_p3",
        "wedge_spheres_p3",
        "disc_rotation_p3",
        "trivial_torus_p3",
        "trivial_s2_p3",
    ]
    actions = corpus_actions()
    return {n: actions[n] for n in names}
