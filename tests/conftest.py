"""Shared test documents and action strategies."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import settings, strategies as st

from betticong.corpus import polygon
from betticong.group_action import validate_action
from betticong.simplicial import SimplicialComplex, join

# Every run draws the same examples and replays none from a database: a rare
# draw cannot fail one run only, and a stored failure cannot fail every later
# run of a checkout that no longer has the defect.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def _s4_document(n: int) -> str:
    """A non-regular Z/3 action on S^4 = boundary(3-simplex) * n-gon, 3 | n.

    t1 -> t2 -> t3 fixes t0, so the face t1t2t3 is invariant but not
    pointwise fixed; the n-gon turns by a third.  With n = 9 this is the
    S^4 document of the benchmark's ``large_documents`` workload.
    """
    tet = [f"t{i}" for i in range(4)]
    gon = [f"c{i}" for i in range(n)]
    lines = ["complex s4", "vertices " + " ".join(tet + gon)]
    lines += [f"facet {' '.join(tri)} {gon[i]} {gon[(i + 1) % n]}"
              for tri in combinations(tet, 3) for i in range(n)]
    lines += ["end", "action rot on s4 p 3", "map t1 -> t2", "map t2 -> t3", "map t3 -> t1"]
    lines += [f"map c{i} -> c{(i + n // 3) % n}" for i in range(n)]
    return "\n".join(lines + ["end"]) + "\n"


@pytest.fixture
def s4_document():
    """The builder of the S^4 document text, called with the n-gon's n."""
    return _s4_document


@pytest.fixture
def s4_file(tmp_path):
    """Path of the S^4 document on a 3-gon (the smallest one)."""
    path = tmp_path / "s4.bc"
    path.write_text(_s4_document(3), encoding="utf-8")
    return str(path)


def join_rotation(p: int):
    """The free diagonal rotation of the join of two p-gons (S^3): its
    quotient is the lens space L(p,1)."""
    rotation = {f"{x}{i}": f"{x}{(i + 1) % p}" for x in "ab" for i in range(p)}
    return validate_action(join(polygon(p, "a"), polygon(p, "b")), rotation, p)


@st.composite
def small_actions(draw):
    """Z/3 or Z/5 actions: random facets closed under a product of p-cycles.

    A facet holding a whole p-cycle is invariant but not pointwise fixed,
    so some of these actions are not regular.
    """
    p = draw(st.sampled_from([3, 5]))
    cycles, fixed = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    verts = [f"x{k}" for k in range(cycles * p + fixed)]
    sigma = {verts[c * p + i]: verts[c * p + (i + 1) % p] for c in range(cycles) for i in range(p)}
    facets = draw(st.lists(st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True),
                           min_size=1, max_size=3))
    if draw(st.booleans()):  # a whole p-cycle, with a fixed vertex when p = 3
        facets.append(verts[:p] + verts[cycles * p:][:p == 3])
    closed = set()
    for f in facets:
        for _ in range(p):
            closed.add(frozenset(f))
            f = [sigma.get(v, v) for v in f]
    X = SimplicialComplex.from_facets(closed, vertex_order=verts)
    return validate_action(X, sigma, p)
