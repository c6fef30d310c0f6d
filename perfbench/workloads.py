"""Inputs and units of work for the three benchmark workloads.

A workload is prepared once per cold process (``prepare``) and then run as
a list of units.  Each unit is a zero-argument callable returning the text
whose bytes are compared with the expected output recorded in
``perfbench/expected``.  Library entry points are looked up as module
attributes at call time (``cli.main``, ``pd_algebra.homology``), so a
tracer installed after import still sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import namedtuple
from itertools import combinations
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"
DATA_DIR = BENCH_DIR / "data"
WORK_DIR = BENCH_DIR / ".work"

WORKLOADS = ("corpus_suite", "pd_population", "large_documents")

# S^4 = boundary of the 3-simplex joined with an n-gon; n must be divisible by 3.
S4_POLYGON = 9

# pd_population: how many algebras of each dimension every (kind, field)
# contributes.  The algebras drawn are the same for every seed, so runs with
# different seeds do the same work; the seed only orders them.  Dimensions
# above 16 are not drawn over any field: one such algebra over Q costs
# 2-22 s, more than a whole run of the rest.
QUOTA = {
    "even": {2: 8, 3: 4, 4: 12, 6: 2, 8: 6, 12: 4, 16: 2},
    "diff": {2: 8, 3: 2, 4: 6, 6: 2, 8: 6, 12: 3, 16: 2},
}
FIELDS = ("Q", "F3", "F5", "F7")
POOL_SIZE = 200


# run() returns the text that must equal the recorded expected output.
Unit = namedtuple("Unit", "name run")


def load_expected(workload: str) -> dict:
    name = "pd_pool" if workload == "pd_population" else workload
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def field_of(name: str):
    from betticong import exactalg

    return exactalg.QQ if name == "Q" else exactalg.GF(int(name[1:]))


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> str:
    """Run ``betticong`` in-process; return exit code, stdout and stderr."""
    from betticong import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"exit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr:\n{err.getvalue()}"
    return text


# ---------------------------------------------------------------------------
# corpus_suite
# ---------------------------------------------------------------------------

def corpus_suite_units() -> list[Unit]:
    return [Unit("suite", lambda: run_cli(["suite", "--strict"]))]


# ---------------------------------------------------------------------------
# large_documents
# ---------------------------------------------------------------------------

def lens_document_lines() -> list[str]:
    return (DATA_DIR / "lens31.txt").read_text(encoding="utf-8").splitlines()


def s4_document_lines(n: int = S4_POLYGON) -> list[str]:
    """Non-regular Z/3 action on S^4 = boundary(3-simplex) * n-gon.

    The action rotates t1 -> t2 -> t3 (fixing t0, so the face t1t2t3 is
    invariant but not pointwise fixed) and turns the n-gon by a third.
    """
    if n % 3:
        raise ValueError("the n-gon must have a multiple of 3 vertices")
    tet = [f"t{i}" for i in range(4)]
    gon = [f"c{i}" for i in range(n)]
    edges = [(gon[i], gon[(i + 1) % n]) for i in range(n)]
    lines = ["complex s4", "vertices " + " ".join(tet + gon)]
    lines += ["facet " + " ".join(tri + e) for tri in combinations(tet, 3) for e in edges]
    lines += ["end", "action rot on s4 p 3", "map t1 -> t2", "map t2 -> t3", "map t3 -> t1"]
    lines += [f"map c{i} -> c{(i + n // 3) % n}" for i in range(n)]
    lines.append("end")
    return lines


def shuffled_document(lines: list[str], rng: random.Random) -> str:
    """Shuffle facet lines within each complex block.

    The parsed complex does not depend on facet order, so every expected
    output holds for every seed; the bytes the parser reads do change.
    """
    out, facets = [], []
    for line in lines:
        if line.startswith("facet "):
            facets.append(line)
            continue
        if facets:
            rng.shuffle(facets)
            out += facets
            facets = []
        out.append(line)
    return "\n".join(out) + "\n"


def write_documents(seed: int, workdir: Path) -> tuple[Path, Path]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    lens = workdir / f"lens31-{seed}.txt"
    s4 = workdir / f"s4-{seed}.txt"
    lens.write_text(shuffled_document(lens_document_lines(), rng), encoding="utf-8")
    s4.write_text(shuffled_document(s4_document_lines(), rng), encoding="utf-8")
    return lens, s4


def lens_integral(path: Path) -> str:
    from betticong import cli

    doc = cli.parse(path.read_text(encoding="utf-8"))
    g = doc.complexes["lens"].integral_cohomology()
    return f"betti {list(g.betti)} torsion {[list(t) for t in g.torsion]}\n"


def large_documents_units(seed: int, workdir: Path) -> list[Unit]:
    lens, s4 = (str(p) for p in write_documents(seed, workdir))
    commands = {
        "lens.cohomology.Q": ["cohomology", lens, "--field", "Q"],
        "lens.cohomology.F3": ["cohomology", lens, "--field", "F3"],
        "lens.bockstein.p3": ["bockstein", lens, "--p", "3"],
        "lens.pd-check.Q": ["pd-check", lens, "--field", "Q"],
        "s4.fixed-set": ["fixed-set", s4],
        "s4.theorem2": ["theorem2", s4],
        "s4.lefschetz": ["lefschetz", s4],
        "s4.localization": ["localization", s4],
    }
    units = [Unit(name, lambda argv=argv: run_cli(argv)) for name, argv in commands.items()]
    units.insert(4, Unit("lens.integral", lambda: lens_integral(Path(lens))))
    return units


# ---------------------------------------------------------------------------
# pd_population
# ---------------------------------------------------------------------------

def pool_rng(kind: str, field: str, sub: int) -> random.Random:
    return random.Random(f"{kind}/{field}/{sub}")


def describe_even(field_name: str, sub: int) -> tuple[int, str]:
    """Generate one even PD algebra and its verdict; (dim, fingerprint)."""
    from betticong import pd_algebra

    A, phi = pd_algebra.random_pd_algebra(pool_rng("even", field_name, sub),
                                          field_of(field_name), even_dim=True)
    v = pd_algebra.lemma_even_congruence(A, phi)
    return A.dim, (
        f"{A.field.name} dim {A.dim} n {phi.formal_dim} bideg {list(A.bidegrees)}"
        f" | even-congruence {v.holds} {v.lhs} {v.rhs}"
    )


def describe_diff(field_name: str, sub: int) -> tuple[int, str]:
    """Generate one differential PD algebra and its homology verdicts."""
    from betticong import pd_algebra

    A, phi, delta = pd_algebra.random_differential_algebra(
        pool_rng("diff", field_name, sub), field_of(field_name))
    der = pd_algebra.check_derivation(A, delta)
    H, phi_H = pd_algebra.homology(A, delta, phi)
    if H is None:
        hom = "H 0"
    else:
        pd = pd_algebra.check_pd(H, phi_H) if phi_H is not None else None
        hom = (f"H dim {H.dim} pd {pd.is_pd if pd else None}"
               f" n {pd.formal_dim if pd else None}")
    chi_a = pd_algebra.euler_and_dim(A)[1]
    chi_h = pd_algebra.euler_and_dim(H)[1] if H is not None else 0
    return A.dim, (
        f"{A.field.name} dim {A.dim} n {phi.formal_dim} bideg {list(A.bidegrees)}"
        f" shift {list(delta.shift)} | derivation {der.is_valid} {hom} chi {chi_a} {chi_h}"
    )


DESCRIBE = {"even": describe_even, "diff": describe_diff}


def select_population(seed: int, pool: dict) -> list[tuple[str, str, int]]:
    """(kind, field, sub-seed) triples: QUOTA algebras per dimension.

    The triples are the same for every seed; the seed shuffles their order.
    Within each dimension the pick is a systematic sample of the pool
    entries sorted by fingerprint, so equal shapes sit together and the mix
    of shapes follows the pool.
    """
    chosen = []
    for kind, quota in QUOTA.items():
        for field in FIELDS:
            entries = pool[kind][field]
            for dim, count in quota.items():
                subs = sorted((e["out"].split(" | ")[0], int(s))
                              for s, e in entries.items() if e.get("dim") == dim)
                if len(subs) < count:
                    raise RuntimeError(f"pool has {len(subs)} {kind} {field} algebras "
                                       f"of dim {dim}, quota needs {count}")
                step = len(subs) / count
                chosen += [(kind, field, subs[int((i + 0.5) * step)][1]) for i in range(count)]
    random.Random(seed).shuffle(chosen)
    return chosen


def pd_population_units(seed: int, pool: dict) -> list[Unit]:
    return [
        Unit(f"{kind}/{field}/{sub}",
             lambda kind=kind, field=field, sub=sub: DESCRIBE[kind](field, sub)[1])
        for kind, field, sub in select_population(seed, pool)
    ]


def expected_output(workload: str, expected: dict, unit_name: str) -> str:
    if workload == "pd_population":
        kind, field, sub = unit_name.split("/")
        return expected[kind][field][sub]["out"]
    return expected[unit_name]


def prepare(workload: str, seed: int, expected: dict) -> list[Unit]:
    """The workload's units; inputs depend only on the seed.

    The acceptance corpus is fixed, so ``corpus_suite`` ignores the seed.
    """
    if workload == "corpus_suite":
        return corpus_suite_units()
    if workload == "pd_population":
        return pd_population_units(seed, expected)
    if workload == "large_documents":
        return large_documents_units(seed, WORK_DIR)
    raise ValueError(f"unknown workload {workload!r}")
