"""Command-line driver: parse input documents, run checks, emit reports.

The line-oriented input format declares complexes (ordered vertices plus
facets), actions (vertex maps, omitted vertices fixed) and bigraded
algebras (basis with bidegrees, structure constants, orientation values,
differential columns).  Reports are deterministic; one

    CHECK <name>: PASS|FAIL|N/A — <lhs> vs <rhs> (mod 4)

line is printed per assertion.  Exit codes: 0 all asserted checks pass,
1 a verified congruence or invariant failed, 2 hypotheses not applicable
under --strict, 3 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import corpus
from .exactalg import GF, QQ, checked_prime
from .group_action import (
    GroupAction,
    bockstein_condition,
    fixed_set_cohomology,
    fixed_subcomplex,
    lefschetz_number,
    tfr_decomposition,
    trivial_action,
    validate_action,
)
from .equivariant import equivariant_betti, localization_check
from .pd_algebra import (
    BigradedAlgebra,
    Differential,
    Orientation,
    accumulate,
    check_derivation,
    check_pd,
    lemma_even_congruence,
    make_orientation,
    odd_congruence,
    odd_model,
    odd_model_differential,
)
from .simplicial import SimplicialComplex, pd_check
from .theorems import (
    check_even_codim,
    check_line,
    check_theorem1_algebraic,
    check_theorem2,
    check_theorem4,
    euler_route_congruence,
    smith_inequality_check,
)


class InputError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass
class InputDocument:
    complexes: dict[str, SimplicialComplex]
    actions: dict[str, GroupAction]
    algebras: dict[str, tuple[BigradedAlgebra, Orientation | None, Differential | None]]
    names: list[str]  # declaration order, for serialization

    def sole(self, kind: str):
        table = getattr(self, kind)
        if len(table) == 1:
            return next(iter(table))
        return None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def parse(text: str) -> InputDocument:
    """Parse and semantically validate an input document in one pass.

    Each block's builder checks its lines as they come and builds the
    block's object at ``end``; an error in the block as a whole (a
    ValueError) names its header line.  The first error in reading order
    is the one reported.
    """
    doc = InputDocument({}, {}, {}, [])
    lines = _logical_lines(text)
    for lineno, head in lines:
        if head[0] not in _BLOCKS:
            raise InputError(f"unknown directive {head[0]!r}", lineno)
        usage, table, build = _BLOCKS[head[0]]
        words = usage.split()
        if len(head) != len(words) or any(w != t for w, t in zip(words, head) if w[0] != "<"):
            raise InputError(f"expected: {usage}", lineno)
        try:
            getattr(doc, table)[head[1]] = build(doc, head, _block_lines(lines, doc, head, lineno))
        except ValueError as e:
            raise InputError(str(e), lineno)
        doc.names.append(head[1])
    return doc


def _block_lines(lines, doc: InputDocument, head: list[str], lineno: int):
    """The lines of a block up to its ``end``, where the block's name must be new."""
    for line in lines:
        if line[1][0] == "end":
            if head[1] in doc.names:
                raise InputError(f"duplicate name {head[1]!r}", lineno)
            return
        yield line
    raise InputError(f"unterminated {head[0]} block (missing end)", lineno)


def _complex(doc, head, body) -> SimplicialComplex:
    vertices: list[str] = []
    declared: set[str] = set()
    facets: list[tuple[str, ...]] = []
    for lineno, tok in body:
        if tok[0] == "vertices":
            if vertices:
                raise InputError("duplicate vertices line", lineno)
            if len(tok) < 2:
                raise InputError("vertices line needs at least one vertex", lineno)
            vertices, declared = tok[1:], set(tok[1:])
            if len(declared) != len(vertices):
                raise InputError(f"vertices line repeats label {_first_repeat(vertices)!r}", lineno)
        elif tok[0] == "facet":
            if len(tok) < 2:
                raise InputError("facet line needs at least one vertex", lineno)
            facet = tuple(tok[1:])
            if not declared.issuperset(facet):
                v = next(v for v in facet if v not in declared)
                raise InputError(f"facet references undeclared vertex {v!r}", lineno)
            if len(set(facet)) != len(facet):
                raise InputError(f"facet repeats vertex {_first_repeat(facet)!r}", lineno)
            facets.append(facet)
        else:
            raise InputError(f"unexpected {tok[0]!r} in complex block", lineno)
    if not facets:
        raise ValueError(f"complex {head[1]!r} has no facets")
    return SimplicialComplex.from_facets(facets, vertex_order=vertices)


def _first_repeat(labels):
    """The first label seen before in *labels*, which must repeat one."""
    seen = set()
    return next(v for v in labels if v in seen or seen.add(v))


def _action(doc, head, body) -> GroupAction:
    try:
        p = int(head[5])
    except ValueError:
        raise ValueError(f"p must be an integer, got {head[5]!r}")
    sigma: dict[str, str] = {}
    for lineno, tok in body:
        if tok[0] != "map":
            raise InputError(f"unexpected {tok[0]!r} in action block", lineno)
        if len(tok) != 4 or tok[2] != "->":
            raise InputError("expected: map <v> -> <w>", lineno)
        if tok[1] in sigma:
            raise InputError(f"map repeats source vertex {tok[1]!r}", lineno)
        sigma[tok[1]] = tok[3]
    if head[3] not in doc.complexes:
        raise ValueError(f"action {head[1]!r} references unknown complex {head[3]!r}")
    return validate_action(doc.complexes[head[3]], sigma, p)


def _algebra(doc, head, body):
    try:
        field = _field_named(head[3])
        if field.char == 2:
            raise ValueError("characteristic 2 is excluded")
    except ValueError as e:
        raise ValueError(f"field must be Q or Fp for an odd prime p, got {head[3]!r}: {e}")
    labels: list[str] = []
    bidegrees: list[tuple[int, int]] = []
    index: dict[str, int] = {}
    mult, phi, delta = {}, {}, {}
    for lineno, tok in body:
        if tok[0] == "basis":
            if len(tok) != 5 or tok[2] != "bidegree":
                raise InputError("expected: basis <b> bidegree <eps> <j>", lineno)
            try:
                eps, j = int(tok[3]), int(tok[4])
            except ValueError:
                raise InputError("bidegree components must be integers", lineno)
            if j < 0:
                raise InputError(f"the second grading j must be >= 0, got {j}", lineno)
            if tok[1] in index:
                raise InputError(f"duplicate basis label {tok[1]!r}", lineno)
            index[tok[1]] = len(labels)
            labels.append(tok[1])
            bidegrees.append((eps, j))
            continue
        if tok[0] not in ("mult", "phi", "delta"):
            raise InputError(f"unexpected {tok[0]!r} in algebra block", lineno)
        if "=" not in tok:
            raise InputError(f"{tok[0]} line needs '='", lineno)
        eq = tok.index("=")
        lhs, rhs = tok[1:eq], tok[eq + 1:]
        for lab in lhs:
            if lab not in index:
                raise InputError(f"unknown basis label {lab!r}", lineno)
        if tok[0] == "phi":
            if len(lhs) != 1 or len(rhs) != 1:
                raise InputError("expected: phi <b> = <coeff>", lineno)
            entries, value = phi, _scalar(rhs[0], field, lineno)
        else:
            terms = _parse_terms(rhs, index, field, lineno)
            if tok[0] == "mult":
                if len(lhs) != 2:
                    raise InputError("expected: mult <a> <b> = <coeff> <c> [+ ...]", lineno)
                entries, value = mult, accumulate(field, terms)
            else:
                if len(lhs) != 1:
                    raise InputError("expected: delta <b> = <coeff> <c> [+ ...]", lineno)
                entries, value = delta, terms
        key = (index[lhs[0]], index[lhs[1]]) if tok[0] == "mult" else index[lhs[0]]
        if key in entries:
            raise InputError(f"{tok[0]} line repeats {' '.join(map(repr, lhs))}", lineno)
        entries[key] = value
    if not labels:
        raise ValueError(f"algebra {head[1]!r} has no basis")
    if bidegrees[0] != (0, 0):
        raise ValueError("first basis element is the unit and must sit at bidegree (0, 0)")
    n = len(labels)
    table = {key: {i: field.one} for i in range(n) for key in ((0, i), (i, 0))}
    for key, v in mult.items():
        # Terms that sum to 0 leave no entry: the product is 0.
        table.pop(key, None)
        if v:
            table[key] = v
    A = BigradedAlgebra(field, bidegrees, table, unit_index=0, labels=labels)
    orientation = make_orientation(A, phi) if phi else None
    differential = None
    if delta:
        columns = [{} for _ in range(n)]
        shift = None
        for src, terms in delta.items():
            columns[src] = accumulate(field, terms)
            for t, _ in terms:  # cancelling terms too
                (et, jt), (es, js) = bidegrees[t], bidegrees[src]
                term_shift = ((et - es) % 2, jt - js)
                if shift not in (None, term_shift):
                    raise ValueError(f"delta is not homogeneous: shifts {shift} and {term_shift}")
                shift = term_shift
        # Terms that cancel fix no shift: a zero map has the default (0, -1).
        differential = Differential(tuple(columns), shift if any(columns) else (0, -1))
    return A, orientation, differential


# Each block's header (its fixed words and <fields>), table and builder.
_BLOCKS = {
    "complex": ("complex <name>", "complexes", _complex),
    "action": ("action <name> on <complex> p <p>", "actions", _action),
    "algebra": ("algebra <name> field <Q|Fp>", "algebras", _algebra),
}


def _scalar(s: str, field, lineno: int):
    """The coefficient *s* in *field*; an input error where it has no value there."""
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad coefficient {s!r}", lineno)
    if field.char and x.denominator % field.char == 0:
        raise InputError(f"coefficient {s!r} has no value in {field.name}: "
                         f"its denominator is divisible by {field.char}", lineno)
    return field.coerce(x)


def _parse_terms(rhs, index, field, lineno):
    """The (index, coefficient) terms of a mult or delta right-hand side."""
    if list(rhs) == ["0"]:
        return []
    terms = []
    chunk: list[str] = []
    for t in list(rhs) + ["+"]:
        if t == "+":
            if len(chunk) != 2:
                raise InputError("each term must be '<coeff> <label>'", lineno)
            if chunk[1] not in index:
                raise InputError(f"unknown basis label {chunk[1]!r}", lineno)
            terms.append((index[chunk[1]], _scalar(chunk[0], field, lineno)))
            chunk = []
        else:
            chunk.append(t)
    return terms


def _field_named(name: str):
    """QQ for ``Q``, GF(p) for ``F<p>``; ValueError for anything else."""
    if name == "Q":
        return QQ
    if not (name.startswith("F") and name[1:].isdigit()):
        raise ValueError("not of the form Q or F<digits>")
    return GF(int(name[1:]))


# ---------------------------------------------------------------------------
# serialization (canonical form)
# ---------------------------------------------------------------------------

def serialize(doc: InputDocument) -> str:
    """The canonical form of a parsed document, its blocks in declaration order."""
    out: list[str] = []
    for name in doc.names:
        if name in doc.complexes:
            X = doc.complexes[name]
            out.append(f"complex {name}")
            out.append("vertices " + " ".join(X.vertices))
            for f in sorted(X.facets):
                out.append("facet " + " ".join(X.vertices[v] for v in f))
        elif name in doc.actions:
            a = doc.actions[name]
            host = next(c for c, X in doc.complexes.items() if X is a.complex)
            out.append(f"action {name} on {host} p {a.p}")
            idx = a.complex._vertex_index
            moved = [(v, w) for v, w in a.vertex_map if v != w]
            for v, w in sorted(moved, key=lambda t: idx[t[0]]):
                out.append(f"map {v} -> {w}")
        else:
            A, phi, delta = doc.algebras[name]
            u = A.unit_index
            out.append(f"algebra {name} field {A.field.name}")
            for lab, (e, j) in zip(A.labels, A.bidegrees):
                out.append(f"basis {lab} bidegree {e} {j}")
            # A product with the unit is written where it is not the parser's e_i.
            unit_pairs = {key for i in range(A.dim) for key in ((u, i), (i, u))}
            for a, c in sorted(A.table.keys() | unit_pairs):
                v = A.table.get((a, c), {})
                if u not in (a, c) or v != {a if c == u else c: A.field.one}:
                    out.append(f"mult {A.labels[a]} {A.labels[c]} = " + _terms_str(A, v))
            if phi is not None:
                for i, x in sorted(phi.values.items()):
                    out.append(f"phi {A.labels[i]} = {x}")
            if delta is not None:
                # A declared delta that is 0 keeps one line, so that it stays declared.
                columns = [(src, col) for src, col in enumerate(delta.columns) if col]
                for src, col in columns or [(u, {})]:
                    out.append(f"delta {A.labels[src]} = " + _terms_str(A, col))
        out.append("end")
    return "\n".join(out) + "\n"


def _terms_str(A: BigradedAlgebra, v: dict) -> str:
    return " + ".join(f"{x} {A.labels[i]}" for i, x in sorted(v.items())) or "0"


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

class Report:
    def __init__(self):
        self.lines: list[str] = []
        self.fail = False
        self.not_applicable = False

    def say(self, line: str):
        self.lines.append(line)

    def check(self, name: str, verdict: str, lhs, rhs):
        self.say(check_line(name, verdict, lhs, rhs))
        self.tally(verdict)

    def tally(self, verdict: str):
        """Count an asserted verdict towards the exit code."""
        if verdict == "FAIL":
            self.fail = True
        elif verdict == "N/A":
            self.not_applicable = True

    def exit_code(self, strict: bool) -> int:
        if self.fail:
            return 1
        if strict and self.not_applicable:
            return 2
        return 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _pick(doc: InputDocument, kind: str, name: str | None, flag: str):
    table = getattr(doc, kind)
    if name is None:
        name = doc.sole(kind)
        if name is None:
            raise InputError(f"--{flag} required ({len(table)} {kind} in document)")
    if name not in table:
        raise InputError(f"unknown {flag} {name!r}")
    return name, table[name]


def _action_prime(args, action) -> int:
    """The action's p; a different --p is an input error naming both."""
    if args.p is not None and args.p != action.p:
        raise InputError(f"--p {args.p} does not match the action's p {action.p}")
    return action.p


def _field_of(args):
    try:
        return _field_named(args.field or "Q")
    except ValueError as e:
        raise InputError(f"bad --field {args.field!r}: {e}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_cohomology(doc, args, rep: Report):
    name, X = _pick(doc, "complexes", args.complex, "complex")
    field_obj = _field_of(args)
    g = X.cohomology(field_obj)
    rep.say(f"COMPLEX {name} field {field_obj.name}")
    for i, b in enumerate(g.betti):
        rep.say(f"b{i} {b}")
    rep.say(f"total {g.total}")
    rep.say(f"chi {X.euler_characteristic()}")


def cmd_pd_check(doc, args, rep: Report):
    name, X = _pick(doc, "complexes", args.complex, "complex")
    field_obj = _field_of(args)
    try:
        res = pd_check(X, field_obj)
    except ValueError as e:  # a disconnected complex
        raise InputError(str(e))
    rep.say(f"COMPLEX {name} field {field_obj.name}")
    for f in res.failures:
        rep.say(f"failure: {f}")
    fd = res.formal_dim if res.formal_dim is not None else "-"
    rep.say(f"pd {'yes' if res.is_pd else 'no'} formal_dim {fd}")
    b = X.cohomology(field_obj).betti
    top = max((i for i, x in enumerate(b) if x), default=0)
    rep.check("pd-top-class", "PASS" if res.is_pd else "FAIL", b[top], 1)


def cmd_fixed_set(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    F = fixed_subcomplex(action)
    rep.say(f"ACTION {name} p {action.p}")
    if F.dim < 0:
        rep.say("fixed set: empty")
    else:
        rep.say(f"fixed set: f-vector {F.f_vector}")
        for f in sorted(F.facets):
            rep.say("facet " + " ".join(F.vertices[v] for v in f))
    p = args.p or action.p
    rep.say(f"total betti F{p} {F.cohomology(GF(p)).total}")
    rep.say(f"total betti Q {F.cohomology(QQ).total}")


def cmd_lefschetz(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    rep.say(f"ACTION {name} p {action.p}")
    _check_lefschetz(rep, action, "lefschetz-power-{k}")


def _check_lefschetz(rep: Report, action, check_name: str):
    """L(g^k) against chi(X^{g^k}) for k = 1 .. p-1; check_name formats k."""
    for k in range(1, action.p):
        power = action.power(k)
        lam = lefschetz_number(power)
        chi = sum((-1) ** i * b for i, b in enumerate(fixed_set_cohomology(power, QQ).betti))
        rep.check(check_name.format(k=k), "PASS" if lam == chi else "FAIL", lam, chi)


def cmd_tfr(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    p = _action_prime(args, action)
    d = tfr_decomposition(action)
    rep.say(f"ACTION {name} p {p}")
    rep.say(f"bockstein {'holds' if d.bockstein_ok else 'fails'}")
    for i in range(len(d.t)):
        other = ",".join(map(str, d.other[i])) or "-"
        rep.say(f"degree {i}: t {d.t[i]} f {d.f[i]} r {d.r[i]} other {other}")
    rep.say(f"dims T {d.dim_t} F {d.dim_f} R {d.dim_r}")
    betti = action.complex.cohomology(GF(p)).total
    total = d.dim_t + d.dim_f + d.dim_r + sum(sum(o) for o in d.other)
    rep.check("tfr-dimensions", "PASS" if total == betti else "FAIL", total, betti)
    if d.hypothesis_failing:
        rep.say("hypothesis failing: block sizes outside {1, p-1, p} or Bockstein obstruction")


def cmd_bockstein(doc, args, rep: Report):
    name, X = _pick(doc, "complexes", args.complex, "complex")
    if not args.p:
        raise InputError("--p required for bockstein")
    ok = bockstein_condition(X, args.p)
    rep.say(f"COMPLEX {name} p {args.p}")
    rep.say(f"bockstein_condition {'true' if ok else 'false'}")


def cmd_equivariant_betti(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    p = _action_prime(args, action)
    if args.degrees:
        lo, hi = args.degrees
    else:
        lo, hi = 0, action.complex.dim + 2
    dims = equivariant_betti(action, range(lo, hi + 1))
    rep.say(f"ACTION {name} p {p}")
    for n, d in zip(range(lo, hi + 1), dims):
        rep.say(f"H^{n}_G {d}")


def cmd_localization(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    p = _action_prime(args, action)
    res = localization_check(action)
    rep.say(f"ACTION {name} p {p}")
    rep.say(f"stable dims {res['stable_dims']} fixed total {res['fixed_total']}")
    for i, d in enumerate(res["stable_dims"]):
        rep.check(
            f"localization-deg-{action.complex.dim + 1 + i}",
            "PASS" if d == res["fixed_total"] else "FAIL",
            d,
            res["fixed_total"],
        )


def _report_theorem(rep: Report, tr):
    rep.lines.extend(tr.lines())
    rep.tally(tr.verdict)


def cmd_theorem2(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    if args.complex and args.complex not in doc.complexes:
        raise InputError(f"unknown complex {args.complex!r}")
    _action_prime(args, action)
    tr = check_theorem2(action, subject=name)
    _report_theorem(rep, tr)


def cmd_theorem4(doc, args, rep: Report):
    name, action = _pick(doc, "actions", args.action, "action")
    _action_prime(args, action)
    tr = check_theorem4(action, subject=name)
    _report_theorem(rep, tr)


def cmd_theorem1_alg(doc, args, rep: Report):
    name, (A, phi, delta) = _pick(doc, "algebras", args.algebra, "algebra")
    if phi is None:
        raise InputError(f"algebra {name!r} has no orientation (phi lines)")
    tr = check_theorem1_algebraic(A, delta, phi, fixed_set_dim=args.fixed_set_dim, subject=name)
    _report_theorem(rep, tr)


def cmd_algebra_check(doc, args, rep: Report):
    name, (A, phi, delta) = _pick(doc, "algebras", args.algebra, "algebra")
    rep.say(f"ALGEBRA {name} field {A.field.name} dim {A.dim}")
    problems = A.validate()
    for pr in problems:
        rep.say(f"structure: {pr}")
    rep.check("algebra-structure", "PASS" if not problems else "FAIL", len(problems), 0)
    if problems:
        return
    if phi is None:
        rep.say("no orientation declared; stopping after structure checks")
        return
    n = phi.formal_dim
    # In odd formal dimension odd_congruence checks PD and delta itself and
    # reports both verdicts.
    orep = odd_congruence(A, delta, phi) if n % 2 and delta is not None else None
    pd = orep.pd if orep is not None else check_pd(A, phi)
    rep.say(f"connected {'yes' if pd.connected else 'no'}; "
            f"nondegenerate {'yes' if pd.nondegenerate else 'no'}; formal_dim {pd.formal_dim}")
    rep.check("algebra-pd", "PASS" if pd.is_pd else "FAIL", int(pd.is_pd), 1)
    if not pd.is_pd:
        return
    if delta is not None:
        der = orep.derivation if orep is not None else check_derivation(A, delta)
        for v in der.violations:
            rep.say(f"derivation: {v}")
        rep.check("algebra-derivation", "PASS" if der.is_valid else "FAIL",
                  len(der.violations), 0)
        if not der.is_valid:
            return
    if n % 2 == 0:
        v = lemma_even_congruence(A, phi)
        rep.check("even-congruence", "PASS" if v.holds else "FAIL", v.lhs, v.rhs)
    elif orep is not None:
        if not orep.applicable:
            for f in orep.failures:
                rep.say(f"odd-case hypothesis: {f}")
            rep.check("odd-congruence", "N/A", "-", "-")
        else:
            rep.check(
                "odd-congruence",
                "PASS" if orep.congruent else "FAIL",
                orep.dim_total,
                orep.dim_homology,
            )
    else:
        rep.say("odd formal dimension and no differential: nothing to assert")


def cmd_suite(doc, args, rep: Report):
    run_suite(rep)


COMMANDS = {
    "cohomology": (cmd_cohomology, True),
    "pd-check": (cmd_pd_check, True),
    "fixed-set": (cmd_fixed_set, True),
    "lefschetz": (cmd_lefschetz, True),
    "tfr": (cmd_tfr, True),
    "bockstein": (cmd_bockstein, True),
    "equivariant-betti": (cmd_equivariant_betti, True),
    "localization": (cmd_localization, True),
    "theorem1-alg": (cmd_theorem1_alg, True),
    "theorem2": (cmd_theorem2, True),
    "theorem4": (cmd_theorem4, True),
    "algebra-check": (cmd_algebra_check, True),
    "suite": (cmd_suite, False),
}


# ---------------------------------------------------------------------------
# the built-in acceptance corpus (suite command)
# ---------------------------------------------------------------------------

def run_suite(rep: Report):
    """Run the acceptance corpus; expected outcomes are pinned here.

    A guard fixture that is expected N/A counts as passing; any deviation
    from the expected verdict is a failure.
    """
    actions = corpus.corpus_actions()
    expect_t2 = {
        "free_pentagon_p5": "N/A",
        "free_triangle_p3": "N/A",
        "s2_rotation_p3": "PASS",
        "s2_rotation_p5": "PASS",
        "torus_rotation_p3": "PASS",
        "torus_rotation_p5": "PASS",
        "s2xs2_rotation_p3": "PASS",
        "s2xs2_rotation_p7": "PASS",
        "s3_join_free_p3": "N/A",
        "sphere_factor_p3": "PASS",
        "wedge_spheres_p3": "N/A",
        "disc_rotation_p3": "PASS",
        "trivial_torus_p3": "PASS",
        "trivial_s2_p3": "PASS",
        "point_trivial_p3": "PASS",
    }
    mismatches = 0
    for name, action in actions.items():
        tr = check_theorem2(action, subject=name)
        expected = expect_t2[name]
        ok = tr.verdict == expected
        mismatches += 0 if ok else 1
        rep.check(f"theorem2[{name}]", tr.verdict, tr.lhs, tr.rhs)
        if not ok:
            rep.say(f"  unexpected verdict: wanted {expected}")
            rep.fail = True
    for name, action in corpus.lefschetz_corpus().items():
        _check_lefschetz(rep, action, f"lefschetz[{name},k={{k}}]")
    for name, action in actions.items():
        res = localization_check(action)
        ok = res["ok"]
        rep.check(
            f"localization[{name}]",
            "PASS" if ok else "FAIL",
            res["stable_dims"][0],
            res["fixed_total"],
        )
        sm = smith_inequality_check(action)
        rep.check(
            f"smith[{name}]",
            "PASS" if sm["ok"] else "FAIL",
            sm["fixed_total"],
            sm["ambient_total"],
        )
    # Theorem 4 on the applicable instances plus the wedge failure guard.
    expect_t4 = {
        "s2_rotation_p3": "PASS",
        "s2_rotation_p5": "PASS",
        "torus_rotation_p5": "PASS",
        "s2xs2_rotation_p7": "PASS",
        "trivial_s2_p3": "PASS",
        "torus_rotation_p3": "N/A",
    }
    for name, expected in expect_t4.items():
        tr = check_theorem4(actions[name], subject=name)
        rep.check(f"theorem4[{name}]", tr.verdict, tr.lhs, tr.rhs)
        if tr.verdict != expected:
            rep.say(f"  unexpected verdict: wanted {expected}")
            rep.fail = True
    wr = check_theorem4(trivial_action(corpus.wedge_fixture(), 5), subject="wedge_fixture")
    rep.check("theorem4[wedge_fixture]", wr.verdict, wr.lhs, wr.rhs)
    if wr.verdict != "N/A":
        rep.say("  unexpected verdict: wanted N/A")
        rep.fail = True
    # Even codimension of fixed components.
    for name in ("s2_rotation_p3", "s2_rotation_p5", "s2xs2_rotation_p7", "trivial_s2_p3"):
        ec = check_even_codim(actions[name])
        dims = [c.codimension for c in ec.components]
        rep.check(f"even-codim[{name}]", "PASS" if ec.ok else "FAIL",
                  str(dims), "even")
    # Cross-route consistency on trivial actions.
    for name in ("trivial_torus_p3", "trivial_s2_p3"):
        action = actions[name]
        route = euler_route_congruence(action.complex, action.p)
        t2 = check_theorem2(action)
        agree = route["ok"] == (t2.verdict == "PASS")
        rep.check(f"euler-route[{name}]", "PASS" if agree and route["ok"] else "FAIL",
                  route["total"], route["chi"])
    # Guard fixtures are expected N/A; the suite's own expectations decide
    # pass/fail, so an expected N/A must not trip --strict.
    rep.not_applicable = False
    # Bockstein fixtures.
    lens_ok = bockstein_condition(corpus.lens_space(), 3)
    rep.check("bockstein[lens,p=3]", "PASS" if not lens_ok else "FAIL", int(lens_ok), 0)
    rp2_ok = bockstein_condition(corpus.rp2_six_vertex(), 3)
    rep.check("bockstein[rp2,p=3]", "PASS" if rp2_ok else "FAIL", int(rp2_ok), 1)
    # The (1,2,2,1) -> 2 odd fixture.
    A, phi, C = odd_model(QQ, m=1, r=2)
    S = [[0, Fraction(1)], [Fraction(-1), 0]]
    tr1 = check_theorem1_algebraic(A, odd_model_differential(A, C, S), phi,
                                   fixed_set_dim=2, subject="surgered S1xS2 profile")
    rep.check("theorem1-alg[(1,2,2,1)]", tr1.verdict, tr1.lhs, tr1.rhs)
    if tr1.verdict != "PASS":
        rep.fail = True


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # Bad usage must exit 3 (input error), not argparse's default 2, which
    # is reserved for not-applicable hypotheses under --strict.
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="betticong",
        description="Exact verification of mod-4 Betti congruences for Z/p actions",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("document", nargs="?", help="input document path")
    ap.add_argument("--file", dest="file", help="input document path (alias)")
    ap.add_argument("--complex", help="complex name within the document")
    ap.add_argument("--action", help="action name within the document")
    ap.add_argument("--algebra", help="algebra name within the document")
    ap.add_argument("--p", type=int,
                    help="coefficient prime of fixed-set and bockstein; elsewhere the action's p")
    ap.add_argument("--field", help="coefficient field: Q or Fp (e.g. F3)")
    ap.add_argument("--degrees", help="degree window lo..hi")
    ap.add_argument("--strict", action="store_true",
                    help="exit 2 when hypotheses are not applicable")
    ap.add_argument("--report", help="also write the report to this path")
    ap.add_argument("--fixed-set-dim", type=int, dest="fixed_set_dim",
                    help="expected fixed-set total Betti number (theorem1-alg)")
    return ap


def _parse_degrees(window: str) -> tuple[int, int]:
    if ".." not in window:
        raise InputError("--degrees expects lo..hi")
    lo, hi = window.split("..", 1)
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise InputError("--degrees expects integers lo..hi")
    if hi_i < lo_i or lo_i < 0:
        raise InputError("--degrees needs 0 <= lo <= hi")
    return lo_i, hi_i


def main(argv=None) -> int:
    rep = Report()
    try:
        args = build_parser().parse_args(argv)
        if args.degrees:
            args.degrees = _parse_degrees(args.degrees)
        if args.p == 2:
            raise InputError("--p must be an odd prime, got 2")
        if args.p is not None:
            try:
                checked_prime(args.p)
            except ValueError as e:
                raise InputError(f"--p must be an odd prime: {e}")
        handler, needs_doc = COMMANDS[args.command]
        doc = None
        if needs_doc:
            path = args.document or args.file
            if path is None:
                raise InputError(f"{args.command} needs an input document")
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise InputError(str(e))
            doc = parse(text)
        handler(doc, args, rep)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    out = rep.text()
    sys.stdout.write(out)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as e:
            sys.stderr.write(f"error: {e}\n")
            return 3
    return rep.exit_code(args.strict)


if __name__ == "__main__":
    raise SystemExit(main())
