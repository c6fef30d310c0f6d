"""Outside-in tracing of betticong: wrap public entry points, record spans.

``install()`` replaces each traced function with a wrapper at every place
it is bound: the defining module, every ``betticong`` module that imported
the name (``from .group_action import tfr_decomposition``), and the package
namespace.  Methods and classmethods are wrapped on their class.  Each call
records a span ``[op, parent, start, end, counters]`` in memory; parents
come from a call stack, so self time is a span's duration minus that of its
direct children.  Nothing in ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from pathlib import Path

LAYERS = ("exactalg", "simplicial", "group_action", "equivariant",
          "pd_algebra", "theorems", "corpus", "cli")

def _field_suffix(field) -> str:
    return "fp" if hasattr(field, "p") else "q"


def _len(x):
    return len(x) if hasattr(x, "__len__") else 0


def _shape_cells(m) -> int:
    shape = getattr(m, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else int(m.size)
    return len(m) * (len(m[0]) if len(m) else 0)


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


def _simplices(X) -> int:
    return sum(X.f_vector)


# Specific ops: (module, qualified name) -> (op, pre, post, hit_key).
#   op:      name, or callable(args, kwargs) -> name
#   pre:     callable(args, kwargs) -> counters, evaluated before the clock
#            starts (some callees consume their input rows)
#   post:    callable(result) -> counters
#   hit:     (group, callable(args) -> (owner object, key)) for the hit ratio
SPECS = {
    ("exactalg", "smith_normal_form"): (
        "exactalg.snf", lambda a, k: {"entries_in": _shape_cells(a[0])}, None, None),
    ("exactalg", "p_valuation_profile"): ("exactalg.pval", None, None, None),
    ("exactalg", "sparse_rank_modp"): (
        "exactalg.sparse_rank",
        lambda a, k: {"rows_in": len(a[0]), "nnz_in": _nnz(a[0])},
        lambda r: {"rank": r}, None),
    ("exactalg", "sparse_rank_q"): (
        "exactalg.sparse_rank",
        lambda a, k: {"rows_in": len(a[0]), "nnz_in": _nnz(a[0])},
        lambda r: {"rank": r}, None),
    ("exactalg", "sparse_rref_q"): (
        "exactalg.sparse_rref_q", lambda a, k: {"nnz_in": _nnz(a[0])}, None, None),
    ("exactalg", "rref"): (
        lambda a, k: "exactalg.dense_rref_" + _field_suffix(a[1] if len(a) > 1 else k["field"]),
        lambda a, k: {"cells_in": _shape_cells(a[0])}, None, None),
    ("exactalg", "invert"): ("exactalg.invert", None, None, None),
    ("exactalg", "nilpotent_block_sizes"): ("exactalg.jordan", None, None, None),
    ("simplicial", "SimplicialComplex.from_facets"): (
        "simplicial.build", lambda a, k: {"facets_in": _len(a[1] if len(a) > 1 else k["facets"])},
        lambda r: {"simplices_out": _simplices(r)}, None),
    ("simplicial", "SimplicialComplex.from_simplices"): (
        "simplicial.build",
        lambda a, k: {"facets_in": _len(a[2] if len(a) > 2 else k["simplices"])},
        lambda r: {"simplices_out": _simplices(r)}, None),
    ("simplicial", "barycentric_subdivision"): (
        "simplicial.subdivide", None, lambda r: {"simplices_out": _simplices(r)}, None),
    ("simplicial", "SimplicialComplex.cohomology"): (
        "simplicial.betti", None, None, ("simplicial.betti", lambda a: (a[0], a[1].name))),
    ("simplicial", "SimplicialComplex.cohomology_basis"): (
        lambda a, k: "simplicial.basis_" + _field_suffix(a[1]), None, None,
        ("simplicial.basis", lambda a: (a[0], (a[1].name, a[2])))),
    ("simplicial", "cup_pairing"): ("simplicial.cup_pairing", None, None, None),
    ("simplicial", "pd_check"): ("simplicial.pd_check", None, None, None),
    ("simplicial", "link"): ("simplicial.link", None, None, None),
    ("simplicial", "SimplicialComplex.integral_cohomology"): (
        "simplicial.integral", None, None, None),
    ("simplicial", "SimplicialComplex.torsion_valuation_profile"): (
        "simplicial.torsion_profile", None, None, None),
    ("group_action", "validate_action"): ("group_action.validate", None, None, None),
    ("group_action", "make_regular"): ("group_action.make_regular", None, None, None),
    ("group_action", "fixed_subcomplex"): ("group_action.fixed_set", None, None, None),
    ("group_action", "fixed_set_cohomology"): ("group_action.fixed_set", None, None, None),
    ("group_action", "tfr_decomposition"): ("group_action.tfr", None, None, None),
    ("group_action", "bockstein_condition"): ("group_action.bockstein", None, None, None),
    ("group_action", "lefschetz_number"): ("group_action.lefschetz", None, None, None),
    ("group_action", "quotient_complex"): ("group_action.quotient", None, None, None),
    ("group_action", "subdivide_action"): ("group_action.subdivide", None, None, None),
    ("group_action", "induced_cohomology_action"): (
        lambda a, k: "group_action.gstar_" + _field_suffix(a[1]), None, None, None),
    ("equivariant", "localization_check"): ("equivariant.localization", None, None, None),
    ("equivariant", "BorelComplex.differential_rank"): (
        "equivariant.rank", None, None, ("equivariant.rank", lambda a: (a[0], a[1]))),
    ("equivariant", "group_cohomology_dims"): (
        "equivariant.group_cohomology", None, None, None),
    ("pd_algebra", "random_pd_algebra"): (
        lambda a, k: "pd_algebra.generate_" + _field_suffix(a[1]), None,
        lambda r: {"dim": r[0].dim}, None),
    ("pd_algebra", "random_differential_algebra"): (
        lambda a, k: "pd_algebra.generate_" + _field_suffix(a[1]), None,
        lambda r: {"dim": r[0].dim}, None),
    ("pd_algebra", "BigradedAlgebra.validate"): ("pd_algebra.validate", None, None, None),
    ("pd_algebra", "check_pd"): ("pd_algebra.check_pd", None, None, None),
    ("pd_algebra", "lemma_even_congruence"): ("pd_algebra.even_congruence", None, None, None),
    ("pd_algebra", "check_derivation"): ("pd_algebra.derivation", None, None, None),
    ("pd_algebra", "homology"): ("pd_algebra.homology", None, None, None),
    ("theorems", "check_theorem2"): ("theorems.theorem2", None, None, None),
    ("theorems", "check_theorem4"): ("theorems.theorem4", None, None, None),
    ("theorems", "check_even_codim"): ("theorems.even_codim", None, None, None),
    ("theorems", "smith_inequality_check"): ("theorems.smith", None, None, None),
    ("theorems", "homology_manifold_check"): ("theorems.hm_check", None, None, None),
    ("cli", "parse"): ("cli.parse", lambda a, k: {"bytes_in": len(a[0].encode())}, None, None),
    ("cli", "main"): ("cli.main", None, None, None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hits: dict[str, int] = {}
        self._seen: dict[str, weakref.WeakKeyDictionary] = {}

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, op, pre=None, post=None, hit=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = op if isinstance(op, str) else op(args, kwargs)
            counters = pre(args, kwargs) if pre else None
            if hit is not None:
                self._note_hit(hit[0], *hit[1](args))
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, counters]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if post:
                extra = post(result)
                rec[4] = {**counters, **extra} if counters else extra
            return result

        return traced

    def _note_hit(self, group, owner, key):
        keys = self._seen.setdefault(group, weakref.WeakKeyDictionary()).setdefault(owner, set())
        if key in keys:
            self.hits[group] = self.hits.get(group, 0) + 1
        else:
            keys.add(key)

    def install(self):
        """Wrap every traced callable and rebind it at every binding site.

        Traced are the functions and methods in SPECS, plus every public
        fixture of ``corpus``.  Everything else runs inside its caller's
        span, so an op's self time includes the untraced helpers it calls.
        """
        modules = {name: importlib.import_module(f"betticong.{name}") for name in LAYERS}
        replace: dict[int, object] = {}
        for (layer, qual), (op, pre, post, hit) in SPECS.items():
            owner, _, meth = qual.partition(".")
            target = getattr(modules[layer], owner)
            if not meth:
                replace[id(target)] = self.wrap(target, op, pre, post, hit)
                continue
            raw = target.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(target, meth, classmethod(self.wrap(raw.__func__, op, pre, post, hit)))
            else:
                setattr(target, meth, self.wrap(raw, op, pre, post, hit))
        corpus = modules["corpus"]
        for name, obj in vars(corpus).items():
            if (not name.startswith("_") and callable(obj) and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == corpus.__name__):
                replace[id(obj)] = self.wrap(obj, f"corpus.{name}")
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("betticong"):
                continue
            for name, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    setattr(mod, name, new)
        return self

    # -- results ----------------------------------------------------------------

    def by_op(self) -> dict[str, dict]:
        """Per op: calls, self_s, total_s and summed counters."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] >= 0:
                child_time[rec[1]] += rec[3] - rec[2]
        ops: dict[str, dict] = {}
        for i, (op, _, start, end, counters) in enumerate(self.spans):
            agg = ops.setdefault(op, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child_time[i]
            agg["total_s"] += end - start
            for key, val in (counters or {}).items():
                agg[key] = agg.get(key, 0) + val
        return ops

    def count_under(self, child_op: str, ancestor_op: str) -> int:
        """Calls of child_op that have an ancestor span named ancestor_op."""
        spans, n = self.spans, 0
        for rec in spans:
            if rec[0] != child_op:
                continue
            parent = rec[1]
            while parent >= 0:
                if spans[parent][0] == ancestor_op:
                    n += 1
                    break
                parent = spans[parent][1]
        return n

    def dump(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "parent", "start", "end", "counters"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, src_dir: Path) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    ops = tracer.by_op()

    def get(op, key="self_s"):
        return ops.get(op, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for key in ("self_s", "calls", "entries_in"):
        m[f"exactalg.snf.{key}"] = get("exactalg.snf", key)
    for key in ("self_s", "calls"):
        m[f"exactalg.pval.{key}"] = get("exactalg.pval", key)
        m[f"exactalg.sparse_rref_q.{key}"] = get("exactalg.sparse_rref_q", key)
    for key in ("self_s", "calls", "nnz_in"):
        m[f"exactalg.sparse_rank.{key}"] = get("exactalg.sparse_rank", key)
    m["exactalg.sparse_rank.rank_per_row"] = ratio(get("exactalg.sparse_rank", "rank"),
                                                   get("exactalg.sparse_rank", "rows_in"))
    m["exactalg.dense_rref_q.self_s"] = get("exactalg.dense_rref_q")
    m["exactalg.dense_rref_fp.self_s"] = get("exactalg.dense_rref_fp")
    m["exactalg.dense_rref.calls"] = (get("exactalg.dense_rref_q", "calls")
                                      + get("exactalg.dense_rref_fp", "calls"))
    m["exactalg.dense_rref.cells_in"] = (get("exactalg.dense_rref_q", "cells_in")
                                         + get("exactalg.dense_rref_fp", "cells_in"))
    m["exactalg.invert.self_s"] = get("exactalg.invert")
    m["exactalg.jordan.self_s"] = get("exactalg.jordan")

    for key in ("self_s", "calls", "facets_in", "simplices_out"):
        m[f"simplicial.build.{key}"] = get("simplicial.build", key)
    for key in ("self_s", "simplices_out"):
        m[f"simplicial.subdivide.{key}"] = get("simplicial.subdivide", key)
    betti_calls = get("simplicial.betti", "calls")
    m["simplicial.betti.self_s"] = get("simplicial.betti")
    m["simplicial.betti.calls"] = betti_calls
    m["simplicial.betti.hit_ratio"] = ratio(tracer.hits.get("simplicial.betti", 0), betti_calls)
    basis_calls = get("simplicial.basis_q", "calls") + get("simplicial.basis_fp", "calls")
    m["simplicial.basis_q.self_s"] = get("simplicial.basis_q")
    m["simplicial.basis_fp.self_s"] = get("simplicial.basis_fp")
    m["simplicial.basis.calls"] = basis_calls
    m["simplicial.basis.hit_ratio"] = ratio(tracer.hits.get("simplicial.basis", 0), basis_calls)
    for op in ("cup_pairing", "pd_check", "link", "integral", "torsion_profile"):
        m[f"simplicial.{op}.self_s"] = get(f"simplicial.{op}")
    m["simplicial.integral.total_s"] = get("simplicial.integral", "total_s")

    for op in ("validate", "make_regular", "fixed_set", "tfr", "bockstein", "lefschetz",
               "quotient"):
        m[f"group_action.{op}.self_s"] = get(f"group_action.{op}")
    m["group_action.make_regular.calls"] = get("group_action.make_regular", "calls")
    m["group_action.subdivide.rounds"] = get("group_action.subdivide", "calls")
    m["group_action.gstar_q.self_s"] = get("group_action.gstar_q")
    m["group_action.gstar_fp.self_s"] = get("group_action.gstar_fp")
    m["group_action.gstar.calls"] = (get("group_action.gstar_q", "calls")
                                     + get("group_action.gstar_fp", "calls"))

    rank_calls = get("equivariant.rank", "calls")
    m["equivariant.localization.self_s"] = get("equivariant.localization")
    m["equivariant.rank.self_s"] = get("equivariant.rank")
    m["equivariant.rank.calls"] = rank_calls
    m["equivariant.rank.hit_ratio"] = ratio(tracer.hits.get("equivariant.rank", 0), rank_calls)
    m["equivariant.rank.nnz_in"] = _sum_child_counter(tracer, "equivariant.rank",
                                                      "exactalg.sparse_rank", "nnz_in")
    m["equivariant.group_cohomology.self_s"] = get("equivariant.group_cohomology")

    for suffix in ("q", "fp"):
        m[f"pd_algebra.generate_{suffix}.self_s"] = get(f"pd_algebra.generate_{suffix}")
        m[f"pd_algebra.generate_{suffix}.total_s"] = get(f"pd_algebra.generate_{suffix}",
                                                         "total_s")
        m[f"pd_algebra.generate_{suffix}.calls"] = get(f"pd_algebra.generate_{suffix}", "calls")
    m["pd_algebra.generate.dim_sum"] = (get("pd_algebra.generate_q", "dim")
                                        + get("pd_algebra.generate_fp", "dim"))
    for op in ("validate", "check_pd", "even_congruence", "derivation", "homology"):
        m[f"pd_algebra.{op}.self_s"] = get(f"pd_algebra.{op}")

    for op in ("theorem2", "theorem4", "even_codim", "smith", "hm_check"):
        m[f"theorems.{op}.self_s"] = get(f"theorems.{op}")
    m["theorems.hm_check.links"] = tracer.count_under("simplicial.link", "theorems.hm_check")

    # Every corpus fixture is its own op.
    m["corpus.fixtures.self_s"] = sum(a["self_s"] for op, a in ops.items()
                                      if op.startswith("corpus."))
    m["corpus.lens_space.total_s"] = get("corpus.lens_space", "total_s")
    m["cli.parse.self_s"] = get("cli.parse")
    m["cli.parse.bytes_in"] = get("cli.parse", "bytes_in")
    m["cli.main.self_s"] = get("cli.main")

    for layer in LAYERS:
        path = src_dir / f"{layer}.py"
        m[f"{layer}.src_lines"] = len(path.read_text(encoding="utf-8").splitlines())
    m["trace.spans"] = len(tracer.spans)
    return m


def _sum_child_counter(tracer: Tracer, parent_op: str, child_op: str, key: str) -> int:
    spans = tracer.spans
    return sum(
        (rec[4] or {}).get(key, 0) for rec in spans
        if rec[0] == child_op and rec[1] >= 0 and spans[rec[1]][0] == parent_op
    )
