"""CLI tests: parsing, serialization round-trips, commands, exit codes."""

from __future__ import annotations

import io
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, find, given, settings, strategies as st

from betticong import cli, pd_algebra, theorems
from betticong.cli import COMMANDS, InputError, main, parse, serialize
from betticong.exactalg import GF, QQ
from betticong.pd_algebra import (
    check_derivation,
    homology,
    random_differential_algebra,
    random_pd_algebra,
)

import oracles

S2_DOC = """\
# suspended triangle with its rotation
complex S2
vertices v0 v1 v2 N S
facet v0 v1 N
facet v1 v2 N
facet v0 v2 N
facet v0 v1 S
facet v1 v2 S
facet v0 v2 S
end
action rot on S2 p 3
map v0 -> v1
map v1 -> v2
map v2 -> v0
end
"""

PENTAGON_DOC = """\
complex C5
vertices v0 v1 v2 v3 v4
facet v0 v1
facet v1 v2
facet v2 v3
facet v3 v4
facet v0 v4
end
action rot on C5 p 5
map v0 -> v1
map v1 -> v2
map v2 -> v3
map v3 -> v4
map v4 -> v0
end
"""

ODD_ALGEBRA_DOC = """\
algebra odd_example field Q
basis one bidegree 0 0
basis a1 bidegree 0 1
basis a2 bidegree 0 1
basis u1 bidegree 0 2
basis u2 bidegree 0 2
basis w bidegree 0 3
mult a1 u1 = 1 w
mult u1 a1 = 1 w
mult a2 u2 = 1 w
mult u2 a2 = 1 w
phi w = 1
delta u1 = 1 a2
delta u2 = -1 a1
end
"""


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.bc"
    path.write_text(S2_DOC)
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "c5.bc"
    path.write_text(PENTAGON_DOC)
    return str(path)


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "odd.bc"
    path.write_text(ODD_ALGEBRA_DOC)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_s2_fixture():
    doc = parse(S2_DOC)
    assert set(doc.complexes) == {"S2"}
    assert set(doc.actions) == {"rot"}
    assert doc.complexes["S2"].dim == 2


def test_parse_unknown_vertex_has_line_number():
    bad = "complex X\nvertices a b\nfacet a c\nend\n"
    with pytest.raises(InputError, match="line 3"):
        parse(bad)


@pytest.mark.parametrize("vertices, facet, message", [
    ("a", "a c d", "facet references undeclared vertex 'c'"),
    ("a b", "b b c", "facet references undeclared vertex 'c'"),  # before the repeat
    ("a b", "a b a", "facet repeats vertex 'a'"),
])
def test_facet_errors_name_the_first_bad_label(vertices, facet, message):
    """An undeclared label is reported before a repeated one, each the
    first such label of the facet."""
    doc = f"complex X\nvertices {vertices}\nfacet a\nfacet {facet}\nend\n"
    with pytest.raises(InputError) as err:
        parse(doc)
    assert str(err.value) == f"line 4: {message}"


@pytest.mark.parametrize("doc, line", [
    ("complex X\nvertices a b\nfacet a a\nend\n", 3),
    ("complex X\nvertices a a b\nfacet a b\nend\n", 2),
])
def test_repeated_vertex_rejected_with_its_line(tmp_path, capsys, doc, line):
    with pytest.raises(InputError, match=f"line {line}: .*repeats"):
        parse(doc)
    path = tmp_path / "bad.bc"
    path.write_text(doc)
    assert main(["cohomology", str(path)]) == 3
    assert f"line {line}:" in capsys.readouterr().err


def test_repeated_map_source_rejected_with_its_line(tmp_path, capsys):
    """A second map line for a source is an error, not a silent override:
    here the rotation's three lines would be dropped for its inverse's."""
    doc = ("complex T\nvertices a b c\nfacet a b\nfacet b c\nfacet a c\nend\n"
           "action g on T p 3\nmap a -> b\nmap b -> c\nmap c -> a\n"
           "map a -> c\nmap b -> a\nmap c -> b\nend\n")
    with pytest.raises(InputError, match="line 11: map repeats source vertex 'a'"):
        parse(doc)
    path = tmp_path / "bad.bc"
    path.write_text(doc)
    assert main(["fixed-set", str(path)]) == 3
    captured = capsys.readouterr()
    assert "line 11:" in captured.err and not captured.out


def test_parse_wrong_order_names_cycle():
    bad = PENTAGON_DOC.replace("p 5", "p 3")
    with pytest.raises(InputError, match="cycle.*length 5, not 1 or 3"):
        parse(bad)


def test_parse_duplicate_names_rejected():
    bad = S2_DOC + "complex S2\nvertices x y\nfacet x y\nend\n"
    with pytest.raises(InputError, match="duplicate name"):
        parse(bad)


def test_parse_action_unknown_complex():
    bad = "action rot on nowhere p 3\nend\n"
    with pytest.raises(InputError, match="unknown complex"):
        parse(bad)


def test_parse_algebra():
    doc = parse(ODD_ALGEBRA_DOC)
    A, phi, delta = doc.algebras["odd_example"]
    assert A.dim == 6
    assert phi is not None and phi.formal_dim == 3
    assert delta is not None and delta.shift == (0, -1)
    assert not A.validate()


def test_round_trip_byte_identical():
    for doc_text in (S2_DOC, PENTAGON_DOC, ODD_ALGEBRA_DOC):
        canonical = serialize(parse(doc_text))
        assert serialize(parse(canonical)) == canonical


def test_declared_but_unused_vertex_is_not_a_simplex():
    doc = parse("complex X\nvertices a b c\nfacet a b\nend\n")
    X = doc.complexes["X"]
    from betticong.exactalg import QQ

    assert len(X.connected_components()) == 1
    assert X.cohomology(QQ).betti == (1, 0)
    assert X.euler_characteristic() == 1


def test_parse_inconsistent_delta_shift_rejected():
    bad = (
        "algebra A field Q\n"
        "basis one bidegree 0 0\n"
        "basis x bidegree 0 2\n"
        "basis y bidegree 0 3\n"
        "phi y = 1\n"
        "delta x = 1 one\n"
        "delta y = 1 x\n"  # shift (0,-1) conflicts with (0,-2)
        "end\n"
    )
    with pytest.raises(InputError, match="not homogeneous"):
        parse(bad)


def test_parse_unknown_mult_label_rejected():
    bad = (
        "algebra A field Q\n"
        "basis one bidegree 0 0\n"
        "mult one nope = 1 one\n"
        "end\n"
    )
    with pytest.raises(InputError, match="unknown basis label"):
        parse(bad)


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_cohomology_command(s2_file, capsys):
    code = main(["cohomology", s2_file, "--complex", "S2", "--field", "F3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "b0 1" in out and "b1 0" in out and "b2 1" in out
    assert "chi 2" in out


def test_pd_check_command(s2_file, capsys):
    code = main(["pd-check", s2_file, "--field", "Q"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pd yes formal_dim 2" in out


def test_theorem2_pass(s2_file, capsys):
    code = main(["theorem2", s2_file, "--action", "rot", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK theorem2: PASS — 2 vs 2 (mod 4)" in out


def test_theorem2_guard_strict_exit_2(pentagon_file, capsys):
    code = main(["theorem2", pentagon_file, "--strict"])
    out = capsys.readouterr().out
    assert code == 2
    assert "CHECK theorem2: N/A — 0 vs 2 (mod 4)" in out


def test_theorem2_guard_nonstrict_exit_0(pentagon_file, capsys):
    assert main(["theorem2", pentagon_file]) == 0
    capsys.readouterr()


def test_fixed_set_command(s2_file, capsys):
    code = main(["fixed-set", s2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "f-vector (2,)" in out


def test_lefschetz_command(s2_file, capsys):
    code = main(["lefschetz", s2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK lefschetz-power-1: PASS — 2 vs 2 (mod 4)" in out
    assert "CHECK lefschetz-power-2: PASS — 2 vs 2 (mod 4)" in out


def test_tfr_command(s2_file, capsys):
    code = main(["tfr", s2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "bockstein holds" in out
    assert "CHECK tfr-dimensions: PASS" in out


def test_bockstein_command(s2_file, capsys):
    code = main(["bockstein", s2_file, "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bockstein_condition true" in out


def test_equivariant_betti_command(s2_file, capsys):
    code = main(["equivariant-betti", s2_file, "--degrees", "0..4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H^3_G 2" in out and "H^4_G 2" in out


def test_localization_command(s2_file, capsys):
    code = main(["localization", s2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK localization-deg-3: PASS — 2 vs 2 (mod 4)" in out


def test_theorem4_command(s2_file, capsys):
    code = main(["theorem4", s2_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK theorem4: PASS — 2 vs 2 (mod 4)" in out


def test_algebra_check_odd_example(algebra_file, capsys):
    code = main(["algebra-check", "--file", algebra_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK odd-congruence: PASS — 6 vs 2 (mod 4)" in out


def test_theorem1_alg_command(algebra_file, capsys):
    code = main(["theorem1-alg", algebra_file, "--fixed-set-dim", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK theorem1-algebraic: PASS — 6 vs 2 (mod 4)" in out


def test_reports_are_deterministic(s2_file, capsys):
    main(["theorem2", s2_file])
    first = capsys.readouterr().out
    main(["theorem2", s2_file])
    second = capsys.readouterr().out
    assert first == second


def test_report_file_written(s2_file, tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = main(["theorem2", s2_file, "--report", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out


def test_pd_check_failure_exit_1(tmp_path, capsys):
    doc = (
        "complex W\nvertices a b c d e\n"
        "facet a b\nfacet b c\nfacet a c\nfacet a d\nfacet d e\nfacet a e\nend\n"
    )
    path = tmp_path / "wedge.bc"
    path.write_text(doc)
    code = main(["pd-check", str(path), "--field", "Q"])
    out = capsys.readouterr().out
    assert code == 1
    assert "CHECK pd-top-class: FAIL" in out


def test_pd_check_on_a_disconnected_complex_is_an_input_error(tmp_path, capsys):
    """Poincare duality is checked on connected complexes only: two disjoint
    triangles exit 3 with one error line, not a failed check or a traceback."""
    path = tmp_path / "two.bc"
    path.write_text("complex two\nvertices a b c d e f\nfacet a b c\nfacet d e f\nend\n")
    assert main(["pd-check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pd_check requires a connected complex (2 components)\n"


def test_suite_command(capsys):
    code = main(["suite"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK theorem2[s2_rotation_p3]: PASS — 2 vs 2 (mod 4)" in out
    assert "CHECK theorem2[free_pentagon_p5]: N/A — 0 vs 2 (mod 4)" in out
    assert "CHECK bockstein[lens,p=3]: PASS" in out
    assert "CHECK theorem1-alg[(1,2,2,1)]: PASS — 6 vs 2 (mod 4)" in out
    assert "FAIL" not in out


# Run as ``python -c``: the package is imported, the suite runs, and the
# script reports on stderr whether numpy was loaded after each step.
_NUMPY_PROBE = """
import sys
import betticong.cli
after_import = "numpy" in sys.modules
code = betticong.cli.main(["suite", "--strict"])
print("numpy loaded:", after_import, "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_suite_runs_without_loading_numpy():
    """The library is standard-library only: neither importing the CLI nor a
    whole strict suite run loads numpy."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "CHECK theorem1-alg[(1,2,2,1)]: PASS" in proc.stdout
    assert proc.stderr.splitlines()[-1] == "numpy loaded: False False"


def test_missing_document_exit_3(capsys):
    assert main(["cohomology"]) == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exit_3(capsys):
    assert main(["no-such-command"]) == 3
    capsys.readouterr()


def test_bad_p_exit_3(s2_file, capsys):
    assert main(["bockstein", s2_file, "--p", "4"]) == 3
    capsys.readouterr()


def test_nonexistent_file_exit_3(capsys):
    assert main(["cohomology", "/no/such/file.bc"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# field and prime input: bounded before primality, errors without traceback
# ---------------------------------------------------------------------------

HUGE_PRIME = "1000000000000000000000000000057"


def _timed_main(argv):
    import time

    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 0.5
    return code


def test_huge_p_option_rejected_fast(s2_file, capsys):
    assert _timed_main(["bockstein", s2_file, "--p", HUGE_PRIME]) == 3
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("field", [HUGE_PRIME, "4", "9", "2147483659"])
def test_bad_field_option_exit_3(s2_file, capsys, field):
    assert _timed_main(["cohomology", s2_file, "--field", "F" + field]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: bad --field") and "Traceback" not in err


@pytest.mark.parametrize("doc, line", [
    (f"algebra A field F{HUGE_PRIME}\nbasis one bidegree 0 0\nend\n", 1),
    (S2_DOC.replace("action rot on S2 p 3", f"action rot on S2 p {HUGE_PRIME}"), 11),
])
def test_huge_prime_in_document_rejected_with_its_line(tmp_path, capsys, doc, line):
    path = tmp_path / "huge.bc"
    path.write_text(doc)
    assert _timed_main(["cohomology", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"line {line}:" in err and "too large" in err


def test_algebra_check_over_the_largest_prime_field(tmp_path, capsys):
    doc = (
        "algebra A field F2147483647\n"
        "basis one bidegree 0 0\nbasis x bidegree 0 1\nbasis y bidegree 0 1\n"
        "basis w bidegree 0 2\n"
        "mult x y = 2147483646 w\nmult y x = 1 w\nphi w = 2147483646\nend\n"
    )
    path = tmp_path / "big.bc"
    path.write_text(doc)
    assert main(["algebra-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "CHECK algebra-structure: PASS" in out
    assert "CHECK algebra-pd: PASS" in out
    assert "CHECK even-congruence: PASS — 4 vs 0 (mod 4)" in out


# ---------------------------------------------------------------------------
# algebra-check: one document per broken law of the structure constants
# ---------------------------------------------------------------------------

_XYV = ("basis one bidegree 0 0\nbasis x bidegree 0 1\nbasis y bidegree 0 1\n"
        "basis v bidegree 0 2\n")
_XYV_LAWFUL = "mult x y = 1 v\nmult y x = -1 v\nphi v = 1\n"

BROKEN_LAWS = {
    "unit": ("Q", _XYV + "mult one x = 2 x\nmult x one = 2 x\n" + _XYV_LAWFUL,
             ["unit law fails at basis 1"]),
    # Terms that sum to 0 leave no product at all, unit pairs included.
    "unit-terms-sum-to-0": ("F3", _XYV + "mult one x = 1 x + 2 x\nmult x one = 0\n" + _XYV_LAWFUL,
                            ["unit law fails at basis 1"]),
    "homogeneity": ("Q", _XYV + "mult x y = 1 v + 1 x\nmult y x = -1 v + -1 x\nphi v = 1\n",
                    ["product e1*e2 not homogeneous", "product e2*e1 not homogeneous"]),
    "commutativity": ("F5", _XYV + "mult x y = 1 v\nmult y x = 1 v\nphi v = 1\n",
                      ["graded commutativity fails at (1, 2)"]),
    # (x x) y = v y = 0, but x (x y) = x v = z.
    "associativity": ("Q", "basis one bidegree 0 0\nbasis x bidegree 0 2\nbasis y bidegree 0 2\n"
                           "basis v bidegree 0 4\nbasis z bidegree 0 6\n"
                           "mult x x = 1 v\nmult x v = 1 z\nmult v x = 1 z\n"
                           "mult x y = 1 v\nmult y x = 1 v\nphi z = 1\n",
                      ["associativity fails at (1, 1, 2)"]),
}


@pytest.mark.parametrize("law", sorted(BROKEN_LAWS))
def test_algebra_check_reports_each_broken_law(tmp_path, capsys, law):
    field, body, expected = BROKEN_LAWS[law]
    path = tmp_path / "broken.bc"
    path.write_text(f"algebra B field {field}\n{body}end\n")
    assert main(["algebra-check", str(path)]) == 1
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("structure:")] == [
        f"structure: {problem}" for problem in expected]
    assert f"CHECK algebra-structure: FAIL — {len(expected)} vs 0 (mod 4)" in out


# ---------------------------------------------------------------------------
# fractional coefficients over F_p: the denominator is inverted mod p
# ---------------------------------------------------------------------------

def _f3_algebra(mult: str, phi: str) -> str:
    return (
        "algebra A field F3\n"
        "basis one bidegree 0 0\nbasis x bidegree 0 2\nbasis v bidegree 0 4\n"
        f"mult x x = {mult} v\nphi v = {phi}\nend\n"
    )


@pytest.mark.parametrize("mult, phi", [("1/2", "1"), ("1", "1/2")])
def test_fractional_coefficient_over_f3_is_inverted(tmp_path, capsys, mult, phi):
    # 1/2 = 2 in F3, so both documents match their "2" versions and are PD.
    path = tmp_path / "half.bc"
    path.write_text(_f3_algebra(mult, phi))
    assert main(["algebra-check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "nondegenerate yes" in out
    assert "CHECK algebra-pd: PASS" in out
    doc = parse(_f3_algebra(mult, phi))
    A, orientation, _ = doc.algebras["A"]
    two = parse(_f3_algebra(mult.replace("1/2", "2"), phi.replace("1/2", "2"))).algebras["A"]
    assert repr(A.table) == repr(two[0].table)
    assert repr(orientation.values) == repr(two[1].values)


@pytest.mark.parametrize("command", ["algebra-check", "theorem1-alg"])
def test_algebra_over_f2_rejected_with_its_line(tmp_path, capsys, command):
    """The congruences exclude characteristic 2, so an algebra over F2 is an
    input error at its algebra line, as --p 2 is."""
    path = tmp_path / "f2.bc"
    path.write_text("algebra A field F2\nbasis one bidegree 0 0\nbasis x bidegree 0 2\n"
                    "mult x x = 0\nphi x = 1\nend\n")
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 1:" in err and "characteristic 2" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["algebra-check", "theorem1-alg"])
def test_negative_second_grading_rejected_with_its_line(tmp_path, capsys, command):
    """The algebras are (Z/2 x N)-bigraded, so j < 0 is an input error at its
    basis line.  Before, a top class at bidegree (0, -2) gave theorem1-alg an
    applicable PASS at formal dimension -2, and algebra-check reported PD."""
    path = tmp_path / "negative.bc"
    path.write_text("algebra A field Q\nbasis one bidegree 0 0\nbasis x bidegree 0 -2\n"
                    "phi x = 1\nend\n")
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert "line 3:" in captured.err and "-2" in captured.err and not captured.out
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("second, message", [
    ("mult a1 u1 = 2 w", "mult line repeats 'a1' 'u1'"),
    ("phi w = 3", "phi line repeats 'w'"),
    ("delta u1 = 0", "delta line repeats 'u1'"),
])
def test_repeated_algebra_line_rejected_with_its_line(tmp_path, capsys, second, message):
    """A second mult line for one ordered pair, phi line for one label or
    delta line for one source is an input error at the second line; before,
    it silently replaced the first.  ``mult a b`` then ``mult b a`` is two
    products, as in ODD_ALGEBRA_DOC, which already holds each first line."""
    path = tmp_path / "repeat.bc"
    path.write_text(ODD_ALGEBRA_DOC.replace("end\n", f"{second}\nend\n"))
    assert main(["algebra-check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: line 15: {message}\n" and not captured.out
    table = parse(ODD_ALGEBRA_DOC).algebras["odd_example"][0].table
    assert table[1, 3] == table[3, 1] == {5: 1}


def test_denominator_divisible_by_p_rejected_with_its_line(tmp_path, capsys):
    path = tmp_path / "third.bc"
    path.write_text(_f3_algebra("1", "1/3"))
    assert main(["algebra-check", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line 6:" in err and "divisible by 3" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the action's prime, non-derivations, and a sweep over every command
# ---------------------------------------------------------------------------

# The example document of the README: the Z/3 rotation of S^2 and an
# algebra whose delta is not a derivation.
README_DOC = S2_DOC + """\
algebra odd_example field Q
basis one bidegree 0 0
basis a1 bidegree 0 1
basis u1 bidegree 0 2
basis w bidegree 0 3
mult a1 u1 = 1 w
mult u1 a1 = 1 w
phi w = 1
delta u1 = 1 a1
end
"""

# The same algebra with delta w = 1 (Leibniz fails on a1 * u1 = w).
BAD_DELTA_DOC = README_DOC.replace("delta u1 = 1 a1", "delta w = 1 one")


@pytest.mark.parametrize("command", ["tfr", "equivariant-betti", "localization",
                                     "theorem2", "theorem4"])
def test_p_other_than_the_actions_is_an_input_error(s2_file, capsys, command):
    # Before, --p 5 on the Z/3 rotation gave H^2_G = -6, a FAIL with -10,
    # and an applicable Theorem 2 PASS: a norm of the wrong length.
    assert main([command, s2_file, "--p", "5"]) == 3
    captured = capsys.readouterr()
    assert "--p 5" in captured.err and "p 3" in captured.err and not captured.out
    assert main([command, s2_file, "--p", "3"]) == 0
    capsys.readouterr()


def test_fixed_set_keeps_p_as_its_coefficient_prime(s2_file, capsys):
    assert main(["fixed-set", s2_file, "--p", "5"]) == 0
    assert "total betti F5 2" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [README_DOC, BAD_DELTA_DOC], ids=["readme", "bad-delta"])
def test_theorem1_alg_without_a_derivation_is_not_applicable(tmp_path, capsys, doc):
    path = tmp_path / "alg.bc"
    path.write_text(doc)
    assert main(["theorem1-alg", str(path)]) == 0
    out = capsys.readouterr().out
    assert "differential is not a square-zero derivation" in out
    assert "CHECK theorem1-algebraic: N/A — 4 vs - (mod 4)" in out


@pytest.mark.parametrize("doc, violation", [(README_DOC, "Leibniz fails at pair (2, 2)"),
                                              (BAD_DELTA_DOC, "Leibniz fails at pair (1, 2)")],
                         ids=["readme", "bad-delta"])
def test_homology_of_a_non_derivation_names_the_first_violation(doc, violation):
    # Before, the README algebra gave an H of dimension 2 and the other
    # raised from deep inside the subquotient.
    A, phi, delta = parse(doc).algebras["odd_example"]
    assert check_derivation(A, delta).violations[0] == violation
    with pytest.raises(ValueError, match=re.escape(f"square-zero derivation: {violation}")):
        homology(A, delta, phi)


@pytest.mark.parametrize("doc", [README_DOC, BAD_DELTA_DOC], ids=["readme", "bad-delta"])
@pytest.mark.parametrize("flags", [[], ["--p", "5"], ["--field", "F3"]], ids=str)
def test_every_command_exits_0_to_3_without_a_traceback(tmp_path, capsys, doc, flags):
    path = tmp_path / "doc.bc"
    path.write_text(doc)
    for command in sorted(COMMANDS):
        if command == "suite":
            continue  # needs no document; test_suite_command runs it
        code = main([command, str(path), *flags])
        err = capsys.readouterr().err
        assert 0 <= code <= 3 and "Traceback" not in err, (command, code, err)


# ---------------------------------------------------------------------------
# a non-regular action: one Borel model, no subdivision in any command
# ---------------------------------------------------------------------------

def test_equivariant_betti_and_localization_agree_on_non_regular_action(s4_file, capsys):
    assert main(["equivariant-betti", s4_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    betti = {int(l.split()[0][2:-2]): int(l.split()[1]) for l in lines if l.startswith("H^")}
    assert main(["localization", s4_file]) == 0
    out = capsys.readouterr().out
    assert f"stable dims [{betti[5]}, {betti[6]}] fixed total 2" in out
    assert betti[5] == betti[6] == 2


@pytest.mark.parametrize("command", ["fixed-set", "lefschetz", "theorem2", "theorem4",
                                     "localization", "equivariant-betti", "tfr"])
def test_no_command_subdivides(s4_file, monkeypatch, capsys, command):
    from betticong import group_action

    calls = []
    real = group_action.barycentric_subdivision
    monkeypatch.setattr(group_action, "barycentric_subdivision",
                        lambda X: calls.append(X) or real(X))
    assert main([command, s4_file]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# one derivation check per verdict
# ---------------------------------------------------------------------------

# A class at bidegree (1, 1) breaks the odd-case hypotheses (m = 1), but the
# zero delta is a square-zero derivation, so H(A, delta) = A is defined.
NOT_APPLICABLE_DOC = """\
algebra na field Q
basis one bidegree 0 0
basis x bidegree 1 1
basis y bidegree 1 2
basis w bidegree 0 3
mult x y = 1 w
mult y x = 1 w
phi w = 1
delta x = 0
end
"""


# The odd example with one more class in degree 1 that pairs with nothing:
# delta is still a derivation, but the pairing is degenerate.
DEGENERATE_ODD_DOC = ODD_ALGEBRA_DOC.replace("basis w bidegree 0 3\n",
                                             "basis w bidegree 0 3\nbasis x bidegree 0 1\n")


@pytest.mark.parametrize("doc, command, calls, check", [
    (ODD_ALGEBRA_DOC, "theorem1-alg", 1, "CHECK theorem1-algebraic: PASS — 6 vs 2 (mod 4)"),
    (ODD_ALGEBRA_DOC, "algebra-check", 1, "CHECK odd-congruence: PASS — 6 vs 2 (mod 4)"),
    (NOT_APPLICABLE_DOC, "theorem1-alg", 1, "CHECK theorem1-algebraic: N/A — 4 vs 4 (mod 4)"),
    (NOT_APPLICABLE_DOC, "algebra-check", 1, "CHECK odd-congruence: N/A — - vs - (mod 4)"),
    (BAD_DELTA_DOC, "theorem1-alg", 1, "CHECK theorem1-algebraic: N/A — 4 vs - (mod 4)"),
    (BAD_DELTA_DOC, "algebra-check", 1, "CHECK algebra-derivation: FAIL — 1 vs 0 (mod 4)"),
    (DEGENERATE_ODD_DOC, "theorem1-alg", 1, "CHECK theorem1-algebraic: N/A — 7 vs 3 (mod 4)"),
    (DEGENERATE_ODD_DOC, "algebra-check", 1, "CHECK algebra-pd: FAIL — 0 vs 1 (mod 4)"),
], ids=["odd-theorem1", "odd-check", "na-theorem1", "na-check", "bad-theorem1", "bad-check",
        "degenerate-theorem1", "degenerate-check"])
def test_one_derivation_check_per_verdict(tmp_path, monkeypatch, capsys, doc, command, calls, check):
    """theorem1-alg and algebra-check each check delta once, and PD once.
    In odd formal dimension both report the verdicts of odd_congruence's own
    checks, and odd_congruence reuses the derivation check for H."""
    seen = {"check_derivation": [], "check_pd": []}
    for name in seen:
        real = getattr(pd_algebra, name)

        def counting(*a, name=name, real=real):
            seen[name].append(a)
            return real(*a)

        for module in (pd_algebra, cli, theorems):
            monkeypatch.setattr(module, name, counting, raising=module is pd_algebra)
    path = tmp_path / "alg.bc"
    path.write_text(doc)
    main([command, str(path)])
    assert check in capsys.readouterr().out
    assert len(seen["check_derivation"]) == calls
    assert len(seen["check_pd"]) == 1


# ---------------------------------------------------------------------------
# theorem1-alg on a document that is not an algebra
# ---------------------------------------------------------------------------

# One of the grammar fuzz's documents: the unit law, homogeneity and graded
# commutativity all fail, yet the odd-case data (dim 2 vs dim H = 2) is
# congruent, so a report that skips the law check prints PASS.
NOT_AN_ALGEBRA_DOC = """\
algebra fz field Q
basis one bidegree 0 0
basis b1 bidegree 0 1
mult one one = 5/2 one + -5/2 b1
mult b1 one = -3/4 b1 + 5/6 one
phi b1 = 5
delta b1 = 0
end
"""


def test_theorem1_alg_is_not_applicable_to_a_broken_algebra(tmp_path, capsys):
    path = tmp_path / "fz.bc"
    path.write_text(NOT_AN_ALGEBRA_DOC)
    assert main(["algebra-check", str(path)]) == 1
    assert "CHECK algebra-structure: FAIL — 4 vs 0 (mod 4)" in capsys.readouterr().out
    assert main(["theorem1-alg", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  hypothesis algebra_laws: no (unit law fails at basis 0)" in out
    # Nothing is read off a product table that is not an algebra's.
    assert "  hypothesis connected_pd_algebra: skipped\n" in out
    assert "  hypothesis odd_case_hypotheses: skipped\n" in out
    assert "CHECK theorem1-algebraic: N/A — 2 vs 2 (mod 4)" in out


# One of the grammar fuzz's documents: one * b2 = 0 breaks the unit law, and
# delta makes the unit a boundary while H(A, delta) is not 0.
EXACT_UNIT_DOC = """\
algebra fz field Q
basis one bidegree 0 0
basis b1 bidegree 0 1
basis b2 bidegree 0 1
mult one b2 = 0
mult b2 one = 0
phi b1 = 1
delta b1 = 1 one
end
"""


def test_theorem1_alg_reports_no_homology_where_the_unit_is_a_boundary(tmp_path, capsys):
    path = tmp_path / "fz.bc"
    path.write_text(EXACT_UNIT_DOC)
    assert main(["theorem1-alg", str(path)]) == 0
    assert "CHECK theorem1-algebraic: N/A — 3 vs - (mod 4)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the algebra-document grammar
# ---------------------------------------------------------------------------

# The canonical form of a document whose mult and delta terms cancel: a sum
# of 0 leaves no line, and fractions and residues print reduced mod 5.
CANCELLING_DOC = """\
algebra cancel field F5
basis one bidegree 0 0
basis a1 bidegree 0 1
basis a2 bidegree 0 1
basis u1 bidegree 0 2
basis u2 bidegree 0 2
basis w bidegree 0 3
mult a1 u1 = 1 w
mult u1 a1 = 1 w
mult a2 u2 = 1/2 w + 1/2 w
mult u2 a2 = 1 w
mult a1 a2 = 1 w + -1 w
phi w = 6
delta u1 = -1 a2 + 1 a1 + -1 a1
delta u2 = 1/3 a1 + 2/3 a1
delta a1 = 2 one + 3 one
end
"""

CANCELLING_SERIALIZED = """\
algebra cancel field F5
basis one bidegree 0 0
basis a1 bidegree 0 1
basis a2 bidegree 0 1
basis u1 bidegree 0 2
basis u2 bidegree 0 2
basis w bidegree 0 3
mult a1 u1 = 1 w
mult a2 u2 = 1 w
mult u1 a1 = 1 w
mult u2 a2 = 1 w
phi w = 1
delta u1 = 4 a2
delta u2 = 1 a1
end
"""


def test_serialize_drops_cancelled_terms():
    assert serialize(parse(CANCELLING_DOC)) == CANCELLING_SERIALIZED
    assert serialize(parse(CANCELLING_SERIALIZED)) == CANCELLING_SERIALIZED


_coefficients = st.builds(lambda a, b: f"{a}/{b}" if b > 1 else str(a),
                          st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 2, 3, 4]))


def _terms(draw, terms: list) -> str:
    """The right-hand side of a mult or delta line, sometimes with an extra
    pair of terms that cancel."""
    if terms and draw(st.booleans()):
        c, lab = draw(st.sampled_from(terms))
        terms = terms + [(c, lab), (c[1:] if c.startswith("-") else "-" + c, lab)]
    return " + ".join(f"{c} {lab}" for c, lab in terms) or "0"


@st.composite
def _random_algebra_lines(draw, field):
    """Random bidegrees and lines: most break a law or do not parse (a
    denominator divisible by p, a delta of two shifts, phi off one bidegree)."""
    bidegrees = [(0, 0)] + draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)),
                                         min_size=1, max_size=5))
    labels = ["one"] + [f"b{i}" for i in range(1, len(bidegrees))]
    lines = [f"basis {lab} bidegree {e} {j}" for lab, (e, j) in zip(labels, bidegrees)]
    term = st.tuples(_coefficients, st.sampled_from(labels))
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.sampled_from(labels)), draw(st.sampled_from(labels))
        lines.append(f"mult {a} {b} = {_terms(draw, draw(st.lists(term, max_size=3)))}")
    for lab in draw(st.lists(st.sampled_from(labels), max_size=2)):
        lines.append(f"phi {lab} = {draw(_coefficients)}")
    de, dj = draw(st.integers(0, 1)), draw(st.integers(-3, -1))
    for src in draw(st.lists(st.sampled_from(range(len(labels))), max_size=3)):
        e, j = bidegrees[src]
        targets = [lab for lab, bd in zip(labels, bidegrees) if bd == ((e + de) % 2, j + dj)]
        terms = draw(st.lists(st.tuples(_coefficients, st.sampled_from(targets or labels)), max_size=3))
        lines.append(f"delta {labels[src]} = {_terms(draw, terms)}")
    return lines


@st.composite
def _generated_algebra_lines(draw, field):
    """A seeded PD algebra (with a delta, or the odd example's) written with
    equal fractions, cancelling terms and phi values that are 0 mod p,
    sometimes with a class in the top bidegree that pairs to 0 with all."""
    F = QQ if field == "Q" else GF(int(field[1:]))
    source = draw(st.sampled_from(["pd", "differential", "odd example"]))
    if source == "odd example":
        # No block over F2 parses: there the example's lines over Q serve.
        doc = parse(ODD_ALGEBRA_DOC if F.char == 2 else
                    ODD_ALGEBRA_DOC.replace("field Q", f"field {field}"))
        A, phi, delta = doc.algebras["odd_example"]
    elif source == "pd":
        A, phi = random_pd_algebra(random.Random(draw(st.integers(0, 999))), F, even_dim=None)
        delta = None
    else:
        A, phi, delta = random_differential_algebra(random.Random(draw(st.integers(0, 999))), F)

    def coeff(x) -> str:  # x, as a fraction with a denominator invertible mod 3 and 5
        x, k = Fraction(x) + F.char * draw(st.integers(-1, 1)), draw(st.sampled_from([1, 2, 4]))
        return f"{x.numerator * k}/{x.denominator * k}"

    def rhs(v: dict) -> str:
        return _terms(draw, [(coeff(x), A.labels[c]) for c, x in sorted(v.items())])

    lines = [f"basis {lab} bidegree {e} {j}" for lab, (e, j) in zip(A.labels, A.bidegrees)]
    if draw(st.booleans()):  # a top class that every other class kills: valid, not PD
        lines.append(f"basis null bidegree 0 {phi.formal_dim}")
    lines += [f"mult {A.labels[a]} {A.labels[b]} = {rhs(v)}" for (a, b), v in sorted(A.table.items())
              if A.unit_index not in (a, b)]
    lines += [f"phi {A.labels[i]} = {coeff(x)}" for i, x in phi.values.items()]
    lines.append(f"phi {draw(st.sampled_from(A.labels))} = {F.char}")  # 0 in the field
    if delta is not None:
        lines += [f"delta {A.labels[j]} = {rhs(col)}" for j, col in enumerate(delta.columns)
                  if col or draw(st.booleans())]
    return lines


@st.composite
def algebra_documents(draw, families=(_random_algebra_lines, _generated_algebra_lines)):
    """Algebra blocks over Q, F2, F3 and F5 with mult, phi and delta lines
    (over F2 none parses: the congruences exclude characteristic 2)."""
    field = draw(st.sampled_from(["Q", "F2", "F3", "F5"]))
    lines = draw(st.one_of(*(family(field) for family in families)))
    return "\n".join([f"algebra fz field {field}", *lines, "end"]) + "\n"


# Documents whose canonical form once changed a command's verdict.
# A product with the unit that is not e_i was dropped, so the unit law held again:
UNIT_PRODUCT_DOC = """\
algebra fz field Q
basis one bidegree 0 0
basis w bidegree 0 2
mult one w = 2 w
phi w = 1
end
"""

# A declared delta that is 0 was dropped, so theorem1-alg had no differential:
ZERO_DELTA_DOC = """\
algebra fz field Q
basis one bidegree 0 0
basis a bidegree 0 1
basis b bidegree 0 2
basis w bidegree 0 3
mult a b = 1 w
mult b a = 1 w
phi w = 1
delta b = 0
end
"""

# Terms that cancel gave the zero map the shift (0, -2), of even total degree:
CANCELLED_SHIFT_DOC = ZERO_DELTA_DOC.replace("delta b = 0", "delta w = 1 a + -1 a")


def _run(command: str, text: str, path: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command on the document *text*."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@example(UNIT_PRODUCT_DOC)
@example(ZERO_DELTA_DOC)
@example(CANCELLED_SHIFT_DOC)
@given(algebra_documents())
def test_algebra_document_grammar_fuzz(tmp_path_factory, text):
    """serialize(parse(.)) is a fixed point on which both algebra commands
    print the same bytes and exit code as on the document, and both exit
    0-3 without a traceback (3 whenever the document does not parse).
    Where algebra-check finds a broken law, theorem1-alg asserts no verdict."""
    try:
        doc = parse(text)
    except InputError:
        doc = None
    if doc is not None:
        once = serialize(doc)
        assert serialize(parse(once)) == once
    base = tmp_path_factory.getbasetemp()
    outputs = {}
    for command in ("algebra-check", "theorem1-alg"):
        code, out, err = _run(command, text, base / "fuzz.bc")
        assert 0 <= code <= 3 and "Traceback" not in err, (command, text)
        if doc is None:
            assert code == 3
        else:
            assert _run(command, once, base / "canonical.bc") == (code, out, err), (command, text)
        outputs[command] = out
    if "CHECK algebra-structure: FAIL" in outputs["algebra-check"]:
        assert not re.search(r"theorem1-algebraic: (PASS|FAIL)", outputs["theorem1-alg"]), text


def test_a_zero_delta_has_the_default_shift():
    for text in (ZERO_DELTA_DOC, CANCELLED_SHIFT_DOC):
        delta = parse(text).algebras["fz"][2]
        assert not any(delta.columns) and delta.shift == (0, -1)
    assert "delta one = 0\n" in serialize(parse(CANCELLED_SHIFT_DOC))
    assert "mult one w = 2 w\n" in serialize(parse(UNIT_PRODUCT_DOC))
    assert "mult w one = 0\n" in serialize(parse(UNIT_PRODUCT_DOC.replace("phi", "mult w one = 0\nphi")))


def test_algebra_document_grammar_fuzz_reaches_a_pd_failure(tmp_path):
    """The seeded algebras of the fuzz include valid ones that fail Poincare
    duality, so its draws reach the PD-failure branch of algebra-check (the
    random lines reach it too, but rarely: no run of the fuzz drew one)."""
    path = tmp_path / "fuzz.bc"

    def check_output(text: str) -> str:
        path.write_text(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main(["algebra-check", str(path)])
        return out.getvalue()

    text = find(algebra_documents(families=(_generated_algebra_lines,)),
                lambda t: "CHECK algebra-pd: FAIL" in check_output(t))
    assert "CHECK algebra-structure: PASS" in check_output(text)


# ---------------------------------------------------------------------------
# one pass against the replaced two-pass parser
# ---------------------------------------------------------------------------

_JUNK = ["end", "=", "+", "->", "0", "-1", "1/0", "1/3", "x", "F2", "F4", "F03", "2", "-2",
         "complex", "action", "algebra", "vertices", "facet", "map", "basis", "mult", "phi", "delta"]


def _mutate(text: str, rng: random.Random) -> str:
    """*text* with one to three lines, runs of lines or tokens deleted,
    duplicated, swapped or retyped."""
    lines = text.splitlines()
    vocabulary = sorted(set(text.split())) + _JUNK
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(len(lines)) for _ in range(2))
        kind = rng.randrange(5)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines[j + 1:j + 1] = lines[i:j + 1]
        elif kind == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif tok := lines[i].split():
            k = rng.randrange(len(tok))
            tok[k:k + 1] = [rng.choice(vocabulary)] if kind == 3 else []
            lines[i] = " ".join(tok)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _objects(doc) -> list:
    """What a parsed document holds, as plain data in declaration order."""
    out = []
    for name in doc.names:
        if name in doc.complexes:
            X = doc.complexes[name]
            out.append((name, X.vertices, sorted(X.facets)))
        elif name in doc.actions:
            a = doc.actions[name]
            host = next(c for c, X in doc.complexes.items() if X is a.complex)
            out.append((name, host, a.p, a.vertex_map))
        else:
            A, phi, delta = doc.algebras[name]
            # The replaced parser took a zero delta's shift from terms that cancel.
            out.append((name, A.field.name, A.labels, A.bidegrees, sorted(A.table.items()),
                        phi and (phi.values, phi.formal_dim),
                        delta and (delta.columns, delta.shift if any(delta.columns) else None)))
    return out


def _outcome(parse_text, text: str):
    try:
        return _objects(parse_text(text))
    except InputError as e:
        return e


def _repeated_key_header(text: str, line: int) -> int | None:
    """The header line of the algebra block in which *line* repeats the
    (kind, left-hand labels) key of an earlier mult, phi or delta line of
    that block, or None where it repeats none."""
    header, keys = None, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] in ("complex", "action", "algebra", "end"):
            header, keys = (lineno if tok[0] == "algebra" else None), set()
        elif header and tok[0] in ("mult", "phi", "delta") and "=" in tok:
            key = (tok[0], tuple(tok[1:tok.index("=")]))
            if lineno == line:
                return header if key in keys else None
            keys.add(key)
    return None


def test_one_pass_parse_matches_the_two_pass_parser(tmp_path, s4_document):
    """Seeded mutations of this module's documents and of the S^4 document:
    the one-pass parser builds the objects the two-pass one built, or raises
    its error, or, where a document has several errors, an error on an
    earlier line (it reports the first in reading order; the two-pass one
    reported every syntax error before any semantic one).  The two-pass
    parser let a repeated mult, phi or delta line replace the earlier one;
    where the one-pass parser rejects such a line, the line must repeat an
    earlier line's key in its block, and the two-pass parser either accepts
    the document or reports an error on a later line or on that block's
    header.  Each valid document round-trips through its canonical form, and
    the algebra commands print the same bytes and exit code on both."""
    documents = [S2_DOC, PENTAGON_DOC, ODD_ALGEBRA_DOC, README_DOC, BAD_DELTA_DOC,
                 EXACT_UNIT_DOC, CANCELLING_DOC, NOT_APPLICABLE_DOC, DEGENERATE_ODD_DOC,
                 NOT_AN_ALGEBRA_DOC, UNIT_PRODUCT_DOC, ZERO_DELTA_DOC, s4_document(3)]
    rng = random.Random(34)
    seen = dict.fromkeys(["valid", "same error", "earlier error", "repeated line"], 0)
    for text in documents:
        for _ in range(150):
            mutant = _mutate(text, rng)
            new, old = _outcome(parse, mutant), _outcome(oracles.two_pass_parse, mutant)
            if isinstance(new, InputError) and re.match(r"line \d+: (mult|phi|delta) line repeats ",
                                                        str(new)):
                header = _repeated_key_header(mutant, new.line)
                assert header is not None, (mutant, str(new))
                assert (not isinstance(old, InputError) or old.line > new.line
                        or old.line == header), (mutant, str(new), str(old))
                seen["repeated line"] += 1
                continue
            if isinstance(new, InputError) and isinstance(old, InputError):
                if str(new) == str(old):
                    seen["same error"] += 1
                else:
                    assert new.line < old.line, (mutant, str(new), str(old))
                    seen["earlier error"] += 1
                continue
            assert new == old, (mutant, new, old)
            seen["valid"] += 1
            doc = parse(mutant)
            once = serialize(doc)
            assert _objects(parse(once)) == _objects(doc), mutant
            assert serialize(parse(once)) == once, mutant
            if doc.algebras:
                for command in ("algebra-check", "theorem1-alg"):
                    assert (_run(command, mutant, tmp_path / "doc.bc")
                            == _run(command, once, tmp_path / "canonical.bc")), (command, mutant)
    assert all(seen.values()), seen
