"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

The tracer patches betticong for the rest of the test process, so these
tests run in a pytest process of their own, not with the library's tests.
"""

from __future__ import annotations

import copy
import random
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

LENS_F = (320, 2048, 3456, 1728)


@pytest.fixture(scope="module")
def tracer():
    return tr.Tracer().install()


def small_population(n: int = 24):
    pool = wl.load_expected("pd_population")
    small = []
    for unit in wl.pd_population_units(0, pool):
        kind, field, sub = unit.name.split("/")
        if pool[kind][field][sub]["dim"] <= 8:
            small.append(unit)
    return small[:n], pool


def parse_lens():
    from betticong import cli

    return cli.parse("\n".join(wl.lens_document_lines()) + "\n")


def test_spans_nest_and_self_times_sum_within_wall(tracer):
    units, pool = small_population()
    first = len(tracer.spans)
    start = time.perf_counter()
    results = worker.run_units("pd_population", units, pool)
    wall = time.perf_counter() - start
    assert all(r["ok"] for r in results)
    spans = tracer.spans[first:]
    assert spans
    child = [0.0] * len(tracer.spans)
    for i, (op, parent, t0, t1, _) in enumerate(tracer.spans[first:], start=first):
        assert t0 <= t1
        if parent >= 0:
            assert parent < i
            p = tracer.spans[parent]
            assert p[2] <= t0 and t1 <= p[3], (op, p[0])
            child[parent] += t1 - t0
    self_times = [(s[3] - s[2]) - child[i]
                  for i, s in enumerate(tracer.spans[first:], start=first)]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= wall


def test_lens_build_reports_all_simplices(tracer):
    first = len(tracer.spans)
    doc = parse_lens()
    X = doc.complexes["lens"]
    assert X.f_vector == LENS_F
    builds = [s for s in tracer.spans[first:] if s[0] == "simplicial.build"]
    assert len(builds) == 1
    assert builds[0][4]["simplices_out"] == sum(LENS_F) == 7552
    assert builds[0][4]["facets_in"] == LENS_F[-1]
    parse = [s for s in tracer.spans[first:] if s[0] == "cli.parse"]
    assert tracer.spans[builds[0][1]] is parse[0]


@pytest.mark.parametrize("field_name", ["Q", "F3"])
def test_sparse_ranks_reproduce_betti_numbers(tracer, field_name):
    X = parse_lens().complexes["lens"]
    first = len(tracer.spans)
    betti = X.cohomology(wl.field_of(field_name)).betti
    ranks = {}
    for op, _, _, _, counters in tracer.spans[first:]:
        if op == "exactalg.sparse_rank":
            # delta^k has one row per (k+1)-simplex; the f-vector entries
            # differ, and delta^3 has no rows
            k = (LENS_F + (0,)).index(counters["rows_in"]) - 1
            ranks[k] = counters["rank"]
    assert set(ranks) == {0, 1, 2, 3}
    ranks[-1] = 0
    assert betti == tuple(LENS_F[i] - ranks[i] - ranks[i - 1] for i in range(4))


def test_corrupted_expected_output_counts_as_failed_unit():
    units, pool = small_population(6)
    bad = copy.deepcopy(pool)
    kind, field, sub = units[2].name.split("/")
    bad[kind][field][sub]["out"] += " corrupted"
    results = worker.run_units("pd_population", units, bad)
    failed = [r["name"] for r in results if not r["ok"]]
    assert failed == [units[2].name]
    assert "differs" in results[2]["error"]


def test_raising_unit_counts_as_failed_unit():
    unit = wl.Unit("suite", lambda: 1 / 0)
    (result,) = worker.run_units("corpus_suite", [unit], {"suite": "exit 0\n"})
    assert not result["ok"] and result["error"].startswith("ZeroDivisionError")


def test_population_is_the_same_for_every_seed_in_seeded_order():
    pool = wl.load_expected("pd_population")
    a, b, c = (wl.select_population(s, pool) for s in (1, 1, 2))
    assert a == b and a != c
    assert sorted(a) == sorted(c)
    assert len(set(a)) == len(a)
    assert len(a) == sum(sum(q.values()) for q in wl.QUOTA.values()) * len(wl.FIELDS)


def test_shuffled_documents_parse_to_the_same_complex():
    from betticong import cli

    lines = wl.s4_document_lines()
    docs = [cli.parse(wl.shuffled_document(lines, random.Random(s))) for s in (1, 2)]
    X, Y = (d.complexes["s4"] for d in docs)
    assert X.vertices == Y.vertices and X.facets == Y.facets
    assert X.f_vector[-1] == 4 * wl.S4_POLYGON


def test_tail_is_highest_percentile_with_ten_beyond():
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label.startswith("p90.0")
    value, label = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and "too few" in label


def test_timeline_rescales_to_reference_speed_without_probe_time():
    d = 2 * speed.PROBE_REF_S  # every probe at half the reference speed
    timeline = speed.Timeline([(3.0, d), (1.0, d)])
    assert timeline.probe_time(0.0, 4.0) == pytest.approx(2 * d)
    assert timeline.scaled(0.0, 4.0) == pytest.approx((4.0 - 2 * d) / 2)
    assert timeline.scaled(1.0 + d, 3.0) == pytest.approx((2.0 - d) / 2)
    assert timeline.scaled(5.0, 6.0) == pytest.approx(0.5)


def test_sampler_probes_while_work_runs():
    sampler = speed.Sampler().start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            speed._work(100)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(d > 0 for _, d in sampler.samples)
