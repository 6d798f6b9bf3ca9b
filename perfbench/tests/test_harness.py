"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

import math
import shutil
import sys
import time
from pathlib import Path

import pytest

import checks
import execute
import metrics
import workloads
from l2burau.braid import parse_braid
from l2burau.epifamilies import family_by_name
from l2burau.torsion import fq_value

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def workdir(request):
    """A fresh directory under perfbench/out, which the repository ignores."""
    path = ROOT / "perfbench" / "out" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- the tail percentile ----------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]  # 1..100
    t = metrics.tail(xs)
    assert t["value"] == 90.0
    assert t["percentile"] == 90.0
    assert sum(x > t["value"] for x in xs) == 10
    assert (t["samples"], t["beyond"]) == (100, 10)


def test_tail_is_the_highest_such_percentile():
    xs = list(range(37, 0, -1))  # unsorted input, 37 samples
    t = metrics.tail(xs)
    assert sum(x > t["value"] for x in xs) == 10
    assert sum(x >= t["value"] for x in xs) == 11
    assert t["percentile"] == pytest.approx(100 * 27 / 37)


def test_tail_with_too_few_samples_is_the_maximum_and_says_so():
    for n in (1, 7, 10):
        t = metrics.tail(list(range(n)))
        assert (t["value"], t["percentile"], t["beyond"]) == (n - 1, 100.0, 0)
    assert metrics.tail(list(range(11)))["value"] == 0


# --- self time from nested spans ---------------------------------------------


def span(start, end, parent=None):
    return {"start": start, "end": end, "parent": parent}


def test_self_time_subtracts_children_only_once():
    spans = [
        span(0.0, 10.0),  # 0: root
        span(1.0, 4.0, 0),  # 1: child
        span(2.0, 3.0, 1),  # 2: grandchild, inside child 1
        span(3.5, 6.0, 0),  # 3: child overlapping child 1 by 0.5
        span(9.0, 12.0, 0),  # 4: child running past the root's end
    ]
    selfs = metrics.self_times(spans)
    # root: 10 minus the union [1, 6] and [9, 10]
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[4] == pytest.approx(3.0)


def test_self_times_add_up_to_the_root():
    spans = [span(0.0, 5.0), span(0.5, 2.0, 0), span(2.0, 4.5, 0), span(3.0, 4.0, 2)]
    assert sum(metrics.self_times(spans)) == pytest.approx(5.0)


def test_tracer_records_parents_and_request_ids():
    tr = execute.Tracer()
    tr.rid = "r1"
    with tr.span("request"):
        with tr.span("torsion.fq"):
            with tr.span("fkdet.backend"):
                pass
        with tr.span("groupring.det", extra=True):
            pass
    names = [(s["name"], s["parent"], s["rid"], s["extra"]) for s in tr.spans]
    assert names == [("request", None, "r1", False), ("torsion.fq", 0, "r1", False),
                     ("fkdet.backend", 1, "r1", False), ("groupring.det", 0, "r1", True)]
    assert all(s["end"] >= s["start"] for s in tr.spans)


# --- the reference interval ------------------------------------------------------


def test_interval_meets_reference_within_both_tolerances():
    assert metrics.interval_hits(1.0, 0.1, 1.15, 0.05)
    assert not metrics.interval_hits(1.0, 0.1, 1.16, 0.05)
    assert not metrics.interval_hits(1.0, 0.0, 1.0 + 1e-9, 0.0)


def test_interval_allows_integer_powers_of_t():
    assert metrics.interval_hits(3072.0, 1e-9, 3.0, 0.0, t0=0.5)
    assert metrics.interval_hits(0.75, 1e-9, 3.0, 0.0, t0=2.0)
    assert not metrics.interval_hits(3072.028, 1e-3, 3.0, 0.0, t0=0.5)
    assert not metrics.interval_hits(1.0, 1e-3, 3.0, 0.0, t0=1.0)


def test_unknown_bound_never_misses_but_counts_as_infinite():
    assert metrics.interval_hits(5.0, None, 1.0, 0.0)
    assert metrics.bound_rel(5.0, None) == math.inf
    assert not metrics.interval_hits(math.nan, 0.1, 1.0, 0.0)


def test_check_value_names_the_reference():
    r = checks.ref(2.0, 0.0, "closed form")
    assert checks.check_value(2.0, 1e-9, r) is None
    assert "closed form" in checks.check_value(2.1, 1e-9, r)


def test_closed_forms():
    assert checks.BOYD_1XY == pytest.approx(1.3813564445, abs=1e-10)
    assert checks.SMYTH_1XYZ == pytest.approx(1.5315470966, abs=1e-10)
    assert checks.mahler_at(checks.FIGURE_EIGHT)["value"] == pytest.approx((3 + 5**0.5) / 2)
    assert checks.mahler_at(checks.TREFOIL)["value"] == pytest.approx(1.0)


def test_mahler_reference_survives_repeated_roots():
    # (s^2 - s + 1)^2 (3 s^12 - ...): numpy alone loses 5e-7 relative here
    delta = {0: 3, 1: -18, 2: 60, 3: -144, 4: 270, 5: -419, 6: 558, 7: -654, 8: 689,
             9: -654, 10: 558, 11: -419, 12: 270, 13: -144, 14: 60, 15: -18, 16: 3}
    r = checks.mahler_at(delta)
    assert abs(r["value"] - 8.5009562487541628) <= r["tol"] + 1e-14
    assert [m for _, m in checks.squarefree_parts([delta[k] for k in range(17)])] == [1, 2]
    assert checks.has_repeated_root(delta, 6)
    assert not checks.has_repeated_root(checks.FIGURE_EIGHT, 3)


# --- the deadline ---------------------------------------------------------------------


def test_deadline_kills_and_reaps_the_child(workdir):
    start = time.perf_counter()
    got = execute.run_process([sys.executable, "-c", "import time; time.sleep(60)"],
                              ROOT, 0.5, workdir)
    assert got["code"] is None
    assert 0.5 <= got["wall"] < 5.0
    assert time.perf_counter() - start < 5.0


def test_child_within_its_deadline_reports_output_and_code(workdir):
    got = execute.run_process([sys.executable, "-c", "print('hi'); raise SystemExit(3)"],
                              ROOT, 30.0, workdir)
    assert (got["code"], got["stdout"].strip()) == (3, "hi")
    assert got["rss_kib"] > 0


# --- seeds and the split pipeline ---------------------------------------------------------


def test_same_seed_same_requests(workdir):
    a = [next(workloads.rounds(w, 5, workdir)) for w in workloads.WORKLOADS]
    b = [next(workloads.rounds(w, 5, workdir)) for w in workloads.WORKLOADS]
    assert a == b
    c = next(workloads.rounds("winding-sweep", 6, workdir))
    assert [r.braid for r in c] != [r.braid for r in a[0]]


def test_burau_terms_match_the_library():
    from l2burau.torsion import reduced_burau

    for word, n in (("1 -2 1 -2 3 -1 2 2", 4), ("-1 -1 2 1", 3)):
        bm = reduced_burau(parse_braid(word, n), family_by_name("phi"))
        want = sum(len(tp.coeffs) for row in bm.matrix.entries for e in row
                   for tp in e.terms.values())
        assert workloads.burau_terms([int(x) for x in word.split()], n) == want


def test_generated_braids_close_to_knots(workdir):
    for req in next(workloads.rounds("winding-sweep", 3, workdir)):
        if req.kind == "fq":
            letters = [int(x) for x in req.braid.split()]
            assert workloads.is_knot(letters, req.strands)
            assert len(letters) in (10 * req.strands - 1, 10 * req.strands)
            target = workloads.TERM_TARGET[req.strands]
            assert abs(workloads.burau_terms(letters, req.strands) - target) <= 0.08 * target


@pytest.mark.parametrize("braid,strands,family,method", [
    ("1 -2 1 -2 1", 3, "phi", None),
    ("-1 2", 3, "ab", None),
    ("1", 2, "id", None),
])
def test_traced_split_matches_fq_value(braid, strands, family, method):
    beta = parse_braid(braid, strands)
    fam = family_by_name(family)
    for t in ("1/2", "2"):
        want = fq_value(beta, fam, t, method=method)
        got = execute.traced_fq(execute.Tracer(), beta, fam, t, method)
        assert got["value"] == want.value
        assert got["bound"] == want.error_bound
        assert got["method"] == want.estimate.method


def test_library_missing_exits_without_a_result(workdir):
    bench = workdir / "perfbench"
    bench.mkdir()
    for p in (ROOT / "perfbench").glob("*.py"):
        (bench / p.name).write_text(p.read_text())
    got = execute.run_process([sys.executable, str(bench / "run.py"), "--workload",
                               "winding-sweep", "--seed", "1", "--seconds", "1"],
                              workdir, 60.0, workdir)
    assert got["code"] not in (0, None)
    assert '"correct"' not in got["stdout"]
