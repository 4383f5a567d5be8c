"""Tests of the benchmark's own logic.

Run from the root of a checkout with `python3 -m pytest -q bench/selftest.py`.
The file name keeps these tests out of the package's test suite.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run_bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# -- generator ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    n = 3 * wl.block_size(workload)
    assert wl.generate(workload, 7, n) == wl.generate(workload, 7, n)
    assert wl.generate(workload, 7, n) != wl.generate(workload, 8, n)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_blocks_are_balanced_and_in_range(workload):
    size = wl.block_size(workload)
    ops = wl.generate(workload, 3, 4 * size)
    for b in range(4):
        block = ops[b * size:(b + 1) * size]
        assert sorted(op.name for op in block) == sorted(op.name for op in ops[:size])
    for op in ops:
        if op.kind == "cli":
            if "--epsilon" in op.argv:
                eps = float(op.argv[op.argv.index("--epsilon") + 1])
                assert wl.EPS_RANGE[0] <= eps <= wl.EPS_RANGE[1]
            continue
        assert wl.EPS_RANGE[0] <= op.epsilon <= wl.EPS_RANGE[1]
        assert op.epsilon == round(op.epsilon, 3)
        if op.kind == "row":
            assert wl._in_window(op.epsilon, wl.CATALOG_ROWS[op.index])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_list_meets_every_cell_equally_often(workload):
    ops = wl.op_list(workload, 5, run_bench.MIN_OPS)
    assert len(ops) >= run_bench.MIN_OPS
    assert ops == wl.generate(workload, 5, len(ops))
    strata = wl.STRATA[workload]
    cells: dict[str, dict] = {}
    for op in ops:
        if op.kind == "cli":
            if "--epsilon" not in op.argv:
                continue
            key, lo, hi = op.name, *wl.EPS_RANGE
            eps = float(op.argv[op.argv.index("--epsilon") + 1])
            parity = op.argv[op.argv.index("--parity") + 1]
        else:
            key, eps, parity = op.name, op.epsilon, op.parity
            lo, hi = wl.EPS_RANGE
            if op.kind == "row":
                row = wl.CATALOG_ROWS[op.index]
                lo = lo if row[3] is None else max(lo, row[3])
                hi = hi if row[4] is None else min(hi, row[4])
        stratum = min(int((eps - lo) / (hi - lo) * strata), strata - 1)
        count = cells.setdefault(key, {})
        count[stratum, parity] = count.get((stratum, parity), 0) + 1
    for key, count in cells.items():
        assert len(count) == 2 * strata, key
        assert len(set(count.values())) == 1, key


def test_later_passes_must_repeat_the_first():
    same = run_bench.same_verdict
    assert same(wl.Verdict(wl.CERTIFIED, 1e-10), wl.Verdict(wl.CERTIFIED, 1e-10))
    assert same(wl.Verdict(wl.FAILED, None), wl.Verdict(wl.FAILED, None))
    assert not same(wl.Verdict(wl.CERTIFIED, 1e-10), wl.Verdict(wl.FAILED, None))
    assert not same(wl.Verdict(wl.CERTIFIED, 1e-10), wl.Verdict(wl.CERTIFIED, 2e-10))
    assert not same(wl.Verdict(wl.CERTIFIED, 1e-10), wl.Verdict(wl.CERTIFIED, None))


def test_warmup_epsilon_is_outside_the_draws():
    assert not wl.EPS_RANGE[0] <= wl.WARMUP_EPS <= wl.EPS_RANGE[1]


def test_catalog_rows_match_the_package():
    from susypainleve.backlund import CATALOG

    ours = [(s, t, k, lo, hi, lc, hc) for s, t, k, lo, hi, lc, hc in wl.CATALOG_ROWS]
    theirs = [(r.source, r.target, tuple(r.k), r.window.lo, r.window.hi,
               r.window.lo_closed, r.window.hi_closed) for r in CATALOG]
    assert ours == theirs


# -- self time ----------------------------------------------------------------------


def test_self_time_on_a_synthetic_tree():
    s = tracing.Spans()
    root = s.add("op", 0.0, 10.0)
    a = s.add("a", 1.0, 4.0, parent=root)
    s.add("a1", 1.5, 2.0, parent=a)
    s.add("a2", 3.0, 3.5, parent=a)
    b = s.add("b", 5.0, 9.0, parent=root)
    s.add("b1", 5.0, 7.0, parent=b)
    s.add("b2", 6.0, 8.0, parent=b)  # overlaps b1: the union 5..8 is covered once
    selfs = tracing.self_times(s)
    assert selfs == pytest.approx([3.0, 2.0, 0.5, 0.5, 1.0, 2.0, 2.0])
    # self times partition the root interval
    assert sum(selfs) == pytest.approx(10.0 + 1.0)  # b1 and b2 overlap by 1.0


def test_layer_metrics_divide_by_points_and_ops():
    tracer = tracing.Tracer()
    s = tracer.spans
    op = s.add(tracing.OP_SPAN, 0.0, 4.0)
    k = s.add("hyp1f1.kummer_jet", 0.0, 2.0, parent=op)
    s.add("hyp1f1.kummer", 0.0, 0.5, parent=k)
    s.add("hyp1f1.kummer", 0.5, 1.0, parent=k)
    build = s.add("painleve.pv_from_pair", 2.0, 4.0, parent=op)
    v = s.add("residual.verify_on_grid", 2.5, 3.5, parent=build)
    tracer.results[v] = (40, 2)
    m = tracing.layer_metrics(tracer, n_ops=2, points=4)
    assert m["hyp1f1.kummer.calls_per_point"] == 0.5
    assert m["hyp1f1.kummer.self_s"] == pytest.approx(0.5)
    assert m["hyp1f1.kummer_jet.self_s"] == pytest.approx(0.5)
    assert m["painleve.build.self_s"] == pytest.approx(0.5)
    assert m["painleve.build.verify_calls"] == 0.5
    assert m["residual.points"] == 10.0
    assert m["residual.skipped_ratio"] == 0.05


# -- statistics ---------------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert run_bench.percentile_with_tail(samples, 0.9) == 90
    assert run_bench.percentile_with_tail(samples[:99], 0.9) is None
    assert run_bench.percentile_with_tail([], 0.9) is None


def test_resid_digits_uses_certified_ops_only():
    v = [wl.Verdict(wl.CERTIFIED, 1e-12), wl.Verdict(wl.CERTIFIED, 1e-10),
         wl.Verdict(wl.CERTIFIED, 1e-8), wl.Verdict(wl.FAILED, None),
         wl.Verdict(wl.CERTIFIED, None)]
    assert run_bench.resid_digits(v) == pytest.approx(10.0)
    assert run_bench.resid_digits([wl.Verdict(wl.CERTIFIED, 0.0)]) == pytest.approx(17.0)


# -- outcome classification -----------------------------------------------------------


def report(passed, residuals, tol=1e-8, min_valid=2):
    finite = [r for r in residuals if not math.isnan(r)]
    return SimpleNamespace(passed=passed, rel_residuals=residuals, grid=list(range(len(residuals))),
                           tolerance=tol, min_valid=min_valid,
                           max_rel_residual=max(finite) if finite else math.inf)


def test_classify_report():
    ok = wl.classify_report(report(True, [1e-12, math.nan, 1e-10]))
    assert (ok.outcome, ok.error, ok.points, ok.consistent) == (wl.CERTIFIED, 1e-10, 3, True)
    bad = wl.classify_report(report(False, [1e-12, 1e-3]))
    assert (bad.outcome, bad.consistent) == (wl.FAILED, True)
    lying = wl.classify_report(report(True, [1e-12, 1e-3]))
    assert lying.outcome == wl.CERTIFIED and not lying.consistent


class Degenerate(Exception):
    pass


class Closed(Exception):
    pass


class Verification(Exception):
    pass


@pytest.mark.parametrize("exc, outcome", [
    (Degenerate("grid"), wl.DEGENERATE),
    (Closed("0/0"), wl.DEGENERATE),
    (Verification("neither prefactor"), wl.FAILED),
    (ZeroDivisionError("boom"), wl.ERROR),
])
def test_classify_exception(exc, outcome):
    assert wl.classify_exception(exc, Degenerate, Closed, Verification).outcome == outcome


def link(passed, degenerate=False, dev=1e-9):
    return SimpleNamespace(passed=passed, degenerate=degenerate, max_deviation=dev,
                           n_valid=40, notes=[], source="g1", target="g2")


def test_classify_backlund_results():
    assert wl.classify_bt_row(link(True), 1e-7).outcome == wl.CERTIFIED
    assert not wl.classify_bt_row(link(True, dev=1e-3), 1e-7).consistent
    assert wl.classify_bt_row(link(False, degenerate=True, dev=None), 1e-7).outcome == wl.DEGENERATE
    assert wl.classify_bt_row(link(False, dev=0.5), 1e-7).outcome == wl.FAILED
    chain = [link(True, dev=1e-9), link(True, dev=1e-8), link(False, degenerate=True)]
    v = wl.classify_chain(chain, 1e-7)
    assert (v.outcome, v.error, v.points) == (wl.CERTIFIED, 1e-8, 120)
    assert wl.classify_chain(chain + [link(False, dev=0.1)], 1e-7).outcome == wl.FAILED
    assert wl.classify_chain([link(False, degenerate=True)], 1e-7).outcome == wl.DEGENERATE


def verify_doc(passed, worst):
    return json.dumps({"report": {"pass": passed, "max_rel_residual": worst, "tolerance": 1e-8},
                       "points": [{"t": 1.0, "rel_residual": worst}]})


SAMPLE_CSV = "# family=g1 a=1 b=2 provenance=x\nx,value,deriv1,pole_flag\n1,2,3,0\n2,nan,nan,1\n"


@pytest.mark.parametrize("command, code, stdout, stderr, outcome, consistent", [
    ("verify", 0, verify_doc(True, 1e-11), "", wl.CERTIFIED, True),
    ("verify", 1, verify_doc(False, 1e-3), "", wl.FAILED, True),
    ("verify", 0, verify_doc(False, 1e-3), "", wl.CERTIFIED, False),
    ("verify", 1, "", "Traceback (most recent call last):\n  ...\nValueError: x\n", wl.ERROR, True),
    ("verify", 3, "{}", "", wl.DEGENERATE, True),
    ("verify", 2, "", "error: bad", wl.ERROR, True),
    ("verify", -9, "", "timeout", wl.ERROR, True),
    ("verify", 0, "not json", "", wl.ERROR, False),
    ("sample", 0, SAMPLE_CSV, "", wl.CERTIFIED, True),
    ("sample", 0, SAMPLE_CSV.replace("2,nan,nan,1", "2,nan,nan,0"), "", wl.ERROR, False),
    ("defaults", 0, json.dumps({"defaults": {"tolerance": 1e-8}}), "", wl.CERTIFIED, True),
    ("chain", 0, json.dumps({"config": {"tol": 1e-7}, "links": [
        {"source": "g1", "target": "g2", "pass": True, "degenerate": False,
         "max_deviation": 1e-9}]}), "", wl.CERTIFIED, True),
    ("chain", 1, json.dumps({"config": {"tol": 1e-7}, "links": [
        {"source": "g1", "target": "g2", "pass": False, "degenerate": False,
         "max_deviation": 0.2}]}), "", wl.FAILED, True),
    ("catalog", 1, json.dumps({"rows": [
        {"source": "w2d", "target": "w1f", "k": [1, 1, -1], "pass": False,
         "degenerate": False, "max_deviation": 0.5},
        {"source": "w1f", "target": "w2d", "k": [-1, -1, 1], "pass": True,
         "degenerate": False, "max_deviation": 1e-9}]}), "", wl.FAILED, True),
])
def test_classify_cli(command, code, stdout, stderr, outcome, consistent):
    v = wl.classify_cli(command, code, stdout, stderr)
    assert (v.outcome, v.consistent) == (outcome, consistent)


# -- tracing against the package --------------------------------------------------------


def test_tracer_restores_every_binding_and_counts_calls():
    import susypainleve as sp
    from susypainleve import hyp1f1, painleve

    originals = (sp.verify_on_grid, painleve.kummer_jet, hyp1f1.kummer)
    sol = sp.closed_piv_solution("g1", 2.5, sp.Parity.ODD)
    tracer = tracing.Tracer()
    assert tracer.install(tracing.OBSERVERS) > 0
    try:
        assert sp.verify_on_grid is not originals[0]
        sp.verify_on_grid("piv", sol, order=2)
    finally:
        tracer.uninstall()
    assert (sp.verify_on_grid, painleve.kummer_jet, hyp1f1.kummer) == originals
    m = tracing.layer_metrics(tracer, n_ops=1, points=40)
    assert m["hyp1f1.kummer.calls_per_point"] > 0
    assert m["jets.Jet.built_per_point"] > 0
    assert m["residual.points"] == 1.0  # one verify over the 40-point default grid
    kummer = [i for i in range(len(tracer.spans))
              if tracer.spans.names[tracer.spans.name[i]] == "hyp1f1.kummer"]
    assert all(tracer.spans.parent[i] >= 0 for i in kummer)  # nested under kummer_jet


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"ops_per_s", "op_ms.p50", "op_ms.p90", "resid_digits", "setup_s",
                   "peak_rss_mb"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    produced = set(tracing.layer_metrics(tracing.Tracer(), 1, 1))
    produced |= {"oscillator.seed_cache.hit_ratio", "oscillator.seed_cache.misses_per_point",
                 "oscillator.seed_cache.entries", "cli.import_s", "trace.untraced_ops_per_s",
                 "trace.traced_ops_per_s", "trace.overhead_ops_per_s"}
    for fam in run_bench.REFERENCE_FAMILIES:
        produced |= {f"ref.{fam}.kummer_calls_per_point", f"ref.{fam}.jets_built_per_point"}
    produced |= {f"src_lines.{m}" for m in run_bench.src_line_counts()}
    assert per_layer == produced


def test_host_factors_scale_by_the_probes_around_each_sample():
    ref = run_bench.REF_PROBE_S
    assert run_bench.host_factors([ref] * 20) == [1.0] * 20
    slow = [ref] * 10 + [2 * ref] * 30
    factors = run_bench.host_factors(slow, window=5)
    assert factors[0] == 1.0 and factors[-1] == 0.5
    assert factors[20] == 0.5
    assert run_bench.host_factors([2 * ref, ref], window=15) == [2 / 3, 2 / 3]
