"""Tests of the benchmark itself: its checks reject corrupted outputs, and
traced totals reached by independent paths agree.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from rmlab.cocycles import RMDivisor, RQDivisor  # noqa: E402
from rmlab import hecke  # noqa: E402
from rmlab.hecke import HeckeElt  # noqa: E402
from rmlab.mat2 import mat_mul  # noqa: E402
from rmlab.rmpoints import Automorph  # noqa: E402
from tracing import LAYERS, Tracer, metric_names  # noqa: E402


def ops_of(name, kind, seed=3, r=1):
    return [op for op in wl.build_round(name, seed, r) if op.kind == kind]


# ---------------------------------------------------------------------------
# every check passes on real outputs and rejects a corrupted one


def test_quadric_check_rejects_swapped_lines():
    op = ops_of("quadric", "roundtrip")[-1]
    (first, second), back = op.call()
    op.check(((first, second), back))
    with pytest.raises(CheckFailed):
        op.check(((second, first), back))


def test_equivariance_check_rejects_swapped_lines():
    op = ops_of("quadric", "equivariance")[0]
    first, second = op.call()
    op.check((first, second))
    with pytest.raises(CheckFailed):
        op.check((second, first))


def test_crossing_check_rejects_flipped_multiplicity():
    ops = [op for op in wl.build_round("cocycle_law", 3, 1) if op.kind == "dv_value"]
    for op in ops[:-1]:   # the last one also checks the whole round
        div = op.call()
        op.check(div)
        if div.entries:
            f, m = next(iter(div.entries.items()))
            bad = RMDivisor({**div.entries, f: -m})
            with pytest.raises(CheckFailed):
                op.check(bad)
            return
    pytest.fail("no nonempty dv_value in the round")


def test_round_check_rejects_all_empty_divisors():
    ops = [op for op in wl.build_round("cocycle_law", 3, 1) if op.kind == "dv_value"]
    for op in ops[:-1]:
        op.check(RMDivisor())
    with pytest.raises(CheckFailed):
        ops[-1].check(RMDivisor())


def test_d1_checks_reject_flipped_multiplicity():
    d1, swapped, _reversed = ops_of("two_variable", "d1_value")[:3]
    div = d1.call()
    d1.check(div)
    out = swapped.call()
    swapped.check(out)
    lbl, m = next(iter(out.entries.items()))
    with pytest.raises(CheckFailed):
        swapped.check(RQDivisor({**out.entries, lbl: -m}))
    with pytest.raises(CheckFailed):
        d1.check(RQDivisor({**div.entries, wl.IDENTITY_LABEL: -div.entries[wl.IDENTITY_LABEL]}))


def test_coset_check_rejects_dropped_coset():
    n, p = 12, 5
    labels = sorted(wl.tn_terms(n, p))
    lists = [hecke.cosets_of_label(lbl, p) for lbl in labels]
    wl.check_cosets(lists, n, p, labels)
    dropped = [list(c) for c in lists]
    dropped[0] = dropped[0][1:]
    with pytest.raises(CheckFailed):
        wl.check_cosets(dropped, n, p, labels)


def test_hecke_check_rejects_wrong_product():
    op = ops_of("two_variable", "hecke_mul")[0]
    res = op.call()
    op.check(res)
    key = next(iter(res.terms))
    with pytest.raises(CheckFailed):
        op.check(HeckeElt({**res.terms, key: res.terms[key] + 1}, res.p))


def test_automorph_check_rejects_square():
    op = next(op for op in ops_of("antisym", "automorph"))
    aut = op.call()
    op.check(aut)
    with pytest.raises(CheckFailed):
        op.check(Automorph(mat_mul(aut.gamma, aut.gamma), aut.eps * aut.eps))


def test_trivial_value_check_rejects_square():
    form, p = (1, 1, -1), 2
    from rmlab.evaluate import trivial_cocycle_value
    from rmlab.rmpoints import QForm

    v = trivial_cocycle_value(QForm(*form), p, 8)
    wl.check_trivial(v, form, p)
    with pytest.raises(CheckFailed):
        wl.check_trivial(v * v, form, p)


def test_antisym_and_orbit_checks_reject_corruptions():
    ops = wl.build_round("antisym", 3, 1)
    exp = next(op for op in ops if op.kind == "antisym_experiment")
    rep = exp.call()
    exp.check(rep)
    bad = json.loads(json.dumps(rep))
    bad["steps"][0]["factors_a"] = 0
    with pytest.raises(CheckFailed):
        exp.check(bad)
    orbit = [op for op in ops if op.kind.startswith("orbit_")]
    yes, yes_swapped, conj, no, no_swapped = orbit
    assert yes.call() is True and no.call() is False
    yes.check(True)
    with pytest.raises(CheckFailed):
        yes_swapped.check(False)
    g = conj.call()
    conj.check(g)
    with pytest.raises(CheckFailed):
        conj.check(mat_mul(g, g))
    no.check(False)
    with pytest.raises(CheckFailed):
        no_swapped.check(True)


def test_decreasing_defect_column_rejected():
    rep = {"steps": [{"level": 1, "defect": 4, "factors_a": 3, "factors_b": 2},
                     {"level": 2, "defect": 3, "factors_a": 5, "factors_b": 4}],
           "nondecreasing": False}
    with pytest.raises(CheckFailed):
        wl.check_antisym(rep, 2)


# ---------------------------------------------------------------------------
# independent oracles


def test_sigma1_and_psi_table():
    assert [(orc.sigma1(n), orc.psi(n)) for n in (4, 8, 9, 12)] == \
        [(7, 6), (15, 12), (13, 12), (28, 24)]


def test_crossing_arcs_sign_matches_identity_label():
    import random

    rng = random.Random(7)
    for _ in range(3):
        arc1, arc2, sign = wl.crossing_arcs(rng)
        from rmlab.hyperbolic import ez_cross
        from rmlab.mat2 import IDENT

        assert ez_cross(wl._segment(arc1), wl._segment(arc2), IDENT) == sign


def test_fundamental_unit_examples():
    assert orc.fundamental_unit(5, 2) == (3, 1)
    assert orc.fundamental_unit(20, 2) == (3, Fraction(1, 2))
    assert orc.fundamental_unit(12, 3) == (4, 1)


# ---------------------------------------------------------------------------
# tracing


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_install_rebinds_every_caller_and_uninstall_restores():
    import rmlab.cocycles as cocycles
    import rmlab.hecke as hecke
    import rmlab.hyperbolic as hyperbolic
    import rmlab.rmpoints as rmpoints
    from rmlab.exact import PTower, QuadIrr

    before = (hyperbolic.ez_cross, cocycles.ez_cross, hecke.ez_cross, rmpoints.class_key,
              hyperbolic.class_key, rmpoints._orbit_bfs, hyperbolic._orbit_bfs,
              QuadIrr.__mul__, QuadIrr.__rmul__, PTower.__mul__, PTower.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        during = (hyperbolic.ez_cross, cocycles.ez_cross, hecke.ez_cross, rmpoints.class_key,
                  hyperbolic.class_key, rmpoints._orbit_bfs, hyperbolic._orbit_bfs,
                  QuadIrr.__mul__, QuadIrr.__rmul__, PTower.__mul__, PTower.__rmul__)
        assert all(a is not b for a, b in zip(before, during))
        assert all(getattr(b, "__wrapped__", None) is a for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    after = (hyperbolic.ez_cross, cocycles.ez_cross, hecke.ez_cross, rmpoints.class_key,
             hyperbolic.class_key, rmpoints._orbit_bfs, hyperbolic._orbit_bfs,
             QuadIrr.__mul__, QuadIrr.__rmul__, PTower.__mul__, PTower.__rmul__)
    assert all(a is b for a, b in zip(before, after))


def test_ez_cross_calls_equal_d1_candidate_labels():
    ops = [op for op in wl.build_round("two_variable", 5, 1)
           if op.kind in ("d1_value", "kudla_millson")][:5]
    tracer = traced(lambda: [op.call() for op in ops])
    calls = tracer.counts["hyperbolic.ez_cross.calls"]
    assert calls > 0
    assert calls == tracer.counts["cocycles.d1_candidates.labels"]
    assert tracer.counts["cocycles.d1_value.calls"] == 3
    assert tracer.counts["hecke.kudla_millson.calls"] == 2


@pytest.mark.parametrize("n", [4, 8, 9, 12])
def test_traced_cosets_sum_to_sigma1_and_psi(n):
    p = 5
    labels = sorted(HeckeElt.Tn(n, p).terms)
    total = traced(lambda: [hecke.cosets_of_label(lbl, p) for lbl in labels])
    assert total.counts["hecke.cosets_of_label.cosets"] == orc.sigma1(n)
    assert total.counts["hecke.cosets_of_label.calls"] == len(labels)
    primitive = traced(lambda: hecke.cosets_of_label((1, n, 0), p))
    assert primitive.counts["hecke.cosets_of_label.cosets"] == orc.psi(n)
    assert primitive.counts["hecke.cosets_of_label.cache_hits"] == 1


def test_self_times_do_not_exceed_span_time():
    ops = ops_of("cocycle_law", "cocycle_defect")[:4]
    tracer = traced(lambda: [op.call() for op in ops])
    spans = [s for s in tracer.spans if s is not None]
    top = sum(end - start for _i, start, end, parent, _op in spans if parent == -1)
    assert 0 < sum(tracer.self_s.values()) <= top * 1.0001
    assert all(v >= 0 for v in tracer.self_s.values())


def test_metric_names_cover_every_layer():
    names = metric_names()
    assert len(names) == len(set(names))
    for layer in LAYERS:
        assert f"{layer[0]}.calls" in names
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == names


# ---------------------------------------------------------------------------
# the command


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quadric",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
