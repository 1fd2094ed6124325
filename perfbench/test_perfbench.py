"""Tests of the benchmark's own code.  They never import zetapoly.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

import json
import random
import re
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------


def span(sid, parent, name, start, end, error=None, notes=None):
    return [sid, parent, name, start, end, error, notes]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    rows = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "b", 2.0, 3.0),
        span(3, 0, "c", 5.0, 9.0),
        span(4, 0, "d", 8.0, 9.5),   # overlaps c: counted once
        span(5, 0, "e", 9.5, 11.0),  # ends after its parent: clipped
    ]
    selfs = spans.self_times(rows)
    assert selfs[0] == pytest.approx(10 - 3 - 4.5 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0)


def test_outermost_skips_nested_calls_of_the_same_function():
    rows = [
        span(0, None, "f", 0.0, 4.0),
        span(1, 0, "g", 1.0, 3.0),
        span(2, 1, "f", 1.5, 2.5),
        span(3, None, "f", 5.0, 6.0),
    ]
    assert [r[0] for r in spans.outermost(rows)] == [0, 1, 3]


def delta_invocation(prec, main_s, roots_s, tau_hit):
    rows = [span(0, None, "cli.main", 0.0, main_s),
            span(1, 0, "delta.run_delta", 0.0, main_s),
            span(2, 1, "lvalues.delta_newform", 0.0, 0.0, notes={"prec": prec, "nmax": 19})]
    t = 0.0
    for rep in range(2):  # run_delta and build_r each ask for s = 1..11
        for s in range(1, 12):
            rows.append(span(len(rows), 1, "lvalues.completed_l", t, t + 0.001,
                             notes={"key": [s, prec]}))
            t += 0.001
    rows.append(span(len(rows), 1, "zeta.rh_check", 0.1, 0.1 + roots_s))
    rows.append(span(len(rows), len(rows) - 1, "zeta.roots", 0.1, 0.1 + roots_s,
                     error="PrecisionError" if prec == 4096 else None, notes={"exact": True}))
    return {"label": f"delta --prec {prec}", "prec": prec, "main_s": main_s,
            "overhead_s": main_s / 100, "tau_hit": tau_hit, "spans": rows}


def test_layer_metrics_on_synthetic_delta_pass():
    traced = [delta_invocation(128, 0.5, 0.4, False), delta_invocation(4096, 30.0, 7.0, True)]
    m = spans.layer_metrics(traced, passes=1)
    assert m["lvalues.completed_l.calls"] == 44
    assert m["lvalues.completed_l.useful_frac"] == 0.5
    assert m["lvalues.nmax_p128"] == 19
    assert m["lvalues.tau_cache_hit"] == 1
    assert m["zeta.roots.failed"] == 1
    assert m["zeta.roots.share_p128"] == pytest.approx(0.8)
    assert m["zeta.roots.exact_s"] == pytest.approx(7.4)
    assert m["trace.overhead_frac"] == pytest.approx(0.01)
    assert m["polyspace.slash.calls"] == 0  # a layer the workload never enters


def test_tracer_rebinds_every_namespace_and_records_errors():
    a = types.ModuleType("pkg.a")
    exec("def g(x):\n    return x + 1\n"
         "def f(x):\n    return g(x) * 2\n"
         "def bad():\n    raise KeyError('x')\n"
         "class C:\n    def m(self):\n        return g(1)\n", vars(a))
    b = types.ModuleType("pkg.b")
    b.f = a.f  # a second module binding the same function
    tracer = spans.Tracer()
    tracer.install({"pkg.a": a, "pkg.b": b}, {
        "a.f": ("pkg.a", "f", None), "a.g": ("pkg.a", "g", None),
        "a.bad": ("pkg.a", "bad", None), "a.C.m": ("pkg.a", "C.m", None)})
    assert b.f(1) == 4
    assert a.C().m() == 2
    with pytest.raises(KeyError):
        a.bad()
    names = [(r[2], r[1], r[5]) for r in tracer.spans]
    assert names == [("a.f", None, None), ("a.g", 0, None), ("a.C.m", None, None),
                     ("a.g", 2, None), ("a.bad", None, "KeyError")]


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------


def test_checker_flags_a_flipped_wspace_basis_entry():
    expected = workloads.load_reference()["wspace 30"]
    check = workloads.check_reference(expected)
    good = json.loads(json.dumps(expected["output"]))
    assert check(0, good) is None
    bad = json.loads(json.dumps(good))
    num, den = bad["basis"][2][5][0].split("/")
    bad["basis"][2][5][0] = f"{-int(num) + 1}/{den}"
    assert "/basis/2/5/0" in check(0, bad)
    assert check(1, good) is not None


def test_checker_flags_failed_delta_and_thm2_outputs():
    check = workloads.check_delta(128)
    assert check(0, {"prec": 128, "passed": True}) is None
    assert check(0, {"prec": 128, "passed": False}) == "passed is not true"
    assert check(0, {"prec": 1024, "passed": True}) is not None
    assert check(1, None) == "exit code 1, want 0"

    def report(n, total, converged=True):
        return {"n": n, "converged": converged, "total": total, "tol": "1/10000000000", "k_stop": 200}

    small = ["1/100000000000", "0/1"]
    good = {"passed": True, "reports": [report(n, small) for n in range(1, 6)]}
    assert workloads.check_thm2(0, good) is None
    big = json.loads(json.dumps(good))
    big["reports"][3]["total"] = ["1/10000000000", "0/1"]  # |total| = tol is not below it
    assert "n=4" in workloads.check_thm2(0, big)
    stalled = json.loads(json.dumps(good))
    stalled["reports"][0]["converged"] = False
    assert "not converged" in workloads.check_thm2(0, stalled)


def test_checker_flags_wrong_relation_verdicts_and_round_trips():
    rng = random.Random(5)
    coeffs = workloads.es1_input(rng)
    res = workloads.es1_residual(coeffs)
    check = workloads.check_relation("es1", res)
    out = {"relation": "es1", "holds": True, "residual": [workloads.fmt(c) for c in res]}
    assert check(0, out) is None
    assert check(1, dict(out, holds=False)) is not None
    same = workloads.check_same(workloads.poly_dict(coeffs))
    moved = workloads.poly_dict(workloads.perturbed(rng, coeffs))
    assert same(0, workloads.poly_dict(coeffs)) is None
    assert same(0, moved) is not None


# ---------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_seeded_inputs_obey_their_construction_rule(seed):
    rng = random.Random(seed)
    w = workloads.SEEDED_W
    zero = (Fraction(0), Fraction(0))
    es1 = workloads.es1_input(rng)
    for j in range(w + 1):
        assert es1[w - j] == tuple(-((-1) ** j) * x for x in es1[j])
    assert es1[w // 2] == zero
    assert sum(c != zero for c in es1) >= w // 2  # dense
    assert all(c == zero for c in workloads.es1_residual(es1))
    bad = workloads.es1_residual(workloads.perturbed(rng, es1))
    assert any(c != zero for c in bad)
    for eps in (1, -1):
        fr = workloads.fricke_input(rng, eps)
        assert all(fr[w - j] == tuple(-eps * x for x in fr[j]) for j in range(w + 1))
        assert all(c == zero for c in workloads.fricke_residual(fr, eps))
        assert any(c != zero for c in workloads.fricke_residual(workloads.perturbed(rng, fr), eps))


def test_relations_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        run_dir = tmp_path / sub
        invs = workloads.build("relations", seed, run_dir)
        return invs, {p.name: p.read_bytes() for p in (run_dir / "inputs").iterdir()}

    invs, first = files(7, "a")
    _, again = files(7, "b")
    _, other = files(8, "c")
    assert first == again and first != other
    assert len(invs) == 18


# ---------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------


def test_command_metrics_combine_label_medians():
    recs = [{"metric": "rv_roundtrip_s", "label": "fwd", "main_s": v} for v in (1.0, 2.0, 9.0)]
    recs += [{"metric": "rv_roundtrip_s", "label": "inv", "main_s": v} for v in (0.5, 0.5)]
    for name, value in (("wspace_w10_s", 1.0), ("wspace_w30_s", 3.0)):
        recs.append({"metric": name, "label": name, "main_s": value})
    recs += [{"metric": "check_w100_s", "label": lab, "main_s": v} for lab, v in (("x", 1.0), ("y", 3.0))]
    recs.append({"metric": None, "label": "check es1 plus", "main_s": 5.0})
    m = run.command_metrics("relations", recs, key="main_s")
    assert m["rv_roundtrip_s"] == (2.5, 5)
    assert m["check_w100_s"] == (2.0, 2)


def test_times_are_scaled_by_each_invocations_probe():
    ref = run.REF_PROBE_S
    recs = [
        {"probes": [ref, ref], "main_s": 1.0, "setup_s": 0.1, "elapsed_s": 1.2},
        {"probes": [2 * ref, 2 * ref, 2 * ref], "main_s": 4.0, "elapsed_s": 4.5},
        {"probes": [], "main_s": 3.0, "elapsed_s": 3.0},  # crashed: run median
    ]
    run.scale_to_reference(recs)
    assert recs[0]["ref_main_s"] == 1.0 and recs[0]["ref_setup_s"] == 0.1
    assert recs[1]["ref_main_s"] == 2.0 and "ref_setup_s" not in recs[1]
    assert recs[2]["ref_main_s"] == pytest.approx(3.0 / 1.5)


def test_wall_is_the_scaled_sum_over_each_pass():
    recs = [
        {"pass": p, "metric": "thm2_s", "label": "thm2 plus", "main_s": m, "ref_main_s": m,
         "setup_s": 0.1, "ref_setup_s": 0.1, "elapsed_s": m + 0.2, "ref_elapsed_s": m + 0.2}
        for p, m in ((0, 1.0), (0, 2.0), (1, 3.0), (1, 3.0), (2, 1.0), (2, 1.0))
    ]
    metrics, per_command = run.end_to_end("thm2", recs)
    assert metrics["wall_s"] == pytest.approx(3.4)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["cmd_geomean_s"] == per_command["thm2_s"][0] == 1.5


def test_invocations_never_see_the_users_cache(tmp_path):
    env = run.child_env(tmp_path / "checkout", tmp_path / "run")
    assert env["ZETAPOLY_CACHE_DIR"] == str(tmp_path / "run" / "cache")
    assert env["HOME"] == str(tmp_path / "run" / "home")
    assert env["PYTHONPATH"] == str(tmp_path / "checkout" / "src")


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.COMMAND_METRICS)
    assert [m["name"] for m in bench["per_layer"]] == list(spans.MOVES)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "cmd_geomean_s", "peak_rss_mib"}
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s") <= 0.25
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thm2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
