"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def leaf():
        clock.t += 0.5

    def inner():
        clock.t += 2
        w_leaf()

    def outer():
        clock.t += 1
        w_inner()
        clock.t += 3
        w_inner()
        clock.t += 1

    w_leaf = t.leaf("ffield", "ffield.add.calls", leaf)
    w_inner = t.span("inner", inner)
    w_outer = t.span("outer", outer)
    w_outer()

    assert t.calls("outer") == 1 and t.calls("inner") == 2
    assert t.total_s("outer") == 10.0
    assert t.self_s("outer") == 5.0  # 10 minus two inner spans of 2.5
    assert t.total_s("inner") == 5.0
    assert t.self_s("inner") == 4.0  # the leaf's 0.5 s are the field layer's
    assert t.leaf_s["ffield"] == 1.0 and t.counts["ffield.add.calls"] == 2
    assert t.hit_ratio("inner") == 1.0 and t.hit_ratio("outer") == 0.0
    assert t.edges[("outer", "inner")] == [2, 5.0, 4.0]
    assert t.edges[(None, "outer")] == [1, 10.0, 5.0]
    assert t.stack == []


def test_span_closes_when_the_function_raises():
    clock = FakeClock()
    t = tr.Tracer(clock)

    def boom():
        clock.t += 1
        raise ValueError("x")

    w = t.span("boom", boom)
    try:
        w()
    except ValueError:
        pass
    assert t.calls("boom") == 1 and t.total_s("boom") == 1.0 and t.stack == []


def test_restore_puts_the_originals_back():
    from dlperiods import cyclotomic, dlchar, ffield, green, groups, matrixops, tori

    owners = [cyclotomic, cyclotomic.RootOfUnitySum, dlchar, dlchar.DLEngine, ffield.FieldOps, green, groups, groups.Group, matrixops, tori, tori.TorusInstance]
    before = [dict(vars(o)) for o in owners]
    t = tr.Tracer()
    for _ in range(2):  # a worker restores and installs again around making its inputs
        tr.install(t)
        assert matrixops.mat_mul is not before[owners.index(matrixops)]["mat_mul"]
        assert dlchar.green_value is green.green_value  # one wrapper where it is looked up
        t.restore()
    for owner, snapshot in zip(owners, before):
        after = dict(vars(owner))
        for name, value in snapshot.items():
            assert after[name] is value, (owner, name)


def test_values_sample_is_invertible_and_reproducible():
    from dlperiods import matrixops
    from dlperiods.ffield import make_field, ops_for

    ops = ops_for(make_field(3, 1))
    sample = wl.gl_sample(4, 3, 8)
    for m in sample:
        assert wl.rank_mod_p(m, 3) == 4
        assert matrixops.is_invertible(ops, m)
    assert wl.gl_sample(4, 3, 8) == sample
    assert len(set(sample)) == 8
    order = wl.visiting_order(7, sample)
    assert order == wl.visiting_order(7, sample) and sorted(order) == sorted(sample)


def test_semisimple_sample_ignores_enumeration_order():
    from dlperiods import groups

    G = groups.group(groups.GroupSpec("U", 2, 3))
    elements = list(G.elements())
    sample = wl.semisimple_sample(elements, G.key, G.is_semisimple, 5)
    assert all(G.is_semisimple(g) for g in sample)
    assert wl.semisimple_sample(elements[::-1], G.key, G.is_semisimple, 5) == sample


def test_u3f3_sample_is_the_semisimple_draw():
    from dlperiods import groups

    G = groups.group(groups.GroupSpec("U", 3, 3))
    assert wl.semisimple_sample(G.elements(), G.key, G.is_semisimple, 2) == list(wl.U3F3_SAMPLE)


def test_character_indices():
    assert wl.character_indices(80, 8) == [0, 10, 20, 30, 40, 50, 60, 70]
    assert wl.character_indices(5, 8) == wl.character_indices(5, 0) == [0, 1, 2, 3, 4]
    assert wl.character_indices(28, 8) == sorted(set(wl.character_indices(28, 8)))


def test_rank_mod_p():
    assert wl.rank_mod_p(((1, 2), (2, 4)), 5) == 1
    assert wl.rank_mod_p(((1, 2), (2, 1)), 3) == 1  # det = -3
    assert wl.rank_mod_p(((1, 2), (2, 1)), 5) == 2


def test_reference_checks():
    ref = {"w": {"A": "aa", "B": "bb"}}
    checks = run.reference_checks("w", {"A": "aa", "C": "cc"}, ref)
    assert checks["A digest"][0]
    assert not checks["B digest"][0]  # built at the reference, fails now
    assert checks["C digest"] == (True, "new instance, invariants only")
    assert not run.reference_checks("w", {"A": "zz", "B": "bb"}, ref)["A digest"][0]


def test_end_to_end_takes_each_step_at_its_fastest():
    def solve(steps, setup):
        return {"steps": steps, "first_steps": 1, "attempted": 10, "failed": 2, "setup_s": setup, "peak_rss_mb": 5.0}

    solves = [solve([1.0, 2.0, 3.0], 0.1), solve([2.0, 1.0, 4.0], 0.3), solve([1.5, 1.5, 3.5], 0.2)]
    m = run.end_to_end(solves)
    assert m["first_result_s"] == 1.0
    assert m["values_per_s"] == 8 / (1.0 + 1.0 + 3.0)
    assert m["setup_s"] == 0.1 and m["ok_share"] == 0.8 and m["peak_rss_mb"] == 5.0


def test_table_digest_ignores_class_order():
    rows = [(1, ["3"]), (3, ["1"]), (2, ["0"])]
    assert wl.table_digest(rows) == wl.table_digest(rows[::-1])
    assert wl.table_digest(rows) != wl.table_digest([(1, ["3"]), (3, ["1"]), (2, ["1"])])


TRACED_GL2F3 = """
import json, sys
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS["sweep-gl2f3"] = (workloads.Part("sweep", "GL", 2, 3, characters=0),)
import worker
worker.main(["--workload", "sweep-gl2f3", "--trace", "1"])
"""


def traced_layers():
    code = TRACED_GL2F3.format(paths=[HERE, os.path.join(ROOT, "src")])
    env = dict(os.environ, PYTHONHASHSEED="0")  # as run.py sets it
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_counts_repeat_between_traced_runs():
    a, b = traced_layers(), traced_layers()
    assert all(ok for ok, _ in a["checks"].values())
    counts = [k for k, v in a["layers"].items() if isinstance(v, int)]
    assert "ffield.add.calls" in counts and "groups.conj.calls" in counts
    assert a["layers"]["dlchar.value.calls"] == (8 + 4) * 8  # characters of both tori x classes
    assert {k: a["layers"][k] for k in counts} == {k: b["layers"][k] for k in counts}
    assert a["trace"]["counts"] == b["trace"]["counts"]
