"""Tiny-size self-check of the benchmark; runs in seconds.

    python3 bench/test_selfcheck.py      (or: python3 -m pytest bench)

It checks that the benchmark's own answers agree with closed forms and
brute force, that every job kind passes on tiny inputs and rejects a
wrong record, that failures are caught and charged, and that the result
line carries exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from inputs import (  # noqa: E402
    comb_edges, cycle_edges, edge_text, grow_tree, leafy_graph, path_edges, sierpinski_edges,
)
from layers import Calls  # noqa: E402
from speed import Speed  # noqa: E402


def _eocd():
    return run.import_eocd()


def test_answers_agree_with_closed_forms_and_brute_force():
    for n in range(2, 14):
        adj = oracle.adjacency(n, path_edges(n))
        assert oracle.eocd_exists(adj, "any") == (n % 4 != 1)
        assert oracle.tree_domination(n, path_edges(n), total=False) == (n + 2) // 3
        assert oracle.tree_domination(n, path_edges(n), total=True) == \
            oracle.min_cover(adj, closed=False)
    for n in (12, 13, 24):
        assert oracle.eocd_exists(oracle.adjacency(n, cycle_edges(n)), "any") == (n % 12 == 0)
    n, edges = comb_edges(4, 2)
    adj = oracle.adjacency(n, edges)
    for total in (False, True):
        assert oracle.tree_domination(n, edges, total) == oracle.min_cover(adj, not total)
    assert len(sierpinski_edges(3, 2)) == 12 and len(set(sierpinski_edges(4, 3))) == 126


def test_grown_inputs_carry_their_certificates():
    rng = random.Random(7)
    for size in (2, 9, 40):
        t = grow_tree(rng, size)
        assert oracle.is_tree(t.n, t.edges)
        assert oracle.replay_ops(t.ops) == (t.n, t.edges, t.d, t.p)
        assert oracle.certificate_ok(oracle.adjacency(t.n, t.edges), t.d, t.p)
        ans = jobs.tree_jobs("t", t)[0].answer()
        assert ans["gamma"] == oracle.tree_domination(t.n, t.edges, total=False)
        assert ans["gamma_t"] == oracle.tree_domination(t.n, t.edges, total=True)
    n, edges, d, p = leafy_graph(rng, 20)
    assert oracle.certificate_ok(oracle.adjacency(n, edges), d, p, "empty-pd")
    n, edges, _, _ = leafy_graph(rng, 20, defect=True)
    assert not oracle.eocd_exists(oracle.adjacency(n, edges), "empty-pd")


def _tiny_jobs():
    rng = random.Random(3)
    t = grow_tree(rng, 30)
    out = [
        jobs.solve_job("path", 9, path_edges(9), "any", verdict=False),
        jobs.solve_job("cycle", 12, cycle_edges(12), "any", verdict=True),
        jobs.solve_job("sierpinski", 16, sierpinski_edges(4, 2), "any", verdict=True),
        jobs.solve_job("2c12", 24, [(u, v) for c in (0, 12) for u, v in
                                    ((c + a, c + b) for a, b in cycle_edges(12))], "empty-pd"),
        jobs.solve_job("comb", 8, comb_edges(4, 1)[1], None, ("gamma", "gamma_t")),
        jobs.solve_job("tree", t.n, t.edges, "any", verdict=True),
    ]
    out += jobs.small_corpus(1)[:150]
    out += jobs.linear_large(1, tree_rungs=(40,), leafy_rungs=(60,))
    for i, job in enumerate(out):
        job.jid = i
    return out


def test_every_kind_passes_on_tiny_inputs():
    tiny = _tiny_jobs()
    assert {job.kind for job in tiny} == set(jobs.RUN)
    rows = run.run_pass(tiny, Calls(_eocd()), limit=10.0, speed=Speed())
    failures = [(job.case, job.kind, row.error) for job, row in zip(tiny, rows) if row.error]
    assert failures == []


def test_checks_reject_wrong_records():
    eocd = _eocd()
    calls = Calls(eocd)
    by_kind = {}
    for job in _tiny_jobs():
        by_kind.setdefault(job.kind, job)
    for kind, job in by_kind.items():
        out = job.run(calls)
        assert job.check(out), kind
    solve = jobs.solve_job("tree", 6, path_edges(6), "any", verdict=True)
    rec = solve.run(calls)
    rec["cert"]["P"] = rec["cert"]["P"][1:]
    assert not solve.check(rec)
    no = jobs.solve_job("path", 9, path_edges(9), "any", verdict=True)
    assert not no.check(no.run(calls))
    text = edge_text(6, path_edges(6))
    assert not jobs.Job("g", "roundtrip", 6, (text,), lambda: (6, path_edges(5))).check(
        calls.dump_edge_list(calls.parse_edge_list(text)))


class _Failing:
    """Stands in for `Calls`: the parse raises, or spins past the limit."""

    dump_edge_list = None

    def __init__(self, mode):
        self.mode = mode

    def parse_edge_list(self, text):
        if self.mode == "recursion":
            return self.parse_edge_list(text)
        while True:
            try:  # package code that swallows errors cannot swallow the limit
                pass
            except Exception:
                pass


def test_failures_are_caught_and_charged():
    job = jobs.Job("x", "roundtrip", 3, (edge_text(3, path_edges(3)),), lambda: None)
    job.jid = 0
    for mode, err in (("recursion", "RecursionError"), ("spin", "timeout")):
        row, = run.run_pass([job], _Failing(mode), limit=0.2, speed=Speed())
        assert (row.charged, row.norm_charged, row.error) == (0.2, 0.2, err) and row.real < 5


def test_result_line_names_every_metric_in_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "small-corpus", "--seed", "1", "--seconds", "0",
                             "--trace", str(trace)])
        result = json.loads(buf.getvalue().strip().splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
