"""Job kinds and the three workloads' job lists.

A job is one unit of CLI-equivalent work: text goes in, the same public
`eocd` calls the matching subcommand makes run through a `Calls` object,
and a result record comes out.  Each kind has a runner (timed) and a
check (untimed) that compares the record with an answer the benchmark
derives on its own: a closed form, a grown certificate, brute force or
a tree DP.  Answers that cost more than the input are computed on the
first check and kept.
"""

from __future__ import annotations

import random

from inputs import (
    comb_edges, complete_bipartite_edges, cycle_edges, dimacs_text, disjoint_cycles,
    edge_text, grow_tree, hypercube_edges, leafy_graph, path_edges, random_formula,
    random_graph, sierpinski_edges,
)
from oracle import (
    adjacency, certificate_ok, covers_once, eocd_exists, is_tree, min_cover,
    one_in_three_models, parse_edges, replay_ops, same_graph, tree_domination,
)


class Job:
    """`args` feed the runner; `answer()` gives what the check compares against."""

    __slots__ = ("jid", "case", "kind", "size", "args", "_answer", "_known")

    def __init__(self, case, kind, size, args, answer):
        self.jid = None
        self.case, self.kind, self.size, self.args = case, kind, size, args
        self._answer, self._known = answer, False

    def answer(self):
        if not self._known:
            self._answer, self._known = self._answer(), True
        return self._answer

    def run(self, calls):
        return RUN[self.kind](calls, *self.args)

    def check(self, out):
        return CHECK[self.kind](self, out)


# ---------------------------------------------------------------------------
# runners: the package calls of one CLI command

def run_solve(c, text, mode, gammas):
    g = c.parse_edge_list(text)
    out = {name: getattr(c, name)(g) for name in gammas}
    if mode is not None:
        cert = c.find_eocd(g, c.eocd.SearchMode(mode))
        out["cert"] = cert and cert.to_record()
    return out


def run_generate(c, family, params):
    return c.dump_edge_list(getattr(c, family)(*params))


def run_verify(c, text, d, p):
    g = c.parse_edge_list(text)
    d_ok, p_ok = c.is_eod_set(g, d), c.is_ecd_set(g, p)
    report = None
    if d_ok and p_ok:
        cert = c.eocd.EocdCertificate(g.n, d, p)
        c.validate(cert, g)
        report = c.classify_partition(g, cert).all_pass
    return d_ok, p_ok, report


def run_recognize(c, text):
    cert = c.recognize_empty_pd(c.parse_edge_list(text))
    return cert and cert.to_record()


def run_tree_dp(c, text):
    return c.is_eocd_tree(c.parse_edge_list(text))


def run_decompose(c, text, d, p):
    return c.serialize_sequence(c.decompose(c.parse_edge_list(text), d, p))


def run_replay(c, ops):
    g, d, p = c.replay(c.parse_sequence(ops))
    return c.dump_edge_list(g), d, p


def run_grow(c, steps, seed):
    g, d, p, seq = c.random_eocd_tree(steps, seed)
    return c.dump_edge_list(g), d, p, c.serialize_sequence(seq)


def run_reduce(c, text):
    f = c.parse_dimacs(text)
    g, _ = c.build_reduction(f)
    cert = c.find_eocd(g)
    if cert is None:
        return g, None, None
    return g, cert.to_record(), c.assignment_from_witness(f, g, cert.d, cert.p)


def run_transform(c, text, direction, members):
    g = c.parse_edge_list(text)
    convert = c.eod_to_ecd if direction == "eod-to-ecd" else c.ecd_to_eod
    return convert(g, members)


def run_roundtrip(c, text):
    return c.dump_edge_list(c.parse_edge_list(text))


RUN = {
    "solve": run_solve, "generate": run_generate, "verify": run_verify,
    "recognize": run_recognize, "tree-dp": run_tree_dp, "decompose": run_decompose,
    "replay": run_replay, "grow": run_grow, "reduce": run_reduce,
    "transform": run_transform, "roundtrip": run_roundtrip,
}


# ---------------------------------------------------------------------------
# checks: the record against the benchmark's own answer

def check_solve(job, out):
    ans = job.answer()
    _, mode, gammas = job.args
    if any(out[name] != ans[name] for name in gammas):
        return False
    if mode is None:
        return True
    rec = out["cert"]
    if rec is None:
        return ans["eocd"] is False
    return ans["eocd"] is True and certificate_ok(ans["adj"], rec["D"], rec["P"], mode)


def check_generate(job, text):
    n, edges = job.answer()
    return same_graph(text, n, edges)


def check_verify(job, out):
    adj = job.answer()
    _, d, p = job.args
    d_ok, p_ok = covers_once(adj, d, False), covers_once(adj, p, True)
    # every valid certificate's partition obeys the structure rules
    return out == (d_ok, p_ok, True if d_ok and p_ok else None)


def check_recognize(job, rec):
    adj = job.answer()
    if adj is None:
        return rec is None
    return rec is not None and certificate_ok(adj, rec["D"], rec["P"], "empty-pd")


def check_tree_dp(job, out):
    adj = job.answer()
    if adj is None:
        return out is None
    return out is not None and certificate_ok(adj, out[0], out[1])


def check_decompose(job, ops):
    n, edges, d, p = job.answer()
    got_n, got_edges, got_d, got_p = replay_ops(ops)
    return got_n == n and set(got_edges) == set(edges) and (got_d, got_p) == (d, p)


def check_replay(job, out):
    n, edges, d, p = job.answer()
    text, got_d, got_p = out
    return same_graph(text, n, edges) and (got_d, got_p) == (d, p)


def check_grow(job, out):
    text, d, p, ops = out
    n, edges = parse_edges(text)
    if not (is_tree(n, edges) and certificate_ok(adjacency(n, edges), d, p)):
        return False
    got_n, got_edges, got_d, got_p = replay_ops(ops)
    return got_n == n and set(got_edges) == edges and (got_d, got_p) == (d, p)


def check_reduce(job, out):
    n, models = job.answer()
    g, rec, assignment = out
    if g.n != n:
        return False
    if rec is None:
        return not models
    adj = [g.neighbors(v) for v in range(g.n)]
    return certificate_ok(adj, rec["D"], rec["P"]) and tuple(assignment) in models


def check_transform(job, out):
    n, m = job.answer()
    _, direction, members = job.args
    h, code = out
    edges = list(h.edges())
    adj = adjacency(h.n, edges)
    if direction == "eod-to-ecd":
        want = (n - len(members) // 2, m - len(members) // 2)
        return (h.n, len(edges)) == want and covers_once(adj, code, True)
    want = (n + len(members), m + len(members))
    return (h.n, len(edges)) == want and covers_once(adj, code, False)


def check_roundtrip(job, text):
    n, edges = job.answer()
    return same_graph(text, n, edges)


CHECK = {
    "solve": check_solve, "generate": check_generate, "verify": check_verify,
    "recognize": check_recognize, "tree-dp": check_tree_dp, "decompose": check_decompose,
    "replay": check_replay, "grow": check_grow, "reduce": check_reduce,
    "transform": check_transform, "roundtrip": check_roundtrip,
}


# ---------------------------------------------------------------------------
# job constructors shared by the workloads

def solve_job(case, n, edges, mode, gammas=(), verdict=None, gamma=None, gamma_t=None):
    """A `solve` job; answers not given in closed form are found by brute force."""
    def answer():
        adj = adjacency(n, edges)
        ans = {"adj": adj}
        if mode is not None:
            ans["eocd"] = verdict if verdict is not None else eocd_exists(adj, mode)
        if "gamma" in gammas:
            ans["gamma"] = gamma if gamma is not None else min_cover(adj, True)
        if "gamma_t" in gammas:
            ans["gamma_t"] = gamma_t if gamma_t is not None else min_cover(adj, False)
        return ans
    return Job(case, "solve", n, (edge_text(n, edges), mode, gammas), answer)


def tree_jobs(case, t):
    """Every mode, decompose, replay and verify (valid and broken) on a grown tree."""
    text = edge_text(t.n, t.edges)
    grown = (t.n, t.edges, t.d, t.p)
    jobs = [solve_job(case, t.n, t.edges, "any", ("gamma", "gamma_t"), True,
                      len(t.p), len(t.d))]
    jobs += [solve_job(case, t.n, t.edges, mode) for mode in ("empty-dp", "empty-pd")]
    jobs.append(Job(case, "decompose", t.n, (text, t.d, t.p), lambda: grown))
    jobs.append(Job(case, "replay", t.n, (t.ops,), lambda: grown))
    adj = lambda: adjacency(t.n, t.edges)
    jobs.append(Job(case, "verify", t.n, (text, t.d, t.p), adj))
    broken = t.d ^ {max(t.d)}
    jobs.append(Job(case, "verify", t.n, (text, broken, t.p), adj))
    return jobs


# ---------------------------------------------------------------------------
# workloads

LIMIT_S = {"search-ladder": 8.0, "small-corpus": 2.0, "linear-large": 30.0}

# Weights for O1/O2/O3 that give |D| close to 0.4 n, so that the ~2k tree
# stays well inside Python's default recursion depth and the ~3.2k tree
# does not.
SEARCH_TREE_WEIGHTS = (2, 1, 2)


def search_ladder(seed):
    rng = random.Random(f"search-ladder:{seed}")
    jobs = [
        solve_job(f"path-{n}", n, path_edges(n), "any", verdict=n % 4 != 1)
        for n in (1500, 2000, 4000)
    ]
    jobs.append(solve_job("cycle-1200", 1200, cycle_edges(1200), "any", verdict=True))
    for p, k in ((4, 5), (6, 4)):
        jobs.append(solve_job(f"sierpinski-{p}-{k}", p ** k, sierpinski_edges(p, k), "any",
                              verdict=p % 2 == 0))
    c12 = adjacency(12, cycle_edges(12))
    for mode in ("empty-dp", "empty-pd"):
        # D and P split by component, and the six components are equal
        jobs.append(solve_job(f"6c12-{mode}", 72, disjoint_cycles(6, 12), mode,
                              verdict=eocd_exists(c12, mode)))
    for spine, tooth, name in ((10, 3, "gamma"), (10, 2, "gamma_t")):
        n, edges = comb_edges(spine, tooth)
        kw = {name: tree_domination(n, edges, total=name == "gamma_t")}
        jobs.append(solve_job(f"comb-{spine}-{tooth}-{name.replace('_', '-')}", n, edges,
                              None, (name,), **kw))
    for size, label in ((2000, "2k"), (3200, "3k")):
        t = grow_tree(rng, size, SEARCH_TREE_WEIGHTS)
        jobs.append(solve_job(f"tree-{label}", t.n, t.edges, "any", verdict=True))
    return jobs


def small_corpus(seed):
    rng = random.Random(f"small-corpus:{seed}")
    jobs = []
    # Sizes, densities and clause counts follow a schedule that is the same
    # for every seed; the seed picks the instances.  Search cost grows
    # exponentially with size, and drawing the sizes too made one seed's
    # pass up to 20 % dearer than another's.
    for i in range(150):
        n = 6 + i % 9
        edges = random_graph(rng, n, 0.15 + 0.35 * (i % 10) / 9)
        jobs.append(solve_job("random-graph", n, edges, "any", ("gamma", "gamma_t")))
        jobs += [solve_job("random-graph", n, edges, mode) for mode in ("empty-dp", "empty-pd")]
    for i in range(150):
        jobs += tree_jobs("small-tree", grow_tree(rng, 6 + i % 19))
    families = [("path", (n,), path_edges(n)) for n in range(2, 25)]
    families += [("cycle", (n,), cycle_edges(n)) for n in range(3, 25)]
    families += [("complete_bipartite", (r, t), complete_bipartite_edges(r, t))
                 for r in range(1, 5) for t in range(r, 6)]
    families += [("hypercube", (k,), hypercube_edges(k)) for k in range(1, 5)]
    families += [("sierpinski", (p, k), sierpinski_edges(p, k))
                 for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2))]
    for family, params, edges in families:
        n = 1 + max(max(e) for e in edges)
        jobs.append(Job(family.replace("_", "-"), "generate", n, (family, params),
                        lambda n=n, edges=edges: (n, edges)))
    for i in range(100):
        n_vars = 3 + i % 2
        clauses = random_formula(rng, n_vars, 1 + i % 3)
        n = 23 * n_vars + len(clauses)
        jobs.append(Job("formula", "reduce", n, (dimacs_text(n_vars, clauses),),
                        lambda n=n, nv=n_vars, cl=clauses: (n, one_in_three_models(nv, cl))))
    rng.shuffle(jobs)
    return jobs


TREE_RUNGS = (100, 400, 1600)
LEAFY_RUNGS = (1250, 5000, 20000)


def linear_large(seed, tree_rungs=TREE_RUNGS, leafy_rungs=LEAFY_RUNGS):
    rng = random.Random(f"linear-large:{seed}")
    jobs = []
    for size in tree_rungs:
        t = grow_tree(rng, size)
        text = edge_text(t.n, t.edges)
        grown = (t.n, t.edges, t.d, t.p)
        jobs.append(Job("grow", "grow", size, (round(size / 3.5), rng.randrange(1 << 30)),
                        lambda: None))
        jobs.append(Job("tree-dp-yes", "tree-dp", t.n, (text,),
                        lambda t=t: adjacency(t.n, t.edges)))
        n = size - size % 4 + 1  # paths with n = 1 (mod 4) are not EOCD
        jobs.append(Job("tree-dp-no", "tree-dp", n, (edge_text(n, path_edges(n)),), lambda: None))
        jobs.append(Job("decompose", "decompose", t.n, (text, t.d, t.p), lambda g=grown: g))
        jobs.append(Job("replay", "replay", t.n, (t.ops,), lambda g=grown: g))
    for size in leafy_rungs:
        n, edges, d, p = leafy_graph(rng, size)
        text = edge_text(n, edges)
        adj = lambda n=n, edges=edges: adjacency(n, edges)
        bad_n, bad_edges, _, _ = leafy_graph(rng, size, defect=True)
        jobs.append(Job("recognize-yes", "recognize", n, (text,), adj))
        jobs.append(Job("recognize-no", "recognize", bad_n, (edge_text(bad_n, bad_edges),),
                        lambda: None))
        jobs.append(Job("verify", "verify", n, (text, d, p), adj))
        nm = lambda n=n, m=len(edges): (n, m)
        jobs.append(Job("eod-to-ecd", "transform", n, (text, "eod-to-ecd", d), nm))
        jobs.append(Job("ecd-to-eod", "transform", n, (text, "ecd-to-eod", p), nm))
        jobs.append(Job("roundtrip", "roundtrip", n, (text,), lambda n=n, e=edges: (n, e)))
    return jobs


WORKLOADS = {"search-ladder": search_ladder, "small-corpus": small_corpus,
             "linear-large": linear_large}


def build(workload, seed):
    jobs = WORKLOADS[workload](seed)
    for i, job in enumerate(jobs):
        job.jid = i
    return jobs
