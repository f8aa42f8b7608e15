"""Constructions converting between EOD and ECD graphs.

An EOD set induces a matching; contracting that matching turns the graph
into an ECD graph whose code is the set of contraction vertices.  In the
other direction, splitting every code vertex of an ECD graph into two
adjacent vertices (wiring its neighbors to either side) produces an EOD
graph.  By default a code vertex keeps all its neighbors and its new
twin is a leaf; a plan can move any of them to the twin instead.

Each transform checks its input set and plan; that it returns an ECD code
or an EOD set is what the construction proves, and what the tests check.
Vertices are ids 0..n-1, and each output graph is built directly from the
input's neighbor tuples in O(n + m), without an edge list to re-check.
"""

from __future__ import annotations

from .graph import Graph, VertexSet, contract_edges
from .solver import is_ecd_set, is_eod_set

# Split plan: code vertex -> (A, B), a partition of its neighborhood.
SplitPlan = dict


class TransformError(ValueError):
    pass


def eod_to_ecd(g: Graph, d) -> tuple[Graph, VertexSet]:
    """Contract the matching induced by the EOD set d; the contraction
    vertices form an ECD set of the result."""
    d = frozenset(d)
    if not is_eod_set(g, d):
        raise TransformError(f"{sorted(d)} is not an EOD set")
    adj = g._adj
    matching = []
    for v in sorted(d):
        for w in adj[v]:   # d is EOD: v's one neighbor in d
            if w in d:
                break
        if v < w:
            matching.append((v, w))
    contracted, vmap = contract_edges(g, matching)
    return contracted, frozenset(vmap[u] for u, _ in matching)


def ecd_to_eod(g: Graph, p, plan: SplitPlan | None = None) -> tuple[Graph, VertexSet]:
    """Split every code vertex v into adjacent v_A, v_B per the plan.

    v_A keeps the original id and is wired to plan[v][0]; v_B is appended
    at the end and wired to plan[v][1].  Unspecified vertices default to
    A = all neighbors, B = empty.  Returns the new graph and its EOD set.
    """
    p = frozenset(p)
    if not is_ecd_set(g, p):
        raise TransformError(f"{sorted(p)} is not an ECD set")
    plan = dict(plan) if plan else {}
    for v in plan:
        if v not in p:
            raise TransformError(f"plan mentions non-code vertex {v}")
    rows = g._adj
    sides = {}   # code vertex -> the neighbors of v_A and of v_B, in id order
    for v in sorted(p):
        if v not in plan:   # the default split: v_A keeps v's row, v_B is a leaf
            sides[v] = (rows[v], ())
            continue
        a, b = plan[v]
        a, b = set(a), set(b)
        if a & b or (a | b) != set(rows[v]):
            raise TransformError(f"plan for vertex {v} is not a partition of its neighborhood")
        sides[v] = ([w for w in rows[v] if w not in b], [w for w in rows[v] if w in b])
    adj = list(rows)   # a row whose neighborhood does not change is reused
    for vb, (v, (a, b)) in enumerate(sides.items(), g.n):
        adj[v] = (*a, vb)
        adj.append(tuple(sorted((v, *b))))
        for w in b:   # v is w's only code neighbor, and v_B is above every old id
            adj[w] = (*(x for x in rows[w] if x != v), vb)
    return Graph._of(len(adj), tuple(adj)), p | frozenset(range(g.n, len(adj)))
