"""Constructions converting between EOD and ECD graphs.

An EOD set induces a matching; contracting that matching turns the graph
into an ECD graph whose code is the set of contraction vertices.  In the
other direction, splitting every code vertex of an ECD graph into two
adjacent vertices (wiring its neighbors to either side) produces an EOD
graph.

Each transform checks its input set and plan; that it returns an ECD code
or an EOD set is what the construction proves, and what the tests check.
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
    matching = []
    for v in sorted(d):
        w = next(u for u in g.neighbors(v) if u in d)   # d is EOD: v's one neighbor in d
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
    split = {}
    for v in sorted(p):
        a, b = plan.get(v, (set(g.neighbors(v)), set()))
        a, b = set(a), set(b)
        if a & b or (a | b) != set(g.neighbors(v)):
            raise TransformError(f"plan for vertex {v} is not a partition of its neighborhood")
        split[v] = (a, b)
    side_b = {v: g.n + i for i, v in enumerate(sorted(p))}
    edges = [(u, v) for u, v in g.edges() if u not in p and v not in p]
    for v, (a, b) in split.items():
        edges.append((v, side_b[v]))
        edges.extend((u, v) for u in a)
        edges.extend((u, side_b[v]) for u in b)
    return Graph(g.n + len(p), edges), p | frozenset(side_b.values())
