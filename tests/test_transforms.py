"""EOD <-> ECD transforms: contraction one way, vertex splitting back."""

import pytest
from hypothesis import given, settings, strategies as st

from eocd.families import cycle, path
from eocd.graph import Graph, GraphError, contract_edges, dump_edge_list
from eocd.solver import find_eod, is_ecd_set, is_eod_set, iter_efficient_sets
from eocd.transforms import TransformError, ecd_to_eod, eod_to_ecd
from eocd.trees import random_eocd_tree


def test_eod_to_ecd_on_p4():
    g = path(4)
    d = find_eod(g)
    h, code = eod_to_ecd(g, d)
    assert h.n == 3
    assert is_ecd_set(h, code)
    assert len(code) == len(d) // 2


def test_eod_to_ecd_on_c12():
    g = cycle(12)
    d = find_eod(g)
    h, code = eod_to_ecd(g, d)
    assert h.n == 9
    assert is_ecd_set(h, code)


def test_eod_to_ecd_rejects_invalid_set():
    with pytest.raises(TransformError):
        eod_to_ecd(path(4), {0, 1})


def test_ecd_to_eod_on_star_center():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    h, d = ecd_to_eod(g, {0})
    assert h.n == 5
    assert is_eod_set(h, d)
    assert len(d) == 2


def test_ecd_to_eod_with_explicit_plan():
    g = path(5)
    p = {0, 3}
    plan = {0: ((1,), ()), 3: ((2,), (4,))}
    h, d = ecd_to_eod(g, p, plan)
    assert is_eod_set(h, d)


def test_ecd_to_eod_rejects_invalid_code():
    with pytest.raises(TransformError):
        ecd_to_eod(path(5), {0, 1})


def test_round_trip_preserves_certificate_shape():
    """Splitting an ECD graph then contracting the new matching recovers a
    perfect code of the original size."""
    g = path(9)
    p = {1, 4, 7}
    assert is_ecd_set(g, p)
    h, d = ecd_to_eod(g, p)
    h2, code = eod_to_ecd(h, d)
    assert is_ecd_set(h2, code)
    assert len(code) == len(p)
    assert h2.n == g.n


@st.composite
def _grown_trees(draw):
    return random_eocd_tree(steps=draw(st.integers(0, 30)), seed=draw(st.integers(0, 2 ** 32)))[:3]


@st.composite
def _leafy_graphs(draw):
    """Supports with one to three leaves each, joined to an earlier support
    through a private path support-a-b-support, plus chords between path
    vertices.  Supports lie pairwise at distance >= 3 and every other
    vertex sees exactly one of them, so P = the supports is an ECD set and
    D = the supports plus one leaf each an EOD set."""
    edges, d, p, inner = [], [], [], []
    n = 0
    for i in range(draw(st.integers(1, 6))):
        s, n = n, n + 1
        leaves = draw(st.integers(1, 3))
        edges += [(s, n + j) for j in range(leaves)]
        d += [s, n]
        n += leaves
        if p:
            a, b, n = n, n + 1, n + 2
            edges += [(s, a), (a, b), (b, draw(st.sampled_from(p)))]
            inner += [a, b]
        p.append(s)
    for x, y in draw(st.lists(st.tuples(st.sampled_from(inner), st.sampled_from(inner)),
                              max_size=4) if inner else st.just([])):
        if x != y:
            edges.append((x, y))
    return Graph(n, edges), frozenset(d), frozenset(p)


@given(st.one_of(_grown_trees(), _leafy_graphs()), st.data())
@settings(max_examples=120, deadline=None)
def test_transforms_return_efficient_sets(graph, data):
    """The transforms do not re-check the sets they return; this does."""
    g, d, p = graph
    assert is_eod_set(g, d) and is_ecd_set(g, p)
    h, code = eod_to_ecd(g, d)
    assert h.n == g.n - len(d) // 2 and is_ecd_set(h, code) and len(code) == len(d) // 2
    plan = {}
    for v in sorted(p):
        side_b = data.draw(st.sets(st.sampled_from(g.neighbors(v))) if g.neighbors(v)
                           else st.just(set()))
        plan[v] = ([w for w in g.neighbors(v) if w not in side_b], sorted(side_b))
    h, eod = ecd_to_eod(g, p, plan)
    assert h.n == g.n + len(p) and is_eod_set(h, eod) and len(eod) == 2 * len(p)


# ---------------------------------------------------------------------------
# The transforms build their output adjacency directly.  These references
# are the edge-list constructions they replace, which the validating
# Graph(n, edges) re-checks and re-sorts; outputs and error messages must
# agree exactly.

def _reference_contract_edges(g, matching):
    touched = set()
    for u, v in matching:
        if not g.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge")
        if u in touched or v in touched:
            raise GraphError(f"({u}, {v}) shares an endpoint with another matching edge")
        touched.update((u, v))
        if set(g.neighbors(u)) & set(g.neighbors(v)):
            raise GraphError(f"edge ({u}, {v}) lies in a triangle")
    rep = list(range(g.n))
    for u, v in matching:
        rep[max(u, v)] = min(u, v)
    new_id = {r: i for i, r in enumerate(sorted(set(rep)))}
    vmap = [new_id[rep[v]] for v in range(g.n)]
    edges = {(min(vmap[u], vmap[v]), max(vmap[u], vmap[v]))
             for u, v in g.edges() if vmap[u] != vmap[v]}
    return Graph(len(new_id), sorted(edges)), vmap


def _reference_ecd_to_eod(g, p, plan=None):
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


def _outcome(f, *args):
    """f's result, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (GraphError, TransformError) as exc:
        return type(exc), str(exc)


def _assert_same(new, ref):
    if isinstance(ref[0], type):   # both raised
        assert new == ref
        return
    (h, out), (h_ref, out_ref) = new, ref
    assert h.n == h_ref.n and h._adj == h_ref._adj and h.labels == h_ref.labels
    assert dump_edge_list(h) == dump_edge_list(h_ref)
    assert out == out_ref
    assert Graph(h.n, list(h.edges()))._adj == h._adj   # the validating constructor agrees


@st.composite
def _random_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def _with_efficient_sets(draw):
    """A graph with an EOD set d (or None) and an ECD set p (or None): from the
    grown trees and leafy graphs, or any of a random graph's sets."""
    kind = draw(st.sampled_from(["tree", "leafy", "random"]))
    if kind != "random":
        return draw(_grown_trees() if kind == "tree" else _leafy_graphs())
    g = draw(_random_graphs())
    eods = list(iter_efficient_sets(g, closed=False))
    ecds = list(iter_efficient_sets(g, closed=True))
    return (g, draw(st.sampled_from(eods)) if eods else None,
            draw(st.sampled_from(ecds)) if ecds else None)


def _split_plan(draw, g, p, corrupt):
    """A random split plan for the code p; with `corrupt`, one random fault."""
    plan = {}
    for v in sorted(p):
        nbrs = g.neighbors(v)
        side_b = draw(st.sets(st.sampled_from(nbrs))) if nbrs else set()
        plan[v] = ([w for w in nbrs if w not in side_b], sorted(side_b))
    if corrupt and plan:
        v = draw(st.sampled_from(sorted(plan)))
        a, b = plan[v]
        fault = draw(st.sampled_from(["overlap", "missing", "foreign", "non-code"]))
        if fault == "overlap" and (a or b):
            plan[v] = (a + b[:1], b + a[:1])
        elif fault == "missing" and (a or b):
            plan[v] = (a[1:], b) if a else (a, b[1:])
        elif fault == "foreign":
            plan[v] = (a + [g.n + 5], b)
        else:
            plan[draw(st.sampled_from([w for w in range(g.n + 1) if w not in p]))] = ((), ())
    return plan


@given(_with_efficient_sets(), st.data())
@settings(max_examples=150, deadline=None)
def test_transforms_match_the_edge_list_constructions(graph, data):
    g, d, p = graph
    if d is not None:
        matching = [(v, w) for v in sorted(d) for w in g.neighbors(v) if w in d and v < w]
        _assert_same(contract_edges(g, matching), _reference_contract_edges(g, matching))
        h, code = eod_to_ecd(g, d)
        h_ref, vmap = _reference_contract_edges(g, matching)
        _assert_same((h, code), (h_ref, frozenset(vmap[u] for u, _ in matching)))
    if p is not None:
        _assert_same(ecd_to_eod(g, p), _reference_ecd_to_eod(g, p))
        plan = _split_plan(data.draw, g, p, corrupt=data.draw(st.booleans()))
        _assert_same(_outcome(ecd_to_eod, g, p, plan), _outcome(_reference_ecd_to_eod, g, p, plan))
    not_code = data.draw(st.sets(st.integers(0, g.n - 1), max_size=3))
    _assert_same(_outcome(ecd_to_eod, g, not_code), _outcome(_reference_ecd_to_eod, g, not_code))


@given(_random_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_contract_edges_matches_the_edge_list_construction(g, data):
    """Matchings of edges in no triangle, either end first, contract alike;
    arbitrary pair lists (non-edges, shared endpoints, edges in a triangle)
    are refused with the same message."""
    edges = list(g.edges())
    if edges and data.draw(st.booleans()):
        matching, used = [], set()
        for u, v in data.draw(st.permutations(edges)):
            if used.isdisjoint((u, v)) and set(g.neighbors(u)).isdisjoint(g.neighbors(v)):
                matching.append((u, v) if data.draw(st.booleans()) else (v, u))
                used.update((u, v))
    else:
        pair = st.sampled_from(edges) if edges and data.draw(st.booleans()) else st.tuples(
            st.integers(0, g.n - 1), st.integers(0, g.n - 1))
        matching = data.draw(st.lists(pair, max_size=4))
    _assert_same(_outcome(contract_edges, g, matching),
                 _outcome(_reference_contract_edges, g, matching))


def test_contract_edges_refusals_name_the_fault():
    # the path 0-1-2 and the triangle 3-4-5
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    for matching, message in (([(0, 2)], "(0, 2) is not an edge"),
                              ([(0, 1), (1, 2)], "(1, 2) shares an endpoint with another matching edge"),
                              ([(0, 1), (4, 3)], "edge (4, 3) lies in a triangle")):
        with pytest.raises(GraphError) as info:
            contract_edges(g, matching)
        assert str(info.value) == message
        assert _outcome(_reference_contract_edges, g, matching) == (GraphError, message)
    # -1 is no vertex, although the row of vertex n - 1 = 5 holds 3
    with pytest.raises(GraphError, match=r"^\(-1, 3\) is not an edge$"):
        contract_edges(g, [(-1, 3)])
    # both matched edges of a 4-cycle: the two pairs merge into one edge
    h, vmap = contract_edges(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), [(0, 1), (2, 3)])
    assert h._adj == ((1,), (0,)) and vmap == [0, 0, 1, 1]
