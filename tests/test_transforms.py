"""EOD <-> ECD transforms: contraction one way, vertex splitting back."""

import pytest
from hypothesis import given, settings, strategies as st

from eocd.families import cycle, path
from eocd.graph import Graph
from eocd.solver import find_eod, is_ecd_set, is_eod_set
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
