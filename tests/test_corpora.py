"""The claim corpora: every graph on at most 7 vertices up to isomorphism,
and the colour refinement and canonical form that generate it."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from eocd.claims import _canonical, _colours, graphs
from eocd.families import cycle
from eocd.graph import Graph


def test_graphs_count_a000088_by_order():
    counts = Counter(g.n for g in graphs(7))
    assert [counts[n] for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


@st.composite
def relabelled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    return Graph(n, edges), Graph(n, [(perm[u], perm[v]) for u, v in edges])


@given(relabelled_graphs())
@settings(max_examples=200, deadline=None)
def test_canonical_form_ignores_the_vertex_labels(pair):
    g, h = pair
    table = {}
    assert _canonical(g._adj, table) == _canonical(h._adj, table)


def test_colour_keys_do_not_tell_c7_from_c3_plus_c4():
    # both are 2-regular, so refinement never splits their one colour class:
    # only the canonical form keeps both when graphs(7) is generated
    c7 = cycle(7)
    c3_c4 = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    table = {}
    assert sorted(_colours(c7._adj, 3, table)) == sorted(_colours(c3_c4._adj, 3, table))
    assert _canonical(c7._adj, table) != _canonical(c3_c4._adj, table)
