import pytest
from hypothesis import given, strategies as st

from eocd.graph import (
    Graph,
    GraphError,
    certificate_violations,
    connected_components,
    contract_edges,
    dump_edge_list,
    first_violation,
    is_tree,
    parse_edge_list,
)


def test_basic_adjacency():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.neighbors(1) == (0, 2)
    assert g.degree(0) == 1
    assert g.m == 3
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


def test_connected_components_ordering():
    g = Graph(6, [(4, 5), (0, 2), (1, 3)])
    comps = connected_components(g)
    assert comps == [frozenset({0, 2}), frozenset({1, 3}), frozenset({4, 5})]


def test_is_tree():
    assert is_tree(Graph(3, [(0, 1), (1, 2)]))
    assert not is_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(Graph(4, [(0, 1), (2, 3)]))  # forest, not a tree


def test_contract_matching_edge():
    # contracting the middle edge of P4 gives P3
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h, mapping = contract_edges(g, [(1, 2)])
    assert h.n == 3
    assert mapping[1] == mapping[2]
    assert sorted(h.edges()) == [(0, 1), (1, 2)]


def test_contract_rejects_non_matching():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        contract_edges(g, [(0, 1), (1, 2)])


def test_edge_list_format_round_trip():
    g = Graph(3, [(0, 1), (1, 2)], labels={0: "a", 2: "c"})
    text = dump_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == g.n
    assert sorted(h.edges()) == sorted(g.edges())
    assert h.labels == {0: "a", 2: "c"}


def test_parse_edge_list_comments_and_errors():
    g = parse_edge_list("# a triangle\n3 3\n0 1\n1 2\n0 2\n")
    assert g.m == 3
    with pytest.raises(GraphError):
        parse_edge_list("3 1\n0 1\n1 2\n")  # wrong edge count
    with pytest.raises(GraphError):
        parse_edge_list("not a header\n")


def test_parse_edge_list_errors_name_the_line(line_end_variants):
    cases = [
        ("3 1\n# c\n0 x\n", "line 3", "'x'"),              # non-integer id
        ("x 1\n", "line 1", "'x'"),                          # non-integer header
        ("3 1\nL y a\n0 1\n", "line 2", "'y'"),             # non-integer label id
        ("3 1\n0 3\n", "line 2", "(0, 3)"),                 # endpoint out of range
        ("3 1\n\n1 1\n", "line 3", "(1, 1)"),              # self-loop
        ("3 1\n0 1 2\n", "line 2", "'0 1 2'"),              # too many tokens
        ("3 1\nL 7 a\n0 1\n", "line 2", "vertex 7"),         # label out of range
        ("# c\n3 2\n0 1\n", "line 2", "promises 2"),         # edge count
        ("# only a comment\n", "line 2", "header"),           # no header
    ]
    for text, where, what in cases:
        for source in line_end_variants(text):
            with pytest.raises(GraphError) as info:
                parse_edge_list(source)
            assert str(info.value).startswith(where + ":") and what in str(info.value), text


def test_parse_edge_list_rejects_a_repeated_edge(line_end_variants):
    # either orientation repeats the edge; m counts distinct edges only
    for text, where in (("3 3\n0 1\n1 2\n2 1\n", "line 4: edge (2, 1) repeats an earlier edge in '2 1'"),
                        ("# c\n3 2\n0 1\n\n0 1\n", "line 5: edge (0, 1) repeats an earlier edge in '0 1'")):
        for source in line_end_variants(text):
            with pytest.raises(GraphError) as info:
                parse_edge_list(source)
            assert str(info.value) == where, text


def test_parse_edge_list_reads_no_line_after_a_refusal(lines_then_fail):
    with pytest.raises(GraphError, match="^line 2: edge"):
        parse_edge_list(lines_then_fail(["3 1\n", "0 3\n"]))
    with pytest.raises(GraphError, match="^line 1: 100 vertices, above --max-vertices 10"):
        parse_edge_list(lines_then_fail(["100 0\n"]), max_vertices=10)
    g = parse_edge_list(iter(["2 1\n", "0 1\n"]))
    assert list(g.edges()) == [(0, 1)]


def test_only_line_feeds_and_carriage_returns_end_lines(line_end_variants):
    # a form feed (or \x85, \u2028, ...) is whitespace inside a line, in a
    # str just as in a file
    for source in line_end_variants("2 1\x0c0 1\n"):
        with pytest.raises(GraphError, match="^line 1: header must be 'n m'"):
            parse_edge_list(source)


def test_first_violation_on_dense_ids():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert first_violation(g.n, g.neighbors, {1, 2}, closed=False) is None
    assert first_violation(g.n, g.neighbors, {0, 3}, closed=True) is None
    assert first_violation(g.n, g.neighbors, {1}, closed=False) == (1, [])
    assert first_violation(g.n, g.neighbors, {0, 1}, closed=True) == (0, [0, 1])
    # the path 3-2-1-0 as an id-keyed dict of sets, as the tree calculus keeps it;
    # the violation reported is the smallest id, whatever the dict's key order
    adj = {3: {2}, 2: {1, 3}, 1: {0, 2}, 0: {1}}
    assert first_violation(4, adj.__getitem__, {1, 2}, closed=False) is None
    assert first_violation(4, adj.__getitem__, {2}, closed=True) == (0, [])
    assert first_violation(4, adj.__getitem__, {2, 1}, closed=True) == (1, [1, 2])
    assert first_violation(0, adj.__getitem__, set(), closed=False) is None


def test_certificate_violations_checks_d_then_p():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert list(certificate_violations(g.n, g.neighbors, {1, 2}, {0, 3})) == [
        ("D", "EOD", None), ("P", "ECD", None)]
    assert list(certificate_violations(g.n, g.neighbors, {1}, {0, 1})) == [
        ("D", "EOD", "vertex 1 is uncovered by D"),
        ("P", "ECD", "vertex 0 is doubly covered by P (via 0 and 1)")]


def test_first_violation_rejects_ids_outside_the_graph():
    g = Graph(2, [(0, 1)])
    for bad in (-1, g.n, 99):
        for closed in (False, True):
            with pytest.raises(GraphError, match=f"^vertex {bad} is not in the graph$"):
                first_violation(g.n, g.neighbors, {0, bad}, closed)
    with pytest.raises(GraphError, match="^vertex 'a' is not in the graph$"):
        first_violation(g.n, g.neighbors, {"a"}, closed=False)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@given(graphs())
def test_dump_parse_identity(g):
    assert sorted(parse_edge_list(dump_edge_list(g)).edges()) == sorted(g.edges())


@given(graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = [v for c in comps for v in c]
    assert sorted(seen) == list(range(g.n))
