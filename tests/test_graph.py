import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eocd.graph import (
    Graph,
    GraphError,
    _parse_dump,
    certificate_violations,
    connected_components,
    contract_edges,
    dump_edge_list,
    first_violation,
    is_tree,
    parse_edge_list,
    text_lines,
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
    # ids are ints: a bool would be written as `True`, which the parser refuses
    for bad, shown in ((True, "True"), (1.5, "1.5"), ("1", "'1'")):
        with pytest.raises(GraphError, match=rf"^edge \(0, {shown}\) has an endpoint outside 0..2$"):
            Graph(3, [(0, bad)])
    for n in (2.0, True, -1):
        with pytest.raises(GraphError, match=f"^vertex count must be an int >= 0, got {n!r}$"):
            Graph(n, [])


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
    for edge in ((True, 2), (2, True), (False, 1)):   # bools are refused, as in Graph
        with pytest.raises(GraphError, match="is not an edge$"):
            contract_edges(g, [edge])


def test_edge_list_format_round_trip():
    g = Graph(3, [(0, 1), (1, 2)], labels={0: "a", 2: "c"})
    text = dump_edge_list(g)
    h = parse_edge_list(text)
    assert h.n == g.n
    assert sorted(h.edges()) == sorted(g.edges())
    assert h.labels == {0: "a", 2: "c"}


def test_rejects_labels_the_edge_list_format_cannot_carry():
    # a label is written as the third token of an `L v name` line
    for name in ("a b", "", " a", "a\t", "x#y", "#", 5, None):
        with pytest.raises(GraphError, match="^label .* of vertex 1 is not one token without '#'$"):
            Graph(2, [(0, 1)], labels={0: "a", 1: name})
    with pytest.raises(GraphError, match="^label for unknown vertex 2$"):
        Graph(2, [(0, 1)], labels={2: "a"})
    for key in (True, 1.0, "1"):   # would be written as `L True a`, `L 1.0 a`, `L 1 a`
        with pytest.raises(GraphError, match=f"^label for unknown vertex {key!r}$"):
            Graph(2, [(0, 1)], labels={key: "a"})
    g = Graph(2, [(0, 1)], labels={0: "x_1", 1: "\u00e9-0"})
    assert parse_edge_list(dump_edge_list(g)).labels == {0: "x_1", 1: "\u00e9-0"}


def test_label_line_needs_a_name():
    with pytest.raises(GraphError) as info:
        parse_edge_list("2 0\nL 0\n")
    assert str(info.value) == "line 2: a label line is 'L v name' in 'L 0'"


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


def test_parse_edge_list_rejects_a_second_label(line_end_variants):
    # like an edge, a vertex's label line appears once
    message = "line 5: label for vertex 0 repeats an earlier label in 'L 0 b'"
    for parse in (parse_edge_list, _reference_parse_edge_list):
        for source in line_end_variants("3 2\n0 1\n1 2\nL 0 a\nL 0 b\n"):
            with pytest.raises(GraphError) as info:
                parse(source)
            assert str(info.value) == message
    assert parse_edge_list("3 2\n0 1\n1 2\nL 0 a\nL 1 a\n").labels == {0: "a", 1: "a"}


def test_parse_edge_list_reads_no_line_after_a_refusal(lines_then_fail):
    with pytest.raises(GraphError, match="^line 2: edge"):
        parse_edge_list(lines_then_fail(["3 1\n", "0 3\n"]))
    with pytest.raises(GraphError, match="^line 1: 100 vertices, above --max-vertices 10"):
        parse_edge_list(lines_then_fail(["100 0\n"]), max_vertices=10)
    refusals = [
        (["3 2\n", "0 1\n", "1 0\n"], r"^line 3: edge \(1, 0\) repeats an earlier edge in '1 0'$"),
        (["3 1\n", "1 1\n"], r"^line 2: edge \(1, 1\) is a self-loop or leaves 0..2 in '1 1'$"),
        (["3 1\n", "-1 2\n"], r"^line 2: edge \(-1, 2\) is a self-loop or leaves 0..2 in '-1 2'$"),
        (["# c\n", "2 1\n", "0 2\n"], r"^line 3: edge \(0, 2\) is a self-loop or leaves 0..1 in '0 2'$"),
    ]
    for lines, message in refusals:
        with pytest.raises(GraphError, match=message):
            parse_edge_list(lines_then_fail(lines))
    # a header-shaped line after a comment is the header, refused where it stands
    with pytest.raises(GraphError, match="^line 2: 2 vertices, above --max-vertices 1 in '2 1'$"):
        parse_edge_list(lines_then_fail(["# c\n", "2 1\n"]), max_vertices=1)
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
    assert first_violation(g._adj, {1, 2}, closed=False) is None
    assert first_violation(g._adj, {0, 3}, closed=True) is None
    assert first_violation(g._adj, {1}, closed=False) == (1, [])
    assert first_violation(g._adj, {0, 1}, closed=True) == (0, [0, 1])
    # the path 3-2-1-0 as an id-keyed dict of sets, as the tree calculus keeps it;
    # the violation reported is the smallest id, whatever the dict's key order
    adj = {3: {2}, 2: {1, 3}, 1: {0, 2}, 0: {1}}
    assert first_violation(adj, {1, 2}, closed=False) is None
    assert first_violation(adj, {2}, closed=True) == (0, [])
    assert first_violation(adj, {2, 1}, closed=True) == (1, [1, 2])
    assert first_violation({}, set(), closed=False) is None


def test_certificate_violations_checks_d_then_p():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert list(certificate_violations(g._adj, {1, 2}, {0, 3})) == [
        ("D", "EOD", None), ("P", "ECD", None)]
    assert list(certificate_violations(g._adj, {1}, {0, 1})) == [
        ("D", "EOD", "vertex 1 is uncovered by D"),
        ("P", "ECD", "vertex 0 is doubly covered by P (via 0 and 1)")]


def test_first_violation_rejects_ids_outside_the_graph():
    g = Graph(2, [(0, 1)])
    for bad in (-1, g.n, 99):
        for closed in (False, True):
            with pytest.raises(GraphError, match=f"^vertex {bad} is not in the graph$"):
                first_violation(g._adj, {0, bad}, closed)
    with pytest.raises(GraphError, match="^vertex 'a' is not in the graph$"):
        first_violation(g._adj, {"a"}, closed=False)
    for bad in (True, False):   # bools are refused as in Graph; {0, False} would be {0}
        for closed in (False, True):
            with pytest.raises(GraphError, match=f"^vertex {bad} is not in the graph$"):
                first_violation(g._adj, {bad}, closed)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


def _is_label(name):
    return name.split() == [name] and "#" not in name


def _reference_dump_edge_list(g):
    """The `edges()`-based writer that `dump_edge_list` replaced, kept as
    the oracle for its text."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.extend(f"L {v} {g.labels[v]}" for v in sorted(g.labels))
    return "\n".join(lines) + "\n"


@given(graphs(), st.data())
def test_dump_parse_identity(g, data):
    labels = data.draw(st.dictionaries(st.integers(0, g.n - 1), st.text(min_size=1).filter(_is_label)))
    g = Graph(g.n, g.edges(), labels)
    assert dump_edge_list(g) == _reference_dump_edge_list(g)
    h = parse_edge_list(dump_edge_list(g))
    assert sorted(h.edges()) == sorted(g.edges())
    assert h.labels == labels
    bare = _parse_dump(dump_edge_list(Graph(g.n, g.edges())), None)   # the bulk reader's form
    assert bare is not None and bare._adj == h._adj


def _reference_parse_edge_list(source, max_vertices=None):
    """The set-based parser that `parse_edge_list` replaced, kept as the
    oracle for its accepted graphs and its error messages."""
    head = n = m = found = lineno = 0
    adj = []
    labels = {}
    for lineno, raw in enumerate(text_lines(source), 1):
        tok = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tok:
            continue
        try:
            if not head:
                head = lineno
                if len(tok) != 2:
                    raise GraphError("header must be 'n m'")
                n, m = int(tok[0]), int(tok[1])
                if n < 0 or m < 0:
                    raise GraphError("header counts must be >= 0")
                if max_vertices is not None and n > max_vertices:
                    raise GraphError(f"{n} vertices, above --max-vertices {max_vertices}")
                adj = [set() for _ in range(n)]
            elif tok[0] == "L":
                if len(tok) != 3:
                    raise GraphError("a label line is 'L v name'")
                v = int(tok[1])
                if not 0 <= v < n:
                    raise GraphError(f"label for unknown vertex {v}")
                if v in labels:
                    raise GraphError(f"label for vertex {v} repeats an earlier label")
                labels[v] = tok[2]
            else:
                if len(tok) != 2:
                    raise GraphError("an edge line is 'u v'")
                u, v = int(tok[0]), int(tok[1])
                if not (0 <= u < n and 0 <= v < n) or u == v:
                    raise GraphError(f"edge ({u}, {v}) is a self-loop or leaves 0..{n - 1}")
                if v in adj[u]:
                    raise GraphError(f"edge ({u}, {v}) repeats an earlier edge")
                adj[u].add(v)
                adj[v].add(u)
                found += 1
        except ValueError as exc:
            raise GraphError(f"line {lineno}: {exc} in {' '.join(tok)!r}") from None
    if not head:
        raise GraphError(f"line {lineno + 1}: input ends before the header 'n m'")
    if found != m:
        raise GraphError(f"line {head}: header promises {m} edges, found {found}")
    return Graph._of(n, tuple(tuple(sorted(s)) for s in adj), labels)


_SEPS = st.sampled_from([" ", "  ", "\t", "\x0c", " \t", "\x0b", "\u3000"])
_PADS = st.sampled_from(["", "", " ", "\t", "\x0c", " \x0c "])
_DIGITS = {"arabic": "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "fullwidth": "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"}
_JUNK = ["x", "1 x", "L", "L 0", "L 0 a b", "L x a", "L 9 a", "1#2", "- 1", "1 2 3", "7",
         "1__0 1", "_1 0", "1 2_", "0x1 0", "1.0 0", "\u00bd 1", "\x00"]


@st.composite
def _id_text(draw, token):
    """`token`, an integer or a name, written in one of the forms int() takes or refuses."""
    style = draw(st.sampled_from(["", "", "+", "0", "_", "-", *_DIGITS]))
    if style in ("+", "0", "-"):
        return style + token
    if style == "_":
        return "_".join(token)   # "1_0" is ten; "1" stays "1"
    if style:
        return token.translate(str.maketrans("0123456789", _DIGITS[style]))
    return token


@st.composite
def _line(draw, tokens):
    """A line of `tokens`, restyled: separators, padding, id forms, a trailing comment."""
    words = [draw(_id_text(t)) if t.isdigit() and draw(st.booleans()) else t for t in tokens]
    text = draw(_PADS) + "".join(w + draw(_SEPS) for w in words[:-1]) + (words[-1] if words else "")
    text += draw(_PADS)
    return text + draw(st.sampled_from(["", "", "#", " # c", "#1 2"]))


@st.composite
def edge_list_texts(draw):
    """Edge-list texts: a dump of a random labelled graph, then a few mutations
    (comments, blank lines, restyled lines, stray tokens, bad or repeated
    edges, a wrong edge count), or a short random text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet=" \t\x0c#L0123-+_x\n\r\u0661", max_size=30))
    g = draw(graphs(max_n=6))
    labels = draw(st.dictionaries(st.integers(0, g.n - 1),
                                  st.sampled_from(["a", "x_1", "L", "\u00e9", "12"]), max_size=3))
    lines = dump_edge_list(Graph(g.n, g.edges(), labels)).split("\n")[:-1]
    ids = st.integers(-1, g.n).map(str)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["comment", "blank", "restyle", "restyle", "tokens",
                                     "edge", "repeat", "count", "junk"]))
        if kind == "comment":
            lines.insert(i, draw(_PADS) + "#" + draw(st.sampled_from(["", " c", "1 2", "#"])))
        elif kind == "blank":
            lines.insert(i, draw(_PADS))
        elif kind == "restyle" and i < len(lines):
            lines[i] = draw(_line(lines[i].split()))
        elif kind == "tokens":
            lines.insert(i, draw(_line(draw(st.lists(ids, min_size=1, max_size=3)))))
        elif kind == "edge":
            lines.insert(i, draw(_line([draw(ids), draw(ids)])))
        elif kind == "repeat" and g.m:
            u, v = draw(st.sampled_from(list(g.edges())))
            lines.insert(i, draw(_line([str(u), str(v)] if draw(st.booleans()) else [str(v), str(u)])))
        elif kind == "count":
            lines[0] = f"{g.n} {draw(st.integers(0, g.m + 2))}"
        elif kind == "junk":
            lines.insert(i, draw(st.sampled_from(_JUNK)))
    return "".join(line + "\n" for line in lines)


def _outcome(parse, source):
    try:
        g = parse(source)
    except GraphError as exc:
        return str(exc)
    return g.n, g._adj, g.labels


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_list_texts())
def test_parse_edge_list_matches_the_reference_parser(line_end_variants, text):
    # the same graph, or the same message naming the same line, on a str and
    # on a file with every line ending
    for source in line_end_variants(text):
        got = _outcome(parse_edge_list, source)
        if not isinstance(source, str):
            source.seek(0)
        assert got == _outcome(_reference_parse_edge_list, source), text
        if not isinstance(source, str):
            source.close()


# dump_edge_list's form of an unlabelled graph, and one defect at a time;
# True where the str goes to the bulk reader
_DUMP_DEFECTS = [
    ("4 3\n0 1\n1 2\n0 3\n", True),
    ("4 3\n0 1\n1 2\n3 0\n", True),            # an edge written high end first
    ("4 0\n", True),
    ("0 0\n", True),
    ("4 3\n0 1\n1 2\n0 1\n", False),           # a repeat
    ("4 3\n0 1\n1 2\n2 1\n", False),           # a repeat, the other way round
    ("4 2\n0 1\n2 2\n", False),                # a self-loop
    ("4 2\n0 1\n2 4\n", False),                # id = n
    ("4 2\n4 1\n0 1\n", False),
    ("4 1\n0 1\n1 2\n", False),                # m - 1
    ("4 3\n0 1\n1 2\n", False),                # m + 1
    ("4 2\n01 2\n1 3\n", False),               # a `01` id, which int() reads as 1
    ("4 2\n0 1\n1 02\n", False),
    ("04 1\n0 1\n", True),                     # the header is read by int()
    ("4 2\n0 1\n1 2", False),                  # no final LF
    ("4 0\n3", False),                         # a last line of digits only
    ("4 1\n0 \n13", False),
    ("4 2\n0 1\n1 2\nL 0 a\n", False),         # a trailing `L` line
    ("# c\n4 2\n0 1\n1 2\n", False),           # a leading comment
    ("4 2\n0 1\n1 2\n\n", False),              # a blank last line
    ("4 2 \n0 1\n1 2\n", False),               # padding
    ("4 2\n0  1\n1 2\n", False),
    ("4 2\n+0 1\n1 2\n", False),
    ("4 2\n0 1\n1 2 # c\n", False),
    ("4 2\n0 1\n1 \u0662\n", False),           # a non-ASCII digit
    ("4 2\n0 1 2\n3\n", False),                # as many separators, in the wrong places
    ("4 2\n0 \n 1\n", False),                  # separators in place, ids missing
    ("x 0\n", False),
    ("", False),
]


def test_parse_edge_list_matches_the_reference_parser_on_dump_defects(line_end_variants):
    for text, bulk in _DUMP_DEFECTS:
        assert (_parse_dump(text, None) is not None) == bulk, text
        for source in line_end_variants(text):
            got = _outcome(parse_edge_list, source)
            if not isinstance(source, str):
                source.seek(0)
            assert got == _outcome(_reference_parse_edge_list, source), text


def test_parse_edge_list_refuses_hostile_headers_without_allocating(line_end_variants):
    # a str in dump form is declined before anything the size of m or n is made
    cases = [("2 1000000000000\n0 1\n", {}, "line 1: header promises 1000000000000 edges, found 1"),
             ("100 0\n", {"max_vertices": 10},
              "line 1: 100 vertices, above --max-vertices 10 in '100 0'")]
    for text, kwargs, message in cases:
        for source in line_end_variants(text):
            with pytest.raises(GraphError) as info:
                parse_edge_list(source, **kwargs)
            assert str(info.value) == message, text


@given(graphs())
def test_components_partition_vertices(g):
    comps = connected_components(g)
    seen = [v for c in comps for v in c]
    assert sorted(seen) == list(range(g.n))


@given(graphs(), st.data())
def test_first_violation_reads_rows_and_id_keyed_dicts_alike(g, data):
    # the tree calculus passes dicts of sets whose keys need not be in id order
    members = data.draw(st.sets(st.integers(0, g.n - 1)))
    closed = data.draw(st.booleans())
    order = data.draw(st.permutations(range(g.n)))
    as_dict = {v: set(g.neighbors(v)) for v in order}
    assert first_violation(as_dict, members, closed) == first_violation(g._adj, members, closed)
