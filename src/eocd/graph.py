"""Simple undirected graphs with dense integer vertices.

Vertices are always 0..n-1.  Adjacency is stored as sorted tuples, all
iteration orders are deterministic, and graphs are immutable after
construction; transforms return new graphs together with vertex maps.
Named constructions (Sierpinski digit strings, reduction gadget names)
carry a separate label map.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Mapping

VertexSet = frozenset  # subsets of 0..n-1, interpreted against a graph


class GraphError(ValueError):
    """Raised for malformed graph input (bad endpoint, self-loop, ...)."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Mapping[int, str] | None = None):
        if type(n) is not int or n < 0:   # vertex ids are ints; bools are refused
            raise GraphError(f"vertex count must be an int >= 0, got {n!r}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            adj[u].add(v)
            adj[v].add(u)
        for v, name in (labels or {}).items():
            if type(v) is not int or not (0 <= v < n):
                raise GraphError(f"label for unknown vertex {v!r}")
            if not isinstance(name, str) or name.split() != [name] or "#" in name:
                raise GraphError(f"label {name!r} of vertex {v} is not one token without '#'")
        self._fill(n, tuple(tuple(sorted(s)) for s in adj), labels)

    @classmethod
    def _of(cls, n: int, adj: tuple[tuple[int, ...], ...], labels=None) -> Graph:
        """The graph whose vertex v has the neighbors adj[v], unchecked.

        `adj` must be sorted tuples on 0..n-1, symmetric and loop-free;
        callers build it in O(n + m) from input they have checked.
        """
        g = cls.__new__(cls)
        g._fill(n, adj, labels)
        return g

    def _fill(self, n: int, adj: tuple[tuple[int, ...], ...], labels) -> None:
        self.n = n
        self._adj = adj
        self.labels: dict[int, str] = dict(labels) if labels else {}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def hit_counts(adj, members, closed: bool = False) -> list[int]:
    """How often the open (closed=False) or closed neighborhoods of the set
    `members` hit each vertex of 0..n-1, n = len(adj), in a list indexed by
    vertex id, counted in O(n + m); adj[v] holds the neighbors of v (a
    `Graph`'s rows, or a dict of sets keyed by 0..n-1).  A member outside
    0..n-1 raises GraphError.
    """
    n = len(adj)
    hits = [0] * n
    for x in members:
        if not (type(x) is int and 0 <= x < n):   # bools are refused, as in Graph
            raise GraphError(f"vertex {x!r} is not in the graph")
        for w in adj[x]:
            hits[w] += 1
        if closed:
            hits[x] += 1
    return hits


def first_violation(adj, members, closed: bool):
    """The smallest vertex that the `hit_counts` of `members` hit other
    than once, with the sorted list of the members whose neighborhoods hit
    it; None if the neighborhoods partition the vertices.
    """
    members = frozenset(members)
    hits = hit_counts(adj, members, closed)
    if hits.count(1) == len(adj):
        return None
    x = next(x for x, k in enumerate(hits) if k != 1)
    via = [w for w in adj[x] if w in members]
    if closed and x in members:
        via.append(x)
    return x, sorted(via)


def describe_violation(x, via: list, name: str) -> str:
    """One line on a `first_violation` result for the set called `name`."""
    if not via:
        return f"vertex {x} is uncovered by {name}"
    return f"vertex {x} is doubly covered by {name} (via {via[0]} and {via[1]})"


def certificate_violations(adj, d, p) -> Iterator[tuple[str, str, str | None]]:
    """Check D as an EOD set, then P as an ECD set of the rows `adj`, by
    `first_violation`.

    Yields (name, kind, problem) for "D", "EOD" and then "P", "ECD", where
    problem is the `describe_violation` line, or None if the set is valid.
    A caller that stops at the first problem leaves P unchecked.
    """
    for name, kind, members, closed in (("D", "EOD", d, False), ("P", "ECD", p, True)):
        bad = first_violation(adj, members, closed)
        yield name, kind, None if bad is None else describe_violation(*bad, name)


def connected_components(g: Graph) -> list[VertexSet]:
    """Partition of the vertices into components, ordered by minimum member."""
    adj = g._adj
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:   # grows while it is read: breadth first from s
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and len(connected_components(g)) == 1


def contract_edges(g: Graph, matching: list[tuple[int, int]]) -> tuple[Graph, list[int]]:
    """Contract a matching; each edge must lie in no triangle.

    Returns the contracted graph and the total, surjective map from old
    vertex ids to new ones, as a list indexed by old id.  The two endpoints
    of a matched edge map to the new id of the smaller one; the other new
    ids follow the old order.
    The contracted adjacency is built directly in O(n + m): each old
    neighbor tuple is mapped through the vertex map and re-sorted only if
    it names a merged end, and each matched pair merges its two tuples.
    """
    adj = g._adj
    touched: set[int] = set()
    for u, v in matching:
        if not (type(u) is int and type(v) is int and 0 <= u < g.n and g.has_edge(u, v)):
            raise GraphError(f"({u}, {v}) is not an edge")
        if u in touched or v in touched:
            raise GraphError(f"({u}, {v}) shares an endpoint with another matching edge")
        touched.update((u, v))
        if not set(adj[u]).isdisjoint(adj[v]):
            raise GraphError(f"edge ({u}, {v}) lies in a triangle")
    keep = [True] * g.n   # False at the larger end of each matched edge
    for u, v in matching:
        keep[max(u, v)] = False
    vmap = [0] * g.n
    for i, v in enumerate(compress(range(g.n), keep)):
        vmap[v] = i
    for u, v in matching:
        vmap[max(u, v)] = vmap[min(u, v)]
    new = vmap.__getitem__   # increasing on the kept vertices
    rows = [tuple(map(new, adj[v])) for v in compress(range(g.n), keep)]
    for i in {new(x) for u, v in matching for x in adj[max(u, v)] if x != min(u, v)}:
        rows[i] = tuple(sorted(rows[i]))   # names a merged end; the pair's own row is merged below
    for u, v in matching:   # merged neighbors of u and v may coincide
        merged = set(map(new, adj[u]))
        merged.update(map(new, adj[v]))
        merged.discard(new(u))
        rows[new(u)] = tuple(sorted(merged))
    return Graph._of(len(rows), tuple(rows)), vmap


def dump_edge_list(g: Graph) -> str:
    """Edge-list text: `n m` header, one `u v` line per edge, then labels."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, row in enumerate(g._adj) for v in row if u < v]
    lines.extend(f"L {v} {g.labels[v]}" for v in sorted(g.labels))
    return "\n".join(lines) + "\n"


def text_lines(source: str | Iterable[str]) -> Iterable[str]:
    """The lines of `source`, a text or an iterable of lines.

    A str is split where a file opened in text mode is, at line feeds,
    carriage returns and CR LF pairs only.  Any other iterable, such as an
    open text file, is returned as it is, so the caller reads it one line
    at a time.
    """
    if not isinstance(source, str):
        return source
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = source.split("\n")
    if not lines[-1]:   # the text's last line end, or an empty text
        lines.pop()
    return lines


def parse_edge_list(source: str | Iterable[str], max_vertices: int | None = None) -> Graph:
    """Parse the edge-list format; `#` starts a comment, `L v name` sets a label.

    `source` is the text or an iterable of its lines (an open file).  Every
    error names the 1-based line it is about.  A repeated edge, or a second
    label for one vertex, is an error.  A header with more than `max_vertices`
    vertices is rejected before anything is allocated.

    Two readers give the same graph or the same message on every input.
    A str that is exactly what `dump_edge_list` writes for an unlabelled
    graph is read in bulk by `_parse_dump`, at 0.5-0.8 µs per edge line
    (Python 3.11 on a Xeon); it declines any other str, or one that fails
    a check, and the line reader runs.  The line reader reads every file
    or iterable one line at a time, splits each line into tokens, and
    reads nothing after a refused line.
    """
    if isinstance(source, str):
        g = _parse_dump(source, max_vertices)
        if g is not None:
            return g
    head = n = m = lineno = 0   # head: the header's line number, 0 until it is read
    labels = {}
    for lineno, raw in enumerate(text_lines(source), 1):
        tok = raw.partition("#")[0].split()
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
                adj, seen = [[] for _ in range(n)], set()   # seen: min*n+max per edge
                continue
            if tok[0] == "L":
                if len(tok) != 3:
                    raise GraphError("a label line is 'L v name'")
                v = int(tok[1])
                if not 0 <= v < n:
                    raise GraphError(f"label for unknown vertex {v}")
                if v in labels:
                    raise GraphError(f"label for vertex {v} repeats an earlier label")
                labels[v] = tok[2]
                continue
            if len(tok) != 2:
                raise GraphError("an edge line is 'u v'")
            u, v = int(tok[0]), int(tok[1])
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphError(f"edge ({u}, {v}) is a self-loop or leaves 0..{n - 1}")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise GraphError(f"edge ({u}, {v}) repeats an earlier edge")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        except ValueError as exc:   # GraphError, or int() on a non-integer
            raise GraphError(f"line {lineno}: {exc} in {' '.join(tok)!r}") from None
    if not head:
        raise GraphError(f"line {lineno + 1}: input ends before the header 'n m'")
    if len(seen) != m:
        raise GraphError(f"line {head}: header promises {m} edges, found {len(seen)}")
    for row in adj:   # every edge and label was checked on its line
        row.sort()
    return Graph._of(n, tuple(map(tuple, adj)), labels)


_NO_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))   # str.translate deletes these
_COMMAS = {ord(" "): ",", ord("\n"): ","}


def _parse_dump(text: str, max_vertices: int | None) -> Graph | None:
    """The graph of `text` if it is `dump_edge_list`'s form of an unlabelled
    graph and passes every check of the line reader, else None.

    The form is an `n m` header line, then m lines `u v`, with ASCII digits,
    one space and one LF each.  Deleting the digits in C must leave exactly
    " \\n" m times; the lengths are compared first, so a hostile m
    allocates nothing.  One json.loads then reads every id: JSON integers
    have no sign, `_` or leading zero, so `01` makes it raise and the text
    goes to the line reader.  The range, self-loop, repeat and count
    checks are the line reader's; a text that fails one is declined, and
    the line reader names the line.
    """
    head, _, body = text.partition("\n")
    n, _, m = head.partition(" ")
    if not (n.isascii() and n.isdigit() and m.isascii() and m.isdigit()):
        return None
    import json   # here, not at the top: the CLI reads files and never needs it
    try:
        n, m = int(n), int(m)   # int() refuses more than 4,300 digits
        seps = body.translate(_NO_DIGITS)
        if (max_vertices is not None and n > max_vertices or len(seps) != 2 * m
                or seps != " \n" * m or body and body[-1] != "\n"):
            return None
        ids = json.loads("[" + body[:-1].translate(_COMMAS) + "]")
    except ValueError:
        return None
    if ids and max(ids) >= n:
        return None
    adj = [[] for _ in range(n)]
    seen = set()   # min*n+max per edge
    add = seen.add
    it = iter(ids)
    for u, v in zip(it, it):
        if u < v:
            add(u * n + v)
        elif u > v:
            add(v * n + u)
        else:
            return None
        adj[u].append(v)
        adj[v].append(u)
    if len(seen) != m:   # a repeat
        return None
    for row in adj:
        row.sort()
    return Graph._of(n, tuple(map(tuple, adj)))
