"""Exact search for ECD / EOD sets and EOCD certificates.

ECD sets (perfect codes) are exact covers of the vertex set by closed
neighborhoods; EOD sets are exact covers by open neighborhoods.  Every
search runs through one exact-cover core, `_covers`: Algorithm X after
Knuth's "Dancing Links" (arXiv cs/0011047), iterative with its own frame
stack, so search depth is not bounded by Python's recursion limit.  It
keeps a live-row count per column, picks from the first uncovered column
with at most one live row, else from the one with the fewest (ties by
smallest id), and tries rows in index order, so results are
deterministic.  A min-heap of the columns whose count fell to one finds
that column without a walk over the columns with more rows, so a forced
pick (paths, trees) costs O(log n), and only a column with two or more
live rows opens a frame: a forced pick rides on the frame below and is
undone with its pick; `stats` records the effort.  The core takes its
column index from the caller: neighborhoods are symmetric, so the EOD
search passes the graph's own neighbor tuples as both rows and index,
and the ECD search the tuples N(v) + (v,), with no second copy of the
adjacency.

`find_eod` and `find_ecd` take the first cover by open or closed
neighborhoods.  `find_eocd` answers EMPTY_P_MINUS_D with the linear
`recognize_empty_pd`: a certificate with P inside D is forced (P the
supports of leaves, D = P plus one leaf each), so it only has to be
checked.  EMPTY_INTERSECTION searches D and P jointly, one connected
component at a time: each vertex has a D row and a P row that share a
secondary "center" column.  Deciding EOCD is NP-complete, so ANY and
EMPTY_INTERSECTION stay exponential in the worst case.

gamma and gamma_t are exact sums over the components: one pass of the
linear tree DP over g's own rows serves every tree component, and a
stack-based search up from a packing bound serves each of the others.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import filterfalse
from operator import add
from typing import Iterator

from .graph import (
    Graph,
    VertexSet,
    certificate_violations,
    connected_components,
    first_violation,
    hit_counts,
)
from .trees import min_tree_cover


class SearchMode(enum.Enum):
    ANY = "any"
    EMPTY_INTERSECTION = "empty-dp"  # require D and P disjoint
    EMPTY_P_MINUS_D = "empty-pd"     # require P a subset of D


class IsolatedVertexError(ValueError):
    """gamma_t is undefined on graphs with isolated vertices."""


class InvalidCertificateError(ValueError):
    pass


def is_ecd_set(g: Graph, p) -> bool:
    """True iff the closed neighborhoods of p partition V(G)."""
    return first_violation(g._adj, p, closed=True) is None


def is_eod_set(g: Graph, d) -> bool:
    """True iff the open neighborhoods of d partition V(G)."""
    return first_violation(g._adj, d, closed=False) is None


def _covers(n_primary: int, rows, col_rows, stats: dict | None = None) -> Iterator[list[int]]:
    """Exact covers of columns 0..n_primary-1 by `rows`, as row-index lists.

    Each row is a sequence of distinct column ids below len(col_rows), and
    `col_rows[c]` holds the rows that contain column c, in any order.  A
    symmetric system can pass one object as both: the open neighborhoods
    N(v), and the closed ones N[v], are their own column index.  Primary
    columns (ids below n_primary) must be covered exactly once; the others
    are secondary and may be covered at most once.  Algorithm X with a
    frame stack instead of recursion: every column keeps its count of live
    rows, and the live primary columns form a doubly linked list in id
    order.  Each node picks from the first live primary column with at
    most one live row or, if there is none, from the one with the fewest
    (ties to the smallest id), and tries its live rows in increasing row
    index, so the covers come out in a fixed order.  Only a column with
    two or more live rows opens a frame (which sorts that column); a
    column with one is a forced pick, made inline, and rides on the frame
    below.  A take-back undoes the frame's pick with its forced tail: it
    restores the rows killed since the frame at once, relinks the picks'
    primary columns last pick first, and empties the heap.

    `ones` is a min-heap of primary column ids that finds the column to
    pick from without a walk from the head.  It starts with the primary
    columns of at most one row, and a kill that brings a linked primary
    column down to one row pushes it.  The choice pops entries until it
    reaches a linked column: its count is 0 (a dead end) or 1 (a forced
    pick), and it is the smallest live primary column with at most one
    row.  Counts only fall and columns only unlink between take-backs, so
    each column is pushed at most once, and a popped column that is no
    longer linked is stale and dropped.  Only when the heap holds no
    linked column does a walk from the head stop at the first column with
    two rows, or else take the fewest.  A frame opens only where no live
    primary column has fewer than two rows, so a take-back, which restores
    a frame's state, empties the heap.  A forced pick then costs O(log n)
    however many columns with more rows come before it.

    If `stats` is a dict, it is filled in whenever a cover is yielded and
    when the search ends: `nodes` (partial covers visited), `backtracks`
    (picks taken back, forced ones included, and the end of the search
    takes back the picks forced before any frame), `max_depth` (most rows
    in a partial cover) and `scanned` (heap entries popped, stale ones
    included, plus columns walked from the head).
    """
    n_cols = len(col_rows)
    count = list(map(len, col_rows))
    head = n_cols   # above every column id; count[head] = 0 ends a walk round the list
    count.append(0)
    nxt = [*range(1, n_cols + 1), 0]
    prv = [head, *range(n_cols)]
    if n_primary < n_cols:   # only the primary columns are linked
        last = n_primary - 1 if n_primary else head
        nxt[last], prv[head] = head, last
    ones = [c for c in range(n_primary) if count[c] < 2]   # ascending: already a heap
    live = [True] * len(rows)
    killed: list[int] = []   # rows made dead by the current picks, in order
    kill = killed.append
    chosen: list[int] = []   # the rows picked, branching and forced
    # frames: [the column's rows in increasing index, the next index into
    # them, then len(killed) and len(chosen) before its pick]; the rowless
    # root takes back the picks forced before the first frame
    stack: list[list] = [[(), 0, 0, 0]]
    backtracks = max_depth = scanned = 0
    while True:
        if nxt[head] == head:
            if stats is not None:
                _fill(stats, backtracks, max_depth, chosen, scanned)
            yield list(chosen)
            fewest = 0
        else:
            while ones:   # the smallest linked entry, if any, is the column to pick from
                best = heappop(ones)
                scanned += 1
                if nxt[prv[best]] == best:
                    fewest = count[best]
                    break
            else:   # no live column with at most one row: the first with two, else the fewest
                best, fewest = head, len(rows) + 1
                c = nxt[head]
                while True:
                    k = count[c]
                    if k < fewest:
                        if c == head:
                            break
                        scanned += 1
                        best, fewest = c, k
                        if k == 2:
                            break
                    else:
                        scanned += 1
                    c = nxt[c]
        if fewest == 1:   # forced: its one live row is picked with no frame
            for r in col_rows[best]:
                if live[r]:
                    break
        else:
            if fewest:
                stack.append([sorted(col_rows[best]), 0, len(killed), len(chosen)])
            while True:
                if not stack:
                    if stats is not None:
                        _fill(stats, backtracks, max_depth, chosen, scanned)
                    return
                frame = stack[-1]
                rs, i, mark, depth = frame
                if len(chosen) > depth:   # take back the frame's pick and its forced tail
                    backtracks += len(chosen) - depth
                    if len(chosen) > max_depth:
                        max_depth = len(chosen)
                    for r2 in killed[mark:]:   # in any order: each only adds back
                        live[r2] = True
                        for c2 in rows[r2]:
                            count[c2] += 1
                    del killed[mark:]
                    while len(chosen) > depth:   # the last pick first
                        for c2 in reversed(rows[chosen.pop()]):
                            if c2 < n_primary:
                                nxt[prv[c2]] = c2
                                prv[nxt[c2]] = c2
                    ones.clear()   # the frame opened with no live column of count 0 or 1
                end = len(rs)
                while i < end and not live[rs[i]]:
                    i += 1
                if i < end:
                    break
                stack.pop()
            r = rs[i]
            frame[1] = i + 1
        chosen.append(r)
        picked = rows[r]
        for c2 in picked:
            if c2 < n_primary:
                a, b = prv[c2], nxt[c2]
                nxt[a] = b
                prv[b] = a
        for c2 in picked:
            for r2 in col_rows[c2]:
                if live[r2]:
                    live[r2] = False
                    kill(r2)
                    for c3 in rows[r2]:
                        k = count[c3] - 1
                        count[c3] = k
                        if k == 1 and c3 < n_primary and nxt[prv[c3]] == c3:
                            heappush(ones, c3)


def _column_index(n_cols: int, rows) -> list[list[int]]:
    """The rows that contain each of the columns 0..n_cols-1, for a row
    system that is not its own column index."""
    col_rows: list[list[int]] = [[] for _ in range(n_cols)]
    for r, cols in enumerate(rows):
        for c in cols:
            col_rows[c].append(r)
    return col_rows


def _fill(stats: dict, backtracks: int, max_depth: int, chosen: list, scanned: int) -> None:
    """`_covers`' statistics: each pick opens one node, and is taken back
    or still chosen."""
    stats.update(nodes=1 + backtracks + len(chosen), backtracks=backtracks,
                 max_depth=max(max_depth, len(chosen)), scanned=scanned)


def iter_efficient_sets(g: Graph, closed: bool, stats: dict | None = None) -> Iterator[VertexSet]:
    """Every ECD set (closed) or EOD set (open) of g, in a fixed order;
    `stats` receives the search statistics of `_covers`.  Neighborhoods
    are symmetric (w in N(v) iff v in N(w), and the same for N[.]), so the
    rows are their own column index."""
    rows = list(map(add, g._adj, zip(range(g.n)))) if closed else g._adj
    for sol in _covers(g.n, rows, rows, stats):
        yield frozenset(sol)


def find_ecd(g: Graph) -> VertexSet | None:
    return next(iter_efficient_sets(g, closed=True), None)


def find_eod(g: Graph) -> VertexSet | None:
    return next(iter_efficient_sets(g, closed=False), None)


@dataclass(frozen=True)
class EocdCertificate:
    """A pair (D, P) witnessing that a graph is an EOCD graph.

    D is an EOD set, P an ECD set; the derived four-way partition
    (D&P, D-P, P-D, R) drives the structure checks.
    """

    n: int
    d: VertexSet
    p: VertexSet

    @property
    def dp(self) -> VertexSet:
        return self.d & self.p

    @property
    def d_only(self) -> VertexSet:
        return self.d - self.p

    @property
    def p_only(self) -> VertexSet:
        return self.p - self.d

    @property
    def r(self) -> VertexSet:
        return frozenset(range(self.n)) - (self.d | self.p)

    def validate(self, g: Graph) -> None:
        if g.n != self.n:
            raise InvalidCertificateError(f"certificate is for n={self.n}, graph has n={g.n}")
        for name, kind, problem in certificate_violations(g._adj, self.d, self.p):
            if problem:
                raise InvalidCertificateError(f"{name} is not an {kind} set: {problem}")

    def to_record(self) -> dict:
        """Machine-readable form with sorted vertex-id arrays."""
        d, p = sorted(self.d), sorted(self.p)
        in_p = self.p.__contains__
        return {
            "D": d,
            "P": p,
            "dp": list(filter(in_p, d)),
            "d_only": list(filterfalse(in_p, d)),
            "p_only": list(filterfalse(self.d.__contains__, p)),
            "r": list(filterfalse((self.d | self.p).__contains__, range(self.n))),
        }


def _nested_candidate(g: Graph) -> tuple[set[int], set[int]]:
    """The only (D, P) pair with P inside D that g can have, unchecked.

    Every K2 component carries D = both vertices and P = its smaller
    vertex; elsewhere P must be the set of supports of leaves, and D is P
    plus one leaf per support (the smallest).
    """
    d: set[int] = set()
    p: set[int] = set()
    adj = g._adj
    for v, row in enumerate(adj):   # ascending, so each support takes its smallest leaf
        if len(row) != 1:
            continue
        (s,) = row
        if len(adj[s]) == 1:   # v and s form a K2 component
            if v < s:
                d.update((v, s))
                p.add(v)
        elif s not in p:
            p.add(s)
            d.update((s, v))
    return d, p


def recognize_empty_pd(g: Graph) -> EocdCertificate | None:
    """Decide in O(n + m) whether g is an EOCD graph with empty P-D.

    Accepts iff the forced candidate's P is an ECD set; by the
    characterization, P is then an ECD set exactly when D is an EOD set.
    """
    d, p = _nested_candidate(g)
    if not is_ecd_set(g, p):
        return None
    return EocdCertificate(g.n, frozenset(d), frozenset(p))


def find_eocd(g: Graph, mode: SearchMode = SearchMode.ANY) -> EocdCertificate | None:
    """Search for an EOCD certificate under the given mode.

    In ANY mode D and P are independent (EOCD = EOD and ECD), so the
    first EOD set and the first ECD set are searched separately.
    EMPTY_P_MINUS_D is `recognize_empty_pd`, linear.  EMPTY_INTERSECTION
    searches D and P jointly, one connected component at a time, since
    G's certificates are the unions of its components'.  A component's
    cover has two primary columns per vertex v, "v covered once by D's
    open neighborhoods" and "v covered once by P's closed neighborhoods",
    and two rows per vertex: row 2i puts the i-th vertex in D (covers
    N(v)), row 2i + 1 puts it in P (covers N[v]).  Both share a secondary
    "center v" column, so at most one of them is picked and D and P stay
    disjoint.  The search is iterative, so its depth is not bounded by
    Python's recursion limit, but it stays exponential in the worst case.
    `mode` is a SearchMode or its value; any other raises ValueError.
    """
    mode = SearchMode(mode)
    if mode is SearchMode.EMPTY_P_MINUS_D:
        return recognize_empty_pd(g)
    if mode is SearchMode.ANY:
        d = find_eod(g)
        if d is None:
            return None
        p = find_ecd(g)
        if p is None:
            return None
        return EocdCertificate(g.n, d, p)
    d_set: list[int] = []
    p_set: list[int] = []
    for comp in connected_components(g):
        verts = sorted(comp)
        k = len(verts)
        local = {v: i for i, v in enumerate(verts)}
        rows = []
        for i, v in enumerate(verts):
            opened = [local[w] for w in g.neighbors(v)]
            center = 2 * k + i
            rows.append(opened + [center])
            rows.append([k + j for j in opened] + [k + i, center])
        sol = next(_covers(2 * k, rows, _column_index(3 * k, rows)), None)
        if sol is None:
            return None
        for r in sol:
            (p_set if r % 2 else d_set).append(verts[r // 2])
    return EocdCertificate(g.n, frozenset(d_set), frozenset(p_set))


def _min_cover_size(g: Graph, verts, closed: bool) -> int:
    """The fewest vertices whose open or closed neighborhoods cover the
    component `verts` of g, which has a cycle; exact, exponential at worst.

    The supports (neighbors of leaves) are taken first: each lies in every
    total dominating set, and a leaf in a dominating set can be swapped
    for its support.  Deepening on the number of further vertices starts
    at a packing bound: uncovered vertices with pairwise disjoint sets of
    coverers need one each.  Bits are numbered by (number of coverers,
    id), so the depth-first search, run from an explicit stack, branches
    on the lowest uncovered bit, tries its coverers by how much they
    cover, most first, and drops a state with more uncovered vertices
    than the vertices left to pick times the largest neighborhood.
    """
    adj = g._adj
    rank = sorted(verts, key=lambda v: (len(adj[v]), v))
    bit = {v: 1 << i for i, v in enumerate(rank)}
    nbhd = {v: (*adj[v], v) if closed else adj[v] for v in rank}
    mask = {v: sum(map(bit.__getitem__, nbhd[v])) for v in rank}
    coverers = [[mask[w] for w in nbhd[v]] for v in rank]   # nbhd is symmetric
    forced = {w for v in rank if len(adj[v]) == 1 for w in adj[v]}
    start = 0
    for w in forced:
        start |= mask[w]
    bound, used = 0, set()
    for v in rank:
        if not start & bit[v] and used.isdisjoint(nbhd[v]):
            used.update(nbhd[v])
            bound += 1
    full = (1 << len(rank)) - 1
    widest = max(len(nb) for nb in nbhd.values())
    k = bound
    while True:
        stack = [(start, k)]
        while stack:
            covered, left = stack.pop()
            missing = full ^ covered
            if not missing:
                return len(forced) + k
            if missing.bit_count() > left * widest:
                continue
            v = (missing & -missing).bit_length() - 1
            # pushed last, popped first: the coverer that covers the most
            stack.extend((covered | m, left - 1) for m in
                         sorted(coverers[v], key=lambda m: (m & missing).bit_count()))
        k += 1


def _domination_number(g: Graph, closed: bool) -> int:
    """gamma (closed) or gamma_t (open) as a sum over the components: all
    trees by one pass of the linear `min_tree_cover` over g's rows, each
    tree rooted at any of its vertices, the others by `_min_cover_size`."""
    adj = g._adj
    total, roots = 0, []
    for comp in connected_components(g):
        if sum(map(len, map(adj.__getitem__, comp))) == 2 * len(comp) - 2:
            roots.append(next(iter(comp)))
        else:
            total += _min_cover_size(g, comp, closed)
    return total + min_tree_cover(adj, roots, closed)


def gamma(g: Graph) -> int:
    """The domination number, computed exactly."""
    return _domination_number(g, closed=True)


def gamma_t(g: Graph) -> int:
    """The total domination number; errors out on isolated vertices."""
    if () in g._adj:   # rows are tuples
        raise IsolatedVertexError(f"vertex {g._adj.index(())} is isolated; gamma_t is undefined")
    return _domination_number(g, closed=False)


@dataclass
class StructureReport:
    """Pass/fail per structural rule of the four-way partition."""

    checks: list[tuple[str, bool, str]]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _p4_middles(adj, s) -> list[int] | None:
    """The degree-2 vertices of <s>, the subgraph of the rows `adj` induced
    by the vertex set s, if <s> is a disjoint union of P4s; else None.

    <s> is kP4 iff every vertex of s has 1 or 2 neighbors in s and exactly
    one among the degree-2 vertices M of <s>: then each vertex of M has one
    neighbor in M and one leaf of <s>, whose only neighbor it is, so M
    pairs up and each pair has one leaf on either side.
    """
    deg = hit_counts(adj, s)
    middles = [v for v in s if deg[v] == 2]
    mid = hit_counts(adj, middles)
    return middles if all(deg[v] <= 2 and mid[v] == 1 for v in s) else None


def classify_partition(g: Graph, cert: EocdCertificate) -> StructureReport:
    """Check every structural rule the partition (D&P, D-P, P-D, R) must obey.

    The rules read the `hit_counts` n_dp, n_do, n_po of D&P, D-P and P-D.
    As D is EOD, a(v) = n_dp + n_do = 1, and as P is ECD, b(v) = n_dp +
    n_po + [v in P] = 1: a vertex of P has n_dp = n_po = 0 and n_do = 1,
    any other either n_dp = 1 alone or n_po = n_do = 1.  So the D-P
    partner of a D&P vertex has its one D neighbor there, and a P-D vertex,
    its D-P partner, that one's D-P partner and its P-D neighbor make a
    P4.  A rule failing on the validated certificate is a fault in eocd.
    """
    cert.validate(g)
    adj, dp, d_only, p_only = g._adj, cert.dp, cert.d_only, cert.p_only
    n_dp, n_do, n_po = (hit_counts(adj, part) for part in (dp, d_only, p_only))

    def either_way(v):
        return (n_po[v] == 1 and n_do[v] == 1 and n_dp[v] == 0
                or n_dp[v] == 1 and n_po[v] == 0 and n_do[v] == 0)

    two_way = "(one P-D and one D-P neighbor) or one D&P neighbor"
    checks = []
    for name, part, ok in (
            ("dp-vertices: one D-P neighbor, no P-D neighbors", dp,
             lambda v: n_do[v] == 1 and n_po[v] == 0),
            ("p-only vertices: one D-P neighbor, no D&P neighbors", p_only,
             lambda v: n_do[v] == 1 and n_dp[v] == 0),
            (f"d-only vertices: {two_way}", d_only, either_way),
            (f"R vertices: {two_way}", cert.r, either_way)):
        bad = min(filterfalse(ok, part), default=None)
        checks.append((name, bad is None, "" if bad is None else f"counterexample vertex {bad}"))

    matched = dp | {w for w in d_only if n_dp[w]}
    in_matched = hit_counts(adj, matched)
    ok = all(in_matched[v] == 1 for v in matched)
    checks.append(("D&P with their D-P partners induce a matching", ok,
                   "" if ok else "induced subgraph is not a perfect matching"))
    four = p_only | {w for w in d_only if n_po[w]}
    ok4 = _p4_middles(adj, four) is not None and 2 * (len(four) // 4) == len(p_only)
    checks.append(("P-D with their D-P partners induce k copies of P4, 2k = |P-D|",
                   ok4, "" if ok4 else f"induced subgraph on {len(four)} vertices is not kP4"))
    return StructureReport(checks)


def check_empty_dp_characterization(g: Graph, a) -> bool:
    """Characterization of EOCD graphs with disjoint D and P.

    <A> must be a disjoint union of P4s, and every vertex outside A must
    be adjacent to exactly one degree-1 vertex of <A> and exactly one
    degree-2 vertex of <A>.  An id outside the graph raises GraphError.
    """
    adj, a = g._adj, frozenset(a)
    middles = _p4_middles(adj, a)
    if middles is None:
        return False
    ends = hit_counts(adj, a.difference(middles))
    mids = hit_counts(adj, middles)
    return all(ends[v] == 1 and mids[v] == 1 for v in range(g.n) if v not in a)


def check_empty_pd_characterization(g: Graph, d) -> bool:
    """Characterization of EOCD graphs with P contained in D.

    <D> must be a perfect matching on D, every matching edge must contain
    a vertex of degree 1 in G, and every outside vertex must be adjacent
    to exactly one matched vertex, namely the designated P-endpoint.  An
    id outside the graph raises GraphError.

    So every vertex has one neighbor in D, and the P-endpoints (an edge's
    vertex of degree above 1, else its smaller) form an ECD set: an edge
    with no leaf would put both its ends in each end's closed neighborhood.
    """
    adj, d = g._adj, frozenset(d)
    if hit_counts(adj, d).count(1) != g.n:
        return False
    # a leaf of G in D is matched to its one neighbor
    p_end = [v for v in d if len(adj[v]) > 1 or len(adj[adj[v][0]]) == 1 and v < adj[v][0]]
    return hit_counts(adj, p_end, closed=True).count(1) == g.n
