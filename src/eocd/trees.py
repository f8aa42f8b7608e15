"""EOCD trees: the five-operation calculus over K2.

Every EOCD tree arises from K2 by a sequence of the local operations
O1-O5, each of which extends a certified tree (T, D, P) and updates the
certificate.  This module applies and replays such sequences, grows
random ones, and decomposes a certified tree into a sequence that replays
to the identical labeled tree.  One linear leaf-up DP (`_leaf_up`), run
for open and for closed neighborhoods, serves both tree questions: its
exact mode recognizes EOCD trees and its minimum mode gives gamma_t and
gamma, for all tree components of a graph in one pass.  Its tables are
lists indexed by vertex id, and it reads a `Graph`'s sorted rows, so a
tie between children goes to the smallest id.

The certificate is checked in full where it enters (`apply_step`,
`decompose`) and nowhere after.  Each operation's clauses keep it valid
(`_apply_labeled` gives the argument; a test applies every step they
accept to small certified graphs).  `decompose` peels by the paper's
case analysis; claim 7 replays its sequence for every certificate pair
of the trees up to 12 vertices and compares tree, D and P with the
input.  `is_eocd_tree` does not re-check the pair it reads off the DP;
claim 7 and the tests do.

Internally trees are adjacency dicts over arbitrary integer labels so
that decomposition can delete vertices without relabeling; the public
API speaks dense `Graph` values.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

from .graph import (
    Graph,
    VertexSet,
    certificate_violations,
    is_tree,
    text_lines,
)

OP_ARITY = {"O1": 1, "O2": 3, "O3": 5, "O4": 1, "O5": 1}
OP_ATTACH = {"O1": 1, "O2": 1, "O3": 1, "O4": 3, "O5": 6}
# Positions in `attach` of the old vertices whose P membership an operation
# toggles; no operation moves an old vertex into or out of D.
OP_FLIPS = {"O4": (0, 1), "O5": (1, 2, 4, 5)}


class OpPreconditionError(ValueError):
    """An operation's precondition failed; the message names the clause."""


class DecomposeError(RuntimeError):
    """The decomposition case analysis met a state it cannot justify.  Its
    input was checked first, so this is a fault in eocd, not in the input."""


@dataclass(frozen=True)
class TreeOpStep:
    op: str            # one of O1..O5
    attach: tuple      # existing vertices referenced by the operation
    new: tuple         # ids assigned to the added vertices, in operation order

    def __post_init__(self):
        if self.op not in OP_ARITY:
            raise OpPreconditionError(f"unknown operation {self.op!r}")
        if len(self.new) != OP_ARITY[self.op]:
            raise OpPreconditionError(
                f"{self.op} adds {OP_ARITY[self.op]} vertices, got {len(self.new)}")
        if len(self.attach) != OP_ATTACH[self.op]:
            raise OpPreconditionError(
                f"{self.op} references {OP_ATTACH[self.op]} vertices, got {len(self.attach)}")
        for x in (*self.attach, *self.new):
            if type(x) is not int:   # bools are refused, as in Graph
                raise OpPreconditionError(f"{self.op}: vertex ids must be ints, got "
                                          f"attach={self.attach!r} new={self.new!r}")


@dataclass
class TreeOpSequence:
    """A replayable construction history from a labeled K2."""

    steps: list[TreeOpStep] = field(default_factory=list)
    base: tuple[int, int] = (0, 1)   # vertices of the starting K2
    base_p: int = 0                  # the K2 vertex carrying the ECD set

    def serialize(self) -> str:
        lines = []
        if self.base != (0, 1) or self.base_p != 0:
            lines.append(f"K2 v={self.base[0]},{self.base[1]} p={self.base_p}")
        for s in self.steps:
            att = ",".join(map(str, s.attach))
            new = ",".join(map(str, s.new))
            lines.append(f"{s.op} attach={att} new={new}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, source: str | Iterable[str],
              max_vertices: int | None = None) -> "TreeOpSequence":
        """Read `serialize` output from its text or an iterable of its lines
        (an open file), one line at a time; errors name the offending line
        number.  A step that takes the tree (2 vertices plus each step's new
        ones) above `max_vertices` is refused on its line, before the next
        is read."""
        seq = cls()
        has_base = False
        vertices = 2
        lineno = 0
        for lineno, raw in enumerate(text_lines(source), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if tok[0] == "K2":
                    if has_base or seq.steps:
                        raise OpPreconditionError("K2 may appear once, before any step")
                    fields = _fields(tok[1:], ("v", "p"))
                    base, (base_p,) = _ids(fields, "v", 2), _ids(fields, "p", 1)
                    if base[0] == base[1] or base_p not in base:
                        raise OpPreconditionError(
                            "K2 needs two distinct vertices v=a,b and p=a or p=b")
                    seq.base, seq.base_p, has_base = base, base_p, True
                    continue
                if tok[0] not in OP_ARITY:
                    raise OpPreconditionError(f"unknown operation {tok[0]!r}")
                vertices += OP_ARITY[tok[0]]
                if max_vertices is not None and vertices > max_vertices:
                    raise OpPreconditionError(f"replayed tree has {vertices} vertices, "
                                              f"above --max-vertices {max_vertices}")
                fields = _fields(tok[1:], ("attach", "new"))
                seq.steps.append(TreeOpStep(tok[0], _ids(fields, "attach"), _ids(fields, "new")))
            except OpPreconditionError as exc:
                raise OpPreconditionError(f"line {lineno}: {exc} in {line!r}") from None
        if max_vertices is not None and vertices > max_vertices:   # no step: the K2 alone
            raise OpPreconditionError(f"line {lineno + 1}: replayed tree has 2 vertices, "
                                      f"above --max-vertices {max_vertices}")
        return seq


def _fields(tokens: list[str], keys: tuple[str, ...]) -> dict[str, str]:
    """The `key=value` tokens of a sequence line; each key exactly once."""
    fields: dict[str, str] = {}
    for t in tokens:
        key, eq, value = t.partition("=")
        if not eq or key not in keys or key in fields:
            raise OpPreconditionError(f"unexpected field {t!r}")
        fields[key] = value
    for key in keys:
        if key not in fields:
            raise OpPreconditionError(f"missing field {key}=")
    return fields


def _ids(fields: dict[str, str], key: str, count: int | None = None) -> tuple[int, ...]:
    try:
        ids = tuple(map(int, fields[key].split(",")))
    except ValueError:
        raise OpPreconditionError(
            f"{key}= expects comma-separated vertex ids, got {fields[key]!r}") from None
    if count is not None and len(ids) != count:
        raise OpPreconditionError(f"{key}= expects {count} vertex id(s), got {len(ids)}")
    return ids


# ---------------------------------------------------------------------------
# labeled-tree internals

def _check_cert(adj: dict, d: set, p: set, context: str) -> None:
    """The full check, on a tree whose labels are 0..n-1 (`_adj_of`)."""
    for _, _, problem in certificate_violations(adj, d, p):
        if problem:
            raise OpPreconditionError(f"{context}: {problem}")


def _require(cond: bool, op: str, clause: str) -> None:
    if not cond:
        raise OpPreconditionError(f"{op}: {clause}")


def _apply_labeled(adj: dict, d: set, p: set, step: TreeOpStep) -> tuple:
    """Apply one operation in place; raises on any violated clause.  Returns
    the anchor the new path hangs from, the new vertices and the P flips.

    The clauses keep a certificate (D, P) valid, on any graph.  New vertices
    are outside D and P unless the step puts them there, and "a: b, c" says
    that b is a's one D-neighbour and c the one P vertex of N[a]:
    - O1, v on u in D&P: v: u, u.
    - O2, x-u-v on w outside D; u, v into D; v into P if w is, else u.
      x: u and the P vertex of {w, u}; u: v and v: u, with that of {u, v}.
    - O3, z-w-x-u-v on t in D-P, u and x into D, v and w into P: z: t, w;
      w: x, w; x: u, w; u: x, v; v: u, v.
    - O4, the leaf v on u with N(u) = {v, x}, u and x in D, u in P; P moves
      from u to v and y hangs in P on x.  v and x are outside P, as N[u]
      holds u.  u: x, v; v: u, v; y: x, y; N[x] trades u for y.  x = v is
      refused: y would hang in P next to v in P.
    - O5, the walk u-x-w-z-w'-x' with leaves u, x', degree-2 x, w, w', all
      of u, x, w', x' in D and x, w' in P; P moves from x to w and from w'
      to x', and v hangs in P on u.  The certificate makes the six distinct,
      u, w, z, x' outside P and w, z outside D.  N[x] and N[w] trade x for
      w, N[u] x for v, N[w'] and N[x'] w' for x', N[z] w' for w; v: u, v.
    No other N[.] holds a vertex that entered or left P, and the anchor's
    new neighbour is outside D.
    """
    op, attach, new = step.op, step.attach, step.new
    for x in attach:
        _require(x in adj, op, f"attachment vertex {x} does not exist")
    for x in new:
        _require(x not in adj, op, f"new vertex {x} already exists")
    _require(len(set(new)) == len(new), op, "new vertex ids must be distinct")

    if op == "O1":
        (u,) = attach
        _require(u in d and u in p, op, f"{u} must lie in both D and P")
    elif op == "O2":
        (w,), (x, u, v) = attach, new
        _require(w not in d, op, f"{w} must not lie in D")
        d.update((u, v))
        p.add(v if w in p else u)
    elif op == "O3":
        (t,), (z, w, x, u, v) = attach, new
        _require(t in d and t not in p, op, f"{t} must lie in D and not in P")
        d.update((u, x))
        p.update((v, w))
    elif op == "O4":
        (v, u, x), (y,) = attach, new
        _require(adj[v] == {u}, op, f"{v} must be a leaf attached to {u}")
        _require(x != v and adj[u] == {v, x}, op,
                 f"{u} must have degree 2 with neighbors {v} and {x}")
        _require(u in d and x in d, op, f"{u} and {x} must lie in D")
        _require(u in p, op, f"{u} must lie in P")
        p.discard(u)
        p.update((v, y))
    elif op == "O5":
        (u, x, w, z, wp, xp), (v,) = attach, new
        for a, b in zip(attach, attach[1:]):
            _require(b in adj[a], op, f"{a}-{b} must be an edge of the path")
        _require(len(adj[u]) == 1 and len(adj[xp]) == 1, op,
                 f"{u} and {xp} must be leaves")
        for mid in (x, w, wp):
            _require(len(adj[mid]) == 2, op, f"{mid} must have degree 2")
        for m in (u, x, wp, xp):
            _require(m in d, op, f"{m} must lie in D")
        for m in (x, wp):
            _require(m in p, op, f"{m} must lie in P")
        p.difference_update((x, wp))
        p.update((v, xp, w))
    anchor = prev = attach[2] if op == "O4" else attach[0]
    for x in new:
        adj[x] = {prev}
        adj[prev].add(x)
        prev = x
    return (anchor, *new, *(attach[i] for i in OP_FLIPS.get(op, ())))


def _adj_of(g: Graph) -> dict:
    return {v: set(g.neighbors(v)) for v in range(g.n)}


def _graph_of(adj: dict) -> Graph:
    labels = sorted(adj)
    if labels != list(range(len(adj))):
        raise OpPreconditionError(
            "replayed tree labels are not dense 0..n-1; renumber the sequence")
    return Graph._of(len(labels), tuple(tuple(sorted(adj[v])) for v in labels))


def apply_step(t: Graph, d, p, step: TreeOpStep) -> tuple[Graph, VertexSet, VertexSet]:
    """Apply one operation to a certified tree; new ids must be t.n, t.n+1, ..."""
    expected = tuple(range(t.n, t.n + OP_ARITY[step.op]))
    if tuple(step.new) != expected:
        raise OpPreconditionError(
            f"{step.op}: new vertex ids must be {expected}, got {step.new}")
    adj, ds, ps = _adj_of(t), set(d), set(p)
    _check_cert(adj, ds, ps, "input certificate")
    _apply_labeled(adj, ds, ps, step)
    return _graph_of(adj), frozenset(ds), frozenset(ps)


def replay(seq: TreeOpSequence) -> tuple[Graph, VertexSet, VertexSet]:
    """Rebuild the labeled tree and certificate described by a sequence; a
    refused step is named by its 1-based index in `seq.steps`."""
    a, b = seq.base
    if a == b:
        raise OpPreconditionError(f"base vertices {a} and {b} must differ")
    if seq.base_p not in (a, b):
        raise OpPreconditionError(f"base P vertex {seq.base_p} is not a base vertex")
    adj = {a: {b}, b: {a}}
    d, p = {a, b}, {seq.base_p}
    for k, step in enumerate(seq.steps, 1):
        try:
            _apply_labeled(adj, d, p, step)
        except OpPreconditionError as exc:
            raise OpPreconditionError(f"step {k}: {exc}") from None
    return _graph_of(adj), frozenset(d), frozenset(p)


# ---------------------------------------------------------------------------
# one leaf-up DP: efficient sets (is_eocd_tree) and fewest covers (gamma, gamma_t)

def _leaf_up(adj, roots, closed: bool, exact: bool) -> tuple[list, list, tuple, tuple]:
    """The leaf-up DP over the trees of `adj` holding `roots`, one each,
    for a set S whose open (closed=False) or closed neighborhoods cover them.

    The state of x is (s, need): s = x lies in S, need = x's parent lies in
    S, which then covers x.  Every child of x has need = s, and
    k = 1 - [closed and s] - need children must lie in S: exactly k, with
    every other child outside S, when `exact` (the neighborhoods partition
    the tree, so k must be 0 or 1), or at least k otherwise.  A state costs
    the fewest vertices of S in the subtree of x, above len(adj) if
    infeasible, but for the exact closed state (1, 1), which no state
    reads.  One pass takes all trees, children before parents, over lists
    indexed by id: t_s[x] is s plus the costs of x's children with need = s
    (outside S if `exact`, else the cheaper), l_s[x] the least extra cost
    of lifting one into S, pick[s][x] that child, the first cheapest in
    `adj[x]`'s order.  The roots hang from a spare slot n outside S.
    Returns the breadth-first order from the roots, the parents (n at a
    root), slot n's cost with no root lifted (in the minimum mode, the sum
    over the trees) and with one, and pick.
    """
    n, order = len(adj), list(roots)
    parent = [n] * n
    for x in order:   # grows while it is read: breadth first from the roots
        px = parent[x]
        for w in adj[x]:
            if w != px:
                parent[w] = x
                order.append(w)
    # costs of at least inf are infeasible; inf is finite, so lifting the one
    # child that cannot stay outside S cancels its cost without inf - inf
    inf = 2 * n + 1
    t0, t1, l0, l1 = [0] * (n + 1), [1] * (n + 1), [inf] * (n + 1), [inf] * (n + 1)
    pick = p0, p1 = [-1] * (n + 1), [-1] * (n + 1)
    for y in reversed(order):   # x's children arrive last first, so ties go to the last
        x = parent[y]
        out1, into1 = t0[y], t1[y]   # y outside S, in S, with x in S
        out0 = out1 + l0[y]          # the same with x outside S
        into0 = into1 if closed else into1 + l1[y]
        if not exact:
            out0, out1 = min(out0, into0), min(out1, into1)
        t0[x] += out0
        if into0 - out0 <= l0[x]:
            l0[x], p0[x] = into0 - out0, y
        t1[x] += out1
        if into1 - out1 <= l1[x]:
            l1[x], p1[x] = into1 - out1, y
    return order, parent, (t0[n], t0[n] + l0[n]), pick


def min_tree_cover(adj, roots, closed: bool) -> int:
    """The fewest vertices whose open (closed=False) or closed neighborhoods
    cover the trees of `adj` that hold `roots`: the sum of their gamma_t or
    gamma, from one linear pass of `_leaf_up`'s minimum mode over them."""
    return _leaf_up(adj, roots, closed, exact=False)[2][0]


def is_eocd_tree(t: Graph) -> tuple[VertexSet, VertexSet] | None:
    """A valid (D, P) pair for the tree, or None if it admits none.

    D and P are read off `_leaf_up`'s exact tables for open and closed
    neighborhoods, rooted at 0, parents before children.  Efficient sets
    all have one size, so every feasible choice costs the same; a tie at
    the root puts 0 in the set, and a state lifts the first cheapest child
    in id order (the sorted rows `t._adj`).
    """
    if not is_tree(t):
        raise ValueError("input is not a tree")
    codes = []
    for closed in (False, True):
        order, parent, (out, into), pick = _leaf_up(t._adj, (0,), closed, exact=True)
        if min(out, into) > t.n:
            return None
        code = bytearray(t.n + 1)   # code[n], the root's spare parent, stays outside S
        code[0] = into <= out
        for x in order:   # a state with k = 1 puts its picked child in S
            s = code[x]
            if not (closed and s or code[parent[x]]):
                code[pick[s][x]] = 1
        codes.append(frozenset(compress(range(t.n), code)))
    return tuple(codes)


# ---------------------------------------------------------------------------
# decomposition

def _depths(adj: dict, root) -> dict:
    """The depth below root of every vertex of the tree `adj`."""
    depth, order = {root: 0}, [root]
    for x in order:   # grows while it is read
        for w in adj[x]:
            if w not in depth:
                depth[w] = depth[x] + 1
                order.append(w)
    return depth


def _deepest_leaf(adj: dict, depth: dict, top) -> int:
    """The deepest leaf in the subtree below `top`, ties by smallest id."""
    below, stack = [], [top]
    while stack:
        x = stack.pop()
        below.append(x)
        stack.extend(w for w in adj[x] if depth[w] > depth[x])
    return min((x for x in below if len(adj[x]) == 1), key=lambda x: (-depth[x], x))


def _nbr_other(adj: dict, x, excl) -> int:
    others = [w for w in adj[x] if w != excl]
    if len(others) != 1:
        raise DecomposeError(f"vertex {x} expected degree 2")
    return others[0]


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise DecomposeError(msg)


def _smallest_plain_leaf(adj: dict, d: set, p: set, u, plain: dict):
    """The smallest plain leaf on u (a leaf outside D and P, as O1 adds
    them), or None, without rescanning u.

    `plain[u]` lists u's plain leaves once, as negated ids in ascending
    order (the smallest id last), and drops them as they are peeled.  No
    vertex becomes a plain leaf of u later.  u lies in D and P, so its
    neighbours other than its one D neighbour lie outside D and P.  A
    child of u outside D has no leaf children, and u is reached only when
    no leaf lies more than two levels below it, so every such child is a
    leaf already; a parent outside D is peeled together with u.
    """
    if u not in plain:
        plain[u] = sorted(-x for x in adj[u] if len(adj[x]) == 1 and x not in d and x not in p)
    leaves = plain[u]
    while leaves and -leaves[-1] not in adj:
        leaves.pop()
    return -leaves[-1] if leaves else None


def _inverse_step(adj, d, p, v, depth, root, plain):
    """The operation whose inverse peels leaf v off, or the other leaf to
    peel first.  Its new vertices are the ones to remove; `plain` is the
    cache of `_smallest_plain_leaf`."""
    (u,) = adj[v]

    if v not in p and v not in d:
        # Case 1: plain pendant vertex on a D&P vertex.
        _need(u in d and u in p, f"leaf {v} outside D,P must hang on a D&P vertex")
        return TreeOpStep("O1", (u,), (v,))

    if v in d and v not in p:
        # Case 2: v in D only, support u in D&P.
        _need(u in d and u in p, f"support {u} of leaf {v} must lie in D&P")
        if len(adj[u]) > 2 or u == root:
            leaf = _smallest_plain_leaf(adj, d, p, u, plain)
            _need(leaf is not None, f"support {u} has no removable second leaf")
            return leaf
        x = _nbr_other(adj, u, v)
        if len(adj[x]) == 1 and x not in d and x not in p:
            # residual path x-u-v: x is the plain pendant to peel first
            return x
        _need(len(adj[x]) == 2, f"vertex {x} above {u} must have degree 2")
        w = _nbr_other(adj, x, u)
        _need(w not in d, f"attachment {w} must lie outside D")
        return TreeOpStep("O2", (w,), (x, u, v))

    if v in d and v in p:
        # Case 3: v in D&P, support u in D-P.
        _need(u in d and u not in p, f"support {u} of leaf {v} must lie in D-P")
        _need(len(adj[u]) == 2, f"support {u} must have degree 2")
        x = _nbr_other(adj, u, v)
        _need(len(adj[x]) == 2, f"vertex {x} above {u} must have degree 2")
        w = _nbr_other(adj, x, u)
        _need(w in p and w not in d, f"attachment {w} must lie in P-D")
        return TreeOpStep("O2", (w,), (x, u, v))

    # Case 4: v in P only.
    _need(u in d and u not in p, f"support {u} of leaf {v} must lie in D-P")
    _need(len(adj[u]) == 2, f"support {u} must have degree 2")
    x = _nbr_other(adj, u, v)
    _need(x in d and x not in p, f"vertex {x} must lie in D-P")
    leaf_children = sorted(y for y in adj[x] if y != u and len(adj[y]) == 1)
    if leaf_children:
        y = leaf_children[0]
        _need(y in p and y not in d, f"pendant {y} on {x} must lie in P-D")
        return TreeOpStep("O4", (v, u, x), (y,))
    _need(len(adj[x]) == 2, f"vertex {x} must have degree 2")
    w = _nbr_other(adj, x, u)
    _need(w in p and w not in d, f"vertex {w} must lie in P-D")
    if len(adj[w]) >= 3:
        branches = [y for y in adj[w] if y != x and depth[y] > depth[w]]
        _need(bool(branches), f"vertex {w} of degree >= 3 has no second branch")
        return _deepest_leaf(adj, depth, min(branches))
    z = _nbr_other(adj, w, x)
    _need(z not in d and z not in p, f"vertex {z} must lie outside D and P")
    if len(adj[z]) == 2:
        # Subcase 4.2: peel the whole pendant path via O3.
        t = _nbr_other(adj, z, w)
        _need(t in d and t not in p, f"attachment {t} must lie in D-P")
        return TreeOpStep("O3", (t,), (z, w, x, u, v))
    # Subcase 4.1: z has another down branch through w'.
    branches = sorted(y for y in adj[z] if y != w and depth[y] > depth[z])
    _need(bool(branches), f"vertex {z} of degree >= 3 has no second down branch")
    wp = branches[0]
    _need(wp not in p, f"vertex {wp} must lie outside P")
    xps = [y for y in adj[wp] if y != z and y in p]
    _need(len(xps) == 1, f"vertex {wp} must have exactly one P child")
    xp = xps[0]
    if wp not in d:
        # Subcase 4.1.1
        _need(xp in d, f"vertex {xp} must lie in D")
        if len(adj[xp]) > 2:   # the removable extra children: xp's plain leaves
            leaf = _smallest_plain_leaf(adj, d, p, xp, plain)
            _need(leaf is not None, f"vertex {xp} has extra children but none removable")
            return leaf
        below = [y for y in adj[xp] if y != wp]
        _need(len(below) == 1, f"vertex {xp} must have a child in D")
        up_ = below[0]
        _need(up_ in d and up_ not in p, f"vertex {up_} must lie in D-P")
        others = [y for y in adj[wp] if y not in (z, xp)]
        if others:
            return _deepest_leaf(adj, depth, min(others))
        _need(len(adj[up_]) == 1, f"vertex {up_} must be a leaf")
        return TreeOpStep("O2", (z,), (wp, xp, up_))
    # Subcase 4.1.2: wp in D
    if xp in d:
        if len(adj[xp]) > 1:   # the removable children: xp's plain leaves
            leaf = _smallest_plain_leaf(adj, d, p, xp, plain)
            _need(leaf is not None, f"vertex {xp} has children but none removable")
            return leaf
        _need(len(adj[wp]) == 2, f"vertex {wp} must have degree 2")
        return TreeOpStep("O5", (u, x, w, z, wp, xp), (v,))
    _need(len(adj[xp]) == 1, f"vertex {xp} outside D must be a leaf")
    x2s = [y for y in adj[wp] if y != z and y in d]
    _need(len(x2s) == 1, f"vertex {wp} must have exactly one D child")
    x2 = x2s[0]
    _need(len(adj[x2]) == 2, f"vertex {x2} must have degree 2")
    u2 = _nbr_other(adj, x2, wp)
    _need(u2 in p and len(adj[u2]) == 1, f"vertex {u2} must be a P leaf")
    return TreeOpStep("O4", (u2, x2, wp), (xp,))


def decompose(t: Graph, d, p) -> TreeOpSequence:
    """Decompose a certified EOCD tree into a replayable sequence.

    Implements the rooted case analysis: at each stage the deepest leaf
    (ties by smallest id) below the minimum-id root is peeled off by the
    inverse of one operation: its new vertices leave the tree, D and P,
    and its P flips are undone.  The certificate is checked in full on
    input and not after a peel (see the module docstring).  A state the
    case analysis cannot justify raises DecomposeError instead of guessing.
    """
    if not is_tree(t):
        raise ValueError("input is not a tree")
    adj = _adj_of(t)
    d, p = set(d), set(p)
    _check_cert(adj, d, p, "decompose input")
    steps_rev: list[TreeOpStep] = []
    plain: dict = {}   # see _smallest_plain_leaf
    root = None
    while len(adj) > 2:
        if root not in adj:
            # A peel keeps the rest connected, so the depths and the order
            # stay valid until the root itself is peeled.  The deepest vertex
            # left is a leaf: its children would be deeper.
            root = min(adj)
            depth = _depths(adj, root)
            order, at = sorted(adj, key=lambda x: (-depth[x], x)), 0
        while order[at] not in adj:
            at += 1
        v = order[at]
        for _ in range(len(adj) + 1):
            step = _inverse_step(adj, d, p, v, depth, root, plain)
            if isinstance(step, TreeOpStep):
                break
            v = step
        else:
            raise DecomposeError("redirect loop in case analysis")
        for x in step.new:
            for w in adj.pop(x):
                adj[w].discard(x)
        d.difference_update(step.new)
        p.difference_update(step.new)
        p.symmetric_difference_update(step.attach[i] for i in OP_FLIPS.get(step.op, ()))
        steps_rev.append(step)
    a, b = sorted(adj)
    _need(d == {a, b}, f"residual K2 {a},{b} must carry D = both vertices")
    pv = sorted(p & {a, b})
    _need(p == set(pv) and len(pv) == 1, "residual K2 must carry a one-vertex P")
    return TreeOpSequence(list(reversed(steps_rev)), (a, b), pv[0])


def random_eocd_tree(steps: int, seed: int) -> tuple[Graph, VertexSet, VertexSet, TreeOpSequence]:
    """Grow a random EOCD tree by feasible operations; deterministic per seed.

    Each step draws uniformly from the feasible operations: O1, O2, O3 by
    attachment vertex, then the O4/O5 walks of each leaf by leaf id, kept
    as one sorted list of (pool, attach, op); a step recomputes only the
    options of the `_readers_of` the vertices it changed.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    adj = {0: {1}, 1: {0}}
    d, p = {0, 1}, {0}
    seq = TreeOpSequence()
    options: list = []   # sorted (pool, attach, op); pools 0-3: O1, O2, O3, O4/O5
    entries: dict = {}   # vertex -> its options
    changed = (0, 1)
    next_id = 2
    for _ in range(steps):
        for z in _readers_of(adj, changed):
            old, now = entries.get(z, []), _options_at(adj, d, p, z)
            if now != old:
                for entry in old:
                    del options[bisect_left(options, entry)]
                for entry in now:
                    insort(options, entry)
                entries[z] = now
        _, attach, op = rng.choice(options)
        new = tuple(range(next_id, next_id + OP_ARITY[op]))
        next_id += OP_ARITY[op]
        step = TreeOpStep(op, attach, new)
        changed = _apply_labeled(adj, d, p, step)
        seq.steps.append(step)
    return _graph_of(adj), frozenset(d), frozenset(p), seq


def _options_at(adj: dict, d: set, p: set, z) -> list:
    """The feasible operations attached at z, as (pool, attach, op).

    Every vertex takes one of O1 (in D&P), O2 (outside D), O3 (in D-P).  A
    leaf z may also start an O4 walk z-x-w and O5 walks z-x-w-z'-w'-x';
    sorted by attach, its O4 comes first and its O5 walks in (w', x') order.
    """
    k = 1 if z not in d else 0 if z in p else 2
    out = [(k, (z,), ("O1", "O2", "O3")[k])]
    if len(adj[z]) != 1:
        return out
    (lx,) = adj[z]
    if len(adj[lx]) != 2:
        return out
    lw = next(w for w in adj[lx] if w != z)
    if lx in d and lx in p and lw in d:
        out.append((3, (z, lx, lw), "O4"))
    if z not in d or lx not in d or lx not in p or len(adj[lw]) != 2:
        return out
    lz = next(t for t in adj[lw] if t != lx)
    for wp in sorted(adj[lz]):
        if wp != lw and len(adj[wp]) == 2 and wp in d and wp in p:
            out.extend((3, (z, lx, lw, lz, wp, xp), "O5") for xp in sorted(adj[wp])
                       if xp != lz and len(adj[xp]) == 1 and xp in d)
    return out


def _readers_of(adj: dict, changed) -> set:
    """`changed` and the leaves whose O4/O5 walks can read one of them: at
    most 5 hops away, along a path whose inner vertices have degree 2
    except one (the walk's z')."""
    out = set(changed)
    stack = [(c, None, 0, False) for c in changed]
    while stack:
        x, parent, dist, branched = stack.pop()
        for y in adj[x]:
            deg = len(adj[y])
            if deg == 1:
                out.add(y)
            elif y != parent and dist < 4 and (deg == 2 or not branched):
                stack.append((y, x, dist + 1, branched or deg > 2))
    return out
