"""EOCD trees: the five-operation calculus over K2.

Every EOCD tree arises from K2 by a sequence of the local operations
O1-O5, each of which extends a certified tree (T, D, P) and updates the
certificate.  This module applies and replays such sequences, recognizes
EOCD trees by one linear leaf-up DP run once for open and once for
closed neighborhoods, and decomposes a certified tree into a sequence
that replays to the identical labeled tree.

Internally trees are adjacency dicts over arbitrary integer labels so
that decomposition can delete vertices without relabeling; the public
API speaks dense `Graph` values.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .graph import Graph, VertexSet, describe_violation, first_violation, is_tree

OP_ARITY = {"O1": 1, "O2": 3, "O3": 5, "O4": 1, "O5": 1}
OP_ATTACH = {"O1": 1, "O2": 1, "O3": 1, "O4": 3, "O5": 6}


class OpPreconditionError(ValueError):
    """An operation's precondition failed; the message names the clause."""


class DecomposeError(ValueError):
    """The decomposition case analysis met a state it cannot justify."""


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
    def parse(cls, text: str) -> "TreeOpSequence":
        """Read `serialize` output; errors name the offending line number."""
        seq = cls()
        has_base = False
        for lineno, raw in enumerate(text.splitlines(), 1):
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
                fields = _fields(tok[1:], ("attach", "new"))
                seq.steps.append(TreeOpStep(tok[0], _ids(fields, "attach"), _ids(fields, "new")))
            except OpPreconditionError as exc:
                raise OpPreconditionError(f"line {lineno}: {exc} in {line!r}") from None
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
    for name, members, closed in (("D", d, False), ("P", p, True)):
        bad = first_violation(adj, adj.__getitem__, members, closed)
        if bad is not None:
            raise OpPreconditionError(f"{context}: {describe_violation(*bad, name)}")


def _require(cond: bool, op: str, clause: str) -> None:
    if not cond:
        raise OpPreconditionError(f"{op}: {clause}")


def _apply_labeled(adj: dict, d: set, p: set, step: TreeOpStep) -> None:
    """Apply one operation in place; raises on any violated clause."""
    op, attach, new = step.op, step.attach, step.new
    for x in attach:
        _require(x in adj, op, f"attachment vertex {x} does not exist")
    for x in new:
        _require(x not in adj, op, f"new vertex {x} already exists")
    _require(len(set(new)) == len(new), op, "new vertex ids must be distinct")

    def add_path(anchor, chain):
        prev = anchor
        for x in chain:
            adj[x] = {prev}
            adj[prev].add(x)
            prev = x

    if op == "O1":
        (u,), (v,) = attach, new
        _require(u in d and u in p, op, f"{u} must lie in both D and P")
        add_path(u, [v])
    elif op == "O2":
        (w,), (x, u, v) = attach, new
        _require(w not in d, op, f"{w} must not lie in D")
        add_path(w, [x, u, v])
        d.update((u, v))
        p.add(v if w in p else u)
    elif op == "O3":
        (t,), (z, w, x, u, v) = attach, new
        _require(t in d and t not in p, op, f"{t} must lie in D and not in P")
        add_path(t, [z, w, x, u, v])
        d.update((u, x))
        p.update((v, w))
    elif op == "O4":
        (v, u, x), (y,) = attach, new
        _require(adj[v] == {u}, op, f"{v} must be a leaf attached to {u}")
        _require(len(adj[u]) == 2 and x in adj[u], op,
                 f"{u} must have degree 2 with neighbors {v} and {x}")
        _require(u in d and x in d, op, f"{u} and {x} must lie in D")
        _require(u in p, op, f"{u} must lie in P")
        add_path(x, [y])
        p.discard(u)
        p.update((v, y))
    elif op == "O5":
        (u, x, w, z, wp, xp), (v,) = attach, new
        path = (u, x, w, z, wp, xp)
        for a, b in zip(path, path[1:]):
            _require(b in adj[a], op, f"{a}-{b} must be an edge of the path")
        _require(len(adj[u]) == 1 and len(adj[xp]) == 1, op,
                 f"{u} and {xp} must be leaves")
        for mid in (x, w, wp):
            _require(len(adj[mid]) == 2, op, f"{mid} must have degree 2")
        for m in (u, x, wp, xp):
            _require(m in d, op, f"{m} must lie in D")
        for m in (x, wp):
            _require(m in p, op, f"{m} must lie in P")
        add_path(u, [v])
        p.difference_update((x, wp))
        p.update((v, xp, w))
    _check_cert(adj, d, p, f"after {op}")


def _adj_of(g: Graph) -> dict:
    return {v: set(g.neighbors(v)) for v in range(g.n)}


def _graph_of(adj: dict) -> Graph:
    labels = sorted(adj)
    if labels != list(range(len(adj))):
        raise OpPreconditionError(
            "replayed tree labels are not dense 0..n-1; renumber the sequence")
    edges = [(u, v) for u in labels for v in adj[u] if u < v]
    return Graph(len(labels), edges)


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
    """Rebuild the labeled tree and certificate described by a sequence."""
    a, b = seq.base
    adj = {a: {b}, b: {a}}
    d, p = {a, b}, {seq.base_p}
    if seq.base_p not in (a, b):
        raise OpPreconditionError(f"base P vertex {seq.base_p} is not a base vertex")
    for step in seq.steps:
        _apply_labeled(adj, d, p, step)
    return _graph_of(adj), frozenset(d), frozenset(p)


# ---------------------------------------------------------------------------
# recognition: one leaf-up DP for open and closed neighborhoods

def _postorder(adj: dict, root) -> tuple[list, dict]:
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for w in adj[x]:
            if w not in parent:
                parent[w] = x
                stack.append(w)
    order.reverse()
    return order, parent


def _tree_code(order: list, children: dict, closed: bool) -> set | None:
    """A set S whose open (closed=False) or closed neighborhoods partition
    the tree, or None; `order` lists children before parents.

    The state of x is (s, need): s = x lies in S, need = x's parent lies
    in S, which then covers x.  Every child of x has need = s, and exactly
    k = 1 - [closed and s] - need children lie in S, so k must be 0 or 1.
    feas[x][2 * s + need] says whether the subtree of x admits the state.
    """
    feas: dict = {}
    pick: dict = {}   # (x, s, need) -> the child in S, for states with k = 1
    for x in order:
        ch = children[x]
        f = feas[x] = [False] * 4
        for s in (0, 1):
            bad = [c for c in ch if not feas[c][s]]   # cannot take (0, s)
            for need in (0, 1):
                k = 1 - (closed and s) - need
                if k == 0:
                    f[2 * s + need] = not bad
                elif k == 1:
                    # one_of: one child in (1, s), all others in (0, s)
                    if not bad:
                        one = next((c for c in ch if feas[c][2 + s]), None)
                    elif len(bad) == 1 and feas[bad[0]][2 + s]:
                        one = bad[0]
                    else:
                        one = None
                    f[2 * s + need] = one is not None
                    pick[x, s, need] = one
    root = order[-1]
    start = next((s for s in (1, 0) if feas[root][2 * s]), None)
    if start is None:
        return None
    code: set = set()
    stack = [(root, start, 0)]
    while stack:
        x, s, need = stack.pop()
        if s:
            code.add(x)
        one = pick.get((x, s, need))
        stack.extend((c, int(c == one), s) for c in children[x])
    return code


def is_eocd_tree(t: Graph) -> tuple[VertexSet, VertexSet] | None:
    """A valid (D, P) pair for the tree, or None if it admits none."""
    if not is_tree(t):
        raise ValueError("input is not a tree")
    adj = _adj_of(t)
    order, parent = _postorder(adj, 0)
    children = {x: [w for w in adj[x] if w != parent[x]] for x in adj}
    d = _tree_code(order, children, closed=False)
    if d is None:
        return None
    p = _tree_code(order, children, closed=True)
    if p is None:
        return None
    _check_cert(adj, d, p, "is_eocd_tree result")
    return frozenset(d), frozenset(p)


# ---------------------------------------------------------------------------
# decomposition

class _Redirect(Exception):
    def __init__(self, leaf):
        self.leaf = leaf


def _deepest_leaf(adj: dict, depth: dict, within=None) -> int:
    pool = within if within is not None else adj.keys()
    leaves = [x for x in pool if len(adj[x]) == 1]
    return min(leaves, key=lambda x: (-depth[x], x))


def _subtree(adj: dict, depth: dict, top) -> list:
    out = []
    stack = [top]
    seen = {top}
    while stack:
        x = stack.pop()
        out.append(x)
        for w in adj[x]:
            if w not in seen and depth[w] > depth[x]:
                seen.add(w)
                stack.append(w)
    return out


def _depths(adj: dict, root) -> dict:
    depth = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if w not in depth:
                depth[w] = depth[x] + 1
                queue.append(w)
    return depth


def _nbr_other(adj: dict, x, excl) -> int:
    others = [w for w in adj[x] if w != excl]
    if len(others) != 1:
        raise DecomposeError(f"vertex {x} expected degree 2")
    return others[0]


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise DecomposeError(msg)


def _inverse_step(adj, d, p, v, depth, root):
    """Peel off one operation at leaf v; returns (step, removed vertices,
    certificate updates) or raises _Redirect(other leaf)."""
    (u,) = adj[v]

    if v not in p and v not in d:
        # Case 1: plain pendant vertex on a D&P vertex.
        _need(u in d and u in p, f"leaf {v} outside D,P must hang on a D&P vertex")
        return TreeOpStep("O1", (u,), (v,)), [v], set(), set()

    if v in d and v not in p:
        # Case 2: v in D only, support u in D&P.
        _need(u in d and u in p, f"support {u} of leaf {v} must lie in D&P")
        other_leaves = [x for x in adj[u]
                        if x != v and len(adj[x]) == 1 and x not in d and x not in p]
        if len(adj[u]) > 2 or u == root:
            _need(bool(other_leaves), f"support {u} has no removable second leaf")
            raise _Redirect(min(other_leaves))
        x = _nbr_other(adj, u, v)
        if len(adj[x]) == 1 and x not in d and x not in p:
            # residual path x-u-v: x is the plain pendant to peel first
            raise _Redirect(x)
        _need(len(adj[x]) == 2, f"vertex {x} above {u} must have degree 2")
        w = _nbr_other(adj, x, u)
        _need(w not in d, f"attachment {w} must lie outside D")
        return TreeOpStep("O2", (w,), (x, u, v)), [v, u, x], {u, v}, {u}

    if v in d and v in p:
        # Case 3: v in D&P, support u in D-P.
        _need(u in d and u not in p, f"support {u} of leaf {v} must lie in D-P")
        _need(len(adj[u]) == 2, f"support {u} must have degree 2")
        x = _nbr_other(adj, u, v)
        _need(len(adj[x]) == 2, f"vertex {x} above {u} must have degree 2")
        w = _nbr_other(adj, x, u)
        _need(w in p and w not in d, f"attachment {w} must lie in P-D")
        return TreeOpStep("O2", (w,), (x, u, v)), [v, u, x], {u, v}, {v}

    # Case 4: v in P only.
    _need(u in d and u not in p, f"support {u} of leaf {v} must lie in D-P")
    _need(len(adj[u]) == 2, f"support {u} must have degree 2")
    x = _nbr_other(adj, u, v)
    _need(x in d and x not in p, f"vertex {x} must lie in D-P")
    leaf_children = sorted(y for y in adj[x] if y != u and len(adj[y]) == 1)
    if leaf_children:
        y = leaf_children[0]
        _need(y in p and y not in d, f"pendant {y} on {x} must lie in P-D")
        step = TreeOpStep("O4", (v, u, x), (y,))
        return step, [y], set(), ({v, y}, {u})  # P rewrite: drop {v,y}, add {u}
    _need(len(adj[x]) == 2, f"vertex {x} must have degree 2")
    w = _nbr_other(adj, x, u)
    _need(w in p and w not in d, f"vertex {w} must lie in P-D")
    if len(adj[w]) >= 3:
        branches = [y for y in adj[w] if y != x and depth[y] > depth[w]]
        _need(bool(branches), f"vertex {w} of degree >= 3 has no second branch")
        raise _Redirect(_deepest_leaf(adj, depth, _subtree(adj, depth, min(branches))))
    z = _nbr_other(adj, w, x)
    _need(z not in d and z not in p, f"vertex {z} must lie outside D and P")
    if len(adj[z]) == 2:
        # Subcase 4.2: peel the whole pendant path via O3.
        t = _nbr_other(adj, z, w)
        _need(t in d and t not in p, f"attachment {t} must lie in D-P")
        return TreeOpStep("O3", (t,), (z, w, x, u, v)), [v, u, x, w, z], {u, x}, {v, w}
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
        below = [y for y in adj[xp] if y != wp]
        if len(below) >= 2:
            extra = [c for c in below if len(adj[c]) == 1 and c not in d and c not in p]
            _need(bool(extra), f"vertex {xp} has extra children but none removable")
            raise _Redirect(min(extra))
        _need(len(below) == 1, f"vertex {xp} must have a child in D")
        up_ = below[0]
        _need(up_ in d and up_ not in p, f"vertex {up_} must lie in D-P")
        others = [y for y in adj[wp] if y not in (z, xp)]
        if others:
            raise _Redirect(_deepest_leaf(adj, depth, _subtree(adj, depth, min(others))))
        _need(len(adj[up_]) == 1, f"vertex {up_} must be a leaf")
        return TreeOpStep("O2", (z,), (wp, xp, up_)), [up_, xp, wp], {up_, xp}, {xp}
    # Subcase 4.1.2: wp in D
    if xp in d:
        below = [y for y in adj[xp] if y != wp]
        if below:
            extra = [c for c in below if len(adj[c]) == 1 and c not in d and c not in p]
            _need(bool(extra), f"vertex {xp} has children but none removable")
            raise _Redirect(min(extra))
        _need(len(adj[wp]) == 2, f"vertex {wp} must have degree 2")
        step = TreeOpStep("O5", (u, x, w, z, wp, xp), (v,))
        return step, [v], set(), ({xp, w, v}, {x, wp})  # P rewrite
    _need(len(adj[xp]) == 1, f"vertex {xp} outside D must be a leaf")
    x2s = [y for y in adj[wp] if y != z and y in d]
    _need(len(x2s) == 1, f"vertex {wp} must have exactly one D child")
    x2 = x2s[0]
    _need(len(adj[x2]) == 2, f"vertex {x2} must have degree 2")
    u2 = _nbr_other(adj, x2, wp)
    _need(u2 in p and len(adj[u2]) == 1, f"vertex {u2} must be a P leaf")
    step = TreeOpStep("O4", (u2, x2, wp), (xp,))
    return step, [xp], set(), ({xp, u2}, {x2})  # P rewrite


def decompose(t: Graph, d, p) -> TreeOpSequence:
    """Decompose a certified EOCD tree into a replayable sequence.

    Implements the rooted case analysis: at each stage the deepest leaf
    (ties by smallest id) below the minimum-id root is peeled off by the
    inverse of one operation, rewriting the certificate as required.
    Every intermediate certificate is re-validated; an invalid rewrite
    fails loudly instead of guessing.
    """
    if not is_tree(t):
        raise ValueError("input is not a tree")
    adj = _adj_of(t)
    d, p = set(d), set(p)
    _check_cert(adj, d, p, "decompose input")
    steps_rev: list[TreeOpStep] = []
    while len(adj) > 2:
        root = min(adj)
        depth = _depths(adj, root)
        v = _deepest_leaf(adj, depth)
        for _ in range(len(adj) + 1):
            try:
                step, removed, d_del, p_change = _inverse_step(adj, d, p, v, depth, root)
                break
            except _Redirect as r:
                v = r.leaf
        else:
            raise DecomposeError("redirect loop in case analysis")
        for x in removed:
            for w in adj.pop(x):
                adj[w].discard(x)
        d -= d_del
        if isinstance(p_change, tuple):
            drop, add = p_change
            p = (p - drop) | add
        else:
            p -= p_change
        _check_cert(adj, d, p, f"after inverse {step.op}")
        steps_rev.append(step)
    a, b = sorted(adj)
    _need(d == {a, b}, f"residual K2 {a},{b} must carry D = both vertices")
    pv = sorted(p & {a, b})
    _need(p == set(pv) and len(pv) == 1, "residual K2 must carry a one-vertex P")
    return TreeOpSequence(list(reversed(steps_rev)), (a, b), pv[0])


def random_eocd_tree(steps: int, seed: int) -> tuple[Graph, VertexSet, VertexSet, TreeOpSequence]:
    """Grow a random EOCD tree by feasible operations; deterministic per seed."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    adj = {0: {1}, 1: {0}}
    d, p = {0, 1}, {0}
    seq = TreeOpSequence()
    next_id = 2
    for _ in range(steps):
        options = _feasible_ops(adj, d, p)
        if not options:
            raise RuntimeError("no feasible operation; certificate invariant broken")
        op, attach = rng.choice(options)
        new = tuple(range(next_id, next_id + OP_ARITY[op]))
        next_id += OP_ARITY[op]
        step = TreeOpStep(op, attach, new)
        _apply_labeled(adj, d, p, step)
        seq.steps.append(step)
    return _graph_of(adj), frozenset(d), frozenset(p), seq


def _feasible_ops(adj: dict, d: set, p: set) -> list:
    options = []
    options.extend(("O1", (u,)) for u in sorted(d & p))
    options.extend(("O2", (w,)) for w in sorted(set(adj) - d))
    options.extend(("O3", (t,)) for t in sorted(d - p))
    for lv in sorted(adj):
        if len(adj[lv]) != 1:
            continue
        (lx,) = adj[lv]
        if len(adj[lx]) != 2:
            continue
        far = next(w for w in adj[lx] if w != lv)
        if lx in d and lx in p and far in d:
            options.append(("O4", (lv, lx, far)))
        # O5 walk: leaf-x-w-z-w'-x' with the stated degrees and memberships
        if lv not in d or lx not in d or lx not in p:
            continue
        lw = far
        if len(adj[lw]) != 2:
            continue
        lz = next(t for t in adj[lw] if t != lx)
        for wp in sorted(adj[lz]):
            if wp == lw or len(adj[wp]) != 2 or wp not in d or wp not in p:
                continue
            for xp in sorted(adj[wp]):
                if xp == lz or len(adj[xp]) != 1 or xp not in d:
                    continue
                options.append(("O5", (lv, lx, lw, lz, wp, xp)))
    return options
