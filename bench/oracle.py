"""Independent answers and output checks, built with the standard library only.

None of this calls `eocd`.  Certificates are checked by an O(n+m)
coverage count; verdicts come from closed forms, grown certificates,
brute force on small inputs and a tree DP for domination numbers.
"""

from __future__ import annotations

from itertools import combinations


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def covers_once(adj, members, closed):
    """True iff the open (or closed) neighbourhoods of `members` partition V."""
    hits = [0] * len(adj)
    for v in members:
        if not 0 <= v < len(adj):
            return False
        if closed:
            hits[v] += 1
        for w in adj[v]:
            hits[w] += 1
    return all(h == 1 for h in hits)


def certificate_ok(adj, d, p, mode="any"):
    d, p = set(d), set(p)
    if mode == "empty-dp" and d & p:
        return False
    if mode == "empty-pd" and not p <= d:
        return False
    return covers_once(adj, d, False) and covers_once(adj, p, True)


def parse_edges(text):
    """The edge-list format: `n m` header, `u v` edges, `L v name` labels, `#` comments."""
    rows = [r.split("#", 1)[0].split() for r in text.splitlines()]
    rows = [r for r in rows if r]
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = {(min(int(a), int(b)), max(int(a), int(b))) for a, b, *rest in rows[1:]
             if a != "L"}
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, found {len(edges)}")
    return n, edges


def same_graph(text, n, edges):
    got_n, got = parse_edges(text)
    return got_n == n and got == {(min(u, v), max(u, v)) for u, v in edges}


def is_tree(n, edges):
    if len(edges) != n - 1:
        return False
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# ---------------------------------------------------------------------------
# small exact answers

def exact_covers(n, masks):
    """Every set of centres whose masks partition {0..n-1} (brute force, small n)."""
    full = (1 << n) - 1
    by_low = [[c for c, m in enumerate(masks) if m >> v & 1] for v in range(n)]

    def rec(covered, chosen):
        if covered == full:
            yield frozenset(chosen)
            return
        low = (~covered & full & -(~covered & full)).bit_length() - 1
        for c in by_low[low]:
            if not masks[c] & covered:
                chosen.append(c)
                yield from rec(covered | masks[c], chosen)
                chosen.pop()

    yield from rec(0, [])


def masks_of(adj, closed):
    return [sum(1 << w for w in nb) | (1 << v if closed else 0) for v, nb in enumerate(adj)]


def eocd_exists(adj, mode):
    """Whether an (EOD, ECD) pair under the mode exists, by enumeration."""
    codes = list(exact_covers(len(adj), masks_of(adj, True)))
    if not codes:
        return False
    for d in exact_covers(len(adj), masks_of(adj, False)):
        for p in codes:
            if mode == "any" or (mode == "empty-dp" and not d & p) or \
                    (mode == "empty-pd" and p <= d):
                return True
    return False


def min_cover(adj, closed):
    """Smallest number of (open or closed) neighbourhoods covering V, brute force."""
    n = len(adj)
    full = (1 << n) - 1
    masks = masks_of(adj, closed)
    for k in range(1, n + 1):
        for combo in combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    raise ValueError("no cover")


def tree_domination(n, edges, total):
    """gamma (or gamma_t) of a tree by a leaf-up DP.

    State (s, c) of a vertex: s = it is in the set, c = a child in the
    set dominates it.  A vertex with c = 0 needs its parent in the set
    (for gamma also s = 1 suffices).
    """
    adj = adjacency(n, edges)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v] and w != 0:
                parent[w] = v
                order.append(w)
    inf = 1 << 40  # infeasible; sums of it stay comparable
    best = [None] * n
    for v in reversed(order):
        kids = [w for w in adj[v] if w != parent[v]]
        f = {}
        for s in (0, 1):
            def ok(cs, cc):  # may a child take state (cs, cc) under this parent?
                return cc or s or (not total and cs)
            allowed = [[best[c][cs, cc] if ok(cs, cc) else inf
                        for cs in (0, 1) for cc in (0, 1)] for c in kids]
            base = sum(min(a) for a in allowed)
            lift = min((min(a[2:]) - min(a) for a in allowed), default=inf)
            f[s, 1] = s + base + lift
            f[s, 0] = s + sum(min(a[:2]) for a in allowed)
        best[v] = f
    root = best[0]
    return min(root[1, 1], root[0, 1], inf if total else root[1, 0])


def one_in_three_models(n_vars, clauses):
    out = []
    for bits in range(1 << n_vars):
        if all(sum(1 for v, pol in c if (bits >> v & 1) == pol) == 1 for c in clauses):
            out.append(tuple(bool(bits >> v & 1) for v in range(n_vars)))
    return out


# ---------------------------------------------------------------------------
# operation sequences

def replay_ops(text):
    """Apply an O1-O5 sequence from its K2; returns (n, edges, D, P)."""
    a, b, base_p = 0, 1, 0
    edges = []
    d, p = set(), set()
    first = True
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        fields = dict(t.split("=", 1) for t in tok[1:])
        if tok[0] == "K2":
            a, b = map(int, fields["v"].split(","))
            base_p = int(fields["p"])
            continue
        if first:
            edges.append((a, b))
            d, p = {a, b}, {base_p}
            first = False
        op = tok[0]
        att = tuple(map(int, fields["attach"].split(",")))
        new = tuple(map(int, fields["new"].split(",")))
        if op == "O1":
            edges.append((att[0], new[0]))
        elif op == "O2":
            w, (x, u, v) = att[0], new
            edges.extend(((w, x), (x, u), (u, v)))
            d.update((u, v))
            p.add(v if w in p else u)
        elif op == "O3":
            t, (z, w, x, u, v) = att[0], new
            edges.extend(((t, z), (z, w), (w, x), (x, u), (u, v)))
            d.update((u, x))
            p.update((v, w))
        elif op == "O4":
            (v, u, x), (y,) = att, new
            edges.append((x, y))
            p.discard(u)
            p.update((v, y))
        elif op == "O5":
            (u, x, w, z, wp, xp), (v,) = att, new
            edges.append((u, v))
            p.difference_update((x, wp))
            p.update((v, xp, w))
        else:
            raise ValueError(f"unknown operation {op!r}")
    if first:
        edges.append((a, b))
        d, p = {a, b}, {base_p}
    n = 1 + max(max(e) for e in edges)
    return n, [(min(u, v), max(u, v)) for u, v in edges], frozenset(d), frozenset(p)
