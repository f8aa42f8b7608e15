"""Seeded inputs the benchmark owns, built with the standard library only.

Nothing here calls `eocd`, so a change to the package cannot change the
workload it is measured on.  A graph is `(n, edges)` with `edges` a list
of `(u, v)` pairs, `u < v`; texts follow the package's file formats
(edge list, DIMACS CNF, tree operation sequence).
"""

from __future__ import annotations


def edge_text(n, edges):
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def disjoint_cycles(k, size):
    return [(c * size + u, c * size + v) for c in range(k) for u, v in cycle_edges(size)]


def complete_bipartite_edges(r, t):
    return [(i, r + j) for i in range(r) for j in range(t)]


def hypercube_edges(k):
    return [(v, v | 1 << b) for v in range(1 << k) for b in range(k) if not v >> b & 1]


def sierpinski_edges(p, n):
    """S_p^n by the digit rule: w i j^d is adjacent to w j i^d.

    A vertex id is the base-p value of its digit string, most significant
    digit first.
    """
    edges = []
    for d in range(n):
        tail_i = [sum(i * p ** e for e in range(d)) for i in range(p)]  # i^d as a value
        for prefix in range(p ** (n - 1 - d)):
            base = prefix * p ** (d + 1)
            for i in range(p):
                for j in range(i + 1, p):
                    u = base + i * p ** d + tail_i[j]
                    v = base + j * p ** d + tail_i[i]
                    edges.append((min(u, v), max(u, v)))
    return edges


def comb_edges(spine, tooth):
    """A spine path with a pendant path of `tooth` vertices on every spine vertex."""
    edges = path_edges(spine)
    nxt = spine
    for s in range(spine):
        prev = s
        for _ in range(tooth):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return nxt, edges


class GrownTree:
    """An EOCD tree grown from the K2 (D = {0, 1}, P = {0}) by O1-O3.

    `ops` is the operation-sequence text that replays to this labelled
    tree and certificate.
    """

    __slots__ = ("n", "edges", "d", "p", "ops")

    def __init__(self, n, edges, d, p, ops):
        self.n, self.edges, self.d, self.p, self.ops = n, edges, d, p, ops


def grow_tree(rng, vertices, weights=(1, 1, 1)):
    """Grow until the tree has at least `vertices` vertices.

    `weights` bias the choice among O1 (adds 1 vertex, none in D), O2
    (3 vertices, 2 in D) and O3 (5 vertices, 2 in D), which sets |D|/n.
    Attachment lists only grow under O1-O3, so each step is O(1).
    """
    edges = [(0, 1)]
    d, p = {0, 1}, {0}
    both, not_d, d_only = [0], [], [1]   # D&P, V-D, D-P
    lines = []
    n = 2
    while n < vertices:
        op = rng.choices(("O1", "O2", "O3"), weights)[0]
        pool = {"O1": both, "O2": not_d, "O3": d_only}[op]
        if not pool:
            continue
        a = rng.choice(pool)
        if op == "O1":
            new = (n,)
            edges.append((a, n))
            not_d.append(n)
        elif op == "O2":
            x, u, v = new = (n, n + 1, n + 2)
            edges.extend(((a, x), (x, u), (u, v)))
            d.update((u, v))
            code = v if a in p else u
            p.add(code)
            not_d.append(x)
            both.append(code)
            d_only.append(u + v - code)
        else:
            z, w, x, u, v = new = tuple(range(n, n + 5))
            edges.extend(((a, z), (z, w), (w, x), (x, u), (u, v)))
            d.update((u, x))
            p.update((v, w))
            not_d.extend((z, w, v))
            d_only.extend((x, u))
        n += len(new)
        lines.append(f"{op} attach={a} new={','.join(map(str, new))}")
    return GrownTree(n, edges, frozenset(d), frozenset(p), "\n".join(lines) + "\n")


def leafy_graph(rng, vertices, defect=False):
    """A connected graph whose leaves' supports carry its certificate.

    Supports get two or three leaves each and are joined through private
    connector paths support-a-b-support; random chords join connectors.
    Every non-support, non-leaf vertex sees exactly one support and
    supports are pairwise at distance >= 3, so P = supports and
    D = supports plus one leaf each is a certificate with P inside D.

    With `defect`, one connector is also joined to a second support.  A
    support with two leaves lies in P in every certificate with P inside
    D (two leaves in P would both be in D and cover the support twice),
    so that connector is closed-covered twice: no such certificate exists.
    Returns (n, edges, D, P), with D and P None for a defective graph.
    """
    supports = max(2, vertices * 2 // 11)
    edges, d, p = [], [], []
    connectors = []  # (connector, its support)
    n = 0
    for s in range(supports):
        sid = n
        n += 1
        leaves = rng.choice((2, 3))
        edges.extend((sid, n + i) for i in range(leaves))
        p.append(sid)
        d.extend((sid, n))
        n += leaves
        if s:
            other = rng.choice(p[:-1])
            a, b = n, n + 1
            n += 2
            edges.extend(((other, a), (a, b), (b, sid)))
            connectors.extend(((a, other), (b, sid)))
    for _ in range(len(connectors) // 4):
        (a, _), (b, _) = rng.sample(connectors, 2)
        edges.append((min(a, b), max(a, b)))
    edges = sorted(set(edges))
    if not defect:
        return n, edges, frozenset(d), frozenset(p)
    c, own = rng.choice(connectors)
    taken = {u for u, v in edges if v == c} | {v for u, v in edges if u == c}
    other = rng.choice([s for s in p if s != own and s not in taken])
    edges.append((min(c, other), max(c, other)))
    return n, sorted(edges), None, None


def random_graph(rng, n, density):
    """G(n, density) with every isolated vertex joined to a random other vertex."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for u in range(n):
        if deg[u] == 0:
            v = rng.choice([w for w in range(n) if w != u])
            edges.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return sorted(edges)


def random_formula(rng, n_vars, n_clauses):
    """Clauses of three distinct variables; a literal is (variable, polarity)."""
    return [tuple((v, rng.random() < 0.5) for v in sorted(rng.sample(range(n_vars), 3)))
            for _ in range(n_clauses)]


def dimacs_text(n_vars, clauses):
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    for clause in clauses:
        lits = [str(v + 1 if pol else -(v + 1)) for v, pol in clause]
        lines.append(" ".join(lits) + " 0")
    return "\n".join(lines) + "\n"

