"""Sierpinski graphs S_p^n and their domination results.

Vertices are length-n digit strings over 0..p-1 (digit s_1 is the least
significant); vertex ids are the base-p values of the strings, labels are
the strings themselves.  The graph is built by the digit adjacency rule
in O(p^n * n), each vertex's run of equal trailing digits giving its one
neighbor above level 1; the tests compare it with the recursive edge
definition.

Parity characterization: for p >= 3, n >= 2, S_p^n is an EOCD graph iff p is
even; for even p an explicit EOD set of size p^(n-1) exists, which also
pins down gamma_t.

`sierpinski` builds S_p^n of any size; `eocd generate` checks its p^n
vertices, from the family table `eocd.families.FAMILIES`, first.
"""

from __future__ import annotations

from itertools import product

from .graph import Graph, VertexSet


def _label(digits: tuple[int, ...], p: int) -> str:
    if not digits:
        return "e"
    if p <= 10:
        return "".join(map(str, digits))
    return "-".join(map(str, digits))


def _vid(digits: tuple[int, ...], p: int) -> int:
    v = 0
    for s in digits:  # digits given most significant first: s_n .. s_1
        v = v * p + s
    return v


def _direct_edges(p: int, n: int) -> list[tuple[int, int]]:
    """Each edge (v, w), v < w, once.

    A neighbor at level delta exists iff the delta-1 trailing digits all
    equal some j != s_delta; then s_delta and j swap and the tail is
    refilled with s_delta.  Level 1 changes s_1 to any other digit.  If
    exactly r trailing digits equal s_1 = j, the only higher level is
    r + 1, where s_{r+1} = s != j: the neighbor's id is
    v + (j - s) * shift[r].
    """
    if n == 0:
        return []
    shift = []   # p^r - (p^(r-1) + ... + p + 1)
    power, rep = 1, 0
    for _ in range(n):
        shift.append(power - rep)
        rep += power
        power *= p
    edges = []
    for v, digits in enumerate(product(range(p), repeat=n)):   # v is their base-p value
        j = digits[-1]
        edges.extend((v, v + t - j) for t in range(j + 1, p))
        r = 1
        while r < n and digits[-1 - r] == j:
            r += 1
        if r < n and digits[-1 - r] < j:   # the neighbor's id is larger
            edges.append((v, v + (j - digits[-1 - r]) * shift[r]))
    return edges


def sierpinski(p: int, n: int) -> Graph:
    """S_p^n with digit-string labels; p >= 1, n >= 0."""
    if p < 1:
        raise ValueError(f"base p must be >= 1, got {p}")
    if n < 0:
        raise ValueError(f"exponent n must be >= 0, got {n}")
    labels = {_vid(dg, p): _label(dg, p) for dg in product(range(p), repeat=n)}
    return Graph(p ** n, sorted(_direct_edges(p, n)), labels)


def sierpinski_eod_set(p: int, n: int) -> VertexSet:
    """The explicit EOD set for even p: pairs of vertices ...(2i)(2i+1)
    and ...(2i+1)(2i) over all length-(n-2) prefixes."""
    if p % 2 != 0 or p < 4:
        raise ValueError(f"explicit EOD set needs even p >= 4, got {p}")
    if n < 2:
        raise ValueError(f"explicit EOD set needs n >= 2, got {n}")
    members = set()
    for prefix in product(range(p), repeat=n - 2):
        for i in range(p // 2):
            members.add(_vid(prefix + (2 * i, 2 * i + 1), p))
            members.add(_vid(prefix + (2 * i + 1, 2 * i), p))
    return frozenset(members)


def sierpinski_is_eocd(p: int, n: int) -> bool:
    """Parity criterion; only stated for p >= 3, n >= 2."""
    if p < 3 or n < 2:
        raise ValueError(f"criterion applies for p >= 3 and n >= 2, got p={p}, n={n}")
    return p % 2 == 0


def sierpinski_gamma_t(p: int, n: int) -> int:
    """gamma_t(S_p^n) = p^(n-1) for even p >= 4, n >= 2."""
    if p % 2 != 0 or p < 4 or n < 2:
        raise ValueError(f"formula applies for even p >= 4 and n >= 2, got p={p}, n={n}")
    return p ** (n - 1)
