"""Sierpinski graphs S_p^n and their domination results.

Vertices are length-n digit strings over 0..p-1 (digit s_1 is the least
significant); vertex ids are the base-p values of the strings, labels are
the strings themselves.  The graph is built by the digit adjacency rule;
the tests compare it with the recursive edge definition.

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


def _direct_edges(p: int, n: int) -> set[tuple[int, int]]:
    # neighbor at level delta exists iff the delta-1 trailing digits all
    # equal some j != s_delta; then swap s_delta and j and fill the tail.
    edges = set()
    for digits in product(range(p), repeat=n):
        v = _vid(digits, p)
        for delta in range(1, n + 1):
            tail = digits[n - delta + 1:]  # digits s_{delta-1} .. s_1
            s_delta = digits[n - delta]
            if delta == 1:
                js = [j for j in range(p) if j != s_delta]
            else:
                js = [tail[0]] if len(set(tail)) == 1 and tail[0] != s_delta else []
            for j in js:
                t = digits[:n - delta] + (j,) + (s_delta,) * (delta - 1)
                w = _vid(t, p)
                edges.add((min(v, w), max(v, w)))
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
