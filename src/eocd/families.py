"""Closed-form graph families and their EOCD predicates.

`FAMILIES` is the one table of the five closed-form families: each entry
gives the builder, its number of parameters, the vertex count the
builder would produce and the family's EOCD rule.  The rules are the
ground truth the exact solver is checked against: paths are EOCD iff
n != 1 (mod 4), cycles iff n == 0 (mod 12), complete bipartite graphs iff
one side is a single vertex, hypercubes iff n == 1, and Sierpinski graphs
S_p^n (p >= 3, n >= 2) iff p is even.  `sierpinski` builds S_p^n by its
recursive definition (Klavzar and Milutinovic, 1997): S_p^1 = K_p, and
S_p^(k+1) is p copies of S_p^k, copy i's extreme vertex j joined to copy
j's extreme vertex i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable

from .graph import Graph, VertexSet


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(r: int, t: int) -> Graph:
    if r < 1 or t < 1:
        raise ValueError(f"complete bipartite needs r, t >= 1, got {r}, {t}")
    return Graph(r + t, [(i, r + j) for i in range(r) for j in range(t)])


def hypercube(n: int) -> Graph:
    """Q_n: vertices are n-bit labels, edges join labels at Hamming distance 1."""
    if n < 1:
        raise ValueError(f"hypercube needs n >= 1, got {n}")
    edges = [(v, v ^ (1 << b)) for v in range(1 << n) for b in range(n)
             if v < v ^ (1 << b)]
    labels = {v: format(v, f"0{n}b") for v in range(1 << n)}
    return Graph(1 << n, edges, labels)


def sierpinski(p: int, n: int) -> Graph:
    """S_p^n on the length-n digit strings over 0..p-1, numbered by their
    base-p values and labelled by themselves; p >= 1, n >= 0.  Copy i holds
    the strings i..., and its extreme vertex j is i j..j.  O(p^(n+1)) time."""
    if p < 1:
        raise ValueError(f"base p must be >= 1, got {p}")
    if n < 0:
        raise ValueError(f"exponent n must be >= 0, got {n}")
    if n == 0 or p == 1:   # one vertex: the empty string "e", or n zeros
        return Graph._of(1, ((),), {0: "0" * n or "e"})
    rows = [tuple(w for w in range(p) if w != v) for v in range(p)]   # K_p
    labels = [str(v) for v in range(p)]
    heads = [f"{i}-" if p > 10 else str(i) for i in range(p)]
    s = p   # p^k, the order of S_p^k
    for _ in range(n - 1):
        e = (s - 1) // (p - 1)   # extreme vertex j of a copy is j * e
        rows = [tuple(w + i * s for w in row) for i in range(p) for row in rows]
        labels = [head + label for head in heads for label in labels]
        # b lies in copy j, before copy i's ids iff j < i: a's row stays sorted
        for i, j in permutations(range(p), 2):
            a, b = i * s + j * e, j * s + i * e
            rows[a] = (b,) + rows[a] if j < i else rows[a] + (b,)
        s *= p
    return Graph._of(s, tuple(rows), dict(enumerate(labels)))


def sierpinski_eod_set(p: int, n: int) -> VertexSet:
    """The explicit EOD set for even p: pairs of vertices ...(2i)(2i+1)
    and ...(2i+1)(2i) over all length-(n-2) prefixes x."""
    if p % 2 != 0 or p < 4:
        raise ValueError(f"explicit EOD set needs even p >= 4, got {p}")
    if n < 2:
        raise ValueError(f"explicit EOD set needs n >= 2, got {n}")
    return frozenset(x * p * p + v for x in range(p ** (n - 2)) for i in range(0, p, 2)
                     for v in (i * p + i + 1, (i + 1) * p + i))


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


_POWER_BITS = 1 << 16   # base ** exp past 2^_POWER_BITS reads as 2^_POWER_BITS


def _power(base: int, exp: int) -> int:
    """base ** exp, the vertex count of Q_n and S_p^n; 0 for parameters the
    builder refuses.  A power that base >= 2^(bit_length - 1) puts past
    2^_POWER_BITS reads as that lower bound, so no power computed here has
    more than 2 * _POWER_BITS bits."""
    if base < 1 or exp < 0:
        return 0
    if exp * (base.bit_length() - 1) >= _POWER_BITS:   # 2^(bit_length - 1) <= base
        return 1 << _POWER_BITS
    return base ** exp


@dataclass(frozen=True)
class Family:
    build: Callable[..., Graph]
    arity: int                     # number of integer parameters
    order: Callable[..., int]      # vertex count, known before building (see _power)
    eocd: Callable[..., bool]      # the closed-form EOCD rule


FAMILIES = {
    "path": Family(path, 1, lambda n: n, lambda n: n % 4 != 1),
    "cycle": Family(cycle, 1, lambda n: n, lambda n: n % 12 == 0),
    "complete_bipartite": Family(complete_bipartite, 2, lambda r, t: r + t,
                                 lambda r, t: r == 1 or t == 1),
    "hypercube": Family(hypercube, 1, lambda n: _power(2, n), lambda n: n == 1),
    "sierpinski": Family(sierpinski, 2, _power, sierpinski_is_eocd),
}


def predicted_eocd(family: str, *params: int) -> bool:
    """Closed-form EOCD truth value for a family instance."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family].eocd(*params)
