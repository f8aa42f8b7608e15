"""Closed-form graph families and their EOCD predicates.

`FAMILIES` is the one table of the five closed-form families: each entry
gives the builder, its number of parameters, the vertex count the
builder would produce and the family's EOCD rule.  The rules are the
ground truth the exact solver is checked against: paths are EOCD iff
n != 1 (mod 4), cycles iff n == 0 (mod 12), complete bipartite graphs iff
one side is a single vertex, hypercubes iff n == 1, and Sierpinski graphs
S_p^n (p >= 3, n >= 2) iff p is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import Graph
from .sierpinski import sierpinski, sierpinski_is_eocd


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
