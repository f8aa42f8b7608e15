"""Linear-time recognition of EOCD graphs with P contained in D.

A certificate with P inside D is forced: every K2 component carries
D = both vertices and P = its smaller vertex, and elsewhere P must be the
set of support vertices of leaves, with D = P plus one leaf per support
(the smallest).  So the procedure builds that one candidate pair and
accepts iff its P is an ECD set; by the characterization, P is an ECD set
exactly when D is an EOD set.  Building the pair and the coverage check
are both O(n + m).
"""

from __future__ import annotations

from .graph import Graph
from .solver import EocdCertificate, is_ecd_set


def _nested_candidate(g: Graph) -> tuple[set[int], set[int]]:
    """The only (D, P) pair with P inside D that g can have, unchecked."""
    d: set[int] = set()
    p: set[int] = set()
    for v in range(g.n):   # ascending, so each support takes its smallest leaf
        if g.degree(v) != 1:
            continue
        (s,) = g.neighbors(v)
        if g.degree(s) == 1:   # v and s form a K2 component
            if v < s:
                d.update((v, s))
                p.add(v)
        elif s not in p:
            p.add(s)
            d.update((s, v))
    return d, p


def recognize_empty_pd(g: Graph) -> EocdCertificate | None:
    """Decide whether g is an EOCD graph with empty P-D; return a certificate."""
    d, p = _nested_candidate(g)
    if not is_ecd_set(g, p):
        return None
    return EocdCertificate(g.n, frozenset(d), frozenset(p))
