"""The machine's speed, sampled with a fixed reference kernel during a run.

The benchmark's host is shared, and its speed drifts: a fixed Python
loop can take twice as long a minute later.  Medians over passes remove
short bursts but not drift that spans whole runs.  So the run samples a
fixed kernel of the benchmark's own code between jobs, and rescales each
job's time by how fast that kernel ran around it:

    normalized seconds = real seconds * NOMINAL_S / kernel seconds

A normalized time is the time the job would take on a machine where the
kernel takes NOMINAL_S.  The kernel never calls `eocd`, and its input is
fixed, so a change to the package cannot change it.
"""

from __future__ import annotations

import random
from time import perf_counter

from inputs import cycle_edges, edge_text, grow_tree
from oracle import adjacency, certificate_ok, exact_covers, is_tree, masks_of, parse_edges

# The kernel's time on a 2-core Intel Xeon (2.0 GHz) at a quiet moment.
NOMINAL_S = 0.0017
# Sample the kernel between jobs at least this often (seconds).
EVERY_S = 0.1
REPEATS = 3

_TREE = grow_tree(random.Random(0), 600)
_TEXT = edge_text(_TREE.n, _TREE.edges)
_C12 = masks_of(adjacency(12, cycle_edges(12)), True)


def kernel():
    """Parsing, adjacency lists, sets and a small exact-cover search: the package's mix."""
    n, edges = parse_edges(_TEXT)
    edges = sorted(edges)
    certificate_ok(adjacency(n, edges), _TREE.d, _TREE.p)
    is_tree(n, edges)
    for _ in exact_covers(12, _C12):
        pass


class Speed:
    """Kernel samples of one run; each is the fastest of REPEATS back-to-back runs."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        self.samples.append(best)
        self.last = perf_counter()
        return len(self.samples) - 1

    def due(self):
        return perf_counter() - self.last >= EVERY_S

    def scale(self, before):
        """Factor for work done between sample `before` and the next one."""
        return NOMINAL_S * 2 / (self.samples[before] + self.samples[before + 1])
