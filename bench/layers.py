"""The public `eocd` calls a job makes, grouped into layers, and their tracing.

Jobs call the package only through a `Calls` object.  Untraced, its
attributes are the package's own functions; traced, each is wrapped so
that a call records one span.  Spans are recorded at the benchmark's call
sites only, so layer spans never nest inside one another.
"""

from __future__ import annotations

from functools import reduce
from time import perf_counter

# attribute of `Calls` -> (layer, dotted name in the package)
CALLS = {
    "parse_edge_list": ("graph.parse", "parse_edge_list"),
    "dump_edge_list": ("graph.dump", "dump_edge_list"),
    "path": ("families.build", "path"),
    "cycle": ("families.build", "cycle"),
    "complete_bipartite": ("families.build", "complete_bipartite"),
    "hypercube": ("families.build", "hypercube"),
    "sierpinski": ("sierpinski.build", "sierpinski"),
    "find_eocd": ("solver.search", "find_eocd"),
    "gamma": ("solver.gamma", "gamma"),
    "gamma_t": ("solver.gamma", "gamma_t"),
    "is_eod_set": ("solver.check", "is_eod_set"),
    "is_ecd_set": ("solver.check", "is_ecd_set"),
    "validate": ("solver.check", "EocdCertificate.validate"),
    "classify_partition": ("solver.classify", "classify_partition"),
    "parse_dimacs": ("reduction.parse", "parse_dimacs"),
    "build_reduction": ("reduction.build", "build_reduction"),
    "assignment_from_witness": ("reduction.extract", "assignment_from_witness"),
    "recognize_empty_pd": ("recognizer.recognize", "recognize_empty_pd"),
    "random_eocd_tree": ("trees.grow", "random_eocd_tree"),
    "is_eocd_tree": ("trees.dp", "is_eocd_tree"),
    "decompose": ("trees.decompose", "decompose"),
    "replay": ("trees.replay", "replay"),
    "parse_sequence": ("trees.io", "TreeOpSequence.parse"),
    "serialize_sequence": ("trees.io", "TreeOpSequence.serialize"),
    "eod_to_ecd": ("transforms.convert", "eod_to_ecd"),
    "ecd_to_eod": ("transforms.convert", "ecd_to_eod"),
}

LAYERS = tuple(dict.fromkeys(layer for layer, _ in CALLS.values()))
GLUE, CHECK, JOB, PASS = "bench.glue", "bench.check", "bench.job", "bench.pass"


class Calls:
    """The package's public functions, traced into `tracer` when one is given."""

    def __init__(self, eocd, tracer=None):
        self.eocd = eocd
        for attr, (layer, name) in CALLS.items():
            fn = reduce(getattr, name.split("."), eocd)
            setattr(self, attr, fn if tracer is None else tracer.wrap(layer, fn))


class Tracer:
    """Spans kept in memory: (id, parent id, name, job id, start, end)."""

    def __init__(self):
        self.spans = []
        self.job = None      # (span id, job id) of the job in flight
        self._next = 0

    def new_id(self):
        self._next += 1
        return self._next

    def wrap(self, layer, fn):
        spans, clock = self.spans, perf_counter

        def traced(*args):
            sid, (parent, job) = self.new_id(), self.job
            t0 = clock()
            try:
                return fn(*args)
            finally:
                spans.append((sid, parent, layer, job, t0, clock()))
        return traced

    def record(self, name, job, parent, t0, t1, sid=None):
        self.spans.append((sid or self.new_id(), parent, name, job, t0, t1))
