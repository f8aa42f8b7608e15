"""Linear recognizer for certificates whose ECD set sits inside the EOD set."""

import random
import time

from eocd.claims import star_forest
from eocd.families import complete_bipartite, cycle, path
from eocd.graph import Graph
from eocd.solver import (
    _nested_candidate,
    find_eocd,
    is_ecd_set,
    is_eod_set,
    iter_efficient_sets,
    recognize_empty_pd,
)


def test_star_is_recognized():
    cert = recognize_empty_pd(complete_bipartite(1, 3))
    assert cert is not None
    assert sorted(cert.p) == [0]
    assert not cert.p_only


def test_paths():
    cert = recognize_empty_pd(path(2))
    assert cert is not None and len(cert.d) == 2
    # P6 is two stars at distance 3: nested certificate exists
    cert = recognize_empty_pd(path(6))
    assert cert is not None and sorted(cert.p) == [1, 4]
    # P8 has an EOCD certificate but no nested one
    assert find_eocd(path(8)) is not None
    assert recognize_empty_pd(path(8)) is None


def test_double_star_family():
    # two stars joined center-to-center through a path of length 3:
    # supports plus one leaf each give the nested certificate.
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 7), (7, 5), (7, 6)])
    cert = recognize_empty_pd(g)
    assert cert is not None
    cert.validate(g)
    assert sorted(cert.p) == [0, 7]


def test_close_supports_rejected():
    # two stars whose centers are adjacent: supports are at distance 1
    g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (0, 3)])
    assert recognize_empty_pd(g) is None


def test_agrees_with_search_on_random_graphs():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.3])
        # the characterization: the candidate P is ECD iff the candidate D is EOD
        d, p = _nested_candidate(g)
        assert p <= d
        assert is_ecd_set(g, p) == is_eod_set(g, d), sorted(g.edges())
        # the definition: some EOD set D and ECD set P with P inside D
        ecds = list(iter_efficient_sets(g, closed=True))
        nested = any(p <= d for d in iter_efficient_sets(g, closed=False) for p in ecds)
        fast = recognize_empty_pd(g)
        assert (fast is not None) == nested, sorted(g.edges())
        if fast is not None:
            fast.validate(g)


def test_cycles_never_nested():
    for n in range(3, 20):
        assert recognize_empty_pd(cycle(n)) is None


def test_large_star_forest_is_fast():
    g = star_forest(2_000)
    t0 = time.perf_counter()
    cert = recognize_empty_pd(g)
    assert time.perf_counter() - t0 < 1.0
    assert cert is not None
    assert len(cert.p) == 2_000
    assert len(cert.d) == 4_000
