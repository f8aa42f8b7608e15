"""Exact-cover solver against frozen values and a subset-enumeration oracle."""

import hashlib
import random
from itertools import combinations
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

from eocd.claims import graphs, rooted_trees
from eocd.families import complete_bipartite, cycle, hypercube, path, sierpinski
from eocd.graph import Graph, GraphError
from eocd.solver import (
    EocdCertificate,
    InvalidCertificateError,
    IsolatedVertexError,
    SearchMode,
    classify_partition,
    find_ecd,
    find_eocd,
    find_eod,
    gamma,
    gamma_t,
    is_ecd_set,
    is_eod_set,
    iter_efficient_sets,
)
from eocd.solver import _column_index, _covers, _p4_middles
from eocd.trees import random_eocd_tree

PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])


def test_validity_predicates():
    g = path(5)
    assert is_ecd_set(g, {0, 3})
    assert not is_ecd_set(g, {0, 1})    # 0 doubly covered
    assert not is_ecd_set(g, {1})       # 4 uncovered
    assert not is_eod_set(g, {1, 2})    # 2 covered once but 4 uncovered
    assert find_eod(g) is None
    assert is_eod_set(path(4), {1, 2})


def test_first_solutions_are_deterministic():
    assert sorted(find_ecd(path(5))) == [0, 3]
    assert sorted(find_eod(path(4))) == [1, 2]
    assert sorted(find_eod(cycle(12))) == [0, 1, 4, 5, 8, 9]
    assert sorted(find_ecd(cycle(12))) == [0, 3, 6, 9]


def test_petersen_has_neither():
    assert find_ecd(PETERSEN) is None
    assert find_eod(PETERSEN) is None


def test_exact_covers_enumerates_all():
    # C4: closed neighborhoods are all 3-sets, no exact cover;
    # open neighborhoods pair up opposite vertices.
    g = cycle(4)
    assert list(iter_efficient_sets(g, closed=True)) == []
    eods = sorted(sorted(s) for s in iter_efficient_sets(g, closed=False))
    assert eods == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_exact_covers_empty_universe():
    empty = Graph(0, [])
    assert list(iter_efficient_sets(empty, closed=False)) == [frozenset()]
    assert list(iter_efficient_sets(empty, closed=True)) == [frozenset()]


def test_gamma_frozen_values():
    assert gamma(path(7)) == 3
    assert gamma_t(path(7)) == 4
    assert gamma(cycle(9)) == 3
    assert gamma_t(cycle(9)) == 5
    assert gamma(complete_bipartite(3, 4)) == 2
    assert gamma_t(complete_bipartite(3, 4)) == 2
    assert gamma(hypercube(3)) == 2
    assert gamma_t(hypercube(3)) == 4
    assert gamma(PETERSEN) == 3
    assert gamma_t(PETERSEN) == 4


def test_certificate_partition_and_validation():
    g = cycle(12)
    cert = find_eocd(g)
    assert cert is not None
    cert.validate(g)
    assert cert.dp | cert.d_only == cert.d
    assert cert.dp | cert.p_only == cert.p
    assert cert.r == frozenset(range(12)) - cert.d - cert.p
    with pytest.raises(InvalidCertificateError):
        EocdCertificate(12, cert.d, frozenset({0, 1})).validate(g)


def _reference_to_record(cert):
    """The set-algebra `to_record` that the sorted-list filters replaced,
    kept as the oracle for the record's arrays and key order."""
    return {
        "D": sorted(cert.d),
        "P": sorted(cert.p),
        "dp": sorted(cert.dp),
        "d_only": sorted(cert.d_only),
        "p_only": sorted(cert.p_only),
        "r": sorted(frozenset(range(cert.n)) - (cert.d | cert.p)),
    }


@st.composite
def certificates(draw):
    """Any pair of vertex sets, valid or not, on 0-40 vertices."""
    n = draw(st.integers(0, 40))
    vertices = st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())
    return EocdCertificate(n, draw(vertices), draw(vertices))


@given(certificates())
@settings(max_examples=300, deadline=None)
@example(EocdCertificate(0, frozenset(), frozenset()))
@example(EocdCertificate(3, frozenset({0, 1, 2}), frozenset({0, 1, 2})))
def test_certificate_record_matches_reference(cert):
    assert list(cert.to_record().items()) == list(_reference_to_record(cert).items())


def test_ids_outside_the_graph_are_rejected():
    g = path(2)
    for d in ({0, -1}, {0, 2}):
        with pytest.raises(GraphError):
            is_eod_set(g, d)
        with pytest.raises(GraphError):
            is_ecd_set(g, d)
        with pytest.raises(GraphError):
            EocdCertificate(2, frozenset(d), frozenset({0})).validate(g)


def test_validation_names_the_vertex():
    g = path(4)
    with pytest.raises(InvalidCertificateError, match="vertex 1 is uncovered by D"):
        EocdCertificate(4, frozenset({1}), frozenset({0, 3})).validate(g)
    doubly = r"vertex 0 is doubly covered by P \(via 0 and 1\)"
    with pytest.raises(InvalidCertificateError, match=doubly):
        EocdCertificate(4, frozenset({1, 2}), frozenset({0, 1})).validate(g)


def test_search_modes():
    star = complete_bipartite(1, 3)
    nested = find_eocd(star, SearchMode.EMPTY_P_MINUS_D)
    assert nested is not None and not nested.p_only
    # P4 admits a disjoint witness: D={1,2}, P={0,3}
    disjoint = find_eocd(path(4), SearchMode.EMPTY_INTERSECTION)
    assert disjoint is not None and not disjoint.dp
    disjoint.validate(path(4))
    # P8's only EOD set {1,2,5,6} meets every ECD set
    assert find_eocd(path(8), SearchMode.EMPTY_INTERSECTION) is None


def test_search_mode_is_the_enum_or_its_value():
    for mode in SearchMode:
        assert find_eocd(path(8), mode) == find_eocd(path(8), mode.value)
    assert find_eocd(path(8), "any") is not None
    assert find_eocd(path(4), "empty-pd") is None   # the forced P = {1, 2} is not an ECD set
    assert find_eocd(path(4), "empty-dp") is not None
    with pytest.raises(ValueError, match="'nested' is not a valid SearchMode"):
        find_eocd(path(4), "nested")


def test_structure_report_on_valid_certificate():
    g = path(12)
    cert = find_eocd(g)
    report = classify_partition(g, cert)
    assert report.all_pass, report.checks


def test_structure_theorem_on_every_small_certificate():
    """Every (EOD, ECD) pair of every graph on at most 7 vertices and of
    every rooted tree on at most 10 passes all six rules."""
    pairs = 0
    for g in [*graphs(7), *(t for n in range(1, 11) for t in rooted_trees(n))]:
        ecds = list(iter_efficient_sets(g, closed=True))
        for d in iter_efficient_sets(g, closed=False):
            for p in ecds:
                report = classify_partition(g, EocdCertificate(g.n, d, p))
                assert len(report.checks) == 6 and report.all_pass, (sorted(g.edges()), d, p)
                pairs += 1
    assert pairs == 751


def _brute_min_dominating(g, closed):
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            cov = set()
            for v in s:
                cov.update(g.neighbors(v))
                if closed:
                    cov.add(v)
            if len(cov) == g.n:
                return k


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


@st.composite
def grown_trees(draw):
    return random_eocd_tree(draw(st.integers(1, 10)), draw(st.integers(0, 1 << 16)))[0]


def _reference_is_kp4(g, s):
    """Whether the subgraph of g induced by the vertex set s is a union of
    P4s, by a walk over each component and its sorted degrees."""
    seen = set()
    for v in s:
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        for x in comp:   # grows into the component of v
            for w in g.neighbors(x):
                if w in s and w not in seen:
                    seen.add(w)
                    comp.append(w)
        if sorted(sum(1 for w in g.neighbors(x) if w in s) for x in comp) != [1, 1, 2, 2]:
            return False
    return True


def test_p4_middles_matches_the_component_walk():
    """`_p4_middles` finds kP4 exactly where the walk does, on every
    vertex subset of every graph on at most 7 vertices."""
    subsets = kp4 = 0
    for g in graphs(7):
        for mask in range(1 << g.n):
            s = {v for v in range(g.n) if mask >> v & 1}
            middles = _p4_middles(g._adj, s)
            assert (middles is not None) == _reference_is_kp4(g, s), (sorted(g.edges()), s)
            if middles is not None:   # the vertices with two neighbors in s
                two = [v for v in sorted(s) if len(s.intersection(g.neighbors(v))) == 2]
                assert sorted(middles) == two
            subsets += 1
            kp4 += middles is not None
    assert (subsets, kp4) == (144922, 7125)


def _reference_classify_partition(g, cert):
    """`classify_partition` from sets and `_reference_is_kp4`, the oracle
    for its checks and refusals."""
    cert.validate(g)
    dp, d_only, p_only = cert.dp, cert.d_only, cert.p_only
    r = cert.r
    checks = []
    counts = [0] * g.n, [0] * g.n, [0] * g.n   # neighbors in D&P, D-P, P-D
    n_dp, n_do, n_po = counts
    for count, part in zip(counts, (dp, d_only, p_only)):
        for w in part:
            for v in g.neighbors(w):
                count[v] += 1

    def bullet(name, vertices, pred):
        for v in vertices:
            if not pred(v):
                checks.append((name, False, f"counterexample vertex {v}"))
                return
        checks.append((name, True, ""))

    bullet("dp-vertices: one D-P neighbor, no P-D neighbors", sorted(dp),
           lambda v: n_do[v] == 1 and n_po[v] == 0)
    bullet("p-only vertices: one D-P neighbor, no D&P neighbors", sorted(p_only),
           lambda v: n_do[v] == 1 and n_dp[v] == 0)

    def two_way(v):
        return ((n_po[v] == 1 and n_do[v] == 1 and n_dp[v] == 0)
                or (n_dp[v] == 1 and n_po[v] == 0 and n_do[v] == 0))

    bullet("d-only vertices: (one P-D and one D-P neighbor) or one D&P neighbor",
           sorted(d_only), two_way)
    bullet("R vertices: (one P-D and one D-P neighbor) or one D&P neighbor",
           sorted(r), two_way)

    matched = dp | {w for v in dp for w in g.neighbors(v) if w in d_only}
    ok = all(sum(1 for w in g.neighbors(v) if w in matched) == 1 for v in matched)
    checks.append(("D&P with their D-P partners induce a matching", ok,
                   "" if ok else "induced subgraph is not a perfect matching"))

    partners_po = {w for v in p_only for w in g.neighbors(v) if w in d_only}
    partners_po |= {w for v in partners_po for w in g.neighbors(v) if w in d_only}
    four = p_only | partners_po
    ok4 = _reference_is_kp4(g, four) and 2 * (len(four) // 4) == len(p_only)
    checks.append(("P-D with their D-P partners induce k copies of P4, 2k = |P-D|",
                   ok4, "" if ok4 else f"induced subgraph on {len(four)} vertices is not kP4"))
    return checks


@given(st.one_of(small_graphs(max_n=10), grown_trees()), st.data())
@settings(max_examples=150, deadline=None)
def test_classify_partition_matches_reference(g, data):
    """Equal checks on every (D, P) pair of efficient sets, and equal
    refusals on a drawn pair, which is almost never a certificate."""
    ecds = list(iter_efficient_sets(g, closed=True))
    for d in iter_efficient_sets(g, closed=False):
        for p in ecds:
            cert = EocdCertificate(g.n, d, p)
            assert classify_partition(g, cert).checks == _reference_classify_partition(g, cert)
    vertices = st.frozensets(st.integers(0, g.n - 1))
    cert = EocdCertificate(g.n, data.draw(vertices), data.draw(vertices))
    try:
        want = _reference_classify_partition(g, cert)
    except InvalidCertificateError as exc:
        with pytest.raises(InvalidCertificateError) as got:
            classify_partition(g, cert)
        assert str(got.value) == str(exc)
    else:
        assert classify_partition(g, cert).checks == want


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_gamma_matches_brute_force(g):
    assert gamma(g) == _brute_min_dominating(g, closed=True)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_gamma_t_matches_brute_force_when_defined(g):
    if any(g.degree(v) == 0 for v in range(g.n)):
        return  # total domination undefined with isolated vertices
    assert gamma_t(g) == _brute_min_dominating(g, closed=False)


@st.composite
def small_forests(draw):
    """Forests on up to 12 vertices: each vertex hangs on an earlier one or
    starts a new tree, so K1 and K2 components occur."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = []
    for v in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=v - 1)))
        if parent is not None:
            edges.append((parent, v))
    return Graph(n, edges)


@given(small_forests())
@settings(max_examples=200, deadline=None)
@example(Graph(1, []))                                    # K1
@example(Graph(2, [(0, 1)]))                              # K2
@example(Graph(5, [(0, 1), (2, 3), (3, 4)]))              # K2 + P3
@example(Graph(6, [(0, 1), (1, 2), (1, 3), (4, 5)]))      # star + K2
@example(Graph(4, [(0, 1), (1, 2)]))                      # P3 + an isolated vertex
def test_forest_dominations_match_brute_force(g):
    assert gamma(g) == _brute_min_dominating(g, closed=True)
    if any(g.degree(v) == 0 for v in range(g.n)):
        with pytest.raises(IsolatedVertexError):
            gamma_t(g)
    else:
        assert gamma_t(g) == _brute_min_dominating(g, closed=False)


def _comb(spine, tooth):
    """A spine path with a pendant path of `tooth` vertices on each spine vertex."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    for s in range(spine):
        tip = s
        for j in range(tooth):
            new = spine + s * tooth + j
            edges.append((tip, new))
            tip = new
    return Graph(spine * (tooth + 1), edges)


def test_paths_and_cycles_match_closed_forms():
    def closed_forms(n):
        return -(-n // 3), n // 2 + -(-n // 4) - n // 4   # gamma, gamma_t
    for n in [*range(2, 101), 3997, 3998, 3999, 4000]:
        assert (gamma(path(n)), gamma_t(path(n))) == closed_forms(n), n
    for n in [*range(3, 101), 1197, 1198, 1199, 1200]:
        assert (gamma(cycle(n)), gamma_t(cycle(n))) == closed_forms(n), n


def test_comb_and_disjoint_triangles():
    comb = _comb(14, 2)
    assert (gamma(comb), gamma_t(comb)) == (14, 28)
    k = 1365
    triangles = Graph(3 * k, [(3 * i + a, 3 * i + b) for i in range(k)
                              for a, b in ((0, 1), (1, 2), (0, 2))])
    assert gamma(triangles) == k
    assert gamma_t(triangles) == 2 * k


def _disjoint(parts) -> Graph:
    """The disjoint union of `parts`, each relabelled after the ones before."""
    edges, n = [], 0
    for part in parts:
        edges += [(n + u, n + v) for u, v in part.edges()]
        n += part.n
    return Graph(n, edges)


@pytest.mark.parametrize("g, expected", [
    (_disjoint([path(2)] * 2048), (2048, 4096)),
    (_disjoint([path(3)] * 1365), (1365, 2730)),
    (complete_bipartite(1, 4095), (1, 2)),
    (_disjoint([path(40)] + [cycle(5)] * 10), (14 + 10 * 2, 20 + 10 * 3)),
], ids=["2048xK2", "1365xP3", "K1,4095", "P40+10xC5"])
def test_many_components_match_closed_forms(g, expected):
    """Many tree components (or one wide star) at sizes the 4,096-vertex
    guard admits: each component adds its own gamma and gamma_t."""
    assert g.n <= 4096
    assert (gamma(g), gamma_t(g)) == expected


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_every_enumerated_set_is_valid(g):
    for p in iter_efficient_sets(g, closed=True):
        assert is_ecd_set(g, p)
    for d in iter_efficient_sets(g, closed=False):
        assert is_eod_set(g, d)


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_eocd_sizes_match_domination_numbers(g):
    """When both certificates exist, |P| = gamma and |D| = gamma_t."""
    cert = find_eocd(g)
    if cert is None:
        return
    assert len(cert.p) == gamma(g)
    assert len(cert.d) == gamma_t(g)


def test_random_search_modes_agree_on_existence():
    """A constrained-mode hit is always an ordinary EOCD witness too."""
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.4]
        g = Graph(n, edges)
        for mode in (SearchMode.EMPTY_INTERSECTION, SearchMode.EMPTY_P_MINUS_D):
            cert = find_eocd(g, mode)
            if cert is not None:
                cert.validate(g)
                assert find_eocd(g) is not None


def _exact_covers_brute(g, closed):
    """Every vertex subset whose (open or closed) neighborhoods partition V."""
    found = []
    for bits in range(1 << g.n):
        members = [v for v in range(g.n) if bits >> v & 1]
        hits = [0] * g.n
        for v in members:
            for w in g.neighbors(v):
                hits[w] += 1
            if closed:
                hits[v] += 1
        if all(h == 1 for h in hits):
            found.append(frozenset(members))
    return found


def _mode_holds(mode, d, p):
    if mode is SearchMode.EMPTY_INTERSECTION:
        return not d & p
    return p <= d


@given(small_graphs())
@settings(max_examples=300, deadline=None)
@example(Graph(1, []))                                             # lone isolated vertex
@example(Graph(4, [(0, 1), (2, 3)]))                               # 2 K2: nested only
@example(Graph(5, [(0, 1), (1, 2), (2, 3)]))                       # P4 plus an isolated vertex
@example(Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]))       # P4 + P3
@example(Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)]))               # P4 + K2
@example(Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6)]))       # K_{1,3} + K_{1,2}
def test_constrained_modes_match_subset_enumeration(g):
    """A constrained search finds a certificate exactly when some EOD set
    D and ECD set P from brute-force enumeration obey the mode."""
    eods = _exact_covers_brute(g, closed=False)
    ecds = _exact_covers_brute(g, closed=True)
    for mode in (SearchMode.EMPTY_INTERSECTION, SearchMode.EMPTY_P_MINUS_D):
        want = any(_mode_holds(mode, d, p) for d in eods for p in ecds)
        cert = find_eocd(g, mode)
        assert (cert is not None) == want, (mode, g.n, sorted(g.edges()))
        if cert is not None:
            cert.validate(g)
            assert _mode_holds(mode, cert.d, cert.p)


def _spider(legs):
    """Center 0 with `legs` paths of length 3: 0 - a_i - b_i - x_i."""
    edges = []
    for i in range(legs):
        a, b, x = 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(0, a), (a, b), (b, x)]
    return Graph(3 * legs + 1, edges)


def test_long_paths_solve_without_recursion_error():
    for n in (2000, 4000):
        g = path(n)
        cert = find_eocd(g)
        assert cert is not None
        cert.validate(g)


def test_large_spider_tree_is_eocd():
    legs = 1067
    g = _spider(legs)
    assert g.n >= 3200
    # known certificate: D = {a_1} + every b_i + x_i for i > 1, P = {0} + every x_i
    d = frozenset([1] + [3 * i + 2 for i in range(legs)] + [3 * i + 3 for i in range(1, legs)])
    p = frozenset([0] + [3 * i + 3 for i in range(legs)])
    EocdCertificate(g.n, d, p).validate(g)
    cert = find_eocd(g)
    assert cert is not None
    cert.validate(g)


def test_disjoint_c12_copies_have_no_disjoint_certificate():
    k = 8
    g = Graph(12 * k, [(12 * i + j, 12 * i + (j + 1) % 12) for i in range(k) for j in range(12)])
    assert find_eocd(g, SearchMode.EMPTY_INTERSECTION) is None
    assert find_eocd(g, SearchMode.EMPTY_P_MINUS_D) is None
    assert find_eocd(g) is not None


def test_spider_ecd_search_statistics():
    g = _spider(1067)
    stats = {}
    p = next(iter_efficient_sets(g, closed=True, stats=stats))
    assert p == frozenset([0] + [3 * i + 3 for i in range(1067)])
    assert stats == {"nodes": 3201, "backtracks": 2132, "max_depth": 1068, "scanned": 5332}
    assert stats["nodes"] == 1 + stats["backtracks"] + len(p)


@pytest.mark.parametrize("n", [1000, 2000, 4000])
def test_path_eod_choice_scans_linearly(n):
    """A forced chain: the parent's scan from the head visited about n^2/8
    columns on P_n."""
    stats = {}
    d = next(iter_efficient_sets(path(n), closed=False, stats=stats))
    assert len(d) == n // 2
    assert stats["scanned"] <= 3 * n
    assert stats["nodes"] == n // 2 + 1 and stats["backtracks"] == 0
    assert stats["max_depth"] == n // 2


def test_tree_ecd_choice_scans_linearly():
    """Forced picks keep appearing behind high-count columns on a random
    EOCD tree: a cursor walked over those columns again for each of them,
    about 92 columns per vertex on this 3,936-vertex tree."""
    g = random_eocd_tree(1150, 2)[0]
    stats = {}
    first = next(iter_efficient_sets(g, closed=True, stats=stats))
    assert g.n == 3936
    assert stats["scanned"] <= 4 * g.n
    assert (stats["nodes"], stats["backtracks"], stats["max_depth"]) == (2554, 1144, 1409)
    assert hashlib.sha256(repr(sorted(first)).encode()).hexdigest() == \
        "8e634a0139e3ab3b6f442c0c952816b76626d38995586065d8c53a7fb9208afa"


@pytest.mark.parametrize("build, closed, stats, digest", [
    (lambda: path(1500), True, (1001, 500, 500, 1000),
     "9266073882a93dc83a6985307d9ce2ffda620e17063568795be9994922d5bce7"),
    (lambda: path(1500), False, (751, 0, 750, 750),
     "3301ac3be1872b648548cbe75c7281fd13baf6c19ab7011af09a06272412325b"),
    (lambda: sierpinski(6, 4), False, (217, 0, 216, 32256),
     "fa841e2ab4783e0b0227c98f0d32e8c437abd958d3bba76b3ff98dc490c2a6a1"),
    (lambda: sierpinski(6, 4), True, (351, 164, 186, 22776),
     "69e6c81317dcbef69577c68dfd44812cde57380226c189cba58d69acae519bae"),
    (lambda: sierpinski(4, 5), False, (257, 0, 256, 12933),
     "3e4720131ef5de87174101da43e626bbf7ab43d2e350dbc3aeeefad5852157cf"),
    (lambda: sierpinski(4, 5), True, (245, 39, 205, 14943),
     "de9de8844347ac13e3937e703883a74cf6a40484bbfdcc20c2d3ef38bff35620"),
], ids=["path-1500-closed", "path-1500-open", "sierpinski-6-4-open",
        "sierpinski-6-4-closed", "sierpinski-4-5-open", "sierpinski-4-5-closed"])
def test_first_cover_statistics_are_pinned(build, closed, stats, digest):
    """The search effort as counts, and the SHA-256 of the first cover's
    sorted id list: a change to the column choice or to the order in which
    rows are tried moves one of them."""
    got = {}
    first = next(iter_efficient_sets(build(), closed, stats=got))
    assert got == dict(zip(("nodes", "backtracks", "max_depth", "scanned"), stats))
    assert hashlib.sha256(repr(sorted(first)).encode()).hexdigest() == digest


def test_search_statistics_of_full_enumerations():
    # open: every column has 2 rows, so each inner node stops on its first
    # column; the root and its two children scan once each
    stats = {}
    assert len(list(iter_efficient_sets(cycle(4), closed=False, stats=stats))) == 4
    assert stats == {"nodes": 7, "backtracks": 6, "max_depth": 2, "scanned": 3}
    # closed: the root walks all 4 columns (3 rows each), and each of its
    # 3 picks leaves column 2 with no row, found in one step
    stats = {}
    assert list(iter_efficient_sets(cycle(4), closed=True, stats=stats)) == []
    assert stats == {"nodes": 4, "backtracks": 3, "max_depth": 1, "scanned": 7}


def _reference_covers(n_primary: int, n_cols: int, rows) -> Iterator[list[int]]:
    """`_covers` with a scan from the head at every node: an oracle for the
    order of the covers that the heap of forced columns must keep.

    Each row is a sequence of column ids below `n_cols`.  Primary columns
    (ids below n_primary) must be covered exactly once; the others are
    secondary and may be covered at most once.  Algorithm X with a frame
    stack instead of recursion: every column keeps its count of live rows,
    and the live primary columns form a doubly linked list in id order.
    Each node branches on the live primary column with the fewest live
    rows (ties to the smallest id; the scan stops at a count of 0 or 1)
    and tries its live rows in index order, so the covers come out in a
    fixed order.
    """
    col_rows: list[list[int]] = [[] for _ in range(n_cols)]
    for r, cols in enumerate(rows):
        for c in cols:
            col_rows[c].append(r)
    count = [len(rs) for rs in col_rows]
    head = n_primary
    nxt = [*range(1, n_primary + 1), 0]
    prv = [n_primary, *range(n_primary)]
    live = [True] * len(rows)
    killed: list[int] = []   # rows made dead by the current picks, in order
    marks: list[int] = []    # len(killed) before each pick
    chosen: list[int] = []   # the row picked in each frame
    stack: list[list[int]] = []  # frames: [column, next index into col_rows[column]]
    descend = True
    while True:
        if descend:
            c = nxt[head]
            if c != head:
                best, fewest = c, count[c]
                if fewest > 1:
                    c = nxt[c]
                    while c != head:
                        k = count[c]
                        if k < fewest:
                            best, fewest = c, k
                            if k < 2:
                                break
                        c = nxt[c]
                if fewest:
                    stack.append([best, 0])
            else:
                yield list(chosen)
        if not stack:
            return
        frame = stack[-1]
        if len(chosen) == len(stack):   # take back this frame's last pick
            r = chosen.pop()
            mark = marks.pop()
            while len(killed) > mark:
                r2 = killed.pop()
                live[r2] = True
                for c2 in rows[r2]:
                    count[c2] += 1
            for c2 in reversed(rows[r]):
                if c2 < n_primary:
                    nxt[prv[c2]] = c2
                    prv[nxt[c2]] = c2
        c, i = frame
        rs = col_rows[c]
        end = len(rs)
        while i < end and not live[rs[i]]:
            i += 1
        if i == end:
            stack.pop()
            descend = False
            continue
        r = rs[i]
        frame[1] = i + 1
        marks.append(len(killed))
        chosen.append(r)
        for c2 in rows[r]:
            if c2 < n_primary:
                a, b = prv[c2], nxt[c2]
                nxt[a] = b
                prv[b] = a
            for r2 in col_rows[c2]:
                if live[r2]:
                    live[r2] = False
                    killed.append(r2)
                    for c3 in rows[r2]:
                        count[c3] -= 1
        descend = True




@st.composite
def row_systems(draw):
    """`(n_primary, n_cols, rows, own_index)`: random rows over primary and
    secondary columns, where each of the first few primary columns may lie
    in a single row, so that the search starts with forced picks; the
    EMPTY_INTERSECTION shape of a random graph, a D
    row (N(v) and "center v") and a P row (N[v] shifted by k, and "center
    v") per vertex; or the ECD rows (*N(v), v) of a random graph, which are
    their own column index (`own_index`)."""
    kind = draw(st.sampled_from(["random", "empty-dp", "closed"]))
    if kind == "closed":
        g = draw(small_graphs())
        return g.n, g.n, [(*g.neighbors(v), v) for v in range(g.n)], True
    if kind == "empty-dp":
        g = draw(small_graphs())
        k = g.n
        rows = []
        for v in range(k):
            opened = list(g.neighbors(v))
            rows.append(opened + [2 * k + v])
            rows.append([k + w for w in opened] + [k + v, 2 * k + v])
        return 2 * k, 3 * k, rows, False
    n_forced = draw(st.integers(min_value=0, max_value=3))
    n_primary = n_forced + draw(st.integers(min_value=0, max_value=9))
    n_cols = n_primary + draw(st.integers(min_value=0, max_value=4))
    others = st.integers(min_value=n_forced, max_value=n_cols - 1)
    row = st.lists(others, unique=True, min_size=1, max_size=min(n_cols - n_forced, 5)) \
        if n_cols > n_forced else st.just([])
    rows = draw(st.lists(row, max_size=16))
    for j in range(n_forced):   # column j lies in one row: picked before any branch
        extra = draw(st.lists(others, unique=True, max_size=3)) if n_cols > n_forced else []
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), [j, *extra])
    return n_primary, n_cols, rows, False


@given(row_systems())
@settings(max_examples=400, deadline=None)
@example((0, 0, [], False))
@example((3, 3, [[0], [1], [2], [0, 1, 2]], False))
@example((2, 3, [[0, 2], [1, 2], [0], [1]], False))
@example((2, 2, [(1, 0), (0, 1)], True))                  # K_2, closed
@example((3, 3, [(1, 2, 0), (0, 2, 1), (0, 1, 2)], True))   # K_3, closed
def test_cursor_choice_keeps_the_enumeration_order(system):
    n_primary, n_cols, rows, own_index = system
    if own_index:
        col_rows = rows
    else:   # in decreasing row index: the core must order the column itself
        col_rows = [rs[::-1] for rs in _column_index(n_cols, rows)]
    assert list(_covers(n_primary, rows, col_rows)) == \
        list(_reference_covers(n_primary, n_cols, rows))


@given(row_systems())
@settings(max_examples=400, deadline=None)
@example((0, 0, [], False))
@example((2, 2, [[0], [1]], False))                      # forced to the cover, no branch
@example((3, 3, [[0, 1], [1, 2]], False))               # forced, then a dead end
@example((3, 3, [[0], [1], [2], [1, 2]], False))         # forced, then a branch
def test_search_statistics_count_every_pick(system):
    """Each pick opens one node, forced or not, and is taken back once: at
    a cover the picks not yet taken back are the cover's rows, and after
    the last cover every pick has been taken back."""
    n_primary, n_cols, rows, own_index = system
    col_rows = rows if own_index else _column_index(n_cols, rows)
    stats = {}
    for cover in _covers(n_primary, rows, col_rows, stats):
        assert stats["nodes"] == 1 + stats["backtracks"] + len(cover)
        assert stats["max_depth"] >= len(cover)
    assert stats["nodes"] == 1 + stats["backtracks"]


def _search_digest(with_stats: bool) -> str:
    """SHA-256 of every open and closed cover of 2,000 seeded random graphs
    on 0-12 vertices, of each graph's EMPTY_INTERSECTION record, and of the
    first closed cover of `random_eocd_tree(600, 2)`; `with_stats` adds the
    stats dict at each yield and at the end of each enumeration."""
    rng = random.Random(2015)
    h = hashlib.sha256()

    def add(cover, stats):
        h.update(repr((cover, sorted(stats.items())) if with_stats else cover).encode())

    for _ in range(2000):
        n = rng.randint(0, 12)
        density = rng.choice((0.1, 0.2, 0.3, 0.5, 0.8))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
        for closed in (False, True):
            stats = {}
            for s in iter_efficient_sets(g, closed, stats=stats):
                add(sorted(s), stats)
            if with_stats:
                h.update(repr(sorted(stats.items())).encode())
        cert = find_eocd(g, SearchMode.EMPTY_INTERSECTION)
        h.update(repr(cert and cert.to_record()).encode())
    stats = {}
    add(sorted(next(iter_efficient_sets(random_eocd_tree(600, 2)[0], True, stats=stats))), stats)
    return h.hexdigest()


def test_search_covers_digest_is_pinned():
    """Covers and their order alone: a change to the core that only counts
    its effort differently leaves this digest where it is."""
    assert _search_digest(False) == "3908fbfcbc05aa7e2da4dcfd7c518baf3e26bdf14151335a107d0638ce9e03a6"


def test_search_behaviour_digest_is_pinned():
    """Covers, their order and all four stats counts of the search; a change
    to the core that moves any of them moves the digest."""
    assert _search_digest(True) == "d091b5e2255d16ae43344cfb6d63fe669fffb77b3720df466ee77e25eff3316d"
