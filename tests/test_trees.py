"""Tree growth operations, linear recognition, and decomposition."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from eocd.claims import graphs, rooted_trees
from eocd.families import path
from eocd.graph import Graph, certificate_violations
from eocd.solver import find_ecd, find_eod, is_ecd_set, is_eod_set, iter_efficient_sets
import eocd.trees
from eocd.trees import (
    OP_ARITY,
    DecomposeError,
    OpPreconditionError,
    TreeOpSequence,
    TreeOpStep,
    apply_step,
    decompose,
    is_eocd_tree,
    random_eocd_tree,
    replay,
)

K2 = Graph(2, [(0, 1)])
K2_D = frozenset({0, 1})
K2_P = frozenset({0})


def test_step_validation():
    with pytest.raises(ValueError):
        TreeOpStep("O9", (0,), (2,))
    with pytest.raises(ValueError):
        TreeOpStep("O2", (0,), (2,))        # O2 adds three vertices
    with pytest.raises(ValueError):
        TreeOpStep("O1", (0, 1), (2,))      # O1 attaches at one vertex
    for attach, new in (((False,), (2,)), ((0,), (True,)), ((0,), (2.0,))):
        with pytest.raises(OpPreconditionError, match="^O1: vertex ids must be ints"):
            TreeOpStep("O1", attach, new)         # bools are refused, as in Graph


def test_o1_adds_plain_pendant():
    step = TreeOpStep("O1", (0,), (2,))
    t, d, p = apply_step(K2, K2_D, K2_P, step)
    assert sorted(t.edges()) == [(0, 1), (0, 2)]
    assert d == K2_D and p == K2_P


def test_o1_requires_dp_anchor():
    step = TreeOpStep("O1", (1,), (2,))  # 1 is in D but not in P
    with pytest.raises(OpPreconditionError):
        apply_step(K2, K2_D, K2_P, step)


def test_o2_extends_certificate():
    # O2 attaches outside D, so grow a plain pendant first
    t, d, p = apply_step(K2, K2_D, K2_P, TreeOpStep("O1", (0,), (2,)))
    t, d, p = apply_step(t, d, p, TreeOpStep("O2", (2,), (3, 4, 5)))
    assert is_eod_set(t, d) and is_ecd_set(t, p)
    assert d == frozenset({0, 1, 4, 5})


def test_new_ids_must_be_fresh():
    step = TreeOpStep("O1", (0,), (1,))
    with pytest.raises(OpPreconditionError):
        apply_step(K2, K2_D, K2_P, step)


def test_sequence_serialization_round_trip():
    _, _, _, seq = random_eocd_tree(steps=6, seed=1)
    text = seq.serialize()
    back = TreeOpSequence.parse(text)
    assert back.serialize() == text
    g1, d1, p1 = replay(seq)
    g2, d2, p2 = replay(back)
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert (d1, p1) == (d2, p2)


def test_replay_refuses_a_base_k2_on_one_vertex():
    # a sequence built in code is not parsed, so replay checks the base itself
    with pytest.raises(OpPreconditionError, match="^base vertices 0 and 0 must differ$"):
        replay(TreeOpSequence(base=(0, 0), base_p=0))
    assert replay(TreeOpSequence(base=(1, 0), base_p=1))[2] == {1}


def test_sequence_parse_rejects_garbage():
    with pytest.raises(ValueError):
        TreeOpSequence.parse("O7 attach=0 new=2\n")
    with pytest.raises(ValueError):
        TreeOpSequence.parse("O1 attach new=2\n")


def test_sequence_parse_rejects_malformed_k2_lines(line_end_variants):
    cases = [
        ("K2 p=0\n", "line 1", "v="),                          # missing field
        ("K2 v=0,x p=0\n", "line 1", "0,x"),                   # non-integer id
        ("O1 attach=0 new=2\nK2 v=0,1 p=0\n", "line 2", "K2"),  # base after a step
        ("K2 v=0,1 p=0\n\nK2 v=0,1 p=1\n", "line 3", "K2"),    # second base
        ("K2 v=0,1 p=7\n", "line 1", "p="),                    # p not a base vertex
    ]
    for text, where, what in cases:
        for source in line_end_variants(text):
            with pytest.raises(OpPreconditionError) as info:
                TreeOpSequence.parse(source)
            assert where in str(info.value) and what in str(info.value), text


def test_sequence_parse_reads_no_line_after_a_refusal(lines_then_fail):
    lines = [f"O1 attach=0 new={i}\n" for i in range(2, 11)]
    with pytest.raises(OpPreconditionError, match="^line 9: replayed tree has 11 vertices"):
        TreeOpSequence.parse(lines_then_fail(lines), max_vertices=10)
    assert len(TreeOpSequence.parse(iter(lines[:8]), max_vertices=10).steps) == 8


def test_sequence_parse_stops_at_the_line_that_crosses_the_cap(monkeypatch):
    built = []

    def step(*args):
        built.append(args)
        return TreeOpStep(*args)

    monkeypatch.setattr(eocd.trees, "TreeOpStep", step)
    text = "".join(f"O1 attach=0 new={i}\n" for i in range(2, 100_002))
    with pytest.raises(OpPreconditionError) as info:
        TreeOpSequence.parse(text, max_vertices=10)
    assert str(info.value) == ("line 9: replayed tree has 11 vertices, above --max-vertices 10 "
                               "in 'O1 attach=0 new=10'")
    assert len(built) == 8   # the steps of lines 1-8; nothing after line 9 was read
    first_eight = "".join(text.splitlines(keepends=True)[:8])
    assert len(TreeOpSequence.parse(first_eight, max_vertices=10).steps) == 8   # 10 vertices
    # no step at all: the K2 alone is above a cap of 1
    with pytest.raises(OpPreconditionError, match="^line 2: replayed tree has 2 vertices"):
        TreeOpSequence.parse("# only a comment\n", max_vertices=1)


def test_is_eocd_tree_small_cases():
    assert is_eocd_tree(Graph(1, [])) is None
    assert is_eocd_tree(K2) is not None
    assert is_eocd_tree(path(5)) is None       # 5 = 1 mod 4
    res = is_eocd_tree(path(4))
    assert res is not None
    d, p = res
    assert is_eod_set(path(4), d) and is_ecd_set(path(4), p)


def test_is_eocd_tree_matches_solver_on_spider():
    # spider with legs 3, 2 off a shared center
    t = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)])
    res = is_eocd_tree(t)
    brute = find_eod(t) is not None and find_ecd(t) is not None
    assert (res is not None) == brute


def test_is_eocd_tree_rejects_non_tree():
    with pytest.raises(ValueError):
        is_eocd_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))


def test_decompose_p4_is_o1_then_o4():
    t = path(4)
    d, p = is_eocd_tree(t)
    seq = decompose(t, d, p)
    assert [s.op for s in seq.steps] == ["O1", "O4"]
    g2, d2, p2 = replay(seq)
    assert sorted(g2.edges()) == sorted(t.edges())
    assert is_eod_set(t, d2) and is_ecd_set(t, p2)


def test_decompose_requires_valid_certificate():
    with pytest.raises((DecomposeError, OpPreconditionError)):
        decompose(path(4), {0, 1}, {0})


def test_decompose_residual_p3():
    # P3 grown by one O1 from an edge: decompose must peel the plain leaf
    t = path(3)
    d, p = is_eocd_tree(t)
    seq = decompose(t, d, p)
    assert len(seq.steps) == 1 and seq.steps[0].op == "O1"
    g2, _, _ = replay(seq)
    assert sorted(g2.edges()) == sorted(t.edges())


@pytest.mark.parametrize("seed", range(10))
def test_random_tree_round_trip(seed):
    g, d, p, grown = random_eocd_tree(steps=12, seed=seed)
    assert is_eod_set(g, d) and is_ecd_set(g, p)
    seq = decompose(g, d, p)
    g2, d2, p2 = replay(seq)
    assert g2.n == g.n
    assert sorted(g2.edges()) == sorted(g.edges())
    assert is_eod_set(g2, d2) and is_ecd_set(g2, p2)
    # the grown sequence itself also replays to the same labeled tree
    g3, d3, p3 = replay(grown)
    assert sorted(g3.edges()) == sorted(g.edges())
    assert (d3, p3) == (d, p)


def test_random_tree_deterministic_per_seed():
    a = random_eocd_tree(steps=9, seed=42)
    b = random_eocd_tree(steps=9, seed=42)
    assert sorted(a[0].edges()) == sorted(b[0].edges())
    assert a[1:3] == b[1:3]


def _labeled(g, d, p):
    return g.n, sorted(g.edges()), d, p


@pytest.mark.parametrize("seed", range(6))
def test_apply_step_chain_matches_replay(seed):
    # apply_step checks its input certificate in full, so every
    # intermediate state of the sequence gets the whole-tree check
    g, d, p, seq = random_eocd_tree(steps=25, seed=seed)
    t, dt, pt = K2, K2_D, K2_P
    for step in seq.steps:
        t, dt, pt = apply_step(t, dt, pt, step)
    assert _labeled(t, dt, pt) == _labeled(*replay(seq)) == _labeled(g, d, p)


@given(st.integers(0, 40), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_grow_decompose_replay_round_trip(steps, seed):
    g, d, p, _ = random_eocd_tree(steps, seed)
    assert _labeled(*replay(decompose(g, d, p))) == _labeled(g, d, p)


def _feasible_ops(adj, d, p):
    """Every feasible operation of a certified tree, rebuilt from scratch in
    the order random_eocd_tree draws from."""
    options = [("O1", (u,)) for u in sorted(d & p)]
    options += [("O2", (w,)) for w in sorted(set(adj) - d)]
    options += [("O3", (t,)) for t in sorted(d - p)]
    for lv in sorted(adj):
        if len(adj[lv]) != 1:
            continue
        (lx,) = adj[lv]
        if len(adj[lx]) != 2:
            continue
        lw = next(w for w in adj[lx] if w != lv)
        if lx in d and lx in p and lw in d:
            options.append(("O4", (lv, lx, lw)))
        if lv not in d or lx not in d or lx not in p or len(adj[lw]) != 2:
            continue
        lz = next(t for t in adj[lw] if t != lx)
        for wp in sorted(adj[lz]):
            if wp != lw and len(adj[wp]) == 2 and wp in d and wp in p:
                options += [("O5", (lv, lx, lw, lz, wp, xp)) for xp in sorted(adj[wp])
                            if xp != lz and len(adj[xp]) == 1 and xp in d]
    return options


@given(st.integers(0, 60), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_grown_sequence_draws_from_the_full_option_list(steps, seed):
    # the incremental option list must draw exactly what a rebuild per step draws
    rng = random.Random(seed)
    adj, d, p = {0: {1}, 1: {0}}, {0, 1}, {0}
    for step in random_eocd_tree(steps, seed)[3].steps:
        assert (step.op, step.attach) == rng.choice(_feasible_ops(adj, d, p))
        eocd.trees._apply_labeled(adj, d, p, step)


def _walks(g, length):
    """Every walk on `length` vertices of g, repeated vertices allowed."""
    walks = [(v,) for v in range(g.n)]
    for _ in range(length - 1):
        walks = [w + (x,) for w in walks for x in g._adj[w[-1]]]
    return walks


def _certified_states():
    """Every (EOD, ECD) pair of the rooted trees on at most 8 vertices and of
    the EOCD graphs on at most 6 (the prefix of claims.graphs(7)), and the
    trees grown by a few seeds."""
    small = [t for n in range(2, 9) for t in rooted_trees(n)] + list(graphs(6))
    for g in small:
        for d in iter_efficient_sets(g, closed=False):
            for p in iter_efficient_sets(g, closed=True):
                yield g, d, p
    for seed in range(4):
        yield random_eocd_tree(8, seed)[:3]


def test_every_accepted_step_keeps_the_certificate():
    # the operation lemma of _apply_labeled, which replay, growth and
    # apply_step rely on instead of re-checking the certificate after a step
    accepted = dict.fromkeys(OP_ARITY, 0)
    for g, d, p in _certified_states():
        attaches = [(op, v) for op in ("O1", "O2", "O3") for v in _walks(g, 1)]
        attaches += [("O4", w) for w in _walks(g, 3)] + [("O5", w) for w in _walks(g, 6)]
        for op, attach in attaches:
            step = TreeOpStep(op, attach, tuple(range(g.n, g.n + OP_ARITY[op])))
            try:
                t, d2, p2 = apply_step(g, d, p, step)
            except OpPreconditionError:
                continue
            accepted[op] += 1
            problems = [x for x in certificate_violations(t._adj, d2, p2) if x[2]]
            assert not problems, (sorted(g.edges()), sorted(d), sorted(p), step, problems)
    assert min(accepted.values()) > 0, accepted


@pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (0, 2)]])
def test_o4_refuses_the_walk_back_to_its_leaf(edges):
    # attach v,u,x with x = v would hang y in P next to v in P; K2 and the
    # path 1-0-2 (K2 grown by O1 at 0) are both refused by the O4 clause
    t = Graph(len(edges) + 1, edges)
    with pytest.raises(OpPreconditionError) as info:
        apply_step(t, K2_D, K2_P, TreeOpStep("O4", (1, 0, 1), (t.n,)))
    assert str(info.value) == "O4: 0 must have degree 2 with neighbors 1 and 1"


# SHA-256 of random_eocd_tree(steps, seed)[3].serialize() and of the
# decompose() sequence of that tree, as the quadratic reference
# implementation computed them: they pin the draw order and the peel order.
PINS = [
    (12, 0, 48, "a30fa89c6f3015d77190dea04338ce6ad2d675fe73b2219baad6edf512fd6203",
     "1fa6def8a3035d6b432fefc38fa598db24e22a40e3d38706ea4c4c6eed6d15b7"),
    (60, 1, 210, "accca859f2a468680357f8d3ec1e9a89a5f4525a41b09b3d7e5acd1f440c1862",
     "a03767995b0508600ee80d1b186fb4580a2ba3215e249cd3b54d24e611438865"),
    (250, 2, 844, "3cb953d4eabe9a820b7c861859eae9cfeb85ce83b38b39024367f61e100e85e5",
     "294b76892e0938faec39a48ead3e13e229cf44b761ea3f3d4ee0e7662a84c635"),
    (900, 3, 3060, "9fc3f310065f7b188ce91acca6f759fd7ca911872f53f512b844d0a4079e699e",
     "d8b6e707e101f2964a468c1929c470798e91c46c5811aa3c1e5b60ff1656ace8"),
]


@pytest.mark.parametrize("steps, seed, n, grown, peeled", PINS)
def test_grow_and_decompose_are_pinned(steps, seed, n, grown, peeled):
    g, d, p, seq = random_eocd_tree(steps, seed)
    assert g.n == n
    assert hashlib.sha256(seq.serialize().encode()).hexdigest() == grown
    assert hashlib.sha256(decompose(g, d, p).serialize().encode()).hexdigest() == peeled


def _certificate_text(t):
    res = is_eocd_tree(t)
    if res is None:
        return "none\n"
    return " ".join(",".join(map(str, sorted(s))) for s in res) + "\n"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of is_eocd_tree's certificates (sorted D, then sorted P, or
# "none"), as the leaf-up DP over the sorted rows computes them: they pin
# the tie rule of the traceback, not only the existence of a certificate.
CERTIFICATE_PINS = {
    (12, 0): "1de900861267e1e9525bdd3bb5689eb1f28e0a0defbb4ea91a75d17687ba5c34",
    (60, 1): "66d7c4f3f3f0c249b8fb8038496a92c21fb1893aa00bb8d20188f62835d6df32",
    (250, 2): "dd840f0097d77e15c0ae7a5b83e6d408f9cdfc48a95436bf5e99a2dfb14ae4a6",
    (900, 3): "403caab4acec7a86f62f366ecd276777b55f649d3a484d606b905b7d86a7d1c8",
}


@pytest.mark.parametrize("steps, seed", sorted(CERTIFICATE_PINS))
def test_grown_tree_certificates_are_pinned(steps, seed):
    g = random_eocd_tree(steps, seed)[0]
    assert _sha(_certificate_text(g)) == CERTIFICATE_PINS[steps, seed]


def test_rooted_trees_count_a000081():
    counts = [sum(1 for _ in rooted_trees(n)) for n in range(1, 13)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def test_small_tree_certificates_are_pinned():
    trees = [t for n in range(1, 11) for t in rooted_trees(n)]
    assert len(trees) == 1205   # rooted trees on 1..10 vertices (OEIS A000081)
    assert sum(_certificate_text(t) != "none\n" for t in trees) > 0
    for t in trees:   # is_eocd_tree does not re-check its result; this does
        cert = is_eocd_tree(t)
        assert cert is None or (is_eod_set(t, cert[0]) and is_ecd_set(t, cert[1]))
    assert (_sha("".join(map(_certificate_text, trees)))
            == "1d14bc0d544d585057162b10cae0111ebce2b36d48a4871ae2cb4e974512a49c")


def test_certificate_ties_go_to_the_smallest_child_id():
    # rooted at 0: 0 and 3 hang on 7, and 1, 5, 8 on 4, which lies on the
    # path 7-2-6-4.  D must hold 7, 4 and one child of each: the root's tie
    # puts 0 in D, and 4 lifts its first cheapest child in id order, 1.
    t = Graph(9, [(2, 7), (4, 1), (4, 5), (4, 6), (4, 8), (6, 2), (7, 0), (7, 3)])
    assert is_eocd_tree(t) == ({0, 1, 4, 7}, {4, 7})


def test_ten_thousand_vertex_round_trip():
    g, d, p, grown = random_eocd_tree(steps=3000, seed=11)
    assert g.n > 10000
    seq = decompose(g, d, p)
    assert _labeled(*replay(seq)) == _labeled(*replay(grown)) == _labeled(g, d, p)


def test_ten_thousand_leaf_star_round_trip():
    # every peel of the O1 star is redirected to the hub's smallest plain
    # leaf, so the hub's neighbours must not be rescanned per peel
    grown = TreeOpSequence([TreeOpStep("O1", (0,), (i,)) for i in range(2, 10_002)])
    g, d, p = replay(grown)
    seq = decompose(g, d, p)
    assert [s.new for s in seq.steps] == [(i,) for i in range(10_001, 1, -1)]
    assert _labeled(*replay(seq)) == _labeled(g, d, p)


def test_o5_walk_end_with_many_leaves_round_trip():
    # subcase 4.1.2 redirects every peel to the smallest plain leaf of the
    # walk's end x', which must not be rescanned per peel either
    _, _, _, grown = random_eocd_tree(40, 2)
    xp = next(s for s in reversed(grown.steps) if s.op == "O5").attach[5]
    n = replay(grown)[0].n
    grown.steps += [TreeOpStep("O1", (xp,), (i,)) for i in range(n, n + 3000)]
    g, d, p = replay(grown)
    seq = decompose(g, d, p)
    assert sum(s.op == "O1" and s.attach == (xp,) for s in seq.steps) == 3000
    assert _labeled(*replay(seq)) == _labeled(g, d, p)
