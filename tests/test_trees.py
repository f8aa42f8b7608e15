"""Tree growth operations, linear recognition, and decomposition."""

import pytest

from eocd.families import path
from eocd.graph import Graph
from eocd.solver import find_ecd, find_eod, is_ecd_set, is_eod_set
from eocd.trees import (
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


def test_sequence_parse_rejects_garbage():
    with pytest.raises(ValueError):
        TreeOpSequence.parse("O7 attach=0 new=2\n")
    with pytest.raises(ValueError):
        TreeOpSequence.parse("O1 attach new=2\n")


def test_sequence_parse_rejects_malformed_k2_lines():
    cases = [
        ("K2 p=0\n", "line 1", "v="),                          # missing field
        ("K2 v=0,x p=0\n", "line 1", "0,x"),                   # non-integer id
        ("O1 attach=0 new=2\nK2 v=0,1 p=0\n", "line 2", "K2"),  # base after a step
        ("K2 v=0,1 p=0\n\nK2 v=0,1 p=1\n", "line 3", "K2"),    # second base
        ("K2 v=0,1 p=7\n", "line 1", "p="),                    # p not a base vertex
    ]
    for text, where, what in cases:
        with pytest.raises(OpPreconditionError) as info:
            TreeOpSequence.parse(text)
        assert where in str(info.value) and what in str(info.value), text


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
