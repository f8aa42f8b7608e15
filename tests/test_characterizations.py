"""The paper's structure theorems against the exact search on every graph
with 1 to 7 vertices, up to isomorphism."""

import re
from itertools import combinations

import pytest

from eocd.claims import graphs
from eocd.graph import Graph, GraphError
from eocd.solver import (
    SearchMode,
    check_empty_dp_characterization,
    check_empty_pd_characterization,
    find_eocd,
)


@pytest.fixture(scope="module")
def atlas():
    return graphs(7)


def _some_subset(n, pred):
    return any(pred(set(s)) for k in range(n + 1) for s in combinations(range(n), k))


@pytest.mark.parametrize("mode, characterization", [
    (SearchMode.EMPTY_INTERSECTION, check_empty_dp_characterization),   # A = D | P
    (SearchMode.EMPTY_P_MINUS_D, check_empty_pd_characterization),      # the set D
])
def test_characterization_matches_search_on_the_atlas(atlas, mode, characterization):
    assert len(atlas) == 1252
    hits = 0
    for g in atlas:
        found = find_eocd(g, mode) is not None
        holds = _some_subset(g.n, lambda s: characterization(g, s))
        assert found == holds, (mode, sorted(g.edges()))
        hits += found
    assert hits > 0


@pytest.mark.parametrize("characterization, valid", [
    (check_empty_dp_characterization, (Graph(4, [(0, 1), (1, 2), (2, 3)]), {0, 1, 2, 3})),
    (check_empty_pd_characterization, (Graph(3, [(0, 1), (0, 2)]), {0, 1})),
], ids=["empty-dp", "empty-pd"])   # P_4 with D = {1, 2}, P = {0, 3}; P_3 with D = {0, 1}
@pytest.mark.parametrize("bad", [4, -1, "a", 1.0])
def test_characterizations_reject_ids_outside_the_graph(characterization, valid, bad):
    g, s = valid
    assert characterization(g, s)
    with pytest.raises(GraphError, match=f"^vertex {re.escape(repr(bad))} is not in the graph$"):
        characterization(g, (s - {bad}) | {bad})   # 1.0 == 1 takes the place of vertex 1


def test_empty_pd_characterization_does_not_alias_negative_ids():
    # -3 would index vertex 0 of this P_3, whose D = {0, 1} is a nested certificate
    p3 = Graph(3, [(0, 1), (0, 2)])
    assert check_empty_pd_characterization(p3, {0, 1})
    with pytest.raises(GraphError, match="^vertex -3 is not in the graph$"):
        check_empty_pd_characterization(p3, {-3, 0, 1})
