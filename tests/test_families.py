import pytest

from eocd.families import FAMILIES, complete_bipartite, cycle, hypercube, path, predicted_eocd
from eocd.solver import find_eocd


def test_generators_shape():
    assert path(6).m == 5
    assert cycle(7).m == 7
    assert complete_bipartite(2, 3).m == 6
    q3 = hypercube(3)
    assert (q3.n, q3.m) == (8, 12)
    assert q3.labels[5] == "101"


def test_generator_bounds():
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        hypercube(0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_table_vertex_count_matches_the_builder(family):
    fam = FAMILIES[family]
    for first in range(3, 7):
        params = (first,) * fam.arity
        assert fam.order(*params) == fam.build(*params).n


def test_predicted_eocd_rules():
    assert predicted_eocd("path", 4)
    assert not predicted_eocd("path", 9)
    assert predicted_eocd("cycle", 24)
    assert not predicted_eocd("cycle", 25)
    assert predicted_eocd("complete_bipartite", 1, 7)
    assert not predicted_eocd("complete_bipartite", 2, 2)
    assert predicted_eocd("hypercube", 1)
    assert not predicted_eocd("hypercube", 3)
    with pytest.raises(ValueError):
        predicted_eocd("moebius", 5)


@pytest.mark.parametrize("n", range(2, 17))
def test_paths_match_prediction(n):
    assert (find_eocd(path(n)) is not None) == predicted_eocd("path", n)


@pytest.mark.parametrize("n", range(3, 26))
def test_cycles_match_prediction(n):
    assert (find_eocd(cycle(n)) is not None) == predicted_eocd("cycle", n)


@pytest.mark.parametrize("r,t", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3)])
def test_complete_bipartite_match_prediction(r, t):
    got = find_eocd(complete_bipartite(r, t)) is not None
    assert got == predicted_eocd("complete_bipartite", r, t)
