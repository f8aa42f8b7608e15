"""Sierpinski graphs: construction cross-check and domination results."""

import pytest

from eocd.families import (
    sierpinski,
    sierpinski_eod_set,
    sierpinski_gamma_t,
    sierpinski_is_eocd,
)
from eocd.solver import find_eocd, gamma_t, is_ecd_set, is_eod_set


def _words(p, n):
    """Every length-n word over 0..p-1, most significant digit first, in
    the order of its base-p value."""
    words = [[]]
    for _ in range(n):
        words = [w + [d] for w in words for d in range(p)]
    return words


def _digit_rule(p, n):
    """Reference rows and labels by the digit rule: u ~ v iff at some
    position h the words agree before h, differ at h, and after h u is all
    v[h] and v is all u[h]."""
    words = _words(p, n)
    index = {tuple(w): v for v, w in enumerate(words)}
    rows = []
    for u in words:
        row = []
        for h in range(n):
            for j in range(p):
                if j != u[h] and all(d == j for d in u[h + 1:]):
                    row.append(index[tuple(u[:h] + [j] + [u[h]] * (n - 1 - h))])
        rows.append(tuple(sorted(row)))
    labels = {v: ("-" if p > 10 else "").join(map(str, w)) or "e" for v, w in enumerate(words)}
    return tuple(rows), labels


@pytest.mark.parametrize("p, n", [(1, 0), (1, 3), (1, 5), (2, 4), (2, 10), (3, 0), (3, 1),
                                  (3, 3), (4, 3), (5, 2), (6, 2), (7, 2), (3, 5), (11, 2),
                                  (12, 3)])
def test_digit_rule_matches_recursive_definition(p, n):
    g = sierpinski(p, n)
    assert (g._adj, g.labels) == _digit_rule(p, n)


def test_base_cases():
    assert sierpinski(3, 0).n == 1
    s31 = sierpinski(3, 1)          # a triangle
    assert (s31.n, s31.m) == (3, 3)
    s32 = sierpinski(3, 2)
    assert (s32.n, s32.m) == (9, 12)


def test_labels_are_digit_strings():
    s = sierpinski(4, 2)
    assert s.labels[0] == "00"
    assert s.labels[6] == "12"
    assert s.labels[15] == "33"
    s = sierpinski(12, 2)           # digits past 9 need a separator
    assert s.labels[13] == "1-1"
    assert s.labels[143] == "11-11"


def test_edge_counts():
    # m(S_p^n) follows from tripling-plus-linking: p * m(prev) + p*(p-1)/2
    for p, n in [(3, 3), (4, 2), (5, 2), (4, 3)]:
        s = sierpinski(p, n)
        m_prev = p * (p - 1) // 2
        for _ in range(n - 1):
            m_prev = p * m_prev + p * (p - 1) // 2
        assert s.m == m_prev


def test_extreme_vertices_have_low_degree():
    s = sierpinski(4, 2)
    # the four extreme vertices ii have degree p-1; all others p
    for v in range(s.n):
        expected = 3 if s.labels[v] in {"00", "11", "22", "33"} else 4
        assert s.degree(v) == expected


def test_explicit_eod_set_s42():
    d = sierpinski_eod_set(4, 2)
    s = sierpinski(4, 2)
    assert {s.labels[v] for v in d} == {"01", "10", "23", "32"}
    assert is_eod_set(s, d)


def test_explicit_eod_sets_even_cases():
    for p, n in [(4, 2), (6, 2), (4, 3), (8, 2)]:
        d = sierpinski_eod_set(p, n)
        assert len(d) == p ** (n - 1)
        assert is_eod_set(sierpinski(p, n), d)


def test_parity_criterion_against_solver():
    for p, n, want in [(3, 2, False), (4, 2, True), (5, 2, False),
                       (6, 2, True), (3, 3, False), (4, 3, True)]:
        assert sierpinski_is_eocd(p, n) == want
        assert (find_eocd(sierpinski(p, n)) is not None) == want


def test_parity_criterion_domain():
    with pytest.raises(ValueError):
        sierpinski_is_eocd(2, 2)
    with pytest.raises(ValueError):
        sierpinski_is_eocd(4, 1)


def test_gamma_t_formula():
    assert sierpinski_gamma_t(4, 2) == 4
    assert sierpinski_gamma_t(6, 2) == 6
    assert sierpinski_gamma_t(4, 3) == 16
    assert gamma_t(sierpinski(4, 2)) == 4
    assert gamma_t(sierpinski(6, 2)) == 6


def test_odd_case_has_ecd_but_no_eod():
    # odd p still admits a perfect code; the open side is what fails
    s = sierpinski(3, 2)
    cert = find_eocd(s)
    assert cert is None
    from eocd.solver import find_ecd, find_eod
    p_set = find_ecd(s)
    assert p_set is not None and is_ecd_set(s, p_set)
    assert find_eod(s) is None
