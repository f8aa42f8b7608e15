"""One-in-three satisfiability reduction: gadget, wiring, witnesses."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from eocd.graph import Graph, dump_edge_list
from eocd.reduction import (
    GADGET_EDGES,
    GADGET_NAMES,
    GADGET_SIZE,
    CnfFormula,
    FormulaError,
    assignment_from_witness,
    brute_force_one_in_three,
    build_reduction,
    clause_vertex,
    gadget_vertex,
    is_one_in_three,
    parse_dimacs,
    reduction_order,
    witness_from_assignment,
)
from eocd.solver import InvalidCertificateError, find_eocd, iter_efficient_sets

F1 = CnfFormula(3, (((0, True), (1, True), (2, True)),))


def test_gadget_shape():
    g, names = build_reduction(CnfFormula(1, ()))   # one variable, no clauses
    assert g.n == GADGET_SIZE == 23
    assert g.m == len(GADGET_EDGES) == 30
    assert names[0] == "u_1"
    # degree spot checks: q sits on the stem, both its leaves, and the cycle
    q = GADGET_NAMES.index("q")
    assert g.degree(q) == 4
    assert g.degree(GADGET_NAMES.index("t4")) == 1


def test_formula_validation():
    with pytest.raises(FormulaError):
        CnfFormula(3, (((0, True), (1, True)),))              # two literals
    with pytest.raises(FormulaError):
        CnfFormula(2, (((0, True), (1, True), (2, True)),))   # var out of range
    with pytest.raises(FormulaError):
        CnfFormula(3, (((0, True), (0, False), (1, True)),))  # repeated var


def test_parse_dimacs():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n")
    assert f.n_vars == 3
    assert f.clauses == (((0, True), (1, False), (2, True)),
                         ((0, False), (1, True), (2, False)))
    with pytest.raises(FormulaError):
        parse_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(FormulaError):
        parse_dimacs("1 2 3 0\n")


def test_parse_dimacs_errors_name_the_line(line_end_variants):
    cases = [
        ("p cnf 3 1\n\n1 2 x 0\n", "line 3", "'x'"),          # non-integer literal
        ("c head\np cnf three 1\n", "line 2", "'three'"),      # non-integer count
        ("p cnf -2 0\n", "line 1", ">= 0"),                      # negative count
        ("p cnf 3 1\n1 2 4 0\n", "line 2", "variable 3"),       # variable out of range
        ("p cnf 3 1\nc\n1 1 2 0\n", "line 3", "repeats"),      # repeated variable
        ("p cnf 3 1\n1 2 3\n", "line 2", "single 0"),            # missing terminator
        ("c only\n", "line 2", "problem line"),                  # no problem line
        ("c\np cnf 3 2\n1 2 3 0\n", "line 2", "promises 2"),   # clause count
        ("p cnf 3 1\n1 2 3 0\np cnf 5 2\n-1 4 5 0\n", "line 3",
         "a second problem line; the first is line 1 in 'p cnf 5 2'"),   # counts not replaced
        ("c\np cnf 3 0\np cnf 3 0\n", "line 3", "the first is line 2"),
    ]
    for text, where, what in cases:
        for source in line_end_variants(text):
            with pytest.raises(FormulaError) as info:
                parse_dimacs(source)
            assert str(info.value).startswith(where + ":") and what in str(info.value), text


def test_parse_dimacs_reads_no_line_after_a_refusal(lines_then_fail):
    with pytest.raises(FormulaError, match="^line 3: invalid literal"):
        parse_dimacs(lines_then_fail(["p cnf 3 1\n", "\n", "1 2 x 0\n"]))
    with pytest.raises(FormulaError, match="^line 2: a second problem line; the first is line 1"):
        parse_dimacs(lines_then_fail(["p cnf 3 0\n", "p cnf 5 0\n"]))
    assert parse_dimacs(iter(["p cnf 3 1\n", "1 2 3 0\n"])).n_vars == 3


def test_reduction_graph_shape():
    g, labels = build_reduction(F1)
    assert g.n == 23 * 3 + 1
    y = clause_vertex(F1, 0)
    assert labels[y] == "y_1"
    assert sorted(g.neighbors(y)) == [gadget_vertex(i, "u") for i in range(3)]


def test_negative_literal_wires_to_ub():
    f = CnfFormula(3, (((0, False), (1, True), (2, False)),))
    g, _ = build_reduction(f)
    y = clause_vertex(f, 0)
    assert gadget_vertex(0, "ub") in g.neighbors(y)
    assert gadget_vertex(1, "u") in g.neighbors(y)


def test_brute_force_one_in_three():
    models = brute_force_one_in_three(F1)
    assert sorted(models) == [(False, False, True), (False, True, False),
                              (True, False, False)]
    assert all(is_one_in_three(F1, a) for a in models)


def test_witness_round_trip():
    g, _ = build_reduction(F1)
    for a in brute_force_one_in_three(F1):
        cert = witness_from_assignment(F1, a)
        cert.validate(g)
        assert assignment_from_witness(F1, g, cert.d, cert.p) == a


def test_witness_rejects_bad_assignment():
    with pytest.raises(FormulaError):
        witness_from_assignment(F1, (True, True, False))
    with pytest.raises(FormulaError) as info:
        witness_from_assignment(F1, (True,))
    assert str(info.value) == "assignment covers 1 of 3 variables"


def test_formula_guards_name_the_offending_value():
    with pytest.raises(FormulaError) as info:
        CnfFormula(3, (((0, 1), (1, True), (2, True)),))
    assert str(info.value) == "polarity must be bool, got 1"
    with pytest.raises(FormulaError) as info:
        brute_force_one_in_three(CnfFormula(25, ()))
    assert str(info.value) == "25 variables exceed the enumeration guard 24"


def test_extraction_rejects_invalid_witness():
    g, _ = build_reduction(F1)
    with pytest.raises(InvalidCertificateError):
        assignment_from_witness(F1, g, frozenset({0}), frozenset({1}))
    cert = witness_from_assignment(F1, (True, False, False))
    with pytest.raises(InvalidCertificateError) as info:   # t2 is covered by q alone
        assignment_from_witness(F1, g, cert.d - {gadget_vertex(0, "q")}, cert.p)
    assert str(info.value) == f"D is not an EOD set: vertex {gadget_vertex(0, 't2')} is uncovered by D"


def test_extraction_checks_p_although_it_reads_only_d():
    g, _ = build_reduction(F1)
    cert = witness_from_assignment(F1, (True, False, False))
    with pytest.raises(InvalidCertificateError, match="^P is not an ECD set"):
        assignment_from_witness(F1, g, cert.d, cert.p - {gadget_vertex(0, "q")})


def test_solver_witness_whose_p_disagrees_with_d_reads_as_d():
    # find_eocd pairs its first EOD set with its first ECD set: here they put
    # u_2 and u_5 on opposite sides, and the model is the one D gives
    f = parse_dimacs("p cnf 8 5\n1 -6 8 0\n1 -3 -7 0\n-4 6 -7 0\n1 6 -7 0\n-6 7 -8 0\n")
    g, _ = build_reduction(f)
    cert = find_eocd(g)
    disagree = [i for i in range(f.n_vars)
                if (gadget_vertex(i, "u") in cert.d) != (gadget_vertex(i, "u") in cert.p)]
    assert disagree == [1, 4]
    model = assignment_from_witness(f, g, cert.d, cert.p)
    assert model == tuple(gadget_vertex(i, "u") in cert.d for i in range(f.n_vars))
    assert model in brute_force_one_in_three(f)


def test_solver_agrees_on_unsat_formula():
    f = CnfFormula(3, (((0, True), (1, True), (2, True)),
                       ((0, False), (1, False), (2, False))))
    assert not brute_force_one_in_three(f)
    g, _ = build_reduction(f)
    assert find_eocd(g) is None


def test_solver_witness_extracts_to_model():
    rng = random.Random(99)
    for _ in range(15):
        n_vars = rng.randint(3, 4)
        clauses = []
        for _ in range(rng.randint(1, 3)):
            vs = sorted(rng.sample(range(n_vars), 3))
            clauses.append(tuple((v, rng.random() < 0.5) for v in vs))
        f = CnfFormula(n_vars, tuple(clauses))
        models = brute_force_one_in_three(f)
        g, _ = build_reduction(f)
        cert = find_eocd(g)
        assert (cert is not None) == bool(models)
        if cert is not None:
            assert assignment_from_witness(f, g, cert.d, cert.p) in models


@st.composite
def formulas(draw):
    """0-6 variables and 0-8 clauses of three distinct variables with drawn
    polarities; with few variables, clauses share literals."""
    n_vars = draw(st.integers(0, 6))
    clause = st.tuples(st.permutations(range(n_vars)), st.tuples(*[st.booleans()] * 3)).map(
        lambda vp: tuple(zip(vp[0][:3], vp[1])))
    clauses = draw(st.lists(clause, max_size=8)) if n_vars >= 3 else []
    return CnfFormula(n_vars, tuple(clauses))


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_every_eod_set_holds_one_variable_vertex_per_gadget_and_reads_as_a_model(f):
    """The gadget lemma that lets assignment_from_witness read D alone."""
    g, _ = build_reduction(f)
    models = brute_force_one_in_three(f)
    for d in iter_efficient_sets(g, closed=False):
        for i in range(f.n_vars):
            assert (gadget_vertex(i, "u") in d) != (gadget_vertex(i, "ub") in d)
            assert gadget_vertex(i, "t2") not in d
        assert tuple(gadget_vertex(i, "u") in d for i in range(f.n_vars)) in models


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_build_reduction_equals_checked_construction(f):
    """The gadget template and the clause rows give the graph the checked
    constructor builds from GADGET_EDGES and the clause wiring."""
    edges = [(gadget_vertex(i, a), gadget_vertex(i, b))
             for i in range(f.n_vars) for a, b in GADGET_EDGES]
    labels = {gadget_vertex(i, name): f"{name}_{i + 1}"
              for i in range(f.n_vars) for name in GADGET_NAMES}
    for j, clause in enumerate(f.clauses):
        labels[clause_vertex(f, j)] = f"y_{j + 1}"
        edges += [(clause_vertex(f, j), gadget_vertex(var, "u" if pol else "ub"))
                  for var, pol in clause]
    ref = Graph(reduction_order(f), edges, labels)
    g, names = build_reduction(f)
    assert (g.n, g._adj, g.labels, names) == (ref.n, ref._adj, labels, labels)
    assert dump_edge_list(g) == dump_edge_list(ref)
