"""Acceptance suite: one test and one printed pass/fail line per claim.

The heavy lifting lives in eocd.claims so the CLI `report` subcommand
runs the identical checks.  Each test prints its verdict line with
capture disabled so the line shows up in the live pytest output.  The
first tests check the claim registry itself and run no claim.
"""

import pytest

from eocd import claims


@pytest.fixture
def announce(capfd):
    def _run(check):
        result = check()
        with capfd.disabled():
            print(result.line, flush=True)
        assert result.ok, result.detail
        return result
    return _run


def test_all_checks_lists_the_eleven_claims_in_file_order():
    in_file = [name for name in vars(claims) if name.startswith("check_")]
    assert len(in_file) == 11
    assert claims.ALL_CHECKS == [getattr(claims, name) for name in in_file]


def test_a_claim_number_out_of_turn_is_refused():
    with pytest.raises(RuntimeError, match="^claim 13 registered after claim 11$"):
        claims._claim(13, "x")
    assert len(claims.ALL_CHECKS) == 11


def test_a_failing_claim_shows_its_first_four_failures_and_counts_the_rest():
    def body(failures):
        failures += [f"f{i}" for i in range(6)]
        return "the pass detail, not shown"

    try:
        result = claims._claim(12, "six failures")(body)()
    finally:
        del claims.ALL_CHECKS[11:]
    assert (result.number, result.name, result.ok) == (12, "six failures", False)
    assert result.detail == "f0; f1; f2; f3; and 2 more"
    assert len(claims.ALL_CHECKS) == 11


def test_claim_01_paths(announce):
    assert announce(claims.check_paths).seconds < 10


def test_claim_02_cycles(announce):
    assert announce(claims.check_cycles).seconds < 30


def test_claim_03_complete_bipartite(announce):
    announce(claims.check_complete_bipartite)


def test_claim_04_hypercubes(announce):
    announce(claims.check_hypercubes)


def test_claim_05_sierpinski(announce):
    result = announce(claims.check_sierpinski)
    assert result.seconds < 120
    assert "7 EOD sets verified up to S_8^4" in result.detail
    assert "7 EOD sets verified up to S_8^4, all sized by the gamma_t formula" in result.detail


def test_claim_06_oracle_equivalence(announce):
    result = announce(claims.check_oracle_equivalence)
    assert "1252 exhaustive" in result.detail
    assert "10000 distinct random" in result.detail
    assert "10000 distinct random graphs on 8 vertices" in result.detail


def test_claim_07_trees(announce):
    result = announce(claims.check_trees)
    assert result.seconds < 300
    assert "7813 trees" in result.detail
    assert "1710 certificate pairs" in result.detail


def test_claim_08_necessity_witnesses(announce):
    announce(claims.check_necessity_witnesses)


def test_claim_09_reduction(announce):
    result = announce(claims.check_reduction)
    assert result.seconds < 600
    assert "215 EOD sets read as models" in result.detail


def test_claim_10_extremal_relations(announce):
    result = announce(claims.check_extremal_relations)
    assert int(result.detail.split(" disjoint")[0]) >= 20
    assert result.detail == "97 disjoint and 73 nested witnesses checked"


def test_claim_11_linear_recognizer(announce):
    result = announce(claims.check_recognizer)
    assert result.detail.startswith("1380 small graphs agree with the EOD x ECD enumeration; ")


def test_small_corpus_starts_with_every_graph_on_at_most_7_vertices():
    # claims 10 and 11 read every graph on at most 7 vertices, up to
    # isomorphism, before the 128 larger or seeded instances
    corpus = [g for _, g in claims._small_corpus()]
    small = claims.graphs(7)
    assert len(small) == 1252 and len(corpus) == 1380
    assert all(g is h for g, h in zip(corpus, small))
