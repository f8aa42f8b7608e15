"""Command-line interface end to end, via main(argv)."""

import sys

import pytest

from eocd.cli import main
from eocd.graph import parse_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_solve_path(tmp_path, capsys):
    out = tmp_path / "p12.g"
    code, _, _ = run(capsys, "generate", "path", "12", "-o", str(out))
    assert code == 0
    g = parse_edge_list(out.read_text())
    assert g.n == 12 and g.m == 11
    code, text, _ = run(capsys, "solve", str(out))
    assert code == 0
    assert "D " in text and "P " in text


def test_solve_cycle_13_fails(tmp_path, capsys):
    out = tmp_path / "c13.g"
    assert run(capsys, "generate", "cycle", "13", "-o", str(out))[0] == 0
    code, text, _ = run(capsys, "solve", str(out))
    assert code == 1
    assert "no EOCD certificate" in text


def test_solve_gamma_flags(tmp_path, capsys):
    out = tmp_path / "p7.g"
    run(capsys, "generate", "path", "7", "-o", str(out))
    code, text, _ = run(capsys, "solve", str(out), "--gamma", "--gamma-t")
    assert code == 0  # 7 mod 4 = 3, so P7 is an EOCD graph
    assert "gamma   3" in text
    assert "gamma_t 4" in text


def test_verify_reports_offending_vertex(tmp_path, capsys):
    out = tmp_path / "p12.g"
    run(capsys, "generate", "path", "12", "-o", str(out))
    code, text, _ = run(capsys, "verify", str(out),
                        "--d", "1,2,5,6,9,10", "--p", "1,4,7,10")
    assert code == 0
    assert "valid EOD set" in text
    code, text, _ = run(capsys, "verify", str(out),
                        "--d", "1,2,5,6,9,10", "--p", "1,2,7,10")
    assert code == 1
    assert "P: invalid — vertex 1 is doubly covered by P (via 1 and 2)" in text
    code, text, _ = run(capsys, "verify", str(out),
                        "--d", "1,2,5,6,9,10", "--p", "1,7,10")
    assert code == 1
    assert "uncovered" in text


def test_verify_rejects_bad_ids(tmp_path, capsys):
    out = tmp_path / "p4.g"
    run(capsys, "generate", "path", "4", "-o", str(out))
    code, _, err = run(capsys, "verify", str(out), "--d", "1,99", "--p", "1")
    assert code == 2
    assert "99" in err


def test_recognize_empty_pd(tmp_path, capsys):
    star = tmp_path / "star.g"
    run(capsys, "generate", "complete-bipartite", "1", "3", "-o", str(star))
    assert run(capsys, "recognize-empty-pd", str(star))[0] == 0
    c12 = tmp_path / "c12.g"
    run(capsys, "generate", "cycle", "12", "-o", str(c12))
    assert run(capsys, "recognize-empty-pd", str(c12))[0] == 1


def test_labels_flag(tmp_path, capsys):
    out = tmp_path / "s42.g"
    run(capsys, "generate", "sierpinski", "4", "2", "-o", str(out))
    code, text, _ = run(capsys, "--labels", "solve", str(out))
    assert code == 0
    assert "01" in text and "10" in text


def test_tree_random_decompose_replay(tmp_path, capsys):
    tree = tmp_path / "t.g"
    code, text, _ = run(capsys, "tree", "random", "--steps", "4", "--seed", "7",
                        "-o", str(tree))
    assert code == 0
    d_line = next(l for l in text.splitlines() if l.startswith("D"))
    p_line = next(l for l in text.splitlines() if l.startswith("P"))
    d = d_line.split("[")[1].rstrip("]")
    p = p_line.split("[")[1].rstrip("]")
    seq = tmp_path / "seq.txt"
    code, _, _ = run(capsys, "tree", "decompose", str(tree),
                     "--d", d, "--p", p, "-o", str(seq))
    assert code == 0
    rebuilt = tmp_path / "t2.g"
    code, _, _ = run(capsys, "tree", "replay", str(seq), "-o", str(rebuilt))
    assert code == 0
    a = parse_edge_list(tree.read_text())
    b = parse_edge_list(rebuilt.read_text())
    assert sorted(a.edges()) == sorted(b.edges())


def test_tree_random_rejects_steps_above_cap_before_growing(capsys, monkeypatch):
    monkeypatch.delenv("EOCD_MAX_VERTICES", raising=False)
    # 10**8 steps would grow for hours; the cap check must come first
    code, text, err = run(capsys, "tree", "random", "--steps", str(10 ** 8), "--seed", "1")
    assert code == 2 and text == ""
    assert "100000002 vertices" in err and "--max-vertices 4096" in err
    # 4 steps pass the lower bound of 6 vertices; seed 1 grows 8, which the
    # exact check after growth rejects
    code, text, err = run(capsys, "--max-vertices", "6", "tree", "random", "--steps", "4",
                          "--seed", "1")
    assert code == 2 and text == ""
    assert "grown tree has 8 vertices" in err
    assert run(capsys, "--max-vertices", "8", "tree", "random", "--steps", "4",
               "--seed", "1")[0] == 0


def test_reduce_solve_extract(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, text, _ = run(capsys, "reduce", str(cnf), "--extract")
    assert code == 0
    assert "assignment:" in text
    unsat = tmp_path / "u.cnf"
    unsat.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n")
    code, text, _ = run(capsys, "reduce", str(unsat), "--solve")
    assert code == 1
    assert "no one-in-three model" in text


def test_max_vertices_guard(tmp_path, capsys):
    out = tmp_path / "q4.g"
    run(capsys, "generate", "hypercube", "4", "-o", str(out))
    code, _, err = run(capsys, "--max-vertices", "10", "solve", str(out))
    assert code == 2
    assert "max-vertices" in err


def test_generate_checks_max_vertices_before_building(capsys):
    # building P_2000000 takes seconds and Q_40 would exhaust memory
    for family, param, n in (("path", "2000000", 2000000), ("hypercube", "40", 2 ** 40)):
        code, text, err = run(capsys, "--max-vertices", "10", "generate", family, param)
        assert code == 2 and text == ""
        assert err == f"error: generated graph has {n} vertices, above --max-vertices 10\n"


def test_generate_cap_message_for_counts_past_the_digit_limit(capsys):
    # 2^20000 and 10^5000 have more digits than str() converts
    for args, bits in ((("hypercube", "20000"), 20000), (("sierpinski", "10", "5000"), 16609)):
        code, text, err = run(capsys, "--max-vertices", "10", "generate", *args)
        assert code == 2 and text == ""
        assert err == (f"error: generated graph has at least 2^{bits} vertices, "
                       "above --max-vertices 10\n")


def test_max_vertices_env(tmp_path, capsys, monkeypatch):
    out = tmp_path / "p8.g"
    run(capsys, "generate", "path", "8", "-o", str(out))
    monkeypatch.setenv("EOCD_MAX_VERTICES", "5")
    code, _, err = run(capsys, "solve", str(out))
    assert code == 2
    assert "8 vertices" in err


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "generate", "path", "-o", "x.g")[0] == 2
    assert run(capsys, "solve", str(tmp_path / "missing.g"))[0] == 2
    bad = tmp_path / "bad.g"
    bad.write_text("this is not a graph\n")
    assert run(capsys, "solve", str(bad))[0] == 2


def test_solve_long_path(tmp_path, capsys):
    out = tmp_path / "p4000.g"
    assert run(capsys, "generate", "path", "4000", "-o", str(out))[0] == 0
    code, text, err = run(capsys, "solve", str(out), "--gamma", "--gamma-t")
    assert code == 0, err
    assert text.startswith("gamma   1334\ngamma_t 2000\nD ") and "\nP " in text


def test_report_without_networkx_is_a_usage_error(capsys, monkeypatch):
    import eocd.claims

    def ran(*args, **kwargs):
        raise AssertionError("a claim ran without networkx")

    monkeypatch.setitem(sys.modules, "networkx", None)   # import networkx now fails
    monkeypatch.setattr(eocd.claims, "run_all", ran)
    code, text, err = run(capsys, "report", "paper-claims")
    assert code == 2 and text == ""
    assert err.count("\n") == 1 and "networkx" in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import eocd.cli

    def broken(*args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(eocd.cli, "find_eocd", broken)
    out = tmp_path / "p4.g"
    run(capsys, "generate", "path", "4", "-o", str(out))
    code, text, err = run(capsys, "solve", str(out))
    assert code == 3
    assert text == ""
    assert err.startswith("internal error: RuntimeError: simulated fault")
    assert err.count("\n") == 1
