"""Command-line interface end to end, via main(argv)."""

import dataclasses
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from eocd.cli import main
from eocd.families import FAMILIES
from eocd.graph import dump_edge_list, parse_edge_list
from eocd.reduction import parse_dimacs, reduction_order
from eocd.trees import random_eocd_tree


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


def test_recognize_empty_pd_is_solve_in_nested_mode(tmp_path, capsys):
    for family, params in (("complete-bipartite", ("1", "3")), ("path", ("6",)),
                           ("path", ("12",)), ("cycle", ("12",))):
        out = tmp_path / "g.g"
        run(capsys, "generate", family, *params, "-o", str(out))
        solved = run(capsys, "solve", str(out), "--mode", "empty-pd")
        assert run(capsys, "recognize-empty-pd", str(out)) == solved
        if solved[0] == 1:
            assert solved[1] == "no EOCD certificate (mode empty-pd)\n"


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


def test_tree_replay_checks_max_vertices_before_replaying(tmp_path, capsys, monkeypatch):
    import eocd.cli

    def replay(seq):
        raise AssertionError("replay ran above the cap")

    seq = tmp_path / "seq.txt"
    seq.write_text("".join(f"O1 attach=0 new={i}\n" for i in range(2, 40)))
    out = tmp_path / "t.g"
    with monkeypatch.context() as m:
        m.setattr(eocd.cli, "replay", replay)
        code, text, err = run(capsys, "--max-vertices", "10", "tree", "replay", str(seq),
                              "-o", str(out))
    assert code == 2 and text == ""
    assert err == ("error: line 9: replayed tree has 11 vertices, above --max-vertices 10 "
                   "in 'O1 attach=0 new=10'\n")
    assert not out.exists()
    assert run(capsys, "--max-vertices", "40", "tree", "replay", str(seq), "-o", str(out))[0] == 0
    assert parse_edge_list(out.read_text()).n == 40


def test_tree_replay_names_the_refused_step(tmp_path, capsys):
    # O4 with x = v walks back to its leaf: refused by the O4 clause, on step 2
    seq = tmp_path / "seq.txt"
    seq.write_text("O1 attach=0 new=2\nO4 attach=1,0,1 new=3\n")
    code, text, err = run(capsys, "tree", "replay", str(seq))
    assert code == 2 and text == ""
    assert err == "error: step 2: O4: 0 must have degree 2 with neighbors 1 and 1\n"


def test_decompose_fault_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # decompose checks its tree and certificate first, so a DecomposeError
    # from the case analysis is a fault in eocd, not a refused input
    import eocd.trees

    def broken(*state):
        raise eocd.trees.DecomposeError("simulated fault")

    tree = tmp_path / "p4.g"
    run(capsys, "generate", "path", "4", "-o", str(tree))
    monkeypatch.setattr(eocd.trees, "_inverse_step", broken)
    code, text, err = run(capsys, "tree", "decompose", str(tree), "--d", "1,2", "--p", "0,3")
    assert code == 3 and text == ""
    assert err.startswith("internal error: DecomposeError: simulated fault")
    assert err.count("\n") == 1


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
    # a second problem line is refused, not read as new counts
    two = tmp_path / "two.cnf"
    two.write_text("p cnf 3 1\n1 2 3 0\np cnf 5 2\n-1 4 5 0\n")
    code, text, err = run(capsys, "reduce", str(two), "--solve", "--extract")
    assert code == 2 and text == ""
    assert err == ("error: line 3: a second problem line; the first is line 1 "
                   "in 'p cnf 5 2'\n")


def test_reduce_writes_the_reduction_graph(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 2\n1 2 3 0\n-1 2 4 0\n")
    code, graph_text, _ = run(capsys, "reduce", str(cnf))
    assert code == 0
    assert run(capsys, "generate", "reduction", str(cnf)) == (0, graph_text, "")


def test_max_vertices_guard(tmp_path, capsys):
    out = tmp_path / "q4.g"
    run(capsys, "generate", "hypercube", "4", "-o", str(out))
    code, _, err = run(capsys, "--max-vertices", "10", "solve", str(out))
    assert code == 2
    assert "max-vertices" in err


@pytest.mark.parametrize("cap", ["-1", "-4096", "x", "1.5"])
def test_bad_max_vertices_is_refused_when_parsed(cap, tmp_path, capsys):
    p3 = tmp_path / "p3.g"
    p3.write_text("3 2\n0 1\n1 2\n")
    code, text, err = run(capsys, "--max-vertices", cap, "solve", str(p3))
    assert code == 2 and text == ""
    assert err.count("\n") == 1 and "argument --max-vertices" in err
    assert "line" not in err and "p3.g" not in err
    if cap.startswith("-"):
        assert err == f"error: eocd: argument --max-vertices: must be 0 or more, got {cap}\n"
    assert run(capsys, "--max-vertices", "3", "solve", str(p3))[0] == 0


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


# parameters for every `eocd generate` family: a new family without an
# entry here fails the boundary test by KeyError
_GENERATE_PARAMS = {"path": ("5",), "cycle": ("6",), "complete_bipartite": ("2", "3"),
                    "hypercube": ("3",), "sierpinski": ("3", "2"), "reduction": ("f.cnf",)}


@pytest.mark.parametrize("family", [*sorted(FAMILIES), "reduction"])
def test_generate_cap_boundary(family, tmp_path, capsys, monkeypatch):
    import eocd.cli

    params = _GENERATE_PARAMS[family]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.cnf").write_text("p cnf 2 0\n")
    if family == "reduction":
        order = reduction_order(parse_dimacs("p cnf 2 0\n"))
    else:
        order = FAMILIES[family].order(*map(int, params))
    name = family.replace("_", "-")
    code, text, err = run(capsys, "--max-vertices", str(order), "generate", name, *params)
    assert code == 0 and err == "" and parse_edge_list(text).n == order

    def build(*args):
        raise AssertionError("built above the cap")

    if family == "reduction":
        monkeypatch.setattr(eocd.cli, "build_reduction", build)
    else:
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(FAMILIES[family], build=build))
    code, text, err = run(capsys, "--max-vertices", str(order - 1), "generate", name, *params)
    what = "reduction graph" if family == "reduction" else "generated graph"
    assert code == 2 and text == ""
    assert err == f"error: {what} has {order} vertices, above --max-vertices {order - 1}\n"


def test_max_vertices_checked_on_the_header_line(tmp_path, capsys):
    # the edge on line 2 is out of range too; the header must be refused first
    big = tmp_path / "big.g"
    big.write_text("5000 1\n0 99999\n")
    code, text, err = run(capsys, "--max-vertices", "10", "solve", str(big))
    assert code == 2 and text == ""
    assert err.startswith("error: line 1: 5000 vertices, above --max-vertices 10")
    assert err.count("\n") == 1


def test_repeated_edge_is_an_input_error(tmp_path, capsys):
    g = tmp_path / "repeat.g"
    g.write_text("3 3\n0 1\n1 2\n2 1\n")
    for argv in (("solve", str(g)), ("verify", str(g), "--d", "0,1", "--p", "1")):
        code, text, err = run(capsys, *argv)
        assert code == 2 and text == ""
        assert err == "error: line 4: edge (2, 1) repeats an earlier edge in '2 1'\n"


def test_repeated_label_is_an_input_error(tmp_path, capsys):
    g = tmp_path / "relabel.g"
    g.write_text("3 2\n0 1\n1 2\nL 0 a\nL 0 b\n")
    code, text, err = run(capsys, "solve", str(g))
    assert code == 2 and text == ""
    assert err == "error: line 5: label for vertex 0 repeats an earlier label in 'L 0 b'\n"


def test_reduction_cap_checked_before_building(tmp_path, capsys, monkeypatch):
    import eocd.cli

    def build(*args):
        raise AssertionError("build_reduction ran above the cap")

    monkeypatch.setattr(eocd.cli, "build_reduction", build)
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 1000 0\n")
    for argv in (("reduce", str(cnf)), ("generate", "reduction", str(cnf))):
        code, text, err = run(capsys, "--max-vertices", "10", *argv)
        assert code == 2 and text == ""
        assert err == "error: reduction graph has 23000 vertices, above --max-vertices 10\n"


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "generate", "path", "-o", "x.g")[0] == 2
    assert run(capsys, "solve", str(tmp_path / "missing.g"))[0] == 2
    bad = tmp_path / "bad.g"
    bad.write_text("this is not a graph\n")
    assert run(capsys, "solve", str(bad))[0] == 2
    # argparse's own errors are one line, like every other usage error
    code, text, err = run(capsys, "verify", str(bad), "--d", "-1,2", "--p", "0")
    assert code == 2 and text == ""
    assert err == "error: eocd verify: argument --d: expected one argument\n"
    code, text, err = run(capsys, "generate", "path", "x")
    assert code == 2 and text == ""
    assert err == "error: path parameters must be integers, got ['x']\n"
    code, text, _ = run(capsys, "--help")
    assert code == 0 and "usage: eocd" in text


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_an_output_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "p12.g"
    run(capsys, "generate", "path", "12", "-o", str(out))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    for argv in (("solve", str(out)), ("generate", "path", "5")):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


def test_unwritable_output_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.g"
    code, text, err = run(capsys, "generate", "path", "3", "-o", str(target))
    assert code == 2 and text == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_solve_long_path(tmp_path, capsys):
    out = tmp_path / "p4000.g"
    assert run(capsys, "generate", "path", "4000", "-o", str(out))[0] == 0
    code, text, err = run(capsys, "solve", str(out), "--gamma", "--gamma-t")
    assert code == 0, err
    assert text.startswith("gamma   1334\ngamma_t 2000\nD ") and "\nP " in text


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


# Robustness: valid inputs of every kind, then mutated, through every
# command that reads them.  Whatever the damage, the answer is a verdict
# (0 or 1) or one usage line (2), never a traceback or an internal error.

def _tree_inputs(seed, steps):
    g, d, p, seq = random_eocd_tree(steps=steps, seed=seed)
    d, p = (",".join(map(str, sorted(s))) for s in (d, p))
    return dump_edge_list(g), d, p, seq.serialize()


_TREES = [_tree_inputs(seed, steps) for seed, steps in ((6, 5), (10, 5), (55, 6), (2, 3))]
_GRAPHS = [t[:3] for t in _TREES] + [
    ("12 11\n" + "".join(f"{i} {i + 1}\n" for i in range(11)), "1,2,5,6,9,10", "1,4,7,10"),
    ("4 3\n0 1\n1 2\n2 3\nL 0 a\nL 3 d\n# P4 with labels\n", "1,2", "0,3"),
    ("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n", "0,1", "0,3"),
]
_FORMULAS = ["p cnf 2 0\n", "c one clause\np cnf 3 1\n1 -2 3 0\n", "p cnf 1 0\n"]
_TOKENS = ["0", "1", "-1", "3", "63", "64", "65", "99999", "x", "L", "K2", "O1", "O5", "p",
           "cnf", "attach=0", "new=", "v=0,0", "p=1", "#", "1,2", "0.5", ""]


@st.composite
def _mutated(draw, texts):
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "dup", "alter", "drop-token", "dup-token",
                                     "truncate"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tok = lines[i].split()
        j = draw(st.integers(0, max(len(tok) - 1, 0)))
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines = lines[:i] + [lines[i][:draw(st.integers(0, len(lines[i])))]]
        elif tok:
            if kind == "alter":
                tok[j] = draw(st.sampled_from(_TOKENS))
            elif kind == "drop-token":
                del tok[j]
            else:
                tok.insert(j, tok[j])
            lines[i] = " ".join(tok)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def _mutated_ids(draw, ids):
    ids = ids.split(",")
    i = draw(st.integers(0, len(ids) - 1))
    kind = draw(st.sampled_from(["drop", "dup", "alter"]))
    if kind == "drop":
        del ids[i]
    elif kind == "dup":
        ids.insert(i, ids[i])
    else:
        ids[i] = draw(st.sampled_from(_TOKENS))
    return ",".join(ids)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_never_raise(data):
    text, d, p = data.draw(st.sampled_from(_GRAPHS))
    edges = data.draw(st.one_of(_mutated([text]), st.just(text)))
    d = data.draw(st.one_of(st.just(d), _mutated_ids(d)))
    p = data.draw(st.one_of(st.just(p), _mutated_ids(p)))
    cnf, ops = data.draw(_mutated(_FORMULAS)), data.draw(_mutated([t[3] for t in _TREES]))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, content in (("g.g", edges), ("f.cnf", cnf), ("seq.txt", ops)):
            files[name] = os.path.join(tmp, name)
            with open(files[name], "w", encoding="utf-8") as fh:
                fh.write(content)
        for argv in (("solve", files["g.g"]),
                     ("verify", files["g.g"], "--d", d, "--p", p),
                     ("reduce", files["f.cnf"], "--solve"),
                     ("tree", "replay", files["seq.txt"]),
                     ("tree", "decompose", files["g.g"], "--d", d, "--p", p)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--max-vertices", "64", *argv])
            message = err.getvalue()
            assert code in (0, 1, 2), (argv, code, message)
            assert message.count("\n") == (message != ""), (argv, message)
            assert message.endswith("\n") or not message
            assert "internal error" not in message, (argv, message)


_PARAMS = st.one_of(st.integers(-3, 12), st.integers(-10 ** 12, 10 ** 12),
                    st.sampled_from([10 ** 8, 10 ** 9, 10 ** 18, -10 ** 18, 2 ** 70]))


@given(st.sampled_from([*(name.replace("_", "-") for name in FAMILIES), "reduction"]),
       st.lists(_PARAMS, max_size=3), st.integers(-3, 3) | st.integers(-3, 64))
@example("hypercube", [-1], 0)                   # 2 ** -1 is a float
@example("sierpinski", [10 ** 9, 10 ** 8], 10)   # p ** n would not finish
@example("sierpinski", [1, 10 ** 9], 10)         # one vertex, labels of 10^9 digits
@settings(max_examples=300, deadline=None)
def test_generate_never_raises(family, params, cap):
    argv = ["--max-vertices", str(cap), "generate", family, *map(str, params)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 2), (argv, code, message)
    assert message.count("\n") == (code == 2) and (message.endswith("\n") or not message)
    assert "internal error" not in message, (argv, message)
