"""Command-line front end.

Subcommands: generate, solve, verify, recognize-empty-pd (another name
for `solve --mode empty-pd`), tree (decompose / replay / random), reduce,
report.  Exit codes: 0 the question was decided true / the artifact
verified, 1 decided false or no certificate, 2 usage, input or output
error (a closed stdout included), 3 internal error (a fault in eocd,
never a verdict).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import claims
from .families import FAMILIES
from .graph import Graph, certificate_violations, dump_edge_list, parse_edge_list
from .reduction import (
    assignment_from_witness,
    build_reduction,
    parse_dimacs,
    reduction_order,
)
from .solver import (
    EocdCertificate,
    SearchMode,
    find_eocd,
    gamma,
    gamma_t,
)
from .trees import TreeOpSequence, decompose, random_eocd_tree, replay


DEFAULT_MAX_VERTICES = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one stderr line, like every other usage error
        raise UsageError(f"{self.prog}: {message}")


def _vertex_cap(text: str) -> int:
    """--max-vertices: refused when parsed if it is not a count, so that
    no later refusal blames the input for it."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {cap}")
    return cap


def _read(fname: str, parse):
    """`parse` applied to the open file, which it reads line by line, so a
    refusal stops reading; an unreadable file is a usage error."""
    try:
        with open(fname, encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {fname}: {exc}")


def _load_graph(args, fname: str) -> Graph:
    # checked on the header's line, before any allocation
    return _read(fname, lambda fh: parse_edge_list(fh, max_vertices=args.max_vertices))


def _write_output(args, text: str) -> None:
    """`text` to the -o file, or to stdout; an unwritable file is a usage error."""
    if not getattr(args, "output", None):
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}")


def _show(args, g: Graph, vertices) -> str:
    labels = g.labels if args.labels else {}
    return "[" + ", ".join(labels.get(v, str(v)) for v in sorted(vertices)) + "]"


def _print_sets(args, g: Graph, sets: dict) -> None:
    """One line per named vertex set, such as `EocdCertificate.to_record()`."""
    for key, vertices in sets.items():
        print(f"{key:7s} {_show(args, g, vertices)}")


def _parse_ids(text: str, n: int, flag: str) -> frozenset:
    try:
        ids = frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"{flag} expects integer vertex ids, got {text!r}")
    bad = [v for v in ids if not 0 <= v < n]
    if bad:
        raise UsageError(f"{flag} contains out-of-range vertex id {bad[0]}")
    return ids


def _check_cap(n: int, cap: int, what: str = "generated graph") -> None:
    if n > cap:   # str() refuses integers of more than 4,300 digits: name those by 2^k
        count = n if n.bit_length() < 14_000 else f"at least 2^{n.bit_length() - 1}"
        raise UsageError(f"{what} has {count} vertices, above --max-vertices {cap}")


def _reduction_graph(f, cap: int) -> Graph:
    # checked before building: `p cnf 10000000 0` would not fit in memory
    _check_cap(reduction_order(f), cap, "reduction graph")
    return build_reduction(f)[0]


def _cmd_generate(args) -> int:
    kind, params = args.family, args.params
    if kind == "reduction":
        if len(params) != 1:
            raise UsageError("reduction takes one parameter: a CNF file")
        g = _reduction_graph(_read(params[0], parse_dimacs), args.max_vertices)
    else:
        try:
            values = [int(tok) for tok in params]
        except ValueError:
            raise UsageError(f"{kind} parameters must be integers, got {params}")
        family = FAMILIES[kind.replace("-", "_")]
        if len(values) != family.arity:
            raise UsageError(f"{kind} takes {family.arity} integer parameter(s), got {values}")
        # checked before building: hypercube 40 would not fit in memory
        _check_cap(family.order(*values), args.max_vertices)
        # no graph within the cap needs more; S_1^n has one vertex, n digits long
        big = [v for v in values if v > args.max_vertices]
        if big:
            raise UsageError(f"{kind} parameter {big[0]} is above --max-vertices "
                             f"{args.max_vertices}")
        g = family.build(*values)
    _write_output(args, dump_edge_list(g))
    return 0


def _cmd_solve(args) -> int:
    g = _load_graph(args, args.graph)
    if args.gamma:
        print(f"gamma   {gamma(g)}")
    if args.gamma_t:
        print(f"gamma_t {gamma_t(g)}")
    cert = find_eocd(g, SearchMode(args.mode))
    if cert is None:
        print(f"no EOCD certificate (mode {args.mode})")
        return 1
    _print_sets(args, g, cert.to_record())
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args, args.graph)
    d = _parse_ids(args.d, g.n, "--d")
    p = _parse_ids(args.p, g.n, "--p")
    ok = True
    for name, kind, problem in certificate_violations(g._adj, d, p):
        if problem is None:
            print(f"{name}: valid {kind} set")
        else:
            print(f"{name}: invalid — {problem}")
            ok = False
    if ok:
        _print_sets(args, g, EocdCertificate(g.n, d, p).to_record())
    return 0 if ok else 1


def _cmd_tree_decompose(args) -> int:
    g = _load_graph(args, args.graph)
    d = _parse_ids(args.d, g.n, "--d")
    p = _parse_ids(args.p, g.n, "--p")
    seq = decompose(g, d, p)
    _write_output(args, seq.serialize())
    return 0


def _cmd_tree_replay(args) -> int:
    # checked on the line that crosses the cap, before the rest is parsed
    seq = _read(args.sequence,
                lambda fh: TreeOpSequence.parse(fh, max_vertices=args.max_vertices))
    g, d, p = replay(seq)
    _write_output(args, dump_edge_list(g))
    _print_sets(args, g, {"D": d, "P": p})
    return 0


def _cmd_tree_random(args) -> int:
    cap = args.max_vertices
    if args.steps + 2 > cap:   # every step adds at least one vertex to K2
        raise UsageError(f"--steps {args.steps} grows at least {args.steps + 2} vertices, "
                         f"above --max-vertices {cap}")
    g, d, p, seq = random_eocd_tree(steps=args.steps, seed=args.seed)
    if g.n > cap:
        raise UsageError(f"grown tree has {g.n} vertices, above --max-vertices {cap}")
    _write_output(args, dump_edge_list(g))
    _print_sets(args, g, {"D": d, "P": p})
    print("sequence:")
    sys.stdout.write(seq.serialize())
    return 0


def _cmd_reduce(args) -> int:
    f = _read(args.cnf, parse_dimacs)
    g = _reduction_graph(f, args.max_vertices)
    if args.output or not (args.solve or args.extract):
        _write_output(args, dump_edge_list(g))
    if not (args.solve or args.extract):
        return 0
    cert = find_eocd(g)
    if cert is None:
        print("no EOCD certificate: formula has no one-in-three model")
        return 1
    _print_sets(args, g, cert.to_record())
    if args.extract:
        assignment = assignment_from_witness(f, g, cert.d, cert.p)
        pretty = ", ".join(f"x{i + 1}={'T' if b else 'F'}"
                           for i, b in enumerate(assignment))
        print(f"assignment: {pretty}")
    return 0


def _cmd_report(args) -> int:
    results = claims.run_all(report=lambda r: print(r.line, flush=True))
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="eocd",
        description="Efficient open/closed domination: solvers, generators, "
                    "tree operations, and the satisfiability reduction.")
    top.add_argument("--max-vertices", type=_vertex_cap, default=DEFAULT_MAX_VERTICES,
                     help=f"exact-search size guard (default {DEFAULT_MAX_VERTICES})")
    top.add_argument("--labels", action="store_true",
                     help="print vertex labels instead of ids where available")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a family instance as an edge list")
    g.add_argument("family", choices=[*(name.replace("_", "-") for name in FAMILIES),
                                      "reduction"])
    g.add_argument("params", nargs="*", help="family parameters (reduction: a CNF file)")
    g.add_argument("-o", "--output", help="output file (default stdout)")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="search for an EOCD certificate")
    s.add_argument("graph")
    s.add_argument("--mode", choices=[m.value for m in SearchMode], default="any")
    s.add_argument("--gamma", action="store_true", help="also print the domination number")
    s.add_argument("--gamma-t", action="store_true",
                   help="also print the total domination number")
    s.set_defaults(func=_cmd_solve)

    v = sub.add_parser("verify", help="check a claimed (D, P) certificate")
    v.add_argument("graph")
    v.add_argument("--d", required=True, help="comma-separated EOD vertex ids")
    v.add_argument("--p", required=True, help="comma-separated ECD vertex ids")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("recognize-empty-pd",
                       help="solve --mode empty-pd: the linear-time certificate with P inside D")
    r.add_argument("graph")
    r.set_defaults(func=_cmd_solve, mode="empty-pd", gamma=False, gamma_t=False)

    t = sub.add_parser("tree", help="tree operations O1-O5")
    tsub = t.add_subparsers(dest="tree_command", required=True)
    td = tsub.add_parser("decompose", help="peel a certified tree down to an edge")
    td.add_argument("graph")
    td.add_argument("--d", required=True)
    td.add_argument("--p", required=True)
    td.add_argument("-o", "--output")
    td.set_defaults(func=_cmd_tree_decompose)
    tr = tsub.add_parser("replay", help="rebuild a tree from an operation sequence")
    tr.add_argument("sequence")
    tr.add_argument("-o", "--output")
    tr.set_defaults(func=_cmd_tree_replay)
    tn = tsub.add_parser("random", help="grow a random certified tree")
    tn.add_argument("--steps", type=int, required=True)
    tn.add_argument("--seed", type=int, required=True)
    tn.add_argument("-o", "--output")
    tn.set_defaults(func=_cmd_tree_random)

    d = sub.add_parser("reduce", help="build the graph of a one-in-three formula")
    d.add_argument("cnf")
    d.add_argument("-o", "--output")
    d.add_argument("--solve", action="store_true", help="also run the EOCD search")
    d.add_argument("--extract", action="store_true",
                   help="solve and translate the witness back to an assignment")
    d.set_defaults(func=_cmd_reduce)

    rep = sub.add_parser("report", help="recheck the headline results")
    rep.add_argument("what", choices=["paper-claims"])
    rep.set_defaults(func=_cmd_report)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()   # so that a closed stdout raises here, not at interpreter exit
        return code
    except SystemExit:   # --help, the only exit left to argparse
        return 0
    except (UsageError, ValueError) as exc:   # GraphError, FormulaError, OpPreconditionError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # files go through _read and _write_output: this is stdout
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        try:   # as the signal module's SIGPIPE note advises: the final flush must not raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:   # io.UnsupportedOperation: a stdout without a file descriptor
            pass
        return 2
    except Exception as exc:  # noqa: BLE001 - a fault must not read as "decided false"
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"({os.path.basename(where.filename)}:{where.lineno})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
