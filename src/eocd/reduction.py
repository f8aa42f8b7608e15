"""Reduction from One-In-Three 3-SAT to the EOCD decision problem.

Every variable contributes a fixed 23-vertex gadget; every clause
contributes one vertex wired to the u / u-bar vertex of each of its
literals.  The resulting graph is an EOCD graph exactly when the formula
has an assignment making exactly one literal per clause true.  Witnesses
translate constructively in both directions; a model is read off the EOD
set alone, since the gadget puts exactly one of u, u-bar in every EOD
set.  The graph is built once, through `Graph._of`, from one gadget
template of sorted rows, checked when the module loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, VertexSet, text_lines
from .solver import EocdCertificate

# Gadget-internal vertex order; global id = 23 * variable_index + offset.
GADGET_NAMES = (
    "u", "ub",
    "t1", "t2", "t3", "t4",
    "q",
    "c1", "c2", "c3", "c4", "c5", "c6", "c7",
    "v1", "v2",
    "w1", "w2", "w3", "w4", "w5", "w6", "w7",
)
GADGET_SIZE = len(GADGET_NAMES)
_OFF = {name: i for i, name in enumerate(GADGET_NAMES)}

# The 30 gadget edges, and the gadget's sorted rows by offset, checked once.
GADGET_EDGES = (
    ("u", "ub"), ("u", "t1"), ("ub", "t1"),            # triangle
    ("u", "v1"), ("v1", "v2"), ("v2", "ub"),           # long path over v1, v2
    ("w2", "v1"), ("v1", "w1"), ("w1", "w3"), ("w3", "w4"),
    ("w4", "w5"), ("w5", "w6"), ("w6", "v2"), ("v2", "w7"),
    ("w1", "w2"), ("w2", "w3"), ("w6", "w7"), ("w7", "w5"),
    ("t1", "t2"), ("t2", "q"),                         # stem up to q
    ("t3", "q"), ("q", "t4"),                          # q's leaves
    ("q", "c1"),
    ("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5"),
    ("c5", "c6"), ("c6", "c7"), ("c7", "c1"),          # 7-cycle
)
_GADGET_ROWS = Graph(GADGET_SIZE, [(_OFF[a], _OFF[b]) for a, b in GADGET_EDGES])._adj


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class CnfFormula:
    """Exactly-3-literal clauses; a literal is (variable index, polarity)."""

    n_vars: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise FormulaError(f"clause {clause} does not have exactly 3 literals")
            seen = set()
            for var, pol in clause:
                if not (0 <= var < self.n_vars):
                    raise FormulaError(f"variable {var} outside 0..{self.n_vars - 1}")
                if not isinstance(pol, bool):
                    raise FormulaError(f"polarity must be bool, got {pol!r}")
                if var in seen:
                    raise FormulaError(f"clause {clause} repeats variable {var}")
                seen.add(var)


def parse_dimacs(source: str | Iterable[str]) -> CnfFormula:
    """DIMACS CNF subset: exactly one `p cnf <vars> <clauses>` line, before
    the clauses, and clauses of exactly three nonzero literals terminated
    by 0.  `source` is the text or an iterable of its lines (an open file),
    read one line at a time.  Every error names the 1-based line it is
    about."""
    n_vars = expected = None
    problem = lineno = 0   # the problem line's number; the last line's number
    clauses = []
    for lineno, raw in enumerate(text_lines(source), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            if line.startswith("p"):
                if problem:
                    raise FormulaError(f"a second problem line; the first is line {problem}")
                tok = line.split()
                if len(tok) != 4 or tok[1] != "cnf":
                    raise FormulaError("a problem line is 'p cnf <vars> <clauses>'")
                n_vars, expected, problem = int(tok[2]), int(tok[3]), lineno
                if n_vars < 0 or expected < 0:
                    raise FormulaError("problem line counts must be >= 0")
                continue
            if n_vars is None:
                raise FormulaError("clause before the problem line")
            lits = [int(t) for t in line.split()]
            if lits[-1] != 0 or 0 in lits[:-1]:
                raise FormulaError("a clause line must end with a single 0")
            clause = tuple((abs(l) - 1, l > 0) for l in lits[:-1])
            CnfFormula(n_vars, (clause,))   # checks the clause on its own line
            clauses.append(clause)
        except ValueError as exc:   # FormulaError, or int() on a non-integer
            raise FormulaError(f"line {lineno}: {exc} in {line!r}") from None
    if n_vars is None:
        raise FormulaError(f"line {lineno + 1}: input ends before the problem line")
    if len(clauses) != expected:
        raise FormulaError(
            f"line {problem}: problem line promises {expected} clauses, found {len(clauses)}")
    return CnfFormula(n_vars, tuple(clauses))


def gadget_vertex(i: int, name: str) -> int:
    return GADGET_SIZE * i + _OFF[name]


def clause_vertex(f: CnfFormula, j: int) -> int:
    return GADGET_SIZE * f.n_vars + j


def reduction_order(f: CnfFormula) -> int:
    """The number of vertices of f's reduction graph, known before building."""
    return GADGET_SIZE * f.n_vars + len(f.clauses)


def build_reduction(f: CnfFormula) -> tuple[Graph, dict[int, str]]:
    """The reduction graph: one gadget per variable, one vertex per clause.
    Gadget i is `_GADGET_ROWS` shifted by 23 * i; each clause vertex is
    appended to its literals' rows in clause order, which keeps them sorted."""
    rows = [[GADGET_SIZE * i + w for w in row] for i in range(f.n_vars) for row in _GADGET_ROWS]
    labels = {GADGET_SIZE * i + off: f"{name}_{i + 1}"
              for i in range(f.n_vars) for off, name in enumerate(GADGET_NAMES)}
    for j, clause in enumerate(f.clauses):
        y = clause_vertex(f, j)
        labels[y] = f"y_{j + 1}"
        ends = sorted(gadget_vertex(var, "u" if pol else "ub") for var, pol in clause)
        for x in ends:
            rows[x].append(y)
        rows.append(ends)
    return Graph._of(len(rows), tuple(map(tuple, rows)), labels), labels


# per-variable witness pieces: always in D / P, plus the true/false branches
_D_ALWAYS = ("q", "c1", "c4", "c5")
_P_ALWAYS = ("q", "c3", "c6")
_D_TRUE = ("u", "v1", "w4", "w5")
_P_TRUE = ("u", "w3", "w7")
_D_FALSE = ("ub", "v2", "w3", "w4")
_P_FALSE = ("ub", "w2", "w5")


def is_one_in_three(f: CnfFormula, assignment) -> bool:
    return all(sum(1 for var, pol in clause if assignment[var] == pol) == 1
               for clause in f.clauses)


ENUMERATION_GUARD = 24   # most variables brute_force_one_in_three enumerates


def brute_force_one_in_three(f: CnfFormula) -> list[tuple[bool, ...]]:
    """All assignments with exactly one true literal per clause."""
    if f.n_vars > ENUMERATION_GUARD:
        raise FormulaError(
            f"{f.n_vars} variables exceed the enumeration guard {ENUMERATION_GUARD}")
    assignments = (tuple(bool(bits >> v & 1) for v in range(f.n_vars))
                   for bits in range(1 << f.n_vars))
    return [a for a in assignments if is_one_in_three(f, a)]


def witness_from_assignment(f: CnfFormula, assignment) -> EocdCertificate:
    """Build the (D, P) certificate of the reduction graph from a
    one-in-three satisfying assignment, without building the graph."""
    assignment = tuple(bool(b) for b in assignment)
    if len(assignment) != f.n_vars:
        raise FormulaError(f"assignment covers {len(assignment)} of {f.n_vars} variables")
    if not is_one_in_three(f, assignment):
        raise FormulaError("assignment is not one-in-three satisfying")
    d: set[int] = set()
    p: set[int] = set()
    for i, value in enumerate(assignment):
        d.update(gadget_vertex(i, nm) for nm in _D_ALWAYS)
        p.update(gadget_vertex(i, nm) for nm in _P_ALWAYS)
        d.update(gadget_vertex(i, nm) for nm in (_D_TRUE if value else _D_FALSE))
        p.update(gadget_vertex(i, nm) for nm in (_P_TRUE if value else _P_FALSE))
    return EocdCertificate(reduction_order(f), frozenset(d), frozenset(p))


def assignment_from_witness(f: CnfFormula, g: Graph, d, p) -> tuple[bool, ...]:
    """Read the one-in-three model off an EOD/ECD witness pair: x_i is true
    exactly when u_i is in D.  `EocdCertificate.validate` checks D and P
    as input; P is not read, since every EOD set holds exactly one of u_i,
    ub_i (claim 9 checks this on every EOD set of its formulas):

    - t3 and t4 hang on q, so q is in D.
    - If t2 is in D, q's one D-neighbour is t2, so c1 is not.  Walking round
      the 7-cycle then forces c4 and c5 into D, and c4 ends up with two
      D-neighbours.  So t2 is not in D.
    - That leaves u or ub as t1's one D-neighbour.
    - A clause vertex's only neighbours are the u / ub of its three
      literals, so exactly one literal is true.
    """
    d = frozenset(d)
    EocdCertificate(g.n, d, frozenset(p)).validate(g)
    assignment = tuple(gadget_vertex(i, "u") in d for i in range(f.n_vars))
    if not is_one_in_three(f, assignment):
        raise RuntimeError(f"extracted assignment {assignment} is not one-in-three")
    return assignment
