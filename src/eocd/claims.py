"""The acceptance checks: every headline result, rechecked from scratch.

Each ``check_*`` reproduces one claim (family characterizations, Sierpinski
parity, tree operations, the satisfiability reduction, the extremal
relations, the linear recognizer) against independent oracles: a body under
``@_claim(number, name)`` appends failure lines and returns its pass detail.
``run_all`` executes the lot; the CLI's ``report`` subcommand and the
acceptance test suite both consume its ClaimResults.
Claims 6, 7, 10 and 11 build their corpora here with the standard library
alone: ``graphs`` (every small graph up to isomorphism), which claims 10
and 11 read through ``_small_corpus``, and ``rooted_trees``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache, wraps
from itertools import chain, combinations, permutations, product

from .families import FAMILIES, complete_bipartite, cycle, hypercube, path
from .families import sierpinski, sierpinski_eod_set, sierpinski_gamma_t
from .graph import Graph, is_tree
from .reduction import (
    CnfFormula,
    assignment_from_witness,
    brute_force_one_in_three,
    build_reduction,
    gadget_vertex,
    witness_from_assignment,
)
from .solver import (
    SearchMode,
    find_ecd,
    find_eocd,
    find_eod,
    gamma,
    gamma_t,
    is_ecd_set,
    is_eod_set,
    iter_efficient_sets,
    recognize_empty_pd,
    _nested_candidate,
)
from .trees import decompose, is_eocd_tree, random_eocd_tree, replay

ORACLE_CORPUS = 10_000     # distinct random graphs of claim 6
ORACLE_SEED = 20_260_826
MAX_TREE_ORDER = 12        # claim 7 checks every tree up to this many vertices
REDUCTION_RANDOM = 100     # random formulas claim 9 adds to the exhaustive ones
REDUCTION_SEED = 31_337
EXTREMAL_SEED = 1_010      # planted disjoint-certificate graphs of `_small_corpus`
RECOGNIZER_SEED = 404      # random graphs of `_small_corpus`
ALL_CHECKS: list = []      # the checks in claim order, as `_claim` registers them


@dataclass(frozen=True)
class ClaimResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"[{self.number:2d}] {verdict}  {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _claim(number: int, name: str):
    """Register the decorated body as claim `number`, the next one: the check
    times it, hands it an empty failure list and reports the first four
    failures and how many more, or else the pass detail the body returns."""
    if number != len(ALL_CHECKS) + 1:
        raise RuntimeError(f"claim {number} registered after claim {len(ALL_CHECKS)}")

    def register(body):
        @wraps(body)
        def check() -> ClaimResult:
            started = time.perf_counter()
            failures: list[str] = []
            detail = body(failures)
            elapsed = time.perf_counter() - started
            if len(failures) > 4:
                failures[4:] = [f"and {len(failures) - 4} more"]
            return ClaimResult(number, name, not failures,
                               "; ".join(failures) if failures else detail, elapsed)
        ALL_CHECKS.append(check)
        return check
    return register


def _family_failures(family: str, instances, shown: str) -> list[str]:
    """The solver against the family's EOCD rule in `FAMILIES` on each
    parameter tuple; `shown` formats a tuple for the failure lines."""
    fam = FAMILIES[family]
    failures = []
    for params in instances:
        got = find_eocd(fam.build(*params)) is not None
        want = fam.eocd(*params)
        if got != want:
            failures.append(f"{shown.format(*params)}: solver says {got}, rule says {want}")
    return failures


@_claim(1, "paths")
def check_paths(failures: list[str]) -> str:
    """P_n is an EOCD graph exactly when n is not 1 mod 4 (n in 2..30)."""
    failures += _family_failures("path", [(n,) for n in range(2, 31)], "P_{}")
    return "n in 2..30 all match n % 4 != 1"


@_claim(2, "cycles")
def check_cycles(failures: list[str]) -> str:
    """C_n is an EOCD graph exactly when 12 divides n (n in 3..36)."""
    failures += _family_failures("cycle", [(n,) for n in range(3, 37)], "C_{}")
    return "n in 3..36 all match n % 12 == 0"


@_claim(3, "complete bipartite")
def check_complete_bipartite(failures: list[str]) -> str:
    """K_{r,t} is an EOCD graph exactly when one side is a single vertex."""
    failures += _family_failures("complete_bipartite",
                                 [(r, t) for r in range(1, 6) for t in range(r, 6)], "K_{{{},{}}}")
    return "1 <= r <= t <= 5 all match r == 1"


@_claim(4, "hypercubes")
def check_hypercubes(failures: list[str]) -> str:
    """Q_1 is an EOCD graph; Q_2, Q_3, Q_4 are not."""
    failures += _family_failures("hypercube", [(n,) for n in range(1, 5)], "Q_{}")
    return "Q_1 yes, Q_2..Q_4 no"


@_claim(5, "sierpinski")
def check_sierpinski(failures: list[str]) -> str:
    """Sierpinski parity rule, the explicit EOD sets, and gamma_t values."""
    failures += _family_failures("sierpinski", [(3, 2), (5, 2), (3, 3), (4, 2), (6, 2), (4, 3)],
                                 "S_{}^{}")
    # a valid EOD set is a minimum total dominating set, so |D| certifies
    # gamma_t without running the exact search on up to 4,096 vertices
    for p, n in [(4, 2), (6, 2), (4, 3), (8, 2), (4, 6), (6, 4), (8, 4)]:
        d = sierpinski_eod_set(p, n)
        if not is_eod_set(sierpinski(p, n), d):
            failures.append(f"S_{p}^{n}: explicit set is not an EOD set")
        if len(d) != sierpinski_gamma_t(p, n):
            failures.append(f"S_{p}^{n}: explicit EOD set has size {len(d)}, "
                            f"the gamma_t formula says {sierpinski_gamma_t(p, n)}")
    # exact total domination numbers at desk scale
    for p, n in [(4, 2), (6, 2)]:
        got = gamma_t(sierpinski(p, n))
        want = sierpinski_gamma_t(p, n)
        if got != want:
            failures.append(f"gamma_t(S_{p}^{n}) = {got}, expected {want}")
    return ("parity on 6 instances, 7 EOD sets verified up to S_8^4, "
            "all sized by the gamma_t formula; exact gamma_t 4/6")


def open_masks(g: Graph) -> list[int]:
    return [sum(1 << w for w in row) for row in g._adj]


def closed_masks(g: Graph) -> list[int]:
    return [m | (1 << v) for v, m in enumerate(open_masks(g))]


def _naive_exact_cover_exists(n: int, masks: list[int]) -> bool:
    """Subset enumeration: is there any exact cover?  Oracle for n <= 8."""
    full = (1 << n) - 1
    for pick in range(1 << n):
        covered = 0
        v = pick
        while v:
            b = v & -v
            m = masks[b.bit_length() - 1]
            if covered & m:
                break   # with v still nonzero
            covered |= m
            v ^= b
        if not v and covered == full:
            return True
    return False


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def rooted_trees(n):
    """Every rooted tree on n vertices, root 0, once each: the level
    sequences of Beyer and Hedetniemi (SIAM J. Comput. 9, 1980), each
    vertex numbered in preorder and joined to the last vertex one level up."""
    level = list(range(n))
    while True:
        last, edges = {}, []
        for i, lv in enumerate(level):
            if lv:
                edges.append((last[lv - 1], i))
            last[lv] = i
        yield Graph(n, edges)
        p = max((i for i in range(n) if level[i] > 1), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if level[i] == level[p] - 1)
        for i in range(p, n):
            level[i] = level[i - (p - q)]


def _colours(adj, rounds: int, table: dict) -> list[int]:
    """Colour refinement from the degrees, `rounds` times: v's new colour is
    the number `table` gives (v's colour, its neighbours' sorted colours) when
    first seen, so one round's colours compare exactly across graphs sharing
    `table` (1-WL with no hash that can collide)."""
    colour = [len(row) for row in adj]
    for _ in range(rounds):
        colour = [table.setdefault((colour[v], tuple(sorted(colour[w] for w in row))), len(table))
                  for v, row in enumerate(adj)]
    return colour


def _canonical(adj, table: dict) -> tuple:
    """The least sorted edge list over the vertex orders that list the stable
    colour classes in colour order: graphs of one order, coloured with one
    `table`, share it exactly when isomorphic.  Its cost is factorial in the
    largest class, so it serves graphs of at most 7 vertices."""
    colour = _colours(adj, len(adj), table)   # stable after n rounds
    classes = [[v for v, c in enumerate(colour) if c == k] for k in sorted(set(colour))]
    arcs = [(v, w) for v, row in enumerate(adj) for w in row]
    ranks = ({v: i for i, v in enumerate(chain.from_iterable(order))}
             for order in product(*map(permutations, classes)))
    return min(tuple(sorted((r[v], r[w]) for v, w in arcs if r[v] < r[w])) for r in ranks)


@cache
def graphs(n_max: int) -> tuple[Graph, ...]:
    """Every graph on 1..n_max vertices once up to isomorphism, by order, as
    `Graph._of` rows: vertex k - 1 joins each graph on k - 1 vertices to each
    subset, and the first graph with each canonical form stays (vertex
    augmentation, McKay, J. Algorithms 1998); `_canonical` is slow past 7.
    Built once per n_max and shared, since the graphs are immutable."""
    table: dict = {}
    level = [()]   # the graph on no vertex
    out: list[Graph] = []
    for k in range(1, n_max + 1):
        grown: dict = {}
        for adj in level:
            for mask in range(1 << (k - 1)):
                new = tuple(row + (k - 1,) if mask >> v & 1 else row for v, row in enumerate(adj))
                new += (tuple(v for v in range(k - 1) if mask >> v & 1),)
                grown.setdefault(_canonical(new, table), new)
        level = list(grown.values())
        out += (Graph._of(k, adj) for adj in level)
    return tuple(out)


@_claim(6, "oracle equivalence")
def check_oracle_equivalence(failures: list[str]) -> str:
    """find_ecd / find_eod agree with naive subset enumeration on all
    graphs up to 7 vertices and a large non-isomorphic sample on 8."""

    def check(g: Graph, tag: str) -> None:
        ecd = find_ecd(g)
        if ecd is not None and not is_ecd_set(g, ecd):
            failures.append(f"{tag}: find_ecd returned an invalid set")
        if (ecd is not None) != _naive_exact_cover_exists(g.n, closed_masks(g)):
            failures.append(f"{tag}: find_ecd disagrees with enumeration")
        eod = find_eod(g)
        if eod is not None and not is_eod_set(g, eod):
            failures.append(f"{tag}: find_eod returned an invalid set")
        if (eod is not None) != _naive_exact_cover_exists(g.n, open_masks(g)):
            failures.append(f"{tag}: find_eod disagrees with enumeration")

    exhaustive = 0
    for g in graphs(7):
        check(g, f"graph on {g.n} vertices, edges {sorted(g.edges())}")
        exhaustive += 1

    rng = random.Random(ORACLE_SEED)
    table: dict = {}
    seen: set[tuple] = set()
    sampled = 0
    attempts = 0
    while sampled < ORACLE_CORPUS and attempts < 40 * ORACLE_CORPUS:
        attempts += 1
        g = _random_graph(rng, 8, rng.choice([0.15, 0.3, 0.45, 0.6, 0.75, 0.9]))
        key = tuple(sorted(_colours(g._adj, 3, table)))
        if key in seen:
            continue
        seen.add(key)
        sampled += 1
        check(g, f"random graph #{sampled} (seed {ORACLE_SEED})")
    if sampled < ORACLE_CORPUS:
        failures.append(f"only {sampled} of {ORACLE_CORPUS} distinct random graphs")
    return (f"{exhaustive} exhaustive (<= 7 vertices) + "
            f"{sampled} distinct random graphs on 8 vertices")


@_claim(7, "trees")
def check_trees(failures: list[str]) -> str:
    """is_eocd_tree matches the exact solver on every rooted tree up to 12
    vertices (each free tree from each root up to symmetry), and every
    (EOD, ECD) pair of each EOCD tree decomposes into a sequence that replays
    to the same labeled tree, D and P.  The tree calculus does not re-check
    the certificate after a step or a peel; this round trip does."""
    total = eocd_count = pairs = 0
    for t in chain.from_iterable(map(rooted_trees, range(1, MAX_TREE_ORDER + 1))):
        total += 1
        tag = f"tree n={t.n} edges={sorted(t.edges())}"
        res = is_eocd_tree(t)
        eods = list(iter_efficient_sets(t, closed=False))
        ecds = list(iter_efficient_sets(t, closed=True))
        brute = bool(eods and ecds)
        if (res is not None) != brute:
            failures.append(f"{tag}: DP says {res is not None}, solver says {brute}")
            continue
        if res is None:
            continue
        eocd_count += 1
        if not (is_eod_set(t, res[0]) and is_ecd_set(t, res[1])):
            failures.append(f"{tag}: DP certificate invalid")
        for d, p in product(eods, ecds):
            pairs += 1
            try:
                replayed = replay(decompose(t, d, p))
            except Exception as exc:  # noqa: BLE001 - report, keep scanning
                failures.append(f"{tag} D={sorted(d)} P={sorted(p)}: "
                                f"decompose/replay raised {exc!r}")
                continue
            if (replayed[0]._adj, *replayed[1:]) != (t._adj, d, p):
                failures.append(f"{tag} D={sorted(d)} P={sorted(p)}: "
                                "replay rebuilt a different tree or certificate")
    return (f"{total} trees <= {MAX_TREE_ORDER} vertices, {eocd_count} EOCD, "
            f"{pairs} certificate pairs, all round-tripped")


def subdivided_k13() -> Graph:
    """K_{1,3} with its edges subdivided by 5, 8 and 8 vertices."""
    edges = []
    nxt = 1
    for subdiv in (5, 8, 8):
        prev = 0
        for _ in range(subdiv + 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def p22_plus() -> Graph:
    """A 22-vertex path with pendant paths of length 2 at v_5 and v_18."""
    edges = [(i, i + 1) for i in range(21)]
    edges += [(4, 22), (22, 23), (17, 24), (24, 25)]
    return Graph(26, edges)


@_claim(8, "necessity witnesses")
def check_necessity_witnesses(failures: list[str]) -> str:
    """Two trees whose decompositions force an O3 and an O5 step."""
    for builder, needed in [(subdivided_k13, "O3"), (p22_plus, "O5")]:
        t = builder()
        res = is_eocd_tree(t)
        if res is None:
            failures.append(f"{builder.__name__}: not recognized as EOCD")
            continue
        seq = decompose(t, *res)
        ops = [step.op for step in seq.steps]
        if needed not in ops:
            failures.append(f"{builder.__name__}: decomposition {ops} lacks {needed}")
        t2, _, _ = replay(seq)
        if sorted(t2.edges()) != sorted(t.edges()):
            failures.append(f"{builder.__name__}: replay mismatch")
    return "subdivided K_{1,3} uses O3; extended P_22 uses O5"


def _exhaustive_formulas():
    polarities = list(product([True, False], repeat=3))
    clauses = [tuple(zip((0, 1, 2), pol)) for pol in polarities]
    for c in clauses:
        yield CnfFormula(3, (c,))
    for a, b in combinations(clauses, 2):
        yield CnfFormula(3, (a, b))


def _random_formula(rng: random.Random) -> CnfFormula:
    n_vars = rng.randint(3, 4)
    m = rng.randint(1, 4)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(n_vars), 3)
        clauses.append(tuple((v, rng.random() < 0.5) for v in sorted(vs)))
    return CnfFormula(n_vars, tuple(clauses))


@_claim(9, "reduction")
def check_reduction(failures: list[str]) -> str:
    """The reduction graph is EOCD exactly when the formula has a
    one-in-three model, and witnesses translate both ways."""
    rng = random.Random(REDUCTION_SEED)
    formulas = list(_exhaustive_formulas())
    formulas += [_random_formula(rng) for _ in range(REDUCTION_RANDOM)]
    eod_sets = 0
    for idx, f in enumerate(formulas):
        tag = f"formula #{idx} ({f.n_vars} vars, {len(f.clauses)} clauses)"
        models = brute_force_one_in_three(f)
        g, _ = build_reduction(f)
        # the gadget lemma behind assignment_from_witness, on every EOD set:
        # exactly one of u_i, ub_i, and u_i in D reads as a model
        for d in iter_efficient_sets(g, closed=False):
            eod_sets += 1
            u_in = tuple(gadget_vertex(i, "u") in d for i in range(f.n_vars))
            if any(u == (gadget_vertex(i, "ub") in d) for i, u in enumerate(u_in)):
                failures.append(f"{tag}: an EOD set holds both or neither of some u_i, ub_i")
            elif u_in not in models:
                failures.append(f"{tag}: an EOD set reads as {u_in}, not a model")
        cert = find_eocd(g)
        if (cert is not None) != bool(models):
            failures.append(f"{tag}: solver says {cert is not None}, "
                            f"enumeration found {len(models)} models")
            continue
        if not models:
            continue
        # assignment -> witness -> assignment is the identity
        a = models[0]
        built = witness_from_assignment(f, a)
        back = assignment_from_witness(f, g, built.d, built.p)
        if back != a:
            failures.append(f"{tag}: round trip gave {back}, expected {a}")
        # any solver witness reads as some one-in-three model
        extracted = assignment_from_witness(f, g, cert.d, cert.p)
        if extracted not in models:
            failures.append(f"{tag}: extracted assignment is not a model")
    return (f"{len(formulas)} formulas, equivalence and round trips hold; "
            f"{eod_sets} EOD sets read as models")


def _planted_disjoint(rng: random.Random, k: int) -> Graph:
    """k copies of P_4 and 0..6 outside vertices, each joined to one end and
    one middle and at random to the outside vertices before it: the middles
    stay an EOD set and the ends a disjoint ECD set."""
    n = 4 * k + rng.randint(0, 6)
    edges = [(4 * c + i, 4 * c + i + 1) for c in range(k) for i in range(3)]
    for x in range(4 * k, n):
        edges += [(x, 4 * rng.randrange(k) + rng.choice((0, 3))),
                  (x, 4 * rng.randrange(k) + rng.choice((1, 2)))]
        edges += [(w, x) for w in range(4 * k, x) if rng.random() < 0.5]
    return Graph(n, edges)


def _small_corpus():
    """The (tag, graph) pairs of claims 10 and 11: every graph of `graphs(7)`,
    then only what it cannot hold: P_n and C_n for 8 <= n <= 14, C_24,
    K_{4,4}, Q_3, 60 seeded random graphs on 4..14 vertices, 27 random EOCD
    trees and 24 planted disjoint certificates."""
    for g in graphs(7):
        yield f"graph on {g.n} vertices, edges {sorted(g.edges())}", g
    for n in range(8, 15):
        yield f"P_{n}", path(n)
        yield f"C_{n}", cycle(n)
    yield "C_24", cycle(24)
    yield "K_{4,4}", complete_bipartite(4, 4)
    yield "Q_3", hypercube(3)
    rng = random.Random(RECOGNIZER_SEED)
    for i in range(60):
        n = rng.randint(4, 14)
        yield f"random graph #{i}", _random_graph(rng, n, rng.uniform(0.15, 0.7))
    for steps, seeds in ((6, 12), (4, 15)):
        for s in range(seeds):
            yield f"random EOCD tree, {steps} steps, seed {s}", random_eocd_tree(steps, s)[0]
    rng = random.Random(EXTREMAL_SEED)
    for i in range(24):
        k = i % 3 + 1
        yield f"planted {k} x P_4 #{i} (seed {EXTREMAL_SEED})", _planted_disjoint(rng, k)


@_claim(10, "extremal relations")
def check_extremal_relations(failures: list[str]) -> str:
    """Disjoint certificates force gamma_t = gamma; nested ones (P inside
    D) force gamma_t = 2 gamma."""
    hits_dp = hits_pd = 0
    for tag, g in _small_corpus():
        cert = find_eocd(g, SearchMode.EMPTY_INTERSECTION)
        if cert is not None:
            hits_dp += 1
            if cert.dp:
                failures.append(f"{tag}: EMPTY_INTERSECTION witness has D & P != {{}}")
            if gamma_t(g) != gamma(g):
                failures.append(f"{tag}: disjoint witness but gamma_t != gamma")
        cert = find_eocd(g, SearchMode.EMPTY_P_MINUS_D)
        if cert is not None:
            hits_pd += 1
            if cert.p_only:
                failures.append(f"{tag}: EMPTY_P_MINUS_D witness has P - D != {{}}")
            if gamma_t(g) != 2 * gamma(g):
                failures.append(f"{tag}: nested witness but gamma_t != 2 gamma")
    if hits_dp == 0 or hits_pd == 0:
        failures.append(f"vacuous run: {hits_dp} disjoint and {hits_pd} nested hits")
    return f"{hits_dp} disjoint and {hits_pd} nested witnesses checked"


def star_forest(stars: int) -> Graph:
    """`stars` disjoint copies of K_{1,4}, each centre before its leaves."""
    edges = [(5 * s, 5 * s + k) for s in range(stars) for k in range(1, 5)]
    return Graph(5 * stars, edges)


@_claim(11, "linear recognizer")
def check_recognizer(failures: list[str]) -> str:
    """recognize_empty_pd accepts exactly the small graphs with an EOD set
    D and an ECD set P, both from the exact-cover enumerations, such that
    P is inside D; its candidate pair has P an ECD set exactly when D is
    an EOD set; and it stays under a second on a 10^4-vertex star forest."""
    count = 0
    for tag, g in _small_corpus():
        count += 1
        d, p = _nested_candidate(g)
        ecd, eod = is_ecd_set(g, p), is_eod_set(g, d)
        if ecd != eod:
            failures.append(f"{tag}: candidate P is ECD {ecd} but candidate D is EOD {eod}")
        fast = recognize_empty_pd(g)
        ecds = list(iter_efficient_sets(g, closed=True))
        nested = any(p <= d for d in iter_efficient_sets(g, closed=False) for p in ecds)
        if (fast is not None) != nested:
            failures.append(f"{tag}: recognizer says {fast is not None}, "
                            f"the EOD x ECD enumeration says {nested}")
        elif fast is not None:
            try:
                fast.validate(g)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{tag}: recognizer certificate invalid: {exc}")
            if fast.p_only:
                failures.append(f"{tag}: recognizer witness has P - D != {{}}")
    big = star_forest(2_000)
    t0 = time.perf_counter()
    cert = recognize_empty_pd(big)
    big_elapsed = time.perf_counter() - t0
    if cert is None:
        failures.append("star forest not recognized")
    elif len(cert.p) != 2_000:
        failures.append(f"star forest certificate has |P| = {len(cert.p)}")
    if big_elapsed >= 1.0:
        failures.append(f"star forest took {big_elapsed:.2f}s (budget 1s)")
    return (f"{count} small graphs agree with the EOD x ECD enumeration; "
            f"10^4-vertex star forest in {big_elapsed * 1000:.0f}ms")


def run_all(report=None) -> list[ClaimResult]:
    """Run every check; call ``report`` with each ClaimResult as it lands."""
    results = []
    for check in ALL_CHECKS:
        r = check()
        results.append(r)
        if report is not None:
            report(r)
    return results
