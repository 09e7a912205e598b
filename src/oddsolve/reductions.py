"""Hardness-instance generators and their forward witnesses.

Three constructions:
  * 2in3-SAT (3 occurrences/variable) -> maximum even subgraph instances,
    with the witness subgraph for a given assignment;
  * even-subgraph -> odd-subgraph instances via an attached wheel;
  * proper q-coloring -> odd q-coloring instances via parity fixup plus
    edge subdivision, with the odd orientation used by forward witnesses.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _check_order, vertices_of
from .parity import Orientation, odd_orientation

__all__ = [
    "Cnf23",
    "CnfFormatError",
    "GadgetMap",
    "QcolInstance",
    "ReductionError",
    "Refutation",
    "gen_mes_instance",
    "gen_mos_instance",
    "gen_qcol_instance",
    "mes_witness",
    "parse_cnf",
    "qcol_witness",
]

MIN_PROOF_P = 88


class CnfFormatError(ValueError):
    pass


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class Cnf23:
    """CNF formula; literals are DIMACS-style nonzero ints (sign = polarity)."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if not clause:
                raise CnfFormatError("empty clause")
            for lit in clause:
                if lit == 0 or not 1 <= abs(lit) <= self.n_vars:
                    raise CnfFormatError(f"literal {lit} out of range")

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)

    def shape_violations(self) -> list[str]:
        """Why this formula is not a valid 2in3-SAT_3 instance (empty = valid).

        Required shape: every clause has three distinct variables, every
        variable occurs in exactly three clauses, and hence n = m.  The work
        and the report grow with the clauses, not with the declared variable
        count: a variable that occurs a wrong number of times is named, and
        the declared variables that never occur are counted in one line.
        """
        problems = []
        counts: dict[int, int] = {}
        for j, clause in enumerate(self.clauses):
            if len(clause) != 3:
                problems.append(f"clause {j + 1} has {len(clause)} literals, want 3")
            elif len({abs(lit) for lit in clause}) != 3:
                problems.append(f"clause {j + 1} repeats a variable")
            for lit in clause:
                v = abs(lit)
                counts[v] = counts.get(v, 0) + 1
        for v in sorted(counts):
            if counts[v] != 3:
                problems.append(f"variable {v} occurs {counts[v]} times, want 3")
        absent = self.n_vars - len(counts)
        if absent:
            problems.append(f"{absent} declared variables never occur, want 3 occurrences each")
        if self.n_vars != self.n_clauses:
            problems.append(
                f"{self.n_vars} variables vs {self.n_clauses} clauses, want equal")
        return problems


def parse_cnf(text: str) -> Cnf23:
    """Parse a DIMACS cnf document whose clauses all have 3 literals."""
    n_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfFormatError(f"line {lineno}: malformed problem line {line!r}")
            if n_vars is not None:
                raise CnfFormatError(f"line {lineno}: duplicate problem line")
            try:
                n_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfFormatError(f"line {lineno}: non-integer problem line") from None
            if n_vars < 0 or declared_clauses < 0:
                raise CnfFormatError(f"line {lineno}: negative count in problem line {line!r}")
            continue
        if n_vars is None:
            raise CnfFormatError(f"line {lineno}: clause before problem line")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise CnfFormatError(f"line {lineno}: non-integer literal in {line!r}") from None
    if n_vars is None:
        raise CnfFormatError("missing problem line")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise CnfFormatError(f"empty clause (clause {len(clauses) + 1})")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise CnfFormatError("last clause not terminated by 0")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise CnfFormatError(
            f"problem line declares {declared_clauses} clauses, found {len(clauses)}")
    cnf = Cnf23(n_vars, tuple(clauses))
    bad = sum(len(c) != 3 for c in cnf.clauses)
    if bad:  # `gen reduce mes` prints this line; its bytes stay as they were
        raise CnfFormatError(f"strict mode: {bad} clauses do not have 3 literals")
    return cnf


@dataclass(frozen=True)
class GadgetMap:
    """Vertex layout of a generated even-subgraph instance.

    Variable blocks come first, one per variable: p path vertices (endpoints
    first and last), then the positive and the negated literal vertex.
    Clause blocks follow: the two clause vertices, then the 12 internal path
    vertices grouped by literal slot.
    """

    n: int
    p: int
    clause_literals: tuple[tuple[int, ...], ...]
    equivalence_guaranteed: bool

    def var_base(self, i: int) -> int:
        return i * (self.p + 2)

    def s(self, i: int) -> int:
        """First endpoint of variable i's path (0-indexed variable)."""
        return self.var_base(i)

    def t(self, i: int) -> int:
        return self.var_base(i) + self.p - 1

    def path_vertices(self, i: int) -> range:
        return range(self.var_base(i), self.var_base(i) + self.p)

    def literal(self, i: int, negated: bool) -> int:
        return self.var_base(i) + self.p + (1 if negated else 0)

    def literal_of(self, lit: int) -> int:
        """Literal vertex for a signed DIMACS literal."""
        return self.literal(abs(lit) - 1, lit < 0)

    def clause_base(self, j: int) -> int:
        return self.n * (self.p + 2) + j * 14

    def clause_vertex(self, j: int, k: int) -> int:
        """c_j^k for k in (1, 2)."""
        return self.clause_base(j) + k - 1

    def internal(self, j: int, slot: int, k: int, r: int) -> int:
        """Internal path vertex for clause j, literal slot, k in (1,2), r in (1,2).

        r = 1 is the vertex adjacent to the clause vertex, r = 2 the one
        adjacent to the literal vertex.
        """
        return self.clause_base(j) + 2 + slot * 4 + (k - 1) * 2 + (r - 1)


def gen_mes_instance(cnf: Cnf23, p: int = MIN_PROOF_P,
                     allow_small_p: bool = False) -> tuple[Graph, GadgetMap, int]:
    """Even-subgraph instance for a 2in3-SAT_3 formula: (graph, layout, k).

    The formula has an assignment making exactly two literals per clause true
    iff the graph has an even induced subgraph of order >= k = (p+13)n.
    The equivalence proof needs p >= 88; smaller even p builds the same
    structure for testing but must be requested via `allow_small_p`.
    """
    problems = cnf.shape_violations()
    if problems:
        raise ReductionError("formula is not 2in3-SAT_3 shaped: " + "; ".join(problems))
    if p % 2 != 0:
        raise ReductionError(f"p must be even, got {p}")
    if p < 4:
        raise ReductionError(f"p must be at least 4, got {p}")
    if p < MIN_PROOF_P and not allow_small_p:
        raise ReductionError(
            f"p = {p} < {MIN_PROOF_P} voids the equivalence proof; "
            "enable the small-p override to build it anyway")
    n = cnf.n_vars
    _check_order(n * (p + 16))
    gm = GadgetMap(n, p, cnf.clauses, equivalence_guaranteed=p >= MIN_PROOF_P)
    edges: list[tuple[int, int]] = []
    for i in range(n):
        base = gm.var_base(i)
        for v in range(base, base + p - 1):
            edges.append((v, v + 1))
        xi, nxi = gm.literal(i, False), gm.literal(i, True)
        edges += [(gm.s(i), xi), (gm.s(i), nxi), (gm.t(i), xi), (gm.t(i), nxi), (xi, nxi)]
    for j, clause in enumerate(cnf.clauses):
        for slot, lit in enumerate(clause):
            target = gm.literal_of(lit)
            for k in (1, 2):
                v1 = gm.internal(j, slot, k, 1)
                v2 = gm.internal(j, slot, k, 2)
                edges += [(gm.clause_vertex(j, k), v1), (v1, v2), (v2, target)]
    g = Graph.from_edges(n * (p + 16), edges)
    return g, gm, (p + 13) * n


@dataclass(frozen=True)
class Refutation:
    """Assignment fails the exactly-two-true condition at one clause."""

    clause_index: int
    true_count: int

    def __str__(self) -> str:
        return (f"clause {self.clause_index + 1} has {self.true_count} true "
                "literals, want exactly 2")


def mes_witness(cnf: Cnf23, assignment, gm: GadgetMap) -> int | Refutation:
    """Even subgraph of order (p+13)n for a valid 2-in-3 assignment.

    `assignment` is a sequence of n booleans.  If some clause does not have
    exactly two true literals the violated clause is reported instead.
    Variable blocks contribute their whole path plus the true literal; clause
    blocks contribute everything except the two internal vertices that sit
    next to the clause vertices on the false literal's paths.
    """
    if len(assignment) != cnf.n_vars:
        raise ReductionError(f"assignment has {len(assignment)} values, "
                             f"want {cnf.n_vars}")

    def is_true(lit: int) -> bool:
        return bool(assignment[abs(lit) - 1]) == (lit > 0)

    mask = 0
    for j, clause in enumerate(cnf.clauses):
        true_slots = [slot for slot, lit in enumerate(clause) if is_true(lit)]
        if len(true_slots) != 2:
            return Refutation(j, len(true_slots))
        false_slot = ({0, 1, 2} - set(true_slots)).pop()
        mask |= 1 << gm.clause_vertex(j, 1)
        mask |= 1 << gm.clause_vertex(j, 2)
        for slot in range(3):
            for k in (1, 2):
                for r in (1, 2):
                    if slot == false_slot and r == 1:
                        continue
                    mask |= 1 << gm.internal(j, slot, k, r)
    for i in range(cnf.n_vars):
        for v in gm.path_vertices(i):
            mask |= 1 << v
        mask |= 1 << gm.literal(i, not bool(assignment[i]))
    return mask


def gen_mos_instance(g: Graph, k: int) -> Graph:
    """Odd-subgraph instance from an even-subgraph instance via a wheel.

    Appends a (k+1)-wheel whose hub is adjacent to all of g: the result has
    an odd induced subgraph of order >= 2k+1 iff g has an even one of
    order >= k.  k must be even (and >= 4 so the wheel is a proper wheel);
    callers pad g with an isolated vertex beforehand if their k was odd.
    """
    if k % 2 != 0:
        raise ReductionError(f"k must be even, got {k}")
    if k < 4:
        raise ReductionError(f"k must be at least 4, got {k}")
    _check_order(g.n + k + 2)
    hub = g.n
    rim = list(range(g.n + 1, g.n + k + 2))
    edges = list(g.edges())
    edges += [(hub, v) for v in range(g.n)]
    edges += [(hub, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return Graph.from_edges(g.n + k + 2, edges)


@dataclass(frozen=True)
class QcolInstance:
    """Subdivision instance: chi(original) <= q iff chi_odd(graph) <= q (q >= 3).

    `fixed` is the original graph with a triangle (three new vertices, plus
    an edge to the component's lowest vertex) attached to every component of
    odd |V_c| + |E_c|; `graph` subdivides every edge of `fixed` once.
    `orientation` is an odd orientation of `fixed` (always exists after the
    fixup) and drives the forward witness; `subdivision_vertex` maps each
    fixed-graph edge to its subdivision vertex in `graph`.
    """

    graph: Graph
    fixed: Graph
    orientation: Orientation
    subdivision_vertex: dict[tuple[int, int], int]
    original_n: int


def gen_qcol_instance(g: Graph) -> QcolInstance:
    triangles: list[tuple[int, int]] = []
    n_fixed = g.n
    for comp in g.components():
        edges_inside = sum((g.adj[v] & comp).bit_count() for v in vertices_of(comp)) // 2
        if (comp.bit_count() + edges_inside) % 2 == 1:
            anchor = (comp & -comp).bit_length() - 1
            v1, v2, v3 = n_fixed, n_fixed + 1, n_fixed + 2
            triangles += [(anchor, v1), (v1, v2), (v1, v3), (v2, v3)]
            n_fixed += 3
    _check_order(n_fixed + g.m + len(triangles))  # one subdivision vertex per edge
    edges = list(g.edges()) + triangles
    fixed = Graph.from_edges(n_fixed, edges)
    orientation = odd_orientation(fixed)
    assert orientation is not None, "parity fixup must enable an odd orientation"
    sub_vertex: dict[tuple[int, int], int] = {}
    sub_edges: list[tuple[int, int]] = []
    nxt = n_fixed
    for u, v in fixed.edges():
        sub_vertex[(u, v)] = nxt
        sub_edges += [(u, nxt), (nxt, v)]
        nxt += 1
    return QcolInstance(Graph.from_edges(nxt, sub_edges), fixed, orientation,
                        sub_vertex, g.n)


def qcol_witness(inst: QcolInstance, coloring) -> tuple[int, ...]:
    """Odd coloring of the subdivided graph from a proper coloring of the original.

    `coloring` assigns classes 0..q-1 (q >= 3) to the original vertices; it
    is extended over the fixup triangles, originals keep their class, and
    each subdivision vertex takes the class of its arc's head — its class
    degree is then 1, and an original's class degree is its odd in-degree.
    """
    fixed = inst.fixed
    if len(coloring) != inst.original_n:
        raise ReductionError("coloring length does not match the original graph")
    full = list(coloring)
    i = inst.original_n
    while i < fixed.n:
        anchor = (fixed.adj[i] & ((1 << i) - 1)).bit_length() - 1
        spare = [c for c in range(3) if c != full[anchor]]
        full += [spare[0], spare[1], full[anchor]]
        i += 3
    for u, v in fixed.edges():
        if full[u] == full[v]:
            raise ReductionError(f"coloring is not proper at edge ({u}, {v})")
    colors = list(full) + [0] * len(inst.subdivision_vertex)
    for (u, v), (tail, head) in zip(fixed.edges(), inst.orientation.arcs):
        assert {u, v} == {tail, head}
        colors[inst.subdivision_vertex[(u, v)]] = full[head]
    return tuple(colors)
