from __future__ import annotations

import random
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import check_even_set, check_odd_coloring, check_odd_set, rand_graph
from oddsolve import dp
from oddsolve.graph import Graph, gen_family
from oddsolve.oracle import oracle_mes, oracle_mos
from oddsolve.rankdec import auto_tree, caterpillar
from oddsolve.reductions import (
    MIN_PROOF_P,
    Cnf23,
    CnfFormatError,
    Refutation,
    ReductionError,
    gen_mes_instance,
    gen_mos_instance,
    gen_qcol_instance,
    mes_witness,
    parse_cnf,
    qcol_witness,
)

SAT_TOY = "p cnf 3 3\n1 2 -3 0\n2 3 -1 0\n3 1 -2 0\n"
# clauses 1 and 2 exclude each other's exactly-two-true assignments entirely
UNSAT_TOY = "p cnf 3 3\n1 2 3 0\n-1 2 3 0\n1 -2 -3 0\n"


def assignments_satisfying(cnf: Cnf23):
    for bits in product((False, True), repeat=cnf.n_vars):
        if all(sum((lit > 0) == bits[abs(lit) - 1] for lit in cl) == 2
               for cl in cnf.clauses):
            yield bits


# -------------------------------------------------------------- cnf parsing

def test_parse_cnf_basic():
    cnf = parse_cnf(SAT_TOY)
    assert cnf.n_vars == 3
    assert cnf.clauses == ((1, 2, -3), (2, 3, -1), (3, 1, -2))
    assert cnf.shape_violations() == []


def test_parse_cnf_comments_and_multiline_clauses():
    text = "c header comment\np cnf 3 3\n1 2\n-3 0\n% trailer\n2 3 -1 0\n3 1 -2 0\n"
    cnf = parse_cnf(text)
    assert cnf.clauses[0] == (1, 2, -3)


def test_parse_cnf_errors():
    with pytest.raises(CnfFormatError):
        parse_cnf("1 2 3 0\n")  # missing header
    with pytest.raises(CnfFormatError):
        parse_cnf("p cnf x 1\n1 2 3 0\n")
    with pytest.raises(CnfFormatError):
        parse_cnf("p cnf 3 1\n0\n")  # empty clause
    with pytest.raises(CnfFormatError):
        parse_cnf("p cnf 3 1\n1 2 4 0\n")  # literal out of range
    with pytest.raises(CnfFormatError):
        parse_cnf("p cnf 3 2\n1 2 3 0\n")  # declared two clauses
    with pytest.raises(CnfFormatError):
        parse_cnf("p cnf 3 1\n1 2 0\n")  # every clause needs 3 literals


# Lines built from DIMACS's own words and small literals reach the clause
# and range checks far more often than arbitrary text does.
_CNF_WORDS = st.one_of(st.sampled_from(["p", "cnf", "c", "%", "0"]),
                       st.integers(-4, 4).map(str), st.integers().map(str),
                       st.text(max_size=3))
_CNF_LINES = st.lists(st.lists(_CNF_WORDS, max_size=6).map(" ".join),
                      max_size=8).map("\n".join)


@given(st.one_of(st.text(), _CNF_LINES))
def test_parse_cnf_accepts_or_raises_cnf_format_error(text):
    try:
        cnf = parse_cnf(text)
    except CnfFormatError:
        return
    assert all(cl and all(1 <= abs(lit) <= cnf.n_vars for lit in cl) for cl in cnf.clauses)
    assert all(len(cl) == 3 for cl in cnf.clauses)
    # the same formula written back as DIMACS parses to itself
    dimacs = f"p cnf {cnf.n_vars} {cnf.n_clauses}\n" + "".join(
        " ".join(map(str, cl)) + " 0\n" for cl in cnf.clauses)
    assert parse_cnf(dimacs) == cnf


def test_cnf_shape_violations():
    # variable 1 appears four times, variable 4 twice; one clause repeats a var
    cnf = parse_cnf("p cnf 4 4\n1 2 3 0\n1 2 3 0\n1 1 4 0\n1 2 4 0\n")
    problems = cnf.shape_violations()
    assert any("clause 3" in p for p in problems)
    assert any("variable 1" in p for p in problems)


def test_shape_check_costs_the_input_not_the_declared_count():
    """A tiny formula declaring 10^8 variables is refused at once, with the
    variables that never occur reported as one count."""
    cnf = parse_cnf("p cnf 100000000 1\n1 2 3 0\n")
    start = time.perf_counter()
    with pytest.raises(ReductionError) as info:
        gen_mes_instance(cnf, 4, allow_small_p=True)
    assert time.perf_counter() - start < 1.0
    assert "99999997 declared variables never occur" in str(info.value)
    assert "variable 1 occurs 1 times" in str(info.value)
    assert cnf.shape_violations() == [
        "variable 1 occurs 1 times, want 3",
        "variable 2 occurs 1 times, want 3",
        "variable 3 occurs 1 times, want 3",
        "99999997 declared variables never occur, want 3 occurrences each",
        "100000000 variables vs 1 clauses, want equal",
    ]


def test_parse_cnf_rejects_negative_counts():
    with pytest.raises(CnfFormatError, match="line 1: negative count"):
        parse_cnf("p cnf -3 0\n")
    with pytest.raises(CnfFormatError, match="line 2: negative count"):
        parse_cnf("c a comment\np cnf 3 -1\n")


def test_cnf_literal_validation():
    with pytest.raises(CnfFormatError):
        Cnf23(2, ((0, 1, 2),))
    with pytest.raises(CnfFormatError):
        Cnf23(2, ((1, 2, 3),))


# ------------------------------------------------------------ mes reduction

def test_mes_instance_shape():
    cnf = parse_cnf(SAT_TOY)
    for p in (4, 88):
        g, gm, k = gen_mes_instance(cnf, p, allow_small_p=True)
        assert g.n == (p + 16) * cnf.n_vars
        assert k == (p + 13) * cnf.n_vars
        assert max(bin(g.adj[v]).count("1") for v in range(g.n)) <= 9
        assert gm.equivalence_guaranteed == (p >= MIN_PROOF_P)


def test_mes_instance_parameter_validation():
    cnf = parse_cnf(SAT_TOY)
    with pytest.raises(ReductionError):
        gen_mes_instance(cnf, 5, allow_small_p=True)  # odd p
    with pytest.raises(ReductionError):
        gen_mes_instance(cnf, 2, allow_small_p=True)  # too small even with flag
    with pytest.raises(ReductionError):
        gen_mes_instance(cnf, 4)  # below the proof threshold without the flag
    bad = parse_cnf("p cnf 4 3\n1 2 3 0\n1 2 4 0\n1 3 4 0\n")
    with pytest.raises(ReductionError):
        gen_mes_instance(bad, 88)  # wrong occurrence counts


def test_mes_witness_even_and_sized():
    cnf = parse_cnf(SAT_TOY)
    assignment = next(assignments_satisfying(cnf))
    for p in (4, 88):
        g, gm, k = gen_mes_instance(cnf, p, allow_small_p=True)
        mask = mes_witness(cnf, assignment, gm)
        assert not isinstance(mask, Refutation)
        assert bin(mask).count("1") == k
        assert check_even_set(g, mask)


def test_mes_witness_refutation():
    cnf = parse_cnf(SAT_TOY)
    g, gm, k = gen_mes_instance(cnf, 4, allow_small_p=True)
    # all-false falsifies clause 0 with zero true literals
    res = mes_witness(cnf, (False, False, False), gm)
    assert isinstance(res, Refutation)
    assert res.true_count != 2
    assert "clause" in str(res)


def test_mes_end_to_end_sat_and_unsat():
    # full solve on the layout-order caterpillar (width stays single digit)
    sat = parse_cnf(SAT_TOY)
    g, gm, k = gen_mes_instance(sat, 4, allow_small_p=True)
    t = caterpillar(g, list(range(g.n)))
    assert dp.solve_mes(g, t)[0] >= k

    unsat = parse_cnf(UNSAT_TOY)
    assert not list(assignments_satisfying(unsat))
    g2, gm2, k2 = gen_mes_instance(unsat, 4, allow_small_p=True)
    t2 = caterpillar(g2, list(range(g2.n)))
    assert dp.solve_mes(g2, t2)[0] < k2


# ------------------------------------------------------------ mos reduction

def test_mos_instance_shape():
    g = gen_family("path", 4)
    k = 4
    gp = gen_mos_instance(g, k)
    assert gp.n == g.n + k + 2
    hub = g.n
    assert bin(gp.adj[hub]).count("1") == g.n + k + 1
    rim = range(g.n + 1, gp.n)
    for v in rim:
        assert bin(gp.adj[v]).count("1") == 3  # two rim neighbors plus the hub


def test_mos_instance_parameter_validation():
    g = gen_family("path", 3)
    with pytest.raises(ReductionError):
        gen_mos_instance(g, 5)
    with pytest.raises(ReductionError):
        gen_mos_instance(g, 2)


def test_mos_reduction_threshold_equivalence():
    rng = random.Random(71)
    for _ in range(12):
        g = rand_graph(rng, rng.randrange(1, 7), 0.5)
        for k in (4, 6):
            gp = gen_mos_instance(g, k)
            assert (oracle_mes(g)[0] >= k) == (oracle_mos(gp)[0] >= 2 * k + 1)


# ----------------------------------------------------------- qcol reduction

def test_qcol_instance_shapes():
    # K3 needs no parity fixup: 3 + 3 edges -> 6 vertices after subdividing
    inst = gen_qcol_instance(gen_family("clique", 3))
    assert inst.fixed.n == 3 and inst.graph.n == 6 and inst.graph.m == 6
    # K2 has |V|+|E| odd: one triangle fixup, then 5 + 5 -> 10
    inst = gen_qcol_instance(Graph.from_edges(2, [(0, 1)]))
    assert inst.fixed.n == 5 and inst.graph.n == 10
    # C5 is already even: 5 + 5 -> 10
    inst = gen_qcol_instance(gen_family("cycle", 5))
    assert inst.fixed.n == 5 and inst.graph.n == 10


def test_qcol_subdivision_structure():
    inst = gen_qcol_instance(gen_family("cycle", 5))
    g = inst.graph
    for (u, v), w in inst.subdivision_vertex.items():
        assert g.adj[w] == (1 << u) | (1 << v)
    # original vertices keep their degree, now via subdivision vertices
    for v in range(inst.fixed.n):
        assert bin(g.adj[v]).count("1") == bin(inst.fixed.adj[v]).count("1")


def test_qcol_witness_from_proper_coloring():
    rng = random.Random(72)
    checked = 0
    while checked < 10:
        g = rand_graph(rng, 6, 0.4)
        coloring = proper_coloring(g, 3)
        if coloring is None:
            continue
        inst = gen_qcol_instance(g)
        full = qcol_witness(inst, coloring)
        assert check_odd_coloring(inst.graph, full, 3)
        assert full[:g.n] == tuple(coloring)  # originals keep their class
        checked += 1


def test_qcol_witness_rejects_improper_input():
    g = gen_family("clique", 3)
    inst = gen_qcol_instance(g)
    with pytest.raises(ReductionError):
        qcol_witness(inst, (0, 0, 1))
    with pytest.raises(ReductionError):
        qcol_witness(inst, (0, 1))  # wrong length


def test_qcol_reduction_of_the_grotzsch_graph_is_infeasible_at_q3():
    """The Grötzsch graph (the Mycielskian of C5, chromatic number 4)
    through the paper's reduction: 38 vertices, a min-degree tree of width
    5.  No odd coloring with 3 or fewer classes exists."""
    c5 = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, w) for u, v in c5 for i, w in ((u, v), (v, u))]
    grotzsch = Graph.from_edges(11, c5 + shadows + [(10, 5 + i) for i in range(5)])
    assert grotzsch.m == 20
    g = gen_qcol_instance(grotzsch).graph
    t, _, width = auto_tree(g)
    assert (g.n, g.m, width) == (38, 48, 5)
    for q in (1, 2, 3):
        assert dp.solve_odd_qcol(g, t, q) is None, q


def proper_coloring(g: Graph, q: int):
    for assign in product(range(q), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges()):
            return assign
    return None
