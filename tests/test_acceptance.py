"""Acceptance gate: one test per numbered criterion.

Run with -v to get a single pass/fail line per criterion.  Criterion 2 has
two extra lines: a strict-xfail test encoding a target value that is
mathematically unattainable (see its reason string), and a passing
companion pinning the actual behavior.
"""
from __future__ import annotations

import random
import time
from itertools import product

import pytest

from conftest import (
    check_even_set,
    check_odd_coloring,
    check_odd_set,
    nonisomorphic_graphs,
    rand_graph,
)
from oddsolve import dp
from oddsolve.cli import main
from oddsolve.graph import Graph, gen_family
from oddsolve.oracle import (
    oracle_chi_odd,
    oracle_mes,
    oracle_mos,
    oracle_odd_ds,
    oracle_odd_tds,
    treewidth_exact,
)
from oddsolve.parity import (
    gallai_even_even,
    gallai_odd_even,
    join_bound_floor,
    join_bound_subgraph,
    odd_two_coloring,
)
from oddsolve.rankdec import caterpillar, heuristic_order
from oddsolve.reductions import gen_mes_instance, gen_qcol_instance, mes_witness, parse_cnf


def bfs_tree(g: Graph):
    return caterpillar(g, heuristic_order(g, "bfs"))


def solve_all_and_compare(g: Graph) -> None:
    t = bfs_tree(g)
    assert dp.solve_mos(g, t) == oracle_mos(g)
    assert dp.solve_mes(g, t) == oracle_mes(g)
    assert dp.solve_odd_ds(g, t) == oracle_odd_ds(g)
    assert dp.solve_odd_tds(g, t) == oracle_odd_tds(g)
    ref = oracle_chi_odd(g, q_max=g.n)
    mine = dp.chi_odd(g, t)
    if ref is None:
        assert mine is None
    else:
        assert mine is not None and mine[0] == ref
        assert check_odd_coloring(g, mine[1], ref)


def test_criterion_1_oracle_equivalence_corpus():
    """Exact agreement with brute force on 539 graphs, all five problems."""
    start = time.time()
    corpus: list[Graph] = []
    for n in (1, 2, 3, 4):
        corpus += nonisomorphic_graphs(n)
    assert len(corpus) == 18  # 11 isomorphism classes on exactly 4 vertices
    assert sum(1 for g in corpus if g.n == 4) == 11
    connected5 = nonisomorphic_graphs(5, connected_only=True)
    assert len(connected5) == 21
    corpus += connected5
    rng = random.Random(20260825)
    for _ in range(500):
        corpus.append(rand_graph(rng, rng.randrange(1, 11), rng.uniform(0.1, 0.9)))
    for g in corpus:
        solve_all_and_compare(g)
    elapsed = time.time() - start
    print(f"criterion 1: {len(corpus)} graphs x 5 problems in {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_2_named_values():
    k222 = gen_family("k222")
    t = bfs_tree(k222)
    assert dp.solve_mos(k222, t)[0] == 2
    assert oracle_mos(k222)[0] == 2
    assert dp.chi_odd(k222, t)[0] == 3
    assert oracle_chi_odd(k222) == 3

    c5p = gen_family("c5plus")
    assert dp.solve_mos(c5p, bfs_tree(c5p))[0] == 2
    assert oracle_mos(c5p)[0] == 2

    k4s = gen_family("kn-subdivided", 4)
    res = dp.chi_odd(k4s, bfs_tree(k4s))
    assert res is not None and res[0] == 4
    assert check_odd_coloring(k4s, res[1], 4)
    assert oracle_chi_odd(k4s) == 4  # 10 vertices, within the oracle cap

    h4 = gen_family("hn-split", 4)
    res = dp.chi_odd(h4, bfs_tree(h4))
    assert res is not None and res[0] == 4
    assert oracle_chi_odd(h4) == 4


@pytest.mark.xfail(
    strict=True,
    reason="the subdivided 6-clique has 21 vertices; odd subgraphs have even "
           "order, so an odd-order graph admits no partition into them and "
           "its odd chromatic number is undefined, not 6.  The subdivided-"
           "clique tightness family only works when n(n+1)/2 is even, i.e. "
           "n ≡ 0 or 3 (mod 4); n = 6 is not such a member.")
def test_criterion_2_k6_subdivided_literal_claim():
    g = gen_family("kn-subdivided", 6)
    res = dp.chi_odd(g, bfs_tree(g))
    assert res is not None and res[0] == 6


def test_criterion_2_k6_subdivided_actual_behavior():
    g = gen_family("kn-subdivided", 6)
    assert g.n == 21 and g.n % 2 == 1
    assert len(g.components()) == 1
    # undefined, and the engine itself (not only the order gate) agrees
    assert dp.chi_odd(g, bfs_tree(g)) is None
    t = bfs_tree(g)
    for q in (1, 2, 3, 4):
        assert dp.solve_odd_qcol(g, t, q) is None


def test_criterion_3_bounds():
    # (a) odd chromatic number is at most treewidth + 1
    rng = random.Random(3001)
    done = 0
    while done < 200:
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.9))
        if any(c.bit_count() & 1 for c in g.components()):
            continue
        chi = dp.chi_odd(g, bfs_tree(g))
        assert chi is not None
        assert chi[0] <= treewidth_exact(g) + 1
        done += 1
    # (b) the join construction always reaches its guaranteed order
    rng = random.Random(3002)
    for _ in range(200):
        n1 = rng.randrange(1, 6)
        n2 = rng.randrange(1, 6)
        g1 = rand_graph(rng, n1, rng.random())
        g2 = rand_graph(rng, n2, rng.random())
        edges = list(g1.edges())
        edges += [(u + n1, v + n1) for u, v in g2.edges()]
        edges += [(u, v + n1) for u in range(n1) for v in range(n2)]
        g = Graph.from_edges(n1 + n2, edges)
        v1 = (1 << n1) - 1
        res = join_bound_subgraph(g, v1, g.full_mask & ~v1)
        assert check_odd_set(g, res.subgraph)
        assert res.subgraph.bit_count() >= join_bound_floor(g.n)


def test_criterion_4_gallai_and_two_coloring():
    rng = random.Random(4001)
    for _ in range(10_000):
        g = rand_graph(rng, rng.randrange(1, 13), rng.random())
        a, b = gallai_odd_even(g)
        assert a & b == 0 and (a | b) == g.full_mask
        assert check_odd_set(g, a) and check_even_set(g, b)
        a, b = gallai_even_even(g)
        assert a & b == 0 and (a | b) == g.full_mask
        assert check_even_set(g, a) and check_even_set(g, b)

    # feasibility of the 2-class variant against brute force: every
    # isomorphism class on <= 7 vertices, then 600 seeded 8-vertex graphs
    # (exhausting n = 8 outright is out of reach: 2^28 labeled graphs)
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    atlas_count = 0
    for G in graph_atlas_g()[1:]:
        n = G.number_of_nodes()
        if not 1 <= n <= 7:
            continue
        relabel = {u: i for i, u in enumerate(G.nodes())}
        g = Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in G.edges()])
        ref = oracle_chi_odd(g)
        assert (odd_two_coloring(g) is not None) == (ref is not None and ref <= 2)
        atlas_count += 1
    assert atlas_count == 1252
    rng = random.Random(4002)
    for _ in range(600):
        g = rand_graph(rng, 8, rng.random())
        ref = oracle_chi_odd(g)
        assert (odd_two_coloring(g) is not None) == (ref is not None and ref <= 2)
    print(f"criterion 4: 10^4 partitions, {atlas_count} atlas + 600 random graphs")


TOY_FORMULAS = [
    # cyclic shape: clause j covers variables j, j+1, j+2 (mod n, 1-indexed),
    # polarities make the all-true assignment satisfy exactly two per clause
    "\n".join([f"p cnf {n} {n}"]
              + [f"{j + 1} {(j + 1) % n + 1} -{(j + 2) % n + 1} 0"
                 for j in range(n)]) + "\n"
    for n in range(3, 23)
]


def test_criterion_5a_mes_witnesses():
    assert len(TOY_FORMULAS) == 20
    for text in TOY_FORMULAS:
        cnf = parse_cnf(text)
        assert cnf.shape_violations() == []
        assignment = tuple(True for _ in range(cnf.n_vars))
        for cl in cnf.clauses:
            assert sum(lit > 0 for lit in cl) == 2  # known satisfying assignment
        for p in (4, 88):
            g, gm, k = gen_mes_instance(cnf, p, allow_small_p=True)
            assert k == (p + 13) * cnf.n_vars
            mask = mes_witness(cnf, assignment, gm)
            assert isinstance(mask, int)
            assert mask.bit_count() == k
            assert check_even_set(g, mask)


def chromatic_at_most(g: Graph, q: int) -> bool:
    return any(all(a[u] != a[v] for u, v in g.edges())
               for a in product(range(q), repeat=g.n))


def test_criterion_5b_coloring_reduction_equivalence():
    corpus: list[Graph] = []
    for n in range(1, 6):
        corpus += nonisomorphic_graphs(n)
    assert len(corpus) == 52
    by_oracle = by_dp = 0
    for g in corpus:
        inst = gen_qcol_instance(g)
        target = inst.graph
        lhs = chromatic_at_most(g, 3)
        if target.n <= 13:
            ref = oracle_chi_odd(target)
            rhs = ref is not None and ref <= 3
            by_oracle += 1
        else:
            # beyond the enumeration cap; the solver stands in for the oracle
            # (it is itself oracle-verified on the criterion-1 corpus)
            rhs = dp.solve_odd_qcol(target, bfs_tree(target), 3) is not None
            by_dp += 1
        assert lhs == rhs
    print(f"criterion 5b: 52 classes, {by_oracle} by oracle, {by_dp} by solver")


def test_criterion_6_scaling():
    # closed form for paths: greedy pair packing gives 2*floor((n+1)/3);
    # validated against brute force for every n <= 12 before use
    for n in range(1, 13):
        g = gen_family("path", n)
        assert oracle_mos(g)[0] == 2 * ((n + 1) // 3)

    p500 = gen_family("path", 500)
    t = caterpillar(p500, list(range(500)))
    start = time.time()
    value, mask = dp.solve_mos(p500, t)
    elapsed = time.time() - start
    assert value == 2 * ((500 + 1) // 3) == 334
    assert check_odd_set(p500, mask)
    assert elapsed < 10, elapsed

    c200 = gen_family("cycle", 200)
    t = caterpillar(c200, list(range(200)))
    start = time.time()
    colors = dp.solve_odd_qcol(c200, t, 3)
    elapsed2 = time.time() - start
    assert colors is not None
    assert check_odd_coloring(c200, colors, 3)
    assert elapsed2 < 60, elapsed2
    print(f"criterion 6: P500 in {elapsed:.2f}s, C200 q=3 in {elapsed2:.2f}s")


def test_criterion_6_setup_is_linear_in_path_length():
    # no wall-clock bound: the ratio of best-of-3 times on P2000 and P500 is
    # about 4 when per-node cut setup scales with the cut's boundary, and
    # about 16 or more when it rescans all of V at every node
    def best_of_3(n: int) -> float:
        g = gen_family("path", n)
        t = caterpillar(g, list(range(n)))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            dp.solve_mos(g, t)
            times.append(time.perf_counter() - start)
        return min(times)

    ratio = best_of_3(2000) / best_of_3(500)
    print(f"criterion 6: P2000/P500 mos time ratio {ratio:.1f}")
    assert ratio < 10, ratio


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    return code, capsys.readouterr().out


def test_criterion_7_thread_count_never_changes_output(capsys, tmp_path):
    corpus = {
        "k222": gen_family("k222"),
        "c5plus": gen_family("c5plus"),
        "p12": gen_family("path", 12),
        "c12": gen_family("cycle", 12),
        "s9": gen_family("star", 9),
        "q8": gen_family("clique", 8),
        "k4s": gen_family("kn-subdivided", 4),
        "h4": gen_family("hn-split", 4),
    }
    rng = random.Random(7001)
    for i in range(3):
        corpus[f"r{i}"] = rand_graph(rng, 10, 0.4)
    problems = ("mos", "mes", "odd-ds", "odd-tds", "chi-odd", "odd-qcol")
    from oddsolve.graph import write_graph

    for name, g in corpus.items():
        gpath = tmp_path / f"{name}.col"
        gpath.write_text(write_graph(g))
        for problem in problems:
            outputs = []
            certs = []
            for threads in ("1", "4"):
                cert = tmp_path / f"{name}-{problem}-t{threads}.cert"
                args = ["solve", problem, "--graph", str(gpath),
                        "--threads", threads, "--emit-certificate", str(cert)]
                if problem == "odd-qcol":
                    args += ["--q", "3"]
                code, out = run_cli(capsys, *args)
                # drop the one line that echoes the (deliberately distinct)
                # certificate path; everything else must match byte for byte
                kept = "\n".join(l for l in out.splitlines()
                                 if not l.startswith("certificate written"))
                outputs.append((code, kept))
                certs.append(cert.read_bytes() if cert.exists() else None)
            assert outputs[0] == outputs[1], (name, problem)
            assert certs[0] == certs[1], (name, problem)
