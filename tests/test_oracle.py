from __future__ import annotations

import math
import random
import time
from itertools import combinations, product

import pytest

from conftest import (
    all_labeled_graphs,
    check_odd_coloring,
    check_odd_ds,
    check_odd_set,
    check_odd_tds,
    rand_graph,
)
from oddsolve.graph import Graph, gen_family, vertices_of
from oddsolve.oracle import (
    OracleCapError,
    oracle_chi_odd,
    oracle_mes,
    oracle_mos,
    oracle_odd_ds,
    oracle_odd_qcol,
    oracle_odd_tds,
    treewidth_exact,
)

# Hand-checked values.  Each is small enough to argue on paper: parity
# subgraphs have even order (handshake), so e.g. mos(C5) can only be 0, 2,
# or 4, and C5 minus one vertex is P4, which has even-degree interior.
HAND_MOS = {"K3": 2, "P3": 2, "C4": 2, "C5": 2}
HAND_MES = {"K3": 3, "P3": 2, "C4": 4, "C5": 5}


def named(tag: str) -> Graph:
    if tag.startswith("K") and tag[1:].isdigit():
        return gen_family("clique", int(tag[1:]))
    if tag.startswith("P"):
        return gen_family("path", int(tag[1:]))
    return gen_family("cycle", int(tag[1:]))


def enum_best_subset(g: Graph, want_odd: bool, maximize: bool):
    """Test-local exhaustive reference built on combinations, not bitmasks."""
    best = None
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            mask = sum(1 << v for v in combo)
            inside = set(combo)
            ok = True
            for v in combo:
                d = sum(1 for u in inside if g.adj[v] >> u & 1)
                if d % 2 != (1 if want_odd else 0):
                    ok = False
                    break
            if ok and (best is None or (size > best if maximize else size < best)):
                best = size
    return best


def test_hand_checked_subset_values():
    for tag, want in HAND_MOS.items():
        value, mask = oracle_mos(named(tag))
        assert value == want, tag
        assert check_odd_set(named(tag), mask) and bin(mask).count("1") == value
    for tag, want in HAND_MES.items():
        value, _ = oracle_mes(named(tag))
        assert value == want, tag


def test_subset_oracles_match_enumeration_on_all_tiny_graphs():
    for g in all_labeled_graphs(4):
        assert oracle_mos(g)[0] == enum_best_subset(g, True, True)
        assert oracle_mes(g)[0] == enum_best_subset(g, False, True)


def test_subset_oracles_match_enumeration_random():
    rng = random.Random(31)
    for _ in range(25):
        g = rand_graph(rng, 6)
        assert oracle_mos(g)[0] == enum_best_subset(g, True, True)
        assert oracle_mes(g)[0] == enum_best_subset(g, False, True)


def test_witnesses_are_lexicographically_least():
    rng = random.Random(32)
    for _ in range(20):
        g = rand_graph(rng, 6)
        value, mask = oracle_mos(g)
        optima = []
        for combo in combinations(range(6), value):
            m = sum(1 << v for v in combo)
            if check_odd_set(g, m):
                optima.append(sorted(combo))
        assert vertices_of(mask) == min(optima)


def test_empty_set_is_the_odd_subgraph_of_last_resort():
    g = Graph.from_edges(3, [])  # no edges: any nonempty set is all-even
    assert oracle_mos(g) == (0, 0)
    assert oracle_mes(g) == (3, 0b111)


def test_qcol_hand_checked():
    k3 = named("K3")
    assert oracle_odd_qcol(k3, 2) is None  # odd order, no odd partition at all
    c4 = named("C4")
    assert oracle_odd_qcol(c4, 1) is None  # C4 itself is 2-regular
    colors = oracle_odd_qcol(c4, 2)
    assert colors is not None
    for cls in set(colors):
        mask = sum(1 << v for v in range(4) if colors[v] == cls)
        assert check_odd_set(c4, mask)


def test_qcol_matches_enumeration():
    rng = random.Random(33)
    for _ in range(15):
        g = rand_graph(rng, 5)
        for q in (1, 2, 3):
            feasible = False
            for assign in product(range(q), repeat=5):
                ok = True
                for cls in range(q):
                    m = sum(1 << v for v in range(5) if assign[v] == cls)
                    if not check_odd_set(g, m):
                        ok = False
                        break
                if ok:
                    feasible = True
                    break
            assert (oracle_odd_qcol(g, q) is not None) == feasible


def _first_coloring_by_product(g: Graph, q: int):
    """Reference: scan all q^n colorings in lexicographic order."""
    for coloring in product(range(q), repeat=g.n):
        if check_odd_coloring(g, coloring, q):
            return coloring
    return None


def test_qcol_is_the_lexicographically_first_valid_coloring():
    """The pruned first-use search returns exactly the first valid coloring
    of the full q^n scan, for every q up to n on graphs with n <= 5 and for
    q <= 3 up to n = 7."""
    rng = random.Random(34)
    for _ in range(150):
        n = rng.randrange(0, 8)
        g = rand_graph(rng, n, rng.uniform(0.2, 0.8))
        for q in range(1, (n if n <= 5 else 3) + 1):
            assert oracle_odd_qcol(g, q) == _first_coloring_by_product(g, q), (n, q)


def test_qcol_with_many_classes_is_fast():
    """q = n = 12 no longer scans q^n colorings: on the 10-cycle with a
    triangle hung on vertex 0 the first valid coloring lies past about 12^10
    others, and on random 12-vertex graphs q = 12 answers as q = n // 2."""
    cycle = [(v, (v + 1) % 10) for v in range(10)]
    g = Graph.from_edges(12, cycle + [(0, 10), (0, 11), (10, 11)])
    start = time.perf_counter()
    assert oracle_odd_qcol(g, 12) == (0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 1, 1)
    rng = random.Random(35)
    for _ in range(40):
        g = rand_graph(rng, 12, rng.uniform(0.2, 0.8))
        by_q = {q: oracle_odd_qcol(g, q) for q in (2, 3, 6, 12)}
        assert by_q[12] == by_q[6]
        for q, coloring in by_q.items():
            assert coloring is None or check_odd_coloring(g, coloring, q)
    assert time.perf_counter() - start < 10


def test_chi_odd_values_and_undefined_cases():
    assert oracle_chi_odd(named("P4")) == 2
    assert oracle_chi_odd(named("C4")) == 2
    assert oracle_chi_odd(named("C6")) == 3
    assert oracle_chi_odd(named("K3")) is None  # odd-order component
    assert oracle_chi_odd(Graph.from_edges(2, [])) is None  # two odd components
    assert oracle_chi_odd(Graph.from_edges(2, [(0, 1)])) == 1


def test_chi_odd_respects_explicit_budget():
    # C6 needs 3 classes; a budget of 2 is reported as out of reach, not an error
    assert oracle_chi_odd(named("C6"), q_max=2) == math.inf
    assert oracle_chi_odd(named("C6"), q_max=3) == 3


def test_domination_hand_checked():
    c4 = named("C4")
    assert oracle_odd_ds(c4)[0] == 2
    assert oracle_odd_tds(c4)[0] == 2
    p3 = named("P3")
    assert oracle_odd_tds(p3)[0] == 2
    k1 = Graph.from_edges(1, [])
    assert oracle_odd_ds(k1) == (1, 1)
    assert oracle_odd_tds(k1) is None  # nothing can cover an isolated vertex
    assert oracle_odd_tds(named("C6")) is None


def test_domination_witnesses_check_out():
    rng = random.Random(34)
    for _ in range(25):
        g = rand_graph(rng, 7, 0.4)
        value, mask = oracle_odd_ds(g)
        assert check_odd_ds(g, mask) and bin(mask).count("1") == value
        res = oracle_odd_tds(g)
        if res is not None:
            assert check_odd_tds(g, res[1]) and bin(res[1]).count("1") == res[0]


def test_odd_ds_is_always_feasible():
    rng = random.Random(35)
    for _ in range(40):
        g = rand_graph(rng, 8, rng.random())
        value, mask = oracle_odd_ds(g)
        assert check_odd_ds(g, mask)


def test_caps_refuse_oversized_inputs():
    with pytest.raises(OracleCapError):
        oracle_mos(Graph.from_edges(25, []))
    with pytest.raises(OracleCapError):
        oracle_odd_qcol(Graph.from_edges(13, []), 2)
    with pytest.raises(OracleCapError):
        oracle_odd_ds(Graph.from_edges(21, []))
    with pytest.raises(OracleCapError):
        treewidth_exact(Graph.from_edges(17, []))


def test_treewidth_known_values():
    assert treewidth_exact(gen_family("path", 6)) == 1
    assert treewidth_exact(gen_family("cycle", 6)) == 2
    assert treewidth_exact(gen_family("clique", 5)) == 4
    assert treewidth_exact(gen_family("star", 7)) == 1
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert treewidth_exact(k33) == 3
