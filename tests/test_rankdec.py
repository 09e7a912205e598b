from __future__ import annotations

import random

import pytest

from conftest import rand_graph, random_tree
from oddsolve.graph import Graph, GraphError, gen_family, vertices_of
from oddsolve.rankdec import (
    DecompositionTree,
    TreeFormatError,
    caterpillar,
    cut_rank,
    heuristic_order,
    optimal_linear,
    parse_tree,
    width,
    write_tree,
)


def slow_rank(rows: list[int]) -> int:
    """Row count of an independent subset, grown greedily; test-local."""
    basis: list[int] = []
    for row in rows:
        cur = row
        changed = True
        while changed:
            changed = False
            for b in basis:
                if cur ^ b < cur:
                    cur ^= b
                    changed = True
        if cur:
            basis.append(cur)
    return len(basis)


def slow_cut_rank(g: Graph, a_mask: int) -> int:
    b_mask = g.full_mask & ~a_mask
    return slow_rank([g.adj[v] & b_mask for v in vertices_of(a_mask)])


def test_caterpillar_structure():
    g = gen_family("path", 5)
    t = caterpillar(g, [2, 0, 4, 1, 3])
    assert t.n_leaves == 5
    assert sorted(t.leaf_vertex.values()) == [0, 1, 2, 3, 4]
    post = t.postorder()
    assert post[-1] == t.root
    t.validate_for(g)
    with pytest.raises(GraphError):
        caterpillar(g, [0, 1, 2, 3, 3])
    with pytest.raises(GraphError, match="empty graph"):
        caterpillar(Graph.from_edges(0, []), [])


def test_single_vertex_tree():
    g = Graph.from_edges(1, [])
    t = caterpillar(g, [0])
    assert t.n_leaves == 1 and t.is_leaf(t.root)
    assert width(g, t) == 0


def test_width_known_families():
    p8 = gen_family("path", 8)
    assert width(p8, caterpillar(p8, list(range(8)))) == 1
    k5 = gen_family("clique", 5)
    assert width(k5, caterpillar(k5, list(range(5)))) == 1
    s6 = gen_family("star", 6)
    assert width(s6, caterpillar(s6, heuristic_order(s6))) == 1
    c6 = gen_family("cycle", 6)
    assert width(c6, caterpillar(c6, list(range(6)))) == 2


def test_cut_rank_matches_slow_rank():
    rng = random.Random(21)
    for _ in range(60):
        g = rand_graph(rng, 7)
        mask = rng.randrange(1 << 7)
        cb = cut_rank(g, mask)
        assert cb.rank == slow_cut_rank(g, mask)
        # both sides of a cut have equal rank
        assert cb.rank == slow_cut_rank(g, g.full_mask & ~mask)


def test_cut_basis_codes_roundtrip():
    rng = random.Random(22)
    for _ in range(40):
        g = rand_graph(rng, 7)
        a = rng.randrange(1, 1 << 6)
        b = g.full_mask & ~a
        cb = cut_rank(g, a)
        code_of: dict[int, int] = {}  # N2(S) & B -> code
        for _ in range(10):
            s = a & rng.randrange(1 << 7)
            n2_s = 0
            for v in range(g.n):
                if bin(g.adj[v] & s).count("1") % 2:
                    n2_s |= 1 << v
            code = cb.a_code(s)
            # the basis vertices the code selects toggle B exactly as s does
            acc = 0
            for i, v in enumerate(cb.a_basis_vertices):
                if code >> i & 1:
                    acc ^= g.adj[v] & b
            assert acc == n2_s & b
            # equal codes exactly for equal behaviour across the cut
            assert code_of.setdefault(n2_s & b, code) == code
        assert len(set(code_of.values())) == len(code_of)


def test_cut_rank_rejects_foreign_vertices():
    g = gen_family("path", 3)
    with pytest.raises(GraphError):
        cut_rank(g, 0b1000)


def test_heuristic_orders_are_permutations():
    rng = random.Random(23)
    for _ in range(20):
        g = rand_graph(rng, 9, 0.3)
        for method in ("bfs", "degree"):
            order = heuristic_order(g, method)
            assert sorted(order) == list(range(9))
    with pytest.raises(GraphError):
        heuristic_order(g, "dfs")


def test_optimal_linear_never_worse_than_heuristics():
    rng = random.Random(24)
    for _ in range(15):
        g = rand_graph(rng, 7, 0.4)
        w_opt = width(g, optimal_linear(g))
        for method in ("bfs", "degree"):
            t = caterpillar(g, heuristic_order(g, method))
            assert w_opt <= width(g, t)


def test_optimal_linear_beats_identity_on_c4():
    c4 = gen_family("cycle", 4)
    assert width(c4, caterpillar(c4, [0, 1, 2, 3])) == 2
    assert width(c4, optimal_linear(c4)) == 1


def test_optimal_linear_cap():
    g = Graph.from_edges(21, [(0, 1)])
    with pytest.raises(GraphError):
        optimal_linear(g)


def test_tree_roundtrip():
    g = gen_family("cycle", 5)
    t = caterpillar(g, heuristic_order(g))
    text = write_tree(t)
    back = parse_tree(text)
    assert back.children == t.children
    assert back.leaf_vertex == t.leaf_vertex
    assert back.root == t.root
    assert write_tree(back) == text


def test_parse_tree_errors():
    with pytest.raises(TreeFormatError):
        parse_tree("leaf 0 1\n")  # missing root
    with pytest.raises(TreeFormatError):
        parse_tree("leaf 0 1\nleaf 0 2\nroot 0\n")  # duplicate id
    with pytest.raises(TreeFormatError):
        parse_tree("node 2 0 1\nleaf 0 1\nleaf 1 2\nroot 2\nroot 2\n")
    with pytest.raises(TreeFormatError):
        parse_tree("leaf 0 0\nroot 0\n")  # vertices are 1-indexed
    with pytest.raises(TreeFormatError):
        parse_tree("twig 0 1\nroot 0\n")
    with pytest.raises(TreeFormatError):
        parse_tree("node 0 1 2\nleaf 1 1\nroot 0\n")  # unknown child 2


def test_tree_shape_validation():
    with pytest.raises(TreeFormatError):
        DecompositionTree({0: (1, 1)}, {1: 0}, 0)  # child shared twice
    with pytest.raises(TreeFormatError):
        DecompositionTree({}, {0: 0, 1: 0}, 0)  # duplicate leaf vertex
    with pytest.raises(TreeFormatError):
        DecompositionTree({}, {0: 0, 1: 1}, 0)  # leaf 1 unreachable


def test_validate_for_wrong_graph():
    g5 = gen_family("path", 5)
    g4 = gen_family("path", 4)
    t = caterpillar(g5, list(range(5)))
    with pytest.raises(TreeFormatError):
        t.validate_for(g4)


def test_width_is_max_over_all_tree_cuts():
    rng = random.Random(25)
    shape_rng = random.Random(250)
    for _ in range(20):
        g = rand_graph(rng, 8, 0.4)
        t = caterpillar(g, heuristic_order(g))
        expect = max(slow_cut_rank(g, m) for m in t.leaf_masks().values())
        assert width(g, t) == expect
        for tree in (random_tree(g, shape_rng), random_tree(g, shape_rng)):
            expect = max(slow_cut_rank(g, m) for m in tree.leaf_masks().values())
            assert width(g, tree) == expect
    # isolated vertices and several components, over random bracketings
    for g in (Graph.from_edges(7, []),
              Graph.from_edges(10, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)]),
              Graph.from_edges(12, [(u, v) for u in range(4) for v in range(4, 8)]
                               + [(9, 10), (10, 11)])):
        for _ in range(5):
            t = random_tree(g, shape_rng)
            expect = max(slow_cut_rank(g, m) for m in t.leaf_masks().values())
            assert width(g, t) == expect
