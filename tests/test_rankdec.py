from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conftest import binary_tree, rand_graph, random_tree
from oddsolve.graph import Graph, GraphError, gen_family, vertices_of
from oddsolve import rankdec
from oddsolve.rankdec import (
    AUTO_METHODS,
    METHODS,
    DecompositionTree,
    TreeFormatError,
    auto_tree,
    caterpillar,
    cut_rank,
    elimination_tree,
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
    assert len(t.leaf_vertex) == 5
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
    assert len(t.leaf_vertex) == 1 and t.root in t.leaf_vertex
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


# Lines built from the format's own words and small numbers reach the
# structural checks far more often than arbitrary text does.
_TREE_WORDS = st.one_of(st.sampled_from(["leaf", "node", "root", "c", "#"]),
                        st.integers(-2, 6).map(str), st.text(max_size=3))
_TREE_LINES = st.lists(st.lists(_TREE_WORDS, max_size=5).map(" ".join),
                       max_size=8).map("\n".join)


@given(st.one_of(st.text(), _TREE_LINES))
def test_parse_tree_accepts_or_raises_tree_format_error(text):
    try:
        t = parse_tree(text)
    except TreeFormatError:
        return
    assert parse_tree(write_tree(t)) == t


@st.composite
def bracketings(draw) -> DecompositionTree:
    """A random full binary tree over distinct vertices, with arbitrary
    distinct node ids."""
    n = draw(st.integers(1, 12))
    vertices = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    ids = iter(draw(st.lists(st.integers(), min_size=2 * n - 1, max_size=2 * n - 1,
                             unique=True)))
    children: dict[int, tuple[int, int]] = {}
    leaf_vertex: dict[int, int] = {}

    def build(lo: int, hi: int) -> int:
        node = next(ids)
        if hi - lo == 1:
            leaf_vertex[node] = vertices[lo]
        else:
            mid = draw(st.integers(lo + 1, hi - 1))
            children[node] = (build(lo, mid), build(mid, hi))
        return node

    root = build(0, n)
    return DecompositionTree(children, leaf_vertex, root)


@given(bracketings())
def test_write_tree_roundtrips_through_parse_tree(t):
    assert parse_tree(write_tree(t)) == t


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
    with pytest.raises(TreeFormatError, match=r"^tree has 5 leaves for 4 vertices; "
                                              r"vertex 5 is out of range 1\.\.4$"):
        t.validate_for(g4)


def leaf_rank_inputs() -> list[tuple[Graph, DecompositionTree]]:
    """Trees whose width only the leaf cuts reach: a perfect matching on 8
    vertices under the tree that joins each edge's two leaves first (every
    join has rank 0, the width is 1), K2, and an edgeless graph."""
    matching = Graph.from_edges(8, [(0, 5), (1, 6), (2, 7), (3, 4)])
    paired = DecompositionTree(
        {8: (0, 5), 9: (1, 6), 10: (2, 7), 11: (3, 4), 12: (8, 9), 13: (10, 11), 14: (12, 13)},
        {v: v for v in range(8)}, 14)
    k2 = gen_family("path", 2)
    edgeless = Graph.from_edges(5, [])
    return [(matching, paired), (k2, caterpillar(k2, [1, 0])),
            (edgeless, caterpillar(edgeless, [3, 1, 4, 0, 2])),
            (edgeless, elimination_tree(edgeless))]


def test_width_is_max_over_all_tree_cuts():
    rng = random.Random(25)
    shape_rng = random.Random(250)
    for _ in range(20):
        g = rand_graph(rng, 8, 0.4)
        t = caterpillar(g, heuristic_order(g))
        expect = max(slow_cut_rank(g, m) for m in t.leaf_masks().values())
        assert width(g, t) == expect
        for tree in (random_tree(g, shape_rng), random_tree(g, shape_rng),
                     elimination_tree(g)):
            expect = max(slow_cut_rank(g, m) for m in tree.leaf_masks().values())
            assert width(g, tree) == expect
    # isolated vertices and several components, and paths, a star and a
    # forest, whose cuts mostly have one boundary vertex, over random
    # bracketings
    for g in (Graph.from_edges(7, []),
              Graph.from_edges(10, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)]),
              Graph.from_edges(12, [(u, v) for u in range(4) for v in range(4, 8)]
                               + [(9, 10), (10, 11)]),
              gen_family("path", 2), gen_family("path", 9), gen_family("star", 8),
              Graph.from_edges(10, [(0, 1), (1, 2), (1, 3), (5, 6), (6, 8)])):
        for t in [random_tree(g, shape_rng) for _ in range(5)] + [elimination_tree(g)]:
            expect = max(slow_cut_rank(g, m) for m in t.leaf_masks().values())
            assert width(g, t) == expect
    # only the leaf cuts reach the width, or nothing does
    for (g, t), expect in zip(leaf_rank_inputs(), (1, 1, 0, 0)):
        assert max(slow_cut_rank(g, m) for m in t.leaf_masks().values()) == expect
        assert width(g, t) == expect


def random_forest(rng: random.Random, n: int) -> Graph:
    """Random forest on shuffled labels: each vertex after the first joins a
    random earlier one with probability 0.8, else starts a new component."""
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[v], label[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.8]
    return Graph.from_edges(n, edges)


def test_elimination_tree_has_width_one_on_forests():
    rng = random.Random(26)
    several = isolated = 0
    for _ in range(60):
        g = random_forest(rng, rng.randrange(2, 81))
        assert width(g, elimination_tree(g)) == (1 if g.m else 0), g.n
        several += len(g.components()) > 1
        isolated += any(not row for row in g.adj)
    assert several >= 30 and isolated >= 30, (several, isolated)
    for n in (1, 2, 9):
        edgeless = Graph.from_edges(n, [])
        assert width(edgeless, elimination_tree(edgeless)) == 0
    # several components, isolated vertices among them
    forest = Graph.from_edges(12, [(0, 1), (1, 2), (1, 3), (5, 6), (8, 9), (9, 10), (10, 11)])
    assert width(forest, elimination_tree(forest)) == 1


def test_elimination_tree_structure():
    rng = random.Random(27)
    for _ in range(30):
        g = rand_graph(rng, rng.randrange(1, 13), rng.uniform(0.1, 0.8))
        t = elimination_tree(g)
        assert sorted(t.leaf_vertex.values()) == list(range(g.n))
        assert len(t.children) == g.n - 1
        back = parse_tree(write_tree(t))
        assert back == t and write_tree(back) == write_tree(t)
        assert elimination_tree(g) == t  # deterministic
    k1 = Graph.from_edges(1, [])
    t = elimination_tree(k1)
    assert len(t.leaf_vertex) == 1 and t.root in t.leaf_vertex and width(k1, t) == 0
    with pytest.raises(GraphError, match="empty graph has no decomposition tree"):
        elimination_tree(Graph.from_edges(0, []))


def test_auto_tree_keeps_a_width_one_caterpillar(monkeypatch):
    def never(g):
        raise AssertionError("candidate built although the caterpillar has width 1")

    monkeypatch.setattr(rankdec, "elimination_tree", never)
    p50 = gen_family("path", 50)
    t, name, w = auto_tree(p50)
    assert (name, w) == ("caterpillar-bfs", 1)
    assert t == caterpillar(p50, heuristic_order(p50, "bfs"))


def test_auto_tree_picks_min_degree_on_a_binary_tree():
    g = binary_tree(4)
    assert width(g, caterpillar(g, heuristic_order(g, "bfs"))) > 1
    t, name, w = auto_tree(g)
    assert (name, w) == ("min-degree", 1)
    assert t == elimination_tree(g)
    # a genuine binary tree: some node joins two internal children, which no
    # caterpillar has
    assert any(x not in t.leaf_vertex and y not in t.leaf_vertex for x, y in t.children.values())


def test_bounded_width_is_exact_below_the_bound():
    rng = random.Random(30)
    shape_rng = random.Random(300)
    for _ in range(40):
        g = rand_graph(rng, rng.randrange(1, 13), rng.uniform(0.1, 0.9))
        for t in (random_tree(g, shape_rng), caterpillar(g, heuristic_order(g, "bfs"))):
            exact = width(g, t)
            for bound in range(exact + 3):
                got = width(g, t, stop_at=bound)
                if exact < bound:
                    assert got == exact
                else:
                    assert exact >= got >= bound
    for g, t in leaf_rank_inputs():
        exact = width(g, t)
        for bound in range(4):
            got = width(g, t, stop_at=bound)
            if exact < bound:
                assert got == exact
            else:
                assert exact >= got >= bound


def random_corpus() -> list[Graph]:
    """100 random graphs with n <= 12."""
    rng = random.Random(28)
    return [rand_graph(rng, rng.randrange(1, 13), rng.uniform(0.1, 0.9)) for _ in range(100)]


def test_every_method_builds_a_tree_of_the_graph():
    for g in random_corpus():
        for build in METHODS.values():
            build(g).validate_for(g)


def test_auto_tree_is_never_wider_and_ties_keep_the_caterpillar():
    """The bounded passes choose exactly as unbounded ones would."""
    picked = {"caterpillar-bfs": 0, "min-degree": 0}
    for g in random_corpus():
        cat = caterpillar(g, heuristic_order(g, "bfs"))
        cat_w = width(g, cat)
        elim_w = width(g, elimination_tree(g))
        t, name, w = auto_tree(g)
        assert w == width(g, t) <= cat_w
        if elim_w < cat_w:
            assert (t, name, w) == (elimination_tree(g), "min-degree", elim_w)
        else:
            assert (t, name, w) == (cat, "caterpillar-bfs", cat_w)
        assert name in AUTO_METHODS and t == METHODS[name](g)
        picked[name] += 1
    assert all(picked.values()), picked


def min_degree_bags(g: Graph) -> list[set[int]]:
    """Higher neighbourhoods of a min-degree elimination with fill, over
    plain sets; test-local reference."""
    nbrs = {v: set(vertices_of(g.adj[v])) for v in range(g.n)}
    bags = []
    while nbrs:
        v = min(nbrs, key=lambda u: (len(nbrs[u]), u))
        bag = nbrs.pop(v)
        for u in bag:
            nbrs[u] |= bag - {u}
            nbrs[u].discard(v)
        bags.append(bag)
    return bags


def test_elimination_tree_width_is_bounded_by_its_bags():
    rng = random.Random(29)
    for _ in range(60):
        g = rand_graph(rng, rng.randrange(1, 15), rng.uniform(0.1, 0.6))
        bound = 1 + max(len(bag) for bag in min_degree_bags(g))
        assert width(g, elimination_tree(g)) <= bound
    for r, c in ((3, 8), (4, 6), (5, 5)):
        g = Graph.from_edges(r * c, [(v, v + 1) for v in range(r * c) if (v + 1) % c]
                             + [(v, v + c) for v in range(r * c - c)])
        bound = 1 + max(len(bag) for bag in min_degree_bags(g))
        assert width(g, elimination_tree(g)) <= bound, (r, c)
