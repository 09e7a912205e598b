from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from conftest import (
    all_labeled_graphs,
    check_even_set,
    check_odd_coloring,
    check_odd_set,
    degrees_within,
    rand_graph,
)
from oddsolve.certificates import Certificate, verify
from oddsolve.graph import Graph, GraphError, gen_family, vertices_of
from oddsolve.parity import (
    CographFailure,
    cograph_odd_3_coloring,
    gallai_even_even,
    gallai_odd_even,
    join_bound_floor,
    join_bound_subgraph,
    odd_orientation,
    odd_two_coloring,
    orientation_obstruction,
)


def class_one(g: Graph, a: int) -> tuple[int, ...]:
    """The 2-coloring that puts part `a` in class 1, as `poly odd2col` and
    `poly even2col` print it."""
    return tuple(a >> v & 1 for v in range(g.n))


def brute_odd_two_colorable(g: Graph) -> bool:
    for assign in range(1 << g.n):
        if check_odd_set(g, assign) and check_odd_set(g, g.full_mask & ~assign):
            return True
    return False


def join_graphs(g1: Graph, g2: Graph) -> tuple[Graph, int, int]:
    n = g1.n + g2.n
    edges = list(g1.edges())
    edges += [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    edges += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    v1 = (1 << g1.n) - 1
    return Graph.from_edges(n, edges), v1, ((1 << n) - 1) & ~v1


def has_induced_p4(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        for order in permutations(quad):
            a, b, c, d = order
            if (g.adj[a] >> b & 1 and g.adj[b] >> c & 1 and g.adj[c] >> d & 1
                    and not g.adj[a] >> c & 1 and not g.adj[a] >> d & 1
                    and not g.adj[b] >> d & 1):
                return True
    return False


def rand_cograph(rng: random.Random, size: int) -> Graph:
    if size == 1:
        return Graph.from_edges(1, [])
    left = rng.randrange(1, size)
    g1 = rand_cograph(rng, left)
    g2 = rand_cograph(rng, size - left)
    edges = list(g1.edges()) + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    if rng.random() < 0.5:
        edges += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    return Graph.from_edges(size, edges)


# ---------------------------------------------------------------- 2-coloring

def test_odd_two_coloring_matches_bruteforce_tiny():
    for g in all_labeled_graphs(5):
        res = odd_two_coloring(g)
        assert (res is not None) == brute_odd_two_colorable(g)
        if res is not None:
            a, b = res
            assert a & b == 0 and a | b == g.full_mask
            assert check_odd_coloring(g, class_one(g, a), 2)


def test_odd_two_coloring_matches_bruteforce_random():
    rng = random.Random(41)
    for _ in range(30):
        g = rand_graph(rng, 6)
        res = odd_two_coloring(g)
        assert (res is not None) == brute_odd_two_colorable(g)


def test_two_coloring_edge_mono_markers():
    # the monochromatic edges at each vertex, read off the colors, number
    # odd in an odd 2-coloring and even in an even one (gallai_even_even's
    # parts).  An odd class has even order, so at n = 7 no odd 2-coloring
    # exists; n = 8 has both.
    rng = random.Random(42)
    odd_found = 0
    for n in (7, 8):
        for _ in range(20):
            g = rand_graph(rng, n)
            odd = odd_two_coloring(g)
            for res, parity in ((odd, 1), (gallai_even_even(g), 0)):
                if res is None:
                    continue
                colors = class_one(g, res[0])
                for u in range(n):
                    mono = [v for v in vertices_of(g.adj[u]) if colors[v] == colors[u]]
                    assert len(mono) % 2 == parity
            assert n % 2 == 0 or odd is None
            odd_found += odd is not None
    assert 0 < odd_found < 20  # both outcomes of the odd system occur


def test_even_even_partition_always_exists():
    # `poly even2col` prints gallai_even_even's partition, from n = 0 up
    rng = random.Random(43)
    for n in range(0, 11):
        for _ in range(10):
            g = rand_graph(rng, n, rng.random())
            a, b = gallai_even_even(g)
            assert check_even_set(g, a)
            assert check_even_set(g, b)
            assert a | b == g.full_mask


def test_class_masks_partition():
    for g in (gen_family("cycle", 6), gen_family("clique", 4), gen_family("path", 4)):
        for parts in (odd_two_coloring(g), gallai_even_even(g), gallai_odd_even(g)):
            if parts is not None:
                a, b = parts
                assert a & b == 0 and a | b == g.full_mask


# ------------------------------------------------------------------- Gallai

def test_gallai_partitions_random():
    rng = random.Random(44)
    for _ in range(60):
        g = rand_graph(rng, rng.randrange(1, 11), rng.random())
        a, b = gallai_odd_even(g)
        assert a & b == 0 and (a | b) == g.full_mask
        assert check_odd_set(g, a)
        assert check_even_set(g, b)
        a, b = gallai_even_even(g)
        assert a & b == 0 and (a | b) == g.full_mask
        assert check_even_set(g, a)
        assert check_even_set(g, b)


def test_gallai_edge_cases():
    empty = Graph.from_edges(4, [])
    a, b = gallai_odd_even(empty)
    assert a == 0 and b == 0b1111  # no vertex can have odd degree here
    k2 = Graph.from_edges(2, [(0, 1)])
    a, b = gallai_odd_even(k2)
    assert check_odd_set(k2, a) and check_even_set(k2, b)


# (family, n): odd_two_coloring, gallai_odd_even, gallai_even_even, each
# as (A, B) masks.  Free variables are fixed to 0, so each system has
# exactly one reported solution; these pin which one.  `poly even2col`
# prints gallai_even_even's partition.
PINNED_PARITY_OUTPUTS = {
    ("path", 4): ((3, 12), (6, 9), (5, 10)),
    ("path", 5): (None, (27, 4), (10, 21)),
    ("cycle", 5): (None, (0, 31), (0, 31)),
    ("cycle", 6): (None, (0, 63), (0, 63)),
    ("clique", 4): ((0, 15), (15, 0), (1, 14)),
    ("star", 5): (None, (3, 28), (1, 30)),
    ("star", 6): ((0, 63), (3, 60), (1, 62)),
}


@pytest.mark.parametrize("family,n", sorted(PINNED_PARITY_OUTPUTS))
def test_parity_outputs_are_pinned(family, n):
    g = gen_family(family, n)
    odd, odd_even, even_even = PINNED_PARITY_OUTPUTS[family, n]
    assert odd_two_coloring(g) == odd
    assert gallai_odd_even(g) == odd_even
    assert gallai_even_even(g) == even_even


def test_two_part_witnesses_verify_at_scale():
    # a cograph (n = 150, 4,173 edges) and G(200, 1/2) (9,992 edges), both
    # odd 2-colorable: every witness of the four 2-part routines passes the
    # independent certificate check
    for g in (rand_cograph(random.Random(5), 150), rand_graph(random.Random(6), 200)):
        odd = odd_two_coloring(g)
        assert odd is not None
        witnesses = [("odd2col", class_one(g, odd[0])),
                     ("even2col", class_one(g, gallai_even_even(g)[0]))]
        for problem, fn in (("gallai-oe", gallai_odd_even), ("gallai-ee", gallai_even_even)):
            a, _ = fn(g)
            witnesses.append((problem, tuple(0 if a >> v & 1 else 1 for v in range(g.n))))
        for problem, colors in witnesses:
            ok, why = verify(g, Certificate(problem, len(set(colors)), coloring=colors))
            assert ok, (g.n, problem, why)


# -------------------------------------------------------------- orientation

def component_parity_ok(g: Graph) -> bool:
    for comp in g.components():
        edges_inside = sum(
            1 for u, v in g.edges() if comp >> u & 1 and comp >> v & 1)
        if (bin(comp).count("1") + edges_inside) % 2:
            return False
    return True


def test_orientation_feasibility_criterion():
    rng = random.Random(45)
    for _ in range(80):
        g = rand_graph(rng, rng.randrange(1, 10), rng.random())
        res = odd_orientation(g)
        assert (res is not None) == component_parity_ok(g)
        if res is None:
            comp = orientation_obstruction(g)
            edges_inside = sum(
                1 for u, v in g.edges() if comp >> u & 1 and comp >> v & 1)
            assert (bin(comp).count("1") + edges_inside) % 2 == 1
        else:
            assert orientation_obstruction(g) is None


def test_orientation_indegrees_all_odd():
    rng = random.Random(46)
    found = 0
    while found < 30:
        g = rand_graph(rng, 8, 0.4)
        res = odd_orientation(g)
        if res is None:
            continue
        found += 1
        assert len(res) == g.m
        assert sorted((min(a), max(a)) for a in res) == sorted(g.edges())
        heads = [head for _, head in res]
        assert all(heads.count(v) % 2 == 1 for v in range(g.n))


def test_orientation_known_cases():
    # C4: 4 vertices + 4 edges even -> orientable; e.g. alternating heads
    assert odd_orientation(gen_family("cycle", 4)) is not None
    # K1: isolated vertex has in-degree 0
    assert odd_orientation(Graph.from_edges(1, [])) is None
    # K2: single edge can only make one in-degree odd
    assert odd_orientation(Graph.from_edges(2, [(0, 1)])) is None
    # P3: 3 + 2 edges odd -> no
    assert odd_orientation(gen_family("path", 3)) is None
    # P4: 4 + 3 odd -> wait, 7 is odd -> no; star with 3 leaves: 4 + 3 -> no
    assert odd_orientation(gen_family("path", 4)) is None
    # triangle: 3 + 3 = 6 even -> cyclic orientation works
    assert odd_orientation(gen_family("cycle", 3)) is not None


# --------------------------------------------------------------- join bound

def test_join_bound_floor_values():
    assert join_bound_floor(2) == 0
    assert join_bound_floor(3) == 2
    assert join_bound_floor(6) == 2
    assert join_bound_floor(7) == 4
    assert join_bound_floor(10) == 4
    assert join_bound_floor(11) == 6


def test_join_bound_on_random_joins():
    rng = random.Random(47)
    for _ in range(60):
        n1 = rng.randrange(1, 6)
        n2 = rng.randrange(1, 6)
        g, v1, v2 = join_graphs(rand_graph(rng, n1), rand_graph(rng, n2))
        res = join_bound_subgraph(g, v1, v2)
        assert check_odd_set(g, res.subgraph)
        assert res.subgraph.bit_count() >= join_bound_floor(g.n)
        if g.n % 2 == 0:
            assert res.coloring is not None
            assert check_odd_coloring(g, res.coloring, 3)
        else:
            assert res.coloring is None


def test_join_bound_rejects_non_joins():
    g = gen_family("path", 4)
    with pytest.raises(GraphError):
        join_bound_subgraph(g, 0b0011, 0b1100)
    c = gen_family("clique", 4)
    with pytest.raises(GraphError):
        join_bound_subgraph(c, 0b0011, 0b0100)  # sides must cover V
    with pytest.raises(GraphError):
        join_bound_subgraph(c, 0b0111, 0b1100)  # sides overlap
    with pytest.raises(GraphError):
        join_bound_subgraph(c, 0, 0b1111)


def test_join_bound_star_case():
    # star K_{1,5}: center vs leaves is a join, n = 6 even, sides odd/odd
    g = gen_family("star", 6)
    center = max(range(6), key=lambda v: bin(g.adj[v]).count("1"))
    v1 = 1 << center
    res = join_bound_subgraph(g, v1, g.full_mask & ~v1)
    assert check_odd_coloring(g, res.coloring, 3)


# ------------------------------------------------------------------ cograph

def test_cograph_rejects_p4():
    res = cograph_odd_3_coloring(gen_family("path", 4))
    assert isinstance(res, CographFailure) and res.reason == "not-cograph"


def test_cograph_odd_component_failure():
    res = cograph_odd_3_coloring(gen_family("clique", 3))
    assert isinstance(res, CographFailure) and res.reason == "odd-component"
    assert bin(res.detail).count("1") == 3


def test_cograph_coloring_on_random_cographs():
    rng = random.Random(48)
    colored = 0
    for _ in range(80):
        g = rand_cograph(rng, rng.randrange(2, 11))
        assert not has_induced_p4(g)
        res = cograph_odd_3_coloring(g)
        odd_comp = any(bin(c).count("1") % 2 for c in g.components())
        if odd_comp:
            assert isinstance(res, CographFailure) and res.reason == "odd-component"
        else:
            assert not isinstance(res, CographFailure)
            assert check_odd_coloring(g, res, 3)
            colored += 1
    assert colored >= 10  # the generator must exercise the success path


def test_cograph_detection_matches_p4_search():
    rng = random.Random(49)
    for _ in range(60):
        g = rand_graph(rng, 6, rng.random())
        res = cograph_odd_3_coloring(g)
        not_cograph = isinstance(res, CographFailure) and res.reason == "not-cograph"
        assert not_cograph == has_induced_p4(g)


def test_cograph_known_families():
    res = cograph_odd_3_coloring(gen_family("k222"))
    assert not isinstance(res, CographFailure)
    assert check_odd_coloring(gen_family("k222"), res, 3)
    k4 = gen_family("clique", 4)
    res = cograph_odd_3_coloring(k4)
    assert check_odd_coloring(k4, res, 3)
    # even disjoint union of even cliques
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    res = cograph_odd_3_coloring(g)
    assert check_odd_coloring(g, res, 3)
