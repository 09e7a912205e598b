from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import example, given, strategies as st

from conftest import degrees_within, rand_graph
from oddsolve.graph import (
    FAMILIES,
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    GraphError,
    gen_family,
    mask_lex_less,
    mask_of,
    parse_graph,
    subdivided_clique_edges,
    vertices_of,
    write_graph,
)


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.adj[1] == 0b0101
    assert g.full_mask == 0b1111


def test_edges_lists_every_pair_once_on_wide_rows():
    """Rows of n >= 70 bits span several int digits; `edges` and
    `write_graph` each shift a row down and add the offset back.  The
    written text is pinned byte for byte to the brute-force edge list."""
    rng = random.Random(12)
    cases = [rand_graph(rng, rng.randrange(70, 140), rng.uniform(0.02, 0.3)) for _ in range(6)]
    cases += [Graph.from_edges(0, []), Graph.from_edges(1, []),
              Graph.from_edges(9, [(1, 4), (4, 7), (1, 7)])]  # 0, 2, 3, 5, 6, 8 isolated
    for g in cases:
        brute = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1]
        assert list(g.edges()) == brute
        assert len(brute) == g.m
        text = "".join(f"e {u + 1} {v + 1}\n" for u, v in brute)
        assert write_graph(g) == f"p edge {g.n} {g.m}\n" + text


@st.composite
def graphs(draw) -> Graph:
    n = draw(st.integers(0, 140))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=200)) if e[0] != e[1]}
    return Graph.from_edges(n, sorted(edges))


@given(graphs())
@example(Graph.from_edges(5, [(0, 1), (0, 4), (2, 3)]))
def test_parse_write_roundtrip(g):
    assert parse_graph(write_graph(g)) == g


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(1, 1)])


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert vertices_of(0b100101) == [0, 2, 5]
    assert mask_lex_less(0b001, 0b010)
    assert mask_lex_less(0b011, 0b101)
    assert not mask_lex_less(0b101, 0b011)
    assert not mask_lex_less(0b101, 0b101)


def test_parse_one_indexed_with_comments():
    text = "c a triangle\np edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 3
    assert g.adj[0] == 0b110


def test_parse_collapses_duplicate_edges_with_warning():
    with pytest.warns(UserWarning):
        g = parse_graph("p edge 3 2\ne 1 2\ne 2 1\n")
    assert g.m == 1


def test_parse_errors():
    with pytest.raises(GraphError):
        parse_graph("e 1 2\n")  # no header
    with pytest.raises(GraphError):
        parse_graph("p edge 2 1\ne 1 3\n")  # vertex out of range
    with pytest.raises(GraphError):
        parse_graph("p edge 2 1\ne 1 1\n")  # self-loop
    with pytest.raises(GraphError):
        parse_graph("p edge x 1\n")


def test_parse_bounds_the_declared_vertex_count_at_the_problem_line():
    """A count above MAX_VERTICES is refused before anything is allocated
    for it; the bound itself is accepted."""
    limit = f"limit of {MAX_VERTICES}"
    for n in (MAX_VERTICES + 1, 10**12, 10**4000):
        with pytest.raises(GraphError, match=f"line 2: .*{limit}"):
            parse_graph(f"c hostile\np edge {n} 0\ne 1 2\n")
    assert parse_graph(f"p edge {MAX_VERTICES} 0\n").n == MAX_VERTICES


# Documents built from the format's own words and integers of any size: the
# vertex-count bound, not a narrow strategy, keeps `p edge <huge n>` cheap.
# A `p` line first, whole `e` lines and small integers mixed in reach the
# endpoint checks and the returned graph far more often than word soup does.
_GRAPH_INTS = st.one_of(st.integers(1, 5), st.integers()).map(str)
_GRAPH_WORDS = st.one_of(st.sampled_from(["p", "edge", "e", "c"]), _GRAPH_INTS,
                         st.text(max_size=3))
_P_LINE = st.tuples(st.just("p edge"), _GRAPH_INTS, _GRAPH_INTS).map(" ".join)
_E_LINE = st.tuples(st.just("e"), _GRAPH_INTS, _GRAPH_INTS).map(" ".join)
_GRAPH_LINE = st.one_of(_P_LINE, _E_LINE, st.lists(_GRAPH_WORDS, max_size=5).map(" ".join))
_GRAPH_LINES = st.tuples(st.lists(_P_LINE, max_size=1), st.lists(_GRAPH_LINE, max_size=8)
                         ).map(lambda parts: "\n".join(parts[0] + parts[1]))


@given(st.one_of(st.text(), _GRAPH_LINES))
def test_parse_graph_returns_a_graph_or_raises_graph_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # duplicate edges, declared m
        try:
            g = parse_graph(text)
        except GraphError:
            return
    assert isinstance(g, Graph) and 0 <= g.n <= MAX_VERTICES


def test_components_partition_the_mask_into_connected_parts():
    """`components(within)` splits `within` into parts ordered by smallest
    vertex, each connected inside `within` and with no edge to the rest of
    it; with no mask it is the whole graph's split."""
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(0, 13)
        g = rand_graph(rng, n, rng.choice([0.0, 0.1, 0.25, 0.5]))
        assert g.components() == g.components(g.full_mask)
        within = rng.randrange(1 << n)
        parts = g.components(within)
        union = 0
        for part in parts:
            assert part and not part & union
            union |= part
        assert union == within
        assert [p & -p for p in parts] == sorted(p & -p for p in parts)
        for part in parts:
            reached = part & -part
            while True:  # grow by edges inside `part`
                grown = reached
                for v in vertices_of(reached):
                    grown |= g.adj[v] & part
                if grown == reached:
                    break
                reached = grown
            assert reached == part
            for v in vertices_of(part):
                assert not g.adj[v] & within & ~part


def test_families_shapes():
    assert set(FAMILIES) >= {"path", "cycle", "clique", "star", "k222", "c5plus",
                             "kn-subdivided", "hn-split"}
    p5 = gen_family("path", 5)
    assert (p5.n, p5.m) == (5, 4)
    c6 = gen_family("cycle", 6)
    assert (c6.n, c6.m) == (6, 6)
    k4 = gen_family("clique", 4)
    assert (k4.n, k4.m) == (4, 6)
    s5 = gen_family("star", 5)
    degs = sorted(bin(s5.adj[v]).count("1") for v in range(5))
    assert degs == [1, 1, 1, 1, 4]


def test_k222_is_4_regular_on_6_vertices():
    g = gen_family("k222")
    assert g.n == 6 and g.m == 12
    assert all(bin(g.adj[v]).count("1") == 4 for v in range(6))


def test_c5plus_is_c5_with_one_chord():
    g = gen_family("c5plus")
    assert g.n == 5 and g.m == 6
    degs = sorted(bin(g.adj[v]).count("1") for v in range(5))
    assert degs == [2, 2, 2, 3, 3]


def test_subdivided_clique_layout():
    for n in (3, 4, 5):
        edges, mid = subdivided_clique_edges(n)
        g = Graph.from_edges(n + n * (n - 1) // 2, edges)
        assert g.n == n * (n + 1) // 2
        assert g.m == n * (n - 1)  # each clique edge becomes two
        assert len(mid) == n * (n - 1) // 2
        for (u, v), w in mid.items():
            assert g.adj[w] == (1 << u) | (1 << v)
        deg = degrees_within(g, g.full_mask)
        assert all(deg[v] == n - 1 for v in range(n))


def test_gen_family_argument_validation():
    with pytest.raises(GraphError):
        gen_family("nosuch")
    with pytest.raises(GraphError):
        gen_family("path")  # needs n
    with pytest.raises(GraphError):
        gen_family("cycle", 2)
    # the subdivided K_362 has 362 + 362 * 361 / 2 vertices
    with pytest.raises(GraphError, match=f"65703 vertices exceed the limit of {MAX_VERTICES}"):
        gen_family("kn-subdivided", 362)
    # K_2897 has 4,194,856 edges, the first clique over the edge bound
    with pytest.raises(GraphError, match=f"2897 vertices give 4194856 vertex pairs, "
                                         f"over the limit of {MAX_EDGES}"):
        gen_family("clique", 2897)
