from __future__ import annotations

import random
import time
from itertools import permutations, product

import pytest

from conftest import (
    all_labeled_graphs,
    check_odd_coloring,
    check_odd_ds,
    check_odd_set,
    check_odd_tds,
    check_even_set,
    rand_graph,
    random_tree,
)
from oddsolve import dp, rankdec
from oddsolve.certificates import Certificate, verify
from oddsolve.dp import _distinct_orders, _run, _SUBSET_KINDS
from oddsolve.gf2 import row_basis
from oddsolve.graph import Graph, gen_family, mask_lex_less, vertices_of
from oddsolve.oracle import (
    oracle_chi_odd,
    oracle_mes,
    oracle_mos,
    oracle_odd_ds,
    oracle_odd_qcol,
    oracle_odd_tds,
)
from oddsolve.parity import (
    gallai_even_even,
    gallai_odd_even,
    join_bound_floor,
    join_bound_subgraph,
    odd_two_coloring,
)
from oddsolve.rankdec import (
    caterpillar,
    cut_rank,
    elimination_tree,
    heuristic_order,
    optimal_linear,
)


def bfs_tree(g: Graph):
    return caterpillar(g, heuristic_order(g, "bfs"))


def tree_suite(g: Graph, rng: random.Random, shape_rng: random.Random):
    """Caterpillars from `rng`, two random bracketings from `shape_rng`, kept
    apart so the bracketings leave the graph corpus unchanged, and the
    min-degree elimination tree, which draws no random numbers."""
    order = list(range(g.n))
    rng.shuffle(order)
    return [
        caterpillar(g, list(range(g.n))),
        bfs_tree(g),
        caterpillar(g, heuristic_order(g, "degree")),
        caterpillar(g, order),
        optimal_linear(g),
        random_tree(g, shape_rng),
        random_tree(g, shape_rng),
        elimination_tree(g),
    ]


# ------------------------------------------------------- oracle agreement

def test_subset_problems_match_oracle_tiny():
    for g in all_labeled_graphs(4):
        t = bfs_tree(g)
        assert dp.solve_mos(g, t) == oracle_mos(g)
        assert dp.solve_mes(g, t) == oracle_mes(g)
        assert dp.solve_odd_ds(g, t) == oracle_odd_ds(g)
        assert dp.solve_odd_tds(g, t) == oracle_odd_tds(g)


def test_all_problems_match_oracle_random():
    rng = random.Random(51)
    shape_rng = random.Random(510)
    for _ in range(30):
        n = rng.randrange(5, 9)
        g = rand_graph(rng, n, rng.uniform(0.2, 0.8))
        t = bfs_tree(g)
        for tree in (t, random_tree(g, shape_rng), elimination_tree(g)):
            assert dp.solve_mos(g, tree) == oracle_mos(g)
            assert dp.solve_mes(g, tree) == oracle_mes(g)
            assert dp.solve_odd_ds(g, tree) == oracle_odd_ds(g)
            assert dp.solve_odd_tds(g, tree) == oracle_odd_tds(g)
            for q in (1, 2, 3):
                mine = dp.solve_odd_qcol(g, tree, q)
                ref = oracle_odd_qcol(g, q)
                assert (mine is None) == (ref is None), (n, q)
                if mine is not None:
                    assert check_odd_coloring(g, mine, q)
        chi_ref = oracle_chi_odd(g)
        chi = dp.chi_odd(g, t)
        if chi_ref is None:
            assert chi is None
        else:
            assert chi is not None and chi[0] == chi_ref
            assert check_odd_coloring(g, chi[1], chi_ref)
            assert len(set(chi[1])) == chi_ref  # minimal q is fully used


def test_witnesses_are_valid_and_extremal_shape():
    rng = random.Random(52)
    for _ in range(25):
        g = rand_graph(rng, 8, 0.5)
        t = bfs_tree(g)
        v, m = dp.solve_mos(g, t)
        assert check_odd_set(g, m) and m.bit_count() == v
        v, m = dp.solve_mes(g, t)
        assert check_even_set(g, m) and m.bit_count() == v
        v, m = dp.solve_odd_ds(g, t)
        assert check_odd_ds(g, m) and m.bit_count() == v
        res = dp.solve_odd_tds(g, t)
        if res is not None:
            assert check_odd_tds(g, res[1]) and res[1].bit_count() == res[0]


def test_qcol_and_chi_odd_match_oracle_on_every_tree_shape():
    rng = random.Random(64)
    shape_rng = random.Random(640)
    graphs = [rand_graph(rng, rng.choice((6, 8)), rng.uniform(0.3, 0.8)) for _ in range(10)]
    # chi-odd 3 and 4, and one odd-order graph
    graphs += [gen_family("k222"), gen_family("kn-subdivided", 4), rand_graph(rng, 7, 0.5)]
    for g in graphs:
        refs = {q: oracle_odd_qcol(g, q) is not None for q in (1, 2, 3, 4)}
        chi_ref = oracle_chi_odd(g)
        for t in tree_suite(g, rng, shape_rng):
            for q, feasible in refs.items():
                mine = dp.solve_odd_qcol(g, t, q)
                assert (mine is not None) == feasible, q
                if feasible:
                    assert check_odd_coloring(g, mine, q)
            chi = dp.chi_odd(g, t)
            if chi_ref is None:
                assert chi is None
            else:
                assert chi[0] == chi_ref and check_odd_coloring(g, chi[1], chi_ref)


# ------------------------------------------------------ tree independence

def test_results_do_not_depend_on_the_tree():
    rng = random.Random(53)
    shape_rng = random.Random(530)
    for _ in range(12):
        g = rand_graph(rng, 7, rng.uniform(0.2, 0.8))
        trees = tree_suite(g, rng, shape_rng)
        for solver in (dp.solve_mos, dp.solve_mes, dp.solve_odd_ds, dp.solve_odd_tds):
            results = {solver(g, t) for t in trees}
            assert len(results) == 1, solver.__name__
        for q in (2, 3):
            feas = {dp.solve_odd_qcol(g, t, q) is None for t in trees}
            assert len(feas) == 1
        chis = {None if dp.chi_odd(g, t) is None else dp.chi_odd(g, t)[0]
                for t in trees}
        assert len(chis) == 1


# Per graph, per `rankdec.METHODS` tree in order: the odd 3-coloring and the
# chi-odd coloring the DP reports, one digit per vertex (None: infeasible).
_QCOL_PINS = (
    (("001010", "001010"), ("011220", "001010"), ("001010", "001010"), ("010010", "010010")),
    ((None, None),) * 4,
    (("00001111", "00001111"), ("00121222", "00001111"), ("00110011", "00110011"),
     ("00001111", "00001111")),
    (("00112020", "00112020"), ("00112020", "00112020"), ("00112020", "00112020"),
     ("01021211", "01021211")),
    (("0112102221", "0001000001"), ("0001000001", "0001000001"),
     ("0001000001", "0001000001"), ("0101121211", "0100001101")),
    (("0100121021", "0010011001"), ("0110210102", "0101010111"),
     ("0100121021", "0101010111"), ("0010011001", "0010011001")),
)


def test_reported_colorings_are_pinned_on_every_method_tree():
    """The colorings odd-qcol (q = 3) and chi-odd report are the only outputs
    that read the order of a node's class states, and they still depend on
    the tree.  Pin them on the 6-vertex graph with edges 01 02 03 05 12 14
    24 34, whose trees give different colorings, and on five seeded random
    graphs with n <= 10, over every `rankdec.METHODS` tree, so that a change
    to the state order or to the keys shows here."""
    graphs = [Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4),
                                   (2, 4), (3, 4)])]
    rng = random.Random(31)
    graphs += [rand_graph(rng, n, rng.uniform(0.3, 0.8)) for n in (6, 8, 8, 10, 10)]

    def digits(colors):
        return None if colors is None else "".join(map(str, colors))

    got = []
    for g in graphs:
        row = []
        for build in rankdec.METHODS.values():
            t = build(g)
            chi = dp.chi_odd(g, t)
            row.append((digits(dp.solve_odd_qcol(g, t, 3)), chi and digits(chi[1])))
        got.append(tuple(row))
    assert tuple(got) == _QCOL_PINS


def _narrow_graph(rng: random.Random, n: int, k: int, p: float) -> Graph:
    """Each vertex joins each of the k vertices before it with probability
    p, so the natural order has linear width at most k."""
    return Graph.from_edges(n, [(w, v) for v in range(n) for w in range(max(0, v - k), v)
                                if rng.random() < p])


def test_narrow_graphs_at_scale_agree_across_trees():
    """Ground truth beyond the oracles' reach, n = 60-160: the mos, mes,
    odd-ds and odd-tds values and witnesses are the same on the natural
    caterpillar, the min-degree tree and the BFS caterpillar; mos is at
    least the odd part of `gallai_odd_even`, and mes at least the larger
    part of `gallai_even_even` (Gallai's theorem); an odd 2-coloring exists
    on each tree exactly when `odd_two_coloring` finds one (the paper's
    polynomial case); and every witness passes the independent certificate
    checker.  Both 2-coloring outcomes occur."""
    rng = random.Random(77)
    problems = ((dp.solve_mos, "mos"), (dp.solve_mes, "mes"),
                (dp.solve_odd_ds, "odd-ds"), (dp.solve_odd_tds, "odd-tds"))
    two_colorable = {True: 0, False: 0}
    for _ in range(12):
        g = _narrow_graph(rng, rng.randrange(60, 161), 3, rng.uniform(0.4, 0.95))
        trees = (caterpillar(g, list(range(g.n))), elimination_tree(g), bfs_tree(g))
        values = {}
        for solver, problem in problems:
            results = {solver(g, t) for t in trees}
            assert len(results) == 1, problem
            res = results.pop()
            if res is not None:
                values[problem] = res[0]
                ok, why = verify(g, Certificate(problem, res[0], vertex_set=res[1]))
                assert ok, (problem, why)
        assert values["mos"] >= gallai_odd_even(g)[0].bit_count()
        assert values["mes"] >= max(part.bit_count() for part in gallai_even_even(g))
        feasible = odd_two_coloring(g) is not None
        two_colorable[feasible] += 1
        for t in trees:
            colors = dp.solve_odd_qcol(g, t, 2)
            assert (colors is not None) == feasible
            if colors is not None:
                ok, why = verify(g, Certificate("odd-qcol", 2, coloring=colors))
                assert ok, why
    assert all(two_colorable.values()), two_colorable


def test_narrow_joins_at_scale_agree_across_trees():
    """Joins of two narrow halves, n = 60-70: mos is the same on the natural
    caterpillar and the min-degree tree, at least `join_bound_floor(n)` and
    the order of `join_bound_subgraph`'s odd subgraph, and its witness
    passes the certificate checker.  The min-degree trees have widths 7, 4
    and 4 against the caterpillars' 4; at width 8 one solve takes seconds."""
    rng = random.Random(1)
    for _ in range(3):
        n1 = rng.randrange(28, 36)
        g1 = _narrow_graph(rng, n1, 3, rng.uniform(0.4, 0.95))
        g2 = _narrow_graph(rng, rng.randrange(30, 71 - n1), 3, rng.uniform(0.4, 0.95))
        n = n1 + g2.n
        edges = list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()]
        edges += [(u, v) for u in range(n1) for v in range(n1, n)]
        g = Graph.from_edges(n, edges)
        v1 = (1 << n1) - 1
        results = {dp.solve_mos(g, t) for t in (caterpillar(g, list(range(n))),
                                                 elimination_tree(g))}
        assert len(results) == 1
        value, witness = results.pop()
        assert value >= join_bound_floor(n)
        assert value >= join_bound_subgraph(g, v1, g.full_mask & ~v1).subgraph.bit_count()
        ok, why = verify(g, Certificate("mos", value, vertex_set=witness))
        assert ok, why


# --------------------------------------------------------- special values

def test_known_fixed_points():
    k1 = Graph.from_edges(1, [])
    t1 = bfs_tree(k1)
    assert dp.solve_mos(k1, t1) == (0, 0)
    assert dp.solve_mes(k1, t1) == (1, 1)
    assert dp.solve_odd_ds(k1, t1) == (1, 1)
    assert dp.solve_odd_tds(k1, t1) is None

    c4 = gen_family("cycle", 4)
    t = bfs_tree(c4)
    assert dp.solve_mos(c4, t)[0] == 2
    assert dp.solve_mes(c4, t)[0] == 4
    assert dp.chi_odd(c4, t)[0] == 2

    c8 = gen_family("cycle", 8)
    assert dp.chi_odd(c8, bfs_tree(c8))[0] == 2
    c10 = gen_family("cycle", 10)
    assert dp.chi_odd(c10, bfs_tree(c10))[0] == 3

    k3 = gen_family("clique", 3)
    assert dp.chi_odd(k3, bfs_tree(k3)) is None  # odd order component


def test_qcol_q1_is_the_whole_graph_parity_test():
    rng = random.Random(54)
    for _ in range(30):
        g = rand_graph(rng, 7)
        t = bfs_tree(g)
        res = dp.solve_odd_qcol(g, t, 1)
        assert (res is not None) == check_odd_set(g, g.full_mask)


def test_qcol_feasibility_is_monotone_in_q():
    rng = random.Random(55)
    for _ in range(20):
        g = rand_graph(rng, 7)
        t = bfs_tree(g)
        feas = [dp.solve_odd_qcol(g, t, q) is not None for q in (1, 2, 3, 4)]
        for lo, hi in zip(feas, feas[1:]):
            assert not (lo and not hi)


def test_qcol_rejects_nonpositive_q():
    g = gen_family("path", 3)
    with pytest.raises(ValueError):
        dp.solve_odd_qcol(g, bfs_tree(g), 0)


def test_qcol_with_an_oversized_q_answers_at_once():
    """q far beyond n asks the same question as q = n: the DP must not
    build q-tuples."""
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    start = time.perf_counter()
    colors = dp.solve_odd_qcol(g, bfs_tree(g), 10**12)
    assert time.perf_counter() - start < 1
    assert check_odd_coloring(g, colors, 10**12)


def test_disconnected_graphs():
    # two even components: answers compose across components
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4)])
    t = bfs_tree(g)
    assert dp.solve_mos(g, t)[0] == oracle_mos(g)[0]
    chi = dp.chi_odd(g, t)
    assert chi is not None and chi[0] == oracle_chi_odd(g)
    # one odd component poisons the whole graph
    g2 = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert dp.chi_odd(g2, bfs_tree(g2)) is None


# ------------------------------------------------------------- internals

def _defect(kind: str, a: int, s: int, p: int) -> tuple[int, int]:
    """(D, E) of the partial solution (s, p) at a node over a."""
    keep, set_, flip = _SUBSET_KINDS[kind](a)
    d = (s & keep) ^ set_
    return d, d & (p ^ flip)


def _parities(g: Graph, a: int, s: int) -> int:
    """P of s <= a, recomputed from scratch: the vertices of a with an odd
    number of neighbors in s."""
    return sum(1 << v for v in vertices_of(a) if (g.adj[v] & s).bit_count() & 1)


# (D, E) as each kind defines it, written out per kind.
_LAMBDA_DEFECTS = {
    "mos": lambda a, s, p: (s, s & ~p),
    "mes": lambda a, s, p: (s, s & p),
    "ds": lambda a, s, p: (a & ~s, a & ~s & ~p),
    "tds": lambda a, s, p: (a, a & ~p),
}


def test_defect_constants_match_their_definitions():
    """(keep, set, flip) give the (D, E) each kind defines, for every
    s, p <= a with |a| <= 5."""
    assert set(_SUBSET_KINDS) == set(_LAMBDA_DEFECTS)
    for a in range(1 << 6):
        if a.bit_count() > 5:
            continue
        subsets = [x for x in range(a + 1) if x & ~a == 0]
        for kind, want in _LAMBDA_DEFECTS.items():
            for s, p in product(subsets, repeat=2):
                assert _defect(kind, a, s, p) == want(a, s, p), (kind, a, s, p)


# ------------------------------------------------------------ leaf tables

# Reference leaves: a `_NodeCut` over ({u}, V \ {u}) and the table of
# S = {} and S = {u}, which the sweep never builds.  The sides that joins
# read off a leaf's row are checked against these, and `_swept` puts them
# beside the sweep's joins, so that the tests below see every node's cut
# and table.

def _leaf_cut(g: Graph, u: int):
    """The cut ({u}, V \\ {u}); ∂A is {u} when u has a neighbor."""
    a = 1 << u
    return dp._NodeCut(g, a, a if g.adj[u] else 0, g.full_mask & ~a)


def _leaf_table(cut, u: int, kind: str):
    """The entries S = {} and S = {u}, in that order, at the leaf's cut.
    The cut's basis is (u,) when u has a neighbor and empty when not, so
    the code of S is 1 exactly when S meets ∂A."""
    keep, set_, flip = _SUBSET_KINDS[kind](cut.a)
    table: dict = {}
    for s in (0, 1 << u):
        d = (s & keep) ^ set_
        sig = cut.coset_sig(d, d & flip)  # parities P = 0
        if sig is None:
            continue
        table.setdefault((s & cut.a_boundary) >> u, {})[sig] = s
    return table


def _leaf_table_qcol(cut, u: int, q: int):
    """One orbit: u's own class state beside q - 1 empty classes, with key
    ``(0, ..., 0, 1)``.  u has a neighbor: a q-coloring sweep on a graph
    with an isolated vertex ends before it reaches any leaf."""
    states = [((code, sig), s) for code, group in _leaf_table(cut, u, "mos").items()
              for sig, s in group.items()]
    assert len(states) == 2, "an isolated vertex lies in no odd class"
    return states, {(0,) * (q - 1) + (1,): (0,) * (q - 1) + (1 << u,)}


def _isolated_stop(g: Graph, kind: str) -> bool:
    """Whether a sweep of `kind` answers `g` with an empty table before it
    builds anything: odd-tds and q-colorings on a graph with an isolated
    vertex, which no set covers oddly and no odd class holds."""
    return kind in ("tds", "qcol") and not all(g.adj)


def _with_leaves(g: Graph, t, kind: str, q: int, collect: dict) -> dict:
    """{node: (cut, table)} for every node a sweep passes, leaves included:
    the sweep's joins from `collect`, and each leaf's reference cut over its
    own ∂A ({u} when u has a neighbor) with its `_leaf_table` (or
    `_leaf_table_qcol`), in postorder up to and including the first table
    with no entry.  A sweep that answers before it starts (`_isolated_stop`)
    passes no node."""
    out: dict = {}
    if _isolated_stop(g, kind):
        assert not collect
        return out
    for node in t.postorder():
        if node in t.leaf_vertex:
            u = t.leaf_vertex[node]
            cut = _leaf_cut(g, u)
            out[node] = cut, (_leaf_table_qcol(cut, u, q) if kind == "qcol" else
                              _leaf_table(cut, u, kind))
        else:
            out[node] = collect[node]
        tab = out[node][1]
        if not (tab[1] if kind == "qcol" else tab):
            break
    return out


def _swept(g: Graph, t, kind: str, q: int = 0) -> dict:
    """`_with_leaves` of one sweep."""
    collect: dict = {}
    _run(g, t, kind, q=q, collect=collect)
    return _with_leaves(g, t, kind, q, collect)


def _listed(side):
    """A subset side with each group's entries as a list, so that two sides
    compare equal only with their entries in the same order."""
    a, masks, bd, lifted = side
    return a, masks, bd, [(up, cross, list(entries.items())) for up, cross, entries in lifted]


def test_folded_leaf_sides_match_the_leaf_tables(monkeypatch):
    """Each side a join takes from a leaf is the side the join would build
    from the leaf's cut and table: `dp._lift` over `_leaf_cut` and
    `_leaf_table`, groups and entries in the same order, for mos, mes, ds
    and tds; and for q = 1..3, the lifted state groups, state count and
    table `dp._qcol_side` gives for the leaf's vertex at every cut where
    a q-coloring join took a leaf's side, against the side it builds over
    `_leaf_table_qcol`.  A one-vertex graph's root table is its leaf table,
    read off `_leaf_side` with no cut, for mos, mes and ds; odd-tds and
    q-colorings on a graph with an isolated vertex return their empty table
    and take no leaf's side.  Leaves on the x side, on the y side and on
    both occur on every `tree_suite` shape, under mask and rows parents, and
    isolated vertices occur, where mes's two leaf entries share a key."""
    calls: list[tuple] = []
    real_side = dp._leaf_side

    def spy(g, cut, u, kind):
        side = real_side(g, cut, u, kind)
        calls.append((cut, u, kind, side))
        return side

    monkeypatch.setattr(dp, "_leaf_side", spy)
    rng = random.Random(79)
    shape_rng = random.Random(790)
    kinds = ("mos", "mes", "ds", "tds")
    seen = {f"{place} {kind}": 0 for place in ("x", "y", "both") for kind in kinds + ("qcol",)}
    seen.update({"rows parent": 0, "isolated mes": 0, "no cut": 0, "isolated stop": 0,
                 "q=1": 0, "q=2": 0, "q=3": 0})
    shapes: set[int] = set()
    graphs = [rand_graph(rng, rng.randrange(2, 10), rng.uniform(0.1, 0.8)) for _ in range(10)]
    graphs += [_with_false_twins(rng, rng.randrange(3, 7), rng.uniform(0.3, 0.7), 2)]
    for _ in range(3):  # isolated vertices beside a random graph, shuffled in
        base = rand_graph(rng, rng.randrange(2, 7), rng.uniform(0.3, 0.8))
        n = base.n + rng.randrange(1, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(Graph.from_edges(n, [(perm[u], perm[w]) for u, w in base.edges()]))
    for g in graphs:
        suite = tree_suite(g, rng, shape_rng)
        for shape, t in enumerate(suite):
            place = {}  # leaf vertex -> x, y or both, by its parent's children
            for x, y in t.children.values():
                both = x in t.leaf_vertex and y in t.leaf_vertex
                for side, c in (("x", x), ("y", y)):
                    if c in t.leaf_vertex:
                        place[t.leaf_vertex[c]] = "both" if both else side
            for kind, q in [(k, 0) for k in kinds] + [("qcol", q) for q in (1, 2, 3)]:
                calls.clear()
                tab = _run(g, t, kind, q=q)
                if _isolated_stop(g, kind):
                    assert tab == (([], {}) if kind == "qcol" else {}) and not calls
                    seen["isolated stop"] += 1
                    continue
                for cut, u, kind_, side in calls[:]:  # _qcol_side below calls the spy
                    assert cut is not None
                    leaf = _leaf_cut(g, u)
                    want = dp._subset_side(g, cut, (leaf, _leaf_table(leaf, u, kind_)), kind_)
                    assert _listed(side) == _listed(want), (kind_, u)
                    if kind == "qcol":  # the leaf's q-coloring side, read off this one
                        assert kind_ == "mos"
                        side = dp._qcol_side(g, cut, u, q)
                        want = dp._qcol_side(g, cut, (leaf, _leaf_table_qcol(leaf, u, q)), q)
                        assert side == want, (q, u)
                        assert list(side[2].items()) == list(want[2].items())
                        seen[f"q={q}"] += 1
                    seen[f"{place[u]} {kind}"] += 1
                    seen["rows parent"] += not cut.masks
                    seen["isolated mes"] += kind_ == "mes" and not g.adj[u]
                    shapes.add(shape)
    # a one-vertex graph: its root is its one leaf, and every answer is
    # that leaf's table, or the empty table where the vertex is isolated
    g1 = Graph.from_edges(1, [])
    t1 = caterpillar(g1, [0])
    leaf = _leaf_cut(g1, 0)
    for kind in kinds:
        calls.clear()
        assert list(_run(g1, t1, kind).items()) == list(_leaf_table(leaf, 0, kind).items())
        if kind == "tds":
            assert not calls
        else:
            assert [(cut, u) for cut, u, _, _ in calls] == [(None, 0)]
            seen["no cut"] += 1
    for q in (1, 2, 3):
        calls.clear()
        assert _run(g1, t1, "qcol", q=q) == ([], {}) and not calls
    assert dp.solve_mos(g1, t1) == (0, 0) and dp.solve_mes(g1, t1) == (1, 1)
    assert dp.solve_odd_ds(g1, t1) == (1, 1) and dp.solve_odd_tds(g1, t1) is None
    assert dp.solve_odd_qcol(g1, t1, 3) is None
    assert all(seen.values()), seen
    assert shapes == set(range(len(suite))), shapes


def test_no_sweep_builds_a_leaf_cut(monkeypatch):
    """The sweep constructs one `_NodeCut` per join it runs, each over that
    join's A, and none for a leaf: n - 1 cuts for a sweep that reaches the
    root, none for a one-vertex graph.  Every kind, q = 1..3 and every
    `tree_suite` shape, with isolated vertices among the graphs; odd-tds
    and q-colorings on a graph with an isolated vertex build no cut at all
    and return their empty table."""
    built: list[int] = []
    real_cut = dp._NodeCut

    def counted_cut(g, a, a_bd, b):
        built.append(a)
        return real_cut(g, a, a_bd, b)

    monkeypatch.setattr(dp, "_NodeCut", counted_cut)
    rng = random.Random(80)
    shape_rng = random.Random(800)
    graphs = [rand_graph(rng, rng.randrange(1, 10), rng.uniform(0.1, 0.8)) for _ in range(10)]
    graphs += [Graph.from_edges(1, []), Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])]
    runs = [("mos", 0), ("mes", 0), ("ds", 0), ("tds", 0), ("qcol", 1), ("qcol", 2), ("qcol", 3)]
    stopped = isolated = 0
    for g in graphs:
        for t in tree_suite(g, rng, shape_rng):
            for kind, q in runs:
                built.clear()
                collect: dict = {}
                root = _run(g, t, kind, q=q, collect=collect)
                if _isolated_stop(g, kind):
                    assert not built and not collect
                    assert root == (([], {}) if kind == "qcol" else {})
                    isolated += 1
                assert built == [cut.a for cut, _ in collect.values()]
                assert all(a & (a - 1) for a in built)  # no cut over one vertex
                assert set(collect) <= set(t.children)
                if len(collect) < len(t.children):
                    stopped += 1
                tab = collect[t.root][1] if t.root in collect else None
                if tab is not None and (tab[1] if kind == "qcol" else tab):
                    assert len(built) == g.n - 1
    assert stopped and isolated


def test_cut_walk_yields_the_joins_with_their_boundaries():
    """`cut_walk` yields exactly the tree's joins, in postorder, each with
    A = the vertices below it and ∂A, ∂B as a scan of the cut (A, V \\ A)
    from scratch finds them.  No leaf is yielded, so a one-vertex tree
    yields nothing.  Every `tree_suite` shape, over random graphs, the
    one-vertex graph, an edgeless graph and graphs with isolated vertices."""
    rng = random.Random(81)
    shape_rng = random.Random(810)
    graphs = [rand_graph(rng, rng.randrange(2, 10), rng.uniform(0.1, 0.8)) for _ in range(8)]
    graphs += [
        Graph.from_edges(1, []),
        Graph.from_edges(6, []),
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]),  # vertex 4 is isolated
        # isolated vertices 3 and 9 beside a path, an edge and a triangle
        Graph.from_edges(10, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)]),
    ]
    yielded = 0
    for g in graphs:
        for t in tree_suite(g, rng, shape_rng):
            masks = t.leaf_masks()
            walk = list(rankdec.cut_walk(g, t))
            assert [node for node, *_ in walk] == [v for v in t.postorder() if v in t.children]
            for node, a, a_bd, b_bd in walk:
                b = g.full_mask & ~a
                assert a == masks[node]
                assert a_bd == sum(1 << v for v in vertices_of(a) if g.adj[v] & b)
                assert b_bd == sum(1 << w for w in vertices_of(b) if g.adj[w] & a)
            if g.n == 1:
                assert walk == []
            yielded += len(walk)
    assert yielded


def _child_map(g: Graph, parent, child, sibling_mask: int):
    """code-at-child -> (code over the parent basis, parity mask on sibling),
    lifted one code at a time, independently of `dp._lift`."""
    rows = [g.adj[v] for v in child.a_basis_vertices]

    def get(code: int) -> tuple[int, int]:
        vec = 0
        for i in range(code.bit_length()):
            if code >> i & 1:
                vec ^= rows[i]
        up = parent.a_dec.coordinates(vec & parent.b)
        assert up is not None
        return up, vec & sibling_mask

    return get


def _better(maximize: bool, new: int, old: int) -> bool:
    nc, oc = new.bit_count(), old.bit_count()
    if nc != oc:
        return nc > oc if maximize else nc < oc
    return mask_lex_less(new, old)


# The subset join as it was written before the per-cut signature functions
# and the (keep, set, flip) constants: one defect lambda, one `coset_sig`
# call and one `_better` call per pair.
def _reference_join(cut, get_x, get_y, tx, ty, ax, ay, kind):
    defect = _LAMBDA_DEFECTS[kind]
    maximize = dp._MAXIMIZING[kind]
    a = cut.a
    table: dict = {}
    lifted_y = [(*get_y(cy), gy.values()) for cy, gy in ty.items()]
    for cx, gx in tx.items():
        up_x, cross_x = get_x(cx)
        cross_xy = cross_x & ay
        xs = gx.values()
        for up_y, cross_y, ys in lifted_y:
            cross_yx = cross_y & ax
            up = up_x ^ up_y
            group = table.get(up)
            if group is None:
                group = table[up] = {}
            for sy, py in ys:
                py ^= cross_xy
                for sx, px in xs:
                    s = sx | sy
                    p = (px ^ cross_yx) | py
                    d, e = defect(a, s, p)
                    sig = cut.coset_sig(d, e)
                    if sig is None:
                        continue
                    cur = group.get(sig)
                    if cur is None or _better(maximize, s, cur[0]):
                        group[sig] = (s, p)
            if not group:
                del table[up]
    return table


def _mask_cut(cut) -> bool:
    """Every ∂A vertex is a basis vertex (rank = |∂A|)."""
    return cut.rank == cut.a_boundary.bit_count()


def _with_parities(g: Graph, cut, tab):
    """A DP subset table in the reference loop's form: each value (s, p),
    with p recomputed from scratch."""
    out: dict = {}
    for code, sig, s in _subset_entries(tab):
        out.setdefault(code, {})[sig] = (s, _parities(g, cut.a, s))
    return out


def _image(tab):
    """What the DP keeps of a table of (s, p) values: S alone."""
    return {code: {sig: s for sig, (s, _) in group.items()} for code, group in tab.items()}


def test_join_kernel_matches_the_reference_loop(monkeypatch):
    """Every node's subset table, joined again from its children's tables
    (with parities recomputed from scratch) through the reference loop
    above, is the DP's table under `_image`: entry by entry and in the same
    order, the value S alone at mask and rows cuts alike.  Each of the two
    signature functions runs at some joined node.  `_join_masks` runs
    exactly at the joins whose parent and children are all mask cuts, and
    each of the three cases (all mask cuts, a mask parent with a rows
    child, a rows parent) occurs."""
    rng = random.Random(68)
    shape_rng = random.Random(680)
    factories = {f"{f.__name__}.<locals>.coset_sig": f.__name__
                 for f in (dp._mask_sig_twin_free, dp._rows_sig)}
    masked: list = []
    join_masks = dp._join_masks

    def spy(cut, *rest):
        masked.append(cut)
        return join_masks(cut, *rest)

    monkeypatch.setattr(dp, "_join_masks", spy)
    ran: set[str] = set()
    cases: dict[str, int] = {"mask children": 0, "a rows child": 0, "rows parent": 0}
    for i in range(24):
        if i % 3 == 2:
            g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                                  rng.randrange(1, 4))
        else:
            g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "mes", "ds", "tds"):
                masked.clear()
                collect = _swept(g, t, kind)
                for node, (cut, tab) in collect.items():
                    if node in t.leaf_vertex:
                        continue
                    x, y = t.children[node]
                    (cx, tx), (cy, ty) = collect[x], collect[y]
                    ref = _image(_reference_join(
                        cut, _child_map(g, cut, cx, cy.a), _child_map(g, cut, cy, cx.a),
                        _with_parities(g, cx, tx), _with_parities(g, cy, ty),
                        cx.a, cy.a, kind))
                    assert [(c, list(gr.items())) for c, gr in tab.items()] == \
                        [(c, list(gr.items())) for c, gr in ref.items()], (kind, node)
                    ran.add(factories[cut.coset_sig.__qualname__])
                    assert cut.masks == _mask_cut(cut)
                    case = ("rows parent" if not _mask_cut(cut) else
                            "mask children" if _mask_cut(cx) and _mask_cut(cy) else
                            "a rows child")
                    assert any(c is cut for c in masked) == (case == "mask children"), case
                    cases[case] += 1
    assert ran == set(factories.values()), ran
    assert all(cases.values()), cases


def test_mask_halves_are_the_parent_signature():
    """Every witness of a mask-cut code group has the same D & ∂A, sel, and
    its key is its E.  At a mask parent, a mask child's entry with key sig,
    against a sibling group whose crossing vector is c on the child, has
    the half ``sig ^ (sel & c)``: the parent's E on that child.  The half
    meets `zero_mask` exactly when that E does, and where both children
    are mask cuts the OR of two passing halves is `coset_sig` of the
    pair's (D, E), which is None exactly when a half fails."""
    rng = random.Random(74)
    shape_rng = random.Random(740)
    seen = {"fail": 0, "pass": 0, "pairs": 0}
    for _ in range(10):
        g = rand_graph(rng, rng.randrange(2, 10), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "mes", "ds", "tds"):
                collect = _swept(g, t, kind)
                for node, (cut, _) in collect.items():
                    if node in t.leaf_vertex or not _mask_cut(cut):
                        continue
                    sides = [(collect[c], collect[d]) for c, d in permutations(t.children[node])]
                    halves = {}  # (child, code, sig, sibling code) -> half or None
                    for (cc, tc), (cs, ts) in sides:
                        if not _mask_cut(cc):
                            continue
                        lift = _child_map(g, cut, cs, cc.a)
                        for code, group in tc.items():
                            sels = {_defect(kind, cc.a, s, 0)[0] & cc.a_boundary
                                    for s in group.values()}
                            assert len(sels) == 1
                            sel = sels.pop()
                            for sig, s in group.items():
                                p = _parities(g, cc.a, s)
                                assert sig == _defect(kind, cc.a, s, p)[1]
                                for code_s in ts:
                                    cross = lift(code_s)[1]
                                    _, e = _defect(kind, cut.a, s, p ^ cross)
                                    fails = bool(e & cc.a & cut.zero_mask)
                                    h = sig ^ (sel & cross)
                                    assert h == e & cc.a
                                    assert bool(h & cut.zero_mask) == fails
                                    seen["fail" if fails else "pass"] += 1
                                    halves[cc.a, code, sig, code_s] = None if fails else h
                    (cx, tx), (cy, ty) = sides[0]
                    if not (_mask_cut(cx) and _mask_cut(cy)):
                        continue
                    lift_x, lift_y = _child_map(g, cut, cx, cy.a), _child_map(g, cut, cy, cx.a)
                    for code_x, sig_x, sx in _subset_entries(tx):
                        px = _parities(g, cx.a, sx)
                        for code_y, sig_y, sy in _subset_entries(ty):
                            py = _parities(g, cy.a, sy)
                            p = (px ^ lift_y(code_y)[1]) | (py ^ lift_x(code_x)[1])
                            hx = halves[cx.a, code_x, sig_x, code_y]
                            hy = halves[cy.a, code_y, sig_y, code_x]
                            want = None if hx is None or hy is None else hx | hy
                            assert cut.coset_sig(*_defect(kind, cut.a, sx | sy, p)) == want
                            seen["pairs"] += 1
    assert all(seen.values()), seen


def test_lift_matches_the_per_code_reference(monkeypatch):
    """Every group `_lift` returns in a DP, subset and q-coloring joins
    alike, carries its entries unchanged with the ``(up, cross)`` that
    `_child_map` computes one code at a time.  Codes with several bits,
    rows-cut parents and q-coloring joins all occur."""
    calls: list[tuple] = []
    real_lift = dp._lift

    def spy(g, parent, child, sibling, groups):
        groups = list(groups)
        lifted = real_lift(g, parent, child, sibling, groups)
        calls.append((g, parent, child, sibling, groups, lifted))
        return lifted

    monkeypatch.setattr(dp, "_lift", spy)
    rng = random.Random(75)
    shape_rng = random.Random(750)
    seen = {"several bits": 0, "rows parent": 0, "qcol": 0}
    for i in range(10):
        if i % 2:
            g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                                  rng.randrange(1, 4))
        else:
            g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "ds", "qcol"):
                calls.clear()
                _run(g, t, kind, q=2)
                for g_, parent, child, sibling, groups, lifted in calls:
                    want = _child_map(g_, parent, child, sibling)
                    assert len(lifted) == len(groups)
                    for (code, entries), (up, cross, got) in zip(groups, lifted):
                        assert (up, cross) == want(code)
                        assert got is entries
                        seen["several bits"] += code.bit_count() > 1
                    seen["rows parent"] += not _mask_cut(parent)
                    seen["qcol"] += kind == "qcol"
    assert all(seen.values()), seen


def test_reduced_rows_are_canonical_over_solution_sets():
    """`row_basis(rows).reduced_rows()` is the signature `coset_sig` uses for
    an affine system with the right-hand side in the highest bit: the system
    is unsatisfiable exactly when its last reduced row is that bit alone."""
    rng = random.Random(56)
    rhs_bit = 1 << 4
    seen: dict[frozenset, tuple] = {}
    for _ in range(300):
        rows = [rng.randrange(1 << 5) for _ in range(rng.randrange(4))]
        sols = frozenset(
            x for x in range(1 << 4)
            if all(bin(x & (r & 0xF)).count("1") % 2 == (r >> 4 & 1) for r in rows))
        sig = row_basis(rows).reduced_rows()
        if not sols:
            assert sig and sig[-1] == rhs_bit
            continue
        assert rhs_bit not in sig
        if sols in seen:
            assert seen[sols] == sig  # same solution set -> same signature
        else:
            for other, osig in seen.items():
                if osig == sig:
                    assert other == sols  # same signature -> same solution set
            seen[sols] = sig


def _subset_entries(tab):
    """(code, sig, s) for every entry of a subset table, whose entries are
    grouped by code as {code: {sig: s}}."""
    for code, group in tab.items():
        for sig, s in group.items():
            yield code, sig, s


def _outside_patterns(g: Graph, cut) -> dict[int, int]:
    """Each A-vertex's neighborhood over the earliest basis of B's rows
    (adj[w] & A for w in B, in vertex order), built from scratch."""
    b_rows = [g.adj[w] & cut.a for w in vertices_of(g.full_mask & ~cut.a)]
    profiles = [b_rows[i] for i in row_basis(b_rows).basis_row_indices]
    return {v: sum(1 << k for k, prof in enumerate(profiles) if prof >> v & 1)
            for v in vertices_of(cut.a)}


def _completion_set(cut, pat: dict[int, int], d: int, e: int) -> frozenset:
    """Brute force: the completion codes x with <pat[v], x> = [v in e] on d."""
    return frozenset(
        x for x in range(1 << cut.rank)
        if all((pat[v] & x).bit_count() % 2 == (e >> v & 1) for v in vertices_of(d)))


def test_coset_sig_is_canonical_over_completion_sets(monkeypatch):
    """At every node, a signature names the set of B-side completion codes
    that fix (d, e): None exactly when no code does, and equal signatures
    exactly when the sets, brute-forced over all 2^rb codes, are equal.
    A node whose ∂A vertices are all basis vertices uses the mask function,
    whose signature e is canonical within a code group, so there the check
    is on (d & ∂A, sig), the part of the table's (code, sig) that names the
    set; every other node uses the rows function.  Elimination runs only when a
    pattern outside the earliest pattern basis is selected; the mask
    function and the rows function with and without elimination all run."""
    eliminations: list[int] = []

    def counting_row_basis(rows):
        eliminations.append(1)
        return row_basis(rows)

    rng = random.Random(60)
    shape_rng = random.Random(600)
    kinds = ("mos", "mes", "ds", "tds", "qcol")
    branches = {"mask": 0, "units": 0, "elimination": 0}
    for i in range(10):
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for j, t in enumerate(tree_suite(g, rng, shape_rng)):
            kind = kinds[(i + j) % len(kinds)]
            collect = _swept(g, t, kind, q=2)
            # count eliminations in coset_sig only, not in the cut setup
            monkeypatch.setattr(dp, "row_basis", counting_row_basis)
            for cut, tab in collect.values():
                a = cut.a
                avs = vertices_of(a)
                pat = _outside_patterns(g, cut)
                # distinct nonzero patterns by first vertex, then the earliest basis
                distinct = list(dict.fromkeys(pat[v] for v in avs if pat[v]))
                earliest = row_basis(distinct).basis_row_indices
                dependent = set(distinct) - {distinct[k] for k in earliest}
                assert (len(cut.classes) == cut.rank) == (not dependent)
                masks = cut.coset_sig.__qualname__.startswith("_mask_sig_twin_free.")
                pairs = []
                if kind == "qcol":
                    for val in _qcol_decoded(tab).values():
                        pairs += [(s, s & ~_parities(g, a, s)) for s in val]
                else:
                    for _, _, s in _subset_entries(tab):
                        pairs.append(_defect(kind, a, s, _parities(g, a, s)))
                for _ in range(20):
                    d = a & rng.randrange(1 << g.n)
                    pairs.append((d, d & rng.randrange(1 << g.n)))
                sig_of: dict[frozenset, object] = {}
                set_of: dict[object, frozenset] = {}
                for d, e in pairs:
                    fixes = _completion_set(cut, pat, d, e)
                    before = len(eliminations)
                    sig = cut.coset_sig(d, e)
                    eliminated = len(eliminations) > before
                    # the early exits: a vertex that cannot be fixed, or one
                    # pattern asked for both parities
                    classes: dict[int, set[int]] = {}
                    for v in vertices_of(d):
                        classes.setdefault(pat[v], set()).add(e >> v & 1)
                    early = bool(e & d & ~sum(1 << v for v in avs if pat[v])) or any(
                        len(parities) > 1 for parities in classes.values())
                    selects_dependent = any(p in dependent for p in classes)
                    assert eliminated == (selects_dependent and not early)
                    if not early:
                        branches["mask" if masks else
                                 "elimination" if eliminated else "units"] += 1
                    if not fixes:
                        assert sig is None
                        continue
                    assert sig is not None
                    # a mask-cut table keys an entry on (code, sig), and the
                    # code fixes d & ∂A
                    key = (d & cut.a_boundary, sig) if masks else sig
                    assert sig_of.setdefault(fixes, key) == key
                    assert set_of.setdefault(key, fixes) == fixes
            monkeypatch.undo()
    assert all(branches.values()), branches


def _with_false_twins(rng: random.Random, n: int, p: float, copies: int) -> Graph:
    """A random graph plus `copies` vertices, each a copy of an earlier
    vertex's neighborhood (a false twin: same neighbors, not adjacent)."""
    g = rand_graph(rng, n, p)
    adj = list(g.adj)
    for new in range(n, n + copies):
        nbrs = adj[rng.randrange(new)]
        adj.append(nbrs)
        for w in vertices_of(nbrs):
            adj[w] |= 1 << new
    return Graph.from_edges(len(adj), [(u, w) for u in range(len(adj))
                                       for w in vertices_of(adj[u]) if u < w])


def test_mask_signatures_are_canonical_on_twin_classes():
    """At a node whose outside patterns are all independent, a pattern may
    be shared by two or more A-vertices (a twin class).  Over graphs with
    forced false twins, equal signatures mean equal brute-forced completion
    sets and back, and None means no completion, including a twin class
    asked for both parities.  The signature is the mask int exactly where
    every ∂A vertex is a basis vertex, and a tuple of rows otherwise; at
    such a mask cut the check is on (d & ∂A, sig), as in
    `test_coset_sig_is_canonical_over_completion_sets`."""
    rng = random.Random(65)
    shape_rng = random.Random(650)
    seen = {"twin": 0, "mixed": 0}
    for _ in range(12):
        g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                              rng.randrange(1, 4))
        for t in tree_suite(g, rng, shape_rng):
            collect = _swept(g, t, "mos")
            for cut, tab in collect.values():
                if len(cut.classes) != cut.rank:
                    continue
                masks = cut.rank == cut.a_boundary.bit_count()
                pat = _outside_patterns(g, cut)
                by_pattern: dict[int, int] = {}
                for v, pv in pat.items():
                    if pv:
                        by_pattern[pv] = by_pattern.get(pv, 0) | 1 << v
                twins = [pmask for pmask in by_pattern.values() if pmask & (pmask - 1)]
                pairs = [(s, s & ~_parities(g, cut.a, s))
                         for _, _, s in _subset_entries(tab)]
                for _ in range(30):
                    d = cut.a & rng.randrange(1 << g.n)
                    pairs.append((d, d & rng.randrange(1 << g.n)))
                for pmask in twins:
                    # the whole class with either parity, and a mixed one
                    low = pmask & -pmask
                    d = cut.a & rng.randrange(1 << g.n) | pmask
                    e = d & rng.randrange(1 << g.n) & ~pmask
                    pairs += [(d, e), (d, e | pmask), (d, e | low)]
                sig_of: dict[frozenset, object] = {}
                set_of: dict[object, frozenset] = {}
                for d, e in pairs:
                    fixes = _completion_set(cut, pat, d, e)
                    sig = cut.coset_sig(d, e)
                    selected = [pmask for pmask in twins if d & pmask]
                    if not fixes:
                        assert sig is None
                        if any(0 != e & d & pmask != d & pmask for pmask in selected):
                            seen["mixed"] += 1
                        continue
                    assert isinstance(sig, int if masks else tuple)
                    seen["twin"] += bool(selected)
                    # a mask-cut table keys an entry on (code, sig), and the
                    # code fixes d & ∂A
                    key = (d & cut.a_boundary, sig) if masks else sig
                    assert sig_of.setdefault(fixes, key) == key
                    assert set_of.setdefault(key, fixes) == fixes
    assert seen["twin"] and seen["mixed"], seen


def test_mask_signatures_exactly_where_every_boundary_vertex_is_in_the_basis():
    """A cut builds `_mask_sig_twin_free` when rank = |∂A| and `_rows_sig`
    at every other cut, one whose classes all hold a basis vertex but not
    all alone (a twin class) included, which some cut here is."""
    rng = random.Random(73)
    shape_rng = random.Random(730)
    twin_units = 0
    for i in range(12):
        if i % 2:
            g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                                  rng.randrange(1, 4))
        else:
            g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            collect = _swept(g, t, "mos")
            for cut, _ in collect.values():
                masks = cut.rank == cut.a_boundary.bit_count()
                factory = dp._mask_sig_twin_free if masks else dp._rows_sig
                assert cut.coset_sig.__qualname__ == f"{factory.__name__}.<locals>.coset_sig"
                twin_units += not masks and len(cut.classes) == cut.rank
    assert twin_units


def test_codes_classify_a_like_the_outside_patterns(monkeypatch):
    """One basis per cut suffices.  With B's earliest basis built from
    scratch, each A-vertex's outside pattern is its code times an invertible
    r x r matrix, so at every node: the DP's classes (grouped by code) are
    the pattern classes in the same first-vertex order, a `_rows_sig` row
    is the class pattern's coordinates over the earliest pattern basis, and
    a code is a unit row exactly when its pattern is in that basis.  Every
    node but those with rank = |∂A| builds `_rows_sig`."""
    captured: list[tuple] = []
    real_rows_sig = dp._rows_sig

    def spy(zero_mask, class_rows, rhs_bit):
        captured.append(class_rows)
        return real_rows_sig(zero_mask, class_rows, rhs_bit)

    monkeypatch.setattr(dp, "_rows_sig", spy)
    rng = random.Random(66)
    shape_rng = random.Random(660)
    dependent_nodes = 0
    for i in range(16):
        if i % 2:
            g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                                  rng.randrange(1, 4))
        else:
            g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            captured.clear()
            collect = _swept(g, t, "mos")
            rows_of_cut = iter(captured)
            for cut, _ in collect.values():
                pat = _outside_patterns(g, cut)
                by_pattern: dict[int, int] = {}
                for v in vertices_of(cut.a):
                    if pat[v]:
                        by_pattern[pat[v]] = by_pattern.get(pat[v], 0) | 1 << v
                assert list(cut.classes.values()) == list(by_pattern.values())
                assert cut.zero_mask == sum(1 << v for v, pv in pat.items() if not pv)
                patterns = list(by_pattern)
                pbasis = row_basis(patterns)
                in_basis = set(pbasis.basis_row_indices)
                for k, code in enumerate(cut.classes):
                    assert (code & (code - 1) == 0) == (k in in_basis)
                assert (len(cut.classes) == cut.rank) == (len(in_basis) == len(patterns))
                dependent_nodes += len(in_basis) < len(patterns)
                if cut.rank == cut.a_boundary.bit_count():
                    continue
                rows = next(rows_of_cut)
                assert [pmask for pmask, _, _ in rows] == list(by_pattern.values())
                for k, ((_, yrow, is_unit), p) in enumerate(zip(rows, patterns)):
                    assert yrow == pbasis.coordinates(p)
                    assert is_unit == (k in in_basis)
            assert next(rows_of_cut, None) is None
    assert dependent_nodes


def test_table_entries_are_internally_consistent():
    """Every entry's code and signature are those of its S, with (D, E)
    recomputed from scratch, and at a mask cut the key is exactly that
    E = D & (P ^ flip).  Every value is the
    int S, at mask and rows cuts alike, and both kinds of cut occur."""
    rng = random.Random(57)
    seen = {"mask": 0, "rows": 0}
    for _ in range(10):
        g = rand_graph(rng, 7, 0.5)
        t = bfs_tree(g)
        for kind in ("mos", "mes", "ds", "tds"):
            collect = _swept(g, t, kind)
            for cut, tab in collect.values():
                masks = _mask_cut(cut)
                for code, sig, s in _subset_entries(tab):
                    assert isinstance(s, int)
                    assert s & ~cut.a == 0
                    assert code == cut.a_code(s)
                    d, e = _defect(kind, cut.a, s, _parities(g, cut.a, s))
                    if masks:
                        assert sig == e
                    assert sig == cut.coset_sig(d, e)
                    seen["mask" if masks else "rows"] += 1
    assert all(seen.values()), seen


def test_odd_part_is_the_defects_odd_part_from_scratch():
    """`dp._odd_part`, which the joins call for E at every child that is not
    a mask cut, is D & (P ^ flip) with P recomputed from scratch, and lies
    inside ∂A: for every entry of every subset table (mos, mes, ds, tds)
    and every class witness of every q-coloring table (mos defect), over
    graphs with forced false twins among others.  Mask and rows cuts both
    occur, for subset and q-coloring tables alike."""
    rng = random.Random(76)
    shape_rng = random.Random(760)
    seen = {(table, cut): 0 for table in ("subset", "qcol") for cut in ("mask", "rows")}
    for i in range(12):
        if i % 2:
            g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                                  rng.randrange(1, 4))
        else:
            g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "mes", "ds", "tds", "qcol"):
                collect = _swept(g, t, kind, q=3)
                defect = "mos" if kind == "qcol" else kind
                for cut, tab in collect.values():
                    if kind == "qcol":
                        sets = {s for val in _qcol_decoded(tab).values() for s in val}
                    else:
                        sets = [s for _, _, s in _subset_entries(tab)]
                    bd = cut.a_boundary
                    for s in sets:
                        want = _defect(defect, cut.a, s, _parities(g, cut.a, s))[1]
                        got = dp._odd_part(g.adj, s, *_SUBSET_KINDS[defect](cut.a), bd)
                        assert got == want, (kind, s)
                        assert want & ~bd == 0, (kind, s)
                        seen["qcol" if kind == "qcol" else "subset",
                             "mask" if _mask_cut(cut) else "rows"] += 1
    assert all(seen.values()), seen


def test_subset_tables_hold_no_empty_group():
    """A subset table never keeps a code group without entries, so `_run`
    returns {} exactly when some node's table holds no entry (and stops at
    that node), and otherwise reaches the root with every node collected.
    odd-tds on a graph with an isolated vertex returns {} before any node."""
    rng = random.Random(66)
    shape_rng = random.Random(660)
    graphs = [rand_graph(rng, rng.randrange(1, 10), rng.uniform(0.1, 0.7)) for _ in range(12)]
    graphs.append(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]))  # vertex 4 is isolated
    outcomes = {"empty": 0, "root": 0, "isolated": 0}
    for g in graphs:
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "mes", "ds", "tds"):
                joins: dict = {}
                root = _run(g, t, kind, collect=joins)
                collect = _with_leaves(g, t, kind, 0, joins)
                if _isolated_stop(g, kind):
                    assert root == {} and not joins and not collect
                    outcomes["isolated"] += 1
                    continue
                # the sweep ran exactly the joins up to its stop
                assert list(joins) == [node for node in collect if node not in t.leaf_vertex]
                for _, tab in collect.values():
                    assert all(tab.values()), kind
                emptied = [node for node, (_, tab) in collect.items()
                           if not any(tab.values())]
                assert (root == {}) == bool(emptied), kind
                if emptied:
                    assert emptied == [list(collect)[-1]]
                    outcomes["empty"] += 1
                else:
                    assert len(collect) == len(t.postorder())
                    if t.root in t.leaf_vertex:  # one vertex: no join, the leaf's own table
                        assert list(root.items()) == list(collect[t.root][1].items())
                    else:
                        assert root is collect[t.root][1]
                    outcomes["root"] += 1
    assert all(outcomes.values()), outcomes


def _class_state(g: Graph, cut, s: int):
    """(state, parity mask) of one class s <= A, recomputed from scratch."""
    p = _parities(g, cut.a, s)
    return (cut.a_code(s), cut.coset_sig(s, s & ~p)), p


def _qcol_decoded(tab):
    """A q-coloring table ``(states, table)`` as ``{tuple of (code, sig):
    witnesses}``, in table order: each state id replaced by its state."""
    states, table = tab
    return {tuple(states[i][0] for i in key): val for key, val in table.items()}


def test_distinct_orders_visit_each_multiset_permutation_once():
    rng = random.Random(63)
    for _ in range(40):
        states = tuple(sorted(rng.randrange(3) for _ in range(rng.randrange(1, 7))))
        orders = list(_distinct_orders(states))
        assert all(sorted(order) == list(range(len(states))) for order in orders)
        seqs = [tuple(states[i] for i in order) for order in orders]
        assert len(set(seqs)) == len(seqs)
        assert set(seqs) == set(permutations(states))


def test_qcol_keys_are_the_sorted_class_states_of_every_coloring():
    """Each node's key set is exactly the set of sorted class-state tuples
    over all q-colorings of A whose classes can all still be completed."""
    rng = random.Random(61)
    shape_rng = random.Random(610)
    for i in range(8):
        g = rand_graph(rng, rng.choice((6, 8)), rng.uniform(0.3, 0.8))
        q = 2 + i % 2
        for t in tree_suite(g, rng, shape_rng):
            collect = _swept(g, t, "qcol", q=q)
            for cut, tab in collect.values():
                avs = vertices_of(cut.a)
                state = {}
                for bits in range(1 << len(avs)):
                    s = sum(1 << v for k, v in enumerate(avs) if bits >> k & 1)
                    st, _ = _class_state(g, cut, s)
                    state[s] = None if st[1] is None else st
                expect = set()
                for coloring in product(range(q), repeat=len(avs)):
                    classes = [0] * q
                    for v, c in zip(avs, coloring):
                        classes[c] |= 1 << v
                    states = [state[s] for s in classes]
                    if None not in states:
                        expect.add(tuple(sorted(states)))
                assert set(_qcol_decoded(tab)) == expect, (g.n, q)


def test_qcol_witnesses_realise_their_keys():
    rng = random.Random(62)
    shape_rng = random.Random(620)
    for i in range(8):
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        q = 1 + i % 4
        for t in tree_suite(g, rng, shape_rng):
            collect = _swept(g, t, "qcol", q=q)
            for cut, tab in collect.values():
                for key, val in _qcol_decoded(tab).items():
                    assert len(key) == len(val) == q
                    assert list(key) == sorted(key)
                    union = 0
                    for st, s in zip(key, val):
                        assert isinstance(s, int)
                        assert s & union == 0 and s & ~cut.a == 0
                        union |= s
                        assert _class_state(g, cut, s)[0] == st
                    assert union == cut.a


def test_qcol_state_lists_are_sorted_and_witnessed():
    """Each q-coloring node carries its class states as a strictly
    increasing list of ((code, sig), S), every key is a sorted tuple of ids
    indexing that list, and every state's witness S realises its state,
    recomputed from scratch.  Mask and rows cuts both occur."""
    rng = random.Random(78)
    shape_rng = random.Random(780)
    seen = {"mask": 0, "rows": 0}
    for i in range(8):
        if i % 2:
            g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                                  rng.randrange(1, 4))
        else:
            g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for q in (1, 2, 3, 4):
                collect = _swept(g, t, "qcol", q=q)
                for cut, (states, table) in collect.values():
                    assert all(a < b for (a, _), (b, _) in zip(states, states[1:]))
                    for key in table:
                        assert len(key) == q and list(key) == sorted(key)
                        assert all(isinstance(i, int) and 0 <= i < len(states) for i in key)
                    for st, s in states:
                        assert isinstance(s, int) and s & ~cut.a == 0
                        assert _class_state(g, cut, s)[0] == st
                    seen["mask" if _mask_cut(cut) else "rows"] += 1
    assert all(seen.values()), seen


# The q-coloring join as it was written before the memo: one `coset_sig`
# call per class of every x key against every arrangement of every y key,
# each class witness (S, P).  The children's P are recomputed from scratch.
def _reference_qcol_join(g, cut, get_x, get_y, tx, ty, ax, ay, q):
    table: dict = {}
    lifted_xs = [[(*get_x(c), sx, _parities(g, ax, sx)) for (c, _), sx in zip(keyx, valx)]
                 for keyx, valx in tx.items()]
    for keyy, valy in ty.items():
        lifted = [(*get_y(c), sy, _parities(g, ay, sy)) for (c, _), sy in zip(keyy, valy)]
        for order in _distinct_orders(keyy):
            lifted_y = [lifted[i] for i in order]
            for lifted_x in lifted_xs:
                states = []
                val = []
                for i in range(q):
                    up_x, cross_x, sx, px = lifted_x[i]
                    up_y, cross_y, sy, py = lifted_y[i]
                    s = sx | sy
                    p = (px ^ (cross_y & ax)) | (py ^ (cross_x & ay))
                    sig = cut.coset_sig(s, s & ~p)
                    if sig is None:
                        break
                    states.append((up_x ^ up_y, sig))
                    val.append((s, p))
                else:
                    key = tuple(sorted(states))
                    if key not in table:
                        table[key] = tuple(w for _, w in sorted(zip(states, val)))
    return table


def _qcol_joins(seed: int, graphs: int):
    """(g, q, cut, table, (x cut, x table), (y cut, y table)) at every join
    of a q-coloring DP over random graphs (n <= 10), every tree of
    `tree_suite` and q = 2, 3, 4, each table decoded by `_qcol_decoded`."""
    rng = random.Random(seed)
    shape_rng = random.Random(seed * 10)
    for _ in range(graphs):
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for q in (2, 3, 4):
                collect = _swept(g, t, "qcol", q=q)
                decoded = {node: (cut, _qcol_decoded(tab)) for node, (cut, tab) in collect.items()}
                for node, (cut, tab) in decoded.items():
                    if node not in t.leaf_vertex:
                        x, y = t.children[node]
                        yield g, q, cut, tab, decoded[x], decoded[y]


def test_qcol_join_matches_the_reference_loop():
    """Every node's q-coloring table, joined again from its children's
    tables through the reference loop above, equals the DP's table entry by
    entry and in the same order, each class witness (S, P) taken as S
    alone.  Each of the two signature functions runs at some joined node."""
    factories = {f"{f.__name__}.<locals>.coset_sig": f.__name__
                 for f in (dp._mask_sig_twin_free, dp._rows_sig)}
    ran: set[str] = set()
    joins = 0
    for g, q, cut, tab, (cx, tx), (cy, ty) in _qcol_joins(71, 16):
        ref = _reference_qcol_join(g, cut, _child_map(g, cut, cx, cy.a),
                                   _child_map(g, cut, cy, cx.a), tx, ty, cx.a, cy.a, q)
        assert list(tab.items()) == [(key, tuple(s for s, _ in val))
                                     for key, val in ref.items()], (g.n, q)
        ran.add(factories[cut.coset_sig.__qualname__])
        joins += 1
    assert joins and ran == set(factories.values()), ran


def test_qcol_parent_class_state_is_a_function_of_the_child_states():
    """What the join's table of state pairs relies on: at every join, every
    pair of class witnesses with the same (x state, y state) gives the same
    parent class state, computed directly from the witnesses' parities
    recomputed from scratch, and a completable one is the state of the
    union recomputed from scratch, with the union's parities."""
    shared = 0
    for g, _, cut, _, (cx, tx), (cy, ty) in _qcol_joins(72, 10):
        get_x = _child_map(g, cut, cx, cy.a)
        get_y = _child_map(g, cut, cy, cx.a)
        xs = {(st, w) for key, val in tx.items() for st, w in zip(key, val)}
        ys = {(st, w) for key, val in ty.items() for st, w in zip(key, val)}
        parent: dict = {}
        witnesses: dict = {}
        for (stx, sx), (sty, sy) in product(xs, ys):
            px, py = _parities(g, cx.a, sx), _parities(g, cy.a, sy)
            up_x, cross_x = get_x(stx[0])
            up_y, cross_y = get_y(sty[0])
            s = sx | sy
            p = (px ^ (cross_y & cx.a)) | (py ^ (cross_x & cy.a))
            sig = cut.coset_sig(s, s & ~p)
            st = None if sig is None else (up_x ^ up_y, sig)
            if st is not None:
                assert _class_state(g, cut, s) == (st, p)
            assert parent.setdefault((stx, sty), st) == st
            witnesses.setdefault((stx, sty), set()).add(s)
        shared += sum(len(ws) > 1 for ws in witnesses.values())
    assert shared  # some pair of states is met by more than one pair of witnesses


def test_qcol_largest_tables_hold_one_key_per_orbit():
    """Pinned largest tables, one key per orbit under renaming the classes:
    the 4x20 grid at q = 3 on the column-major caterpillar (642 keys as
    ordered q-tuples), and 20 once-subdivided K4s at q = 4 on the BFS
    caterpillar (240 as ordered q-tuples)."""
    rows, cols = 4, 20
    grid = Graph.from_edges(rows * cols, [(v, v + 1) for v in range(rows * cols) if (v + 1) % rows]
                            + [(v, v + rows) for v in range(rows * cols - rows)])
    k4s = []
    for base in range(0, 200, 10):
        mid = base + 4
        for i in range(4):
            for j in range(i + 1, 4):
                k4s += [(base + i, mid), (base + j, mid)]
                mid += 1
    k4sub = Graph.from_edges(200, k4s)
    for g, t, q, largest in ((grid, caterpillar(grid, list(range(grid.n))), 3, 111),
                             (k4sub, bfs_tree(k4sub), 4, 16)):
        collect = _swept(g, t, "qcol", q=q)
        assert max(len(_qcol_decoded(tab)) for _, tab in collect.values()) == largest
        assert dp.solve_odd_qcol(g, t, q) is not None


def test_qcol_with_as_many_classes_as_vertices_is_fast():
    """q = n stays polynomial in q on a caterpillar: a leaf joins in q
    arrangements, never in q! orders."""
    # the Petersen graph (cubic) plus a triangle through its vertex 0: the
    # whole graph is not odd, but the Petersen graph and the edge 10-11 are
    petersen = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7), (3, 8),
                (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    g = Graph.from_edges(12, petersen + [(0, 10), (0, 11), (10, 11)])
    start = time.perf_counter()
    mine = dp.solve_odd_qcol(g, bfs_tree(g), g.n)
    assert time.perf_counter() - start < 10
    assert oracle_odd_qcol(g, g.n) is not None
    assert check_odd_coloring(g, mine, g.n)
    assert dp.solve_odd_qcol(g, bfs_tree(g), 1) is None


def test_root_survivors_have_no_outstanding_defects():
    rng = random.Random(58)
    for _ in range(10):
        g = rand_graph(rng, 6, 0.5)
        t = bfs_tree(g)
        collect: dict = {}
        tab = _run(g, t, "mos", collect=collect)
        root_cut, _ = collect[t.root]
        for code, sig, s in _subset_entries(tab):
            _, e = _defect("mos", root_cut.a, s, _parities(g, root_cut.a, s))
            # rank-0 cut at the root: no code, and the empty completion system
            assert code == 0 and sig == root_cut.coset_sig(0, 0) and e == 0
            assert check_odd_set(g, s)
    # so every root table holds at most one entry, which `_extract_subset`
    # returns without comparing witnesses
    for _ in range(10):
        g = rand_graph(rng, rng.randrange(1, 10), rng.uniform(0.2, 0.8))
        order = list(range(g.n))
        rng.shuffle(order)
        for t in (bfs_tree(g), elimination_tree(g), caterpillar(g, order)):
            for kind in ("mos", "mes", "ds", "tds"):
                entries = [(code, sig) for code, group in _run(g, t, kind).items()
                           for sig in group]
                assert len(entries) <= 1, kind
                for code, sig in entries:
                    assert code == 0 and sig == 0
            for q in (2, 3):
                assert len(_qcol_decoded(_run(g, t, "qcol", q=q))) <= 1, q


def test_incremental_cuts_match_from_scratch():
    """The boundary walk builds every node's cut exactly as from scratch."""
    rng = random.Random(59)
    graphs = [rand_graph(rng, rng.randrange(1, 11), rng.uniform(0.1, 0.7))
              for _ in range(25)]
    graphs += [
        Graph.from_edges(6, []),  # edgeless: every cut has rank 0
        # isolated vertices 3 and 9 beside a path, an edge and a triangle
        Graph.from_edges(10, [(0, 1), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6)]),
        Graph.from_edges(9, [(0, 8), (1, 7), (2, 6), (3, 5)]),  # a matching plus vertex 4
    ]
    for g in graphs:
        for t in (bfs_tree(g), random_tree(g, rng), random_tree(g, rng),
                  elimination_tree(g)):
            collect = _swept(g, t, "mos")
            assert len(collect) == len(t.postorder())
            for cut, _ in collect.values():
                a, b = cut.a, g.full_mask & ~cut.a
                scratch = cut_rank(g, a)
                a_rows = [g.adj[v] & b for v in vertices_of(a)]
                b_rows = [g.adj[w] & a for w in vertices_of(b)]
                # the boundary by definition, and the earliest bases over all rows
                assert cut.a_boundary == scratch.a_boundary == sum(
                    1 << v for v, row in zip(vertices_of(a), a_rows) if row)
                a_full = row_basis(a_rows)
                b_full = row_basis(b_rows)
                assert cut.a_basis_vertices == scratch.a_basis_vertices == tuple(
                    vertices_of(a)[i] for i in a_full.basis_row_indices)
                assert cut.rank == scratch.rank == a_full.rank == b_full.rank
                # patterns over all of A against the from-scratch B basis
                profiles = [b_rows[i] for i in b_full.basis_row_indices]
                patterns: dict[int, int] = {}
                zero = 0
                for v in vertices_of(a):
                    pat = sum(1 << i for i, prof in enumerate(profiles) if prof >> v & 1)
                    if pat:
                        patterns[pat] = patterns.get(pat, 0) | 1 << v
                    else:
                        zero |= 1 << v
                # the classes by code are the classes by pattern, in order
                assert list(cut.classes.values()) == list(patterns.values())
                for code, pmask in cut.classes.items():
                    for v in vertices_of(pmask):
                        assert code == cut.a_code(1 << v)
                assert cut.zero_mask == zero
                # _NodeCut takes the patterns' rank to be the cut rank
                # rather than eliminating them
                assert row_basis(patterns).rank == cut.rank
                assert (len(cut.classes) == cut.rank) == (len(patterns) == cut.rank)
                s = a & rng.randrange(1 << g.n)
                assert cut.a_code(s) == scratch.a_code(s)


def test_each_cut_runs_one_elimination(monkeypatch):
    """A node's cut setup eliminates its A side once and nothing else: the
    classes and the equation rows all come from that one basis.  A cut with
    at most one boundary vertex runs none, as its basis needs no
    elimination."""
    per_node: list[int] = []
    calls: list[int] = []

    def counting_row_basis(rows):
        calls.append(1)
        return row_basis(rows)

    real_cut = dp._NodeCut

    def counted_cut(*args):
        before = len(calls)
        cut = real_cut(*args)
        per_node.append(len(calls) - before)
        return cut

    monkeypatch.setattr(rankdec, "row_basis", counting_row_basis)
    monkeypatch.setattr(dp, "row_basis", counting_row_basis)
    monkeypatch.setattr(dp, "_NodeCut", counted_cut)
    rng = random.Random(67)
    shape_rng = random.Random(670)
    dependent = 0
    runs = {0: 0, 1: 0}
    for i in range(10):
        g = rand_graph(rng, rng.randrange(1, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "qcol"):
                per_node.clear()
                joins: dict = {}
                _run(g, t, kind, q=2, collect=joins)
                expect = [1 if cut.a_boundary.bit_count() > 1 else 0
                          for cut, _ in joins.values()]
                assert per_node == expect
                # each leaf's reference cut, in postorder
                per_node.clear()
                collect = _with_leaves(g, t, kind, 2, joins)
                expect_leaves = [1 if cut.a_boundary.bit_count() > 1 else 0
                                 for node, (cut, _) in collect.items() if node in t.leaf_vertex]
                assert per_node == expect_leaves
                for k in expect + expect_leaves:
                    runs[k] += 1
                dependent += sum(len(cut.classes) != cut.rank
                                 for cut, _ in collect.values())
    assert dependent
    assert all(runs.values()), runs


def test_cuts_with_one_boundary_vertex_match_elimination():
    """Where |∂A| <= 1 the cut builds its basis without `row_basis`; it must
    be the basis that elimination gives, with the same codes."""
    rng = random.Random(68)
    shape_rng = random.Random(680)
    graphs = [rand_graph(rng, rng.randrange(1, 11), rng.uniform(0.1, 0.8)) for _ in range(12)]
    graphs += [gen_family("path", 2), gen_family("path", 9), gen_family("star", 8),
               Graph.from_edges(6, []),
               Graph.from_edges(10, [(0, 1), (1, 2), (1, 3), (5, 6), (6, 8)])]
    seen = {0: 0, 1: 0}
    for g in graphs:
        for t in tree_suite(g, rng, shape_rng):
            collect = _swept(g, t, "mos")
            for cut, _ in collect.values():
                bd = cut.a_boundary
                if bd.bit_count() > 1:
                    continue
                seen[bd.bit_count()] += 1
                ref = row_basis([g.adj[v] & cut.b for v in vertices_of(bd)])
                assert cut.a_dec == ref
                assert cut.rank == ref.rank == bd.bit_count()
                assert cut.a_basis_vertices == tuple(vertices_of(bd))
                for _ in range(4):
                    s = cut.a & rng.randrange(1 << g.n)
                    cross = 0
                    for v in vertices_of(s):
                        cross ^= g.adj[v] & cut.b
                    assert cut.a_code(s) == ref.coordinates(cross)
    assert all(seen.values()), seen
