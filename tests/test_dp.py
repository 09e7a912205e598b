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
from oddsolve import dp
from oddsolve.dp import _distinct_orders, _run, _SUBSET_KINDS
from oddsolve.gf2 import row_basis
from oddsolve.graph import Graph, gen_family, is_odd_set, mask_lex_less, vertices_of
from oddsolve.oracle import (
    oracle_chi_odd,
    oracle_mes,
    oracle_mos,
    oracle_odd_ds,
    oracle_odd_qcol,
    oracle_odd_tds,
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
        assert (res is not None) == is_odd_set(g, g.full_mask)


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


def _child_map(g: Graph, parent, child, sibling_mask: int):
    """code-at-child -> (code over the parent basis, parity mask on sibling),
    lifted one code at a time, independently of `dp._lift`."""
    rows = [g.adj[v] for v in child.basis.a_basis_vertices]

    def get(code: int) -> tuple[int, int]:
        vec = 0
        for i in range(code.bit_length()):
            if code >> i & 1:
                vec ^= rows[i]
        up = parent.basis.a_dec.coordinates(vec & parent.b)
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


def test_join_kernel_matches_the_reference_loop():
    """Every node's subset table, joined again from its children's tables
    through the reference loop above, equals the DP's table entry by entry
    and in the same order.  Each of the three signature functions runs at
    some joined node."""
    rng = random.Random(68)
    shape_rng = random.Random(680)
    factories = {f"{f.__name__}.<locals>.coset_sig": f.__name__
                 for f in (dp._mask_sig_twin_free, dp._mask_sig_with_twins, dp._rows_sig)}
    ran: set[str] = set()
    joins = 0
    for _ in range(16):
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "mes", "ds", "tds"):
                collect: dict = {}
                _run(g, t, kind, collect=collect)
                for node, (cut, tab) in collect.items():
                    if t.is_leaf(node):
                        continue
                    x, y = t.children[node]
                    (cx, tx), (cy, ty) = collect[x], collect[y]
                    ref = _reference_join(cut, _child_map(g, cut, cx, cy.a),
                                          _child_map(g, cut, cy, cx.a),
                                          tx, ty, cx.a, cy.a, kind)
                    assert [(c, list(gr.items())) for c, gr in tab.items()] == \
                        [(c, list(gr.items())) for c, gr in ref.items()], (kind, node)
                    ran.add(factories[cut.coset_sig.__qualname__])
                    joins += 1
    assert joins and ran == set(factories.values()), ran


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
    """(code, sig, (s, p)) for every entry of a subset table, whose entries
    are grouped by code as {code: {sig: (s, p)}}."""
    for code, group in tab.items():
        for sig, val in group.items():
            yield code, sig, val


def _outside_patterns(g: Graph, cut) -> dict[int, int]:
    """Each A-vertex's neighborhood over the cut's B basis, from scratch."""
    profiles = [g.adj[w] & cut.a for w in cut.basis.b_basis_vertices]
    return {v: sum(1 << k for k, prof in enumerate(profiles) if prof >> v & 1)
            for v in vertices_of(cut.a)}


def _completion_set(cut, pat: dict[int, int], d: int, e: int) -> frozenset:
    """Brute force: the completion codes x with <pat[v], x> = [v in e] on d."""
    return frozenset(
        x for x in range(1 << cut.basis.rank)
        if all((pat[v] & x).bit_count() % 2 == (e >> v & 1) for v in vertices_of(d)))


def test_coset_sig_is_canonical_over_completion_sets(monkeypatch):
    """At every node, a signature names the set of B-side completion codes
    that fix (d, e): None exactly when no code does, and equal signatures
    exactly when the sets, brute-forced over all 2^rb codes, are equal.
    A node whose patterns are all independent uses the mask branch.
    Elsewhere elimination runs only when a pattern outside the earliest
    pattern basis is selected; all three branches run."""
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
            collect: dict = {}
            _run(g, t, kind, q=2, collect=collect)
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
                assert cut.units == (not dependent)
                pairs = []
                if kind == "qcol":
                    for val in tab.values():
                        pairs += [(s, s & ~p) for s, p in val]
                else:
                    for _, _, val in _subset_entries(tab):
                        pairs.append(_defect(kind, a, *val))
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
                        branches["mask" if cut.units else
                                 "elimination" if eliminated else "units"] += 1
                    if not fixes:
                        assert sig is None
                        continue
                    assert sig is not None
                    assert sig_of.setdefault(fixes, sig) == sig
                    assert set_of.setdefault(sig, fixes) == fixes
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
    """At a node whose outside patterns are all independent, a pattern that
    two or more A-vertices share (a twin class) enters the mask signature
    through its lowest vertex.  Over graphs with forced false twins, equal
    signatures mean equal brute-forced completion sets and back, and None
    means no completion, including a twin class asked for both parities."""
    rng = random.Random(65)
    shape_rng = random.Random(650)
    seen = {"twin": 0, "mixed": 0}
    for _ in range(12):
        g = _with_false_twins(rng, rng.randrange(3, 8), rng.uniform(0.3, 0.7),
                              rng.randrange(1, 4))
        for t in tree_suite(g, rng, shape_rng):
            collect: dict = {}
            _run(g, t, "mos", collect=collect)
            for cut, tab in collect.values():
                if not cut.units:
                    continue
                pat = _outside_patterns(g, cut)
                by_pattern: dict[int, int] = {}
                for v, pv in pat.items():
                    if pv:
                        by_pattern[pv] = by_pattern.get(pv, 0) | 1 << v
                twins = [pmask for pmask in by_pattern.values() if pmask & (pmask - 1)]
                pairs = [(s, s & ~p) for _, _, (s, p) in _subset_entries(tab)]
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
                    assert isinstance(sig, int)
                    seen["twin"] += bool(selected)
                    assert sig_of.setdefault(fixes, sig) == sig
                    assert set_of.setdefault(sig, fixes) == fixes
    assert seen["twin"] and seen["mixed"], seen


def test_table_entries_are_internally_consistent():
    rng = random.Random(57)
    for _ in range(10):
        g = rand_graph(rng, 7, 0.5)
        t = bfs_tree(g)
        for kind in ("mos", "mes", "ds", "tds"):
            collect: dict = {}
            _run(g, t, kind, collect=collect)
            for cut, tab in collect.values():
                for code, sig, (s, p) in _subset_entries(tab):
                    assert s & ~cut.a == 0
                    p_re = 0
                    for v in vertices_of(cut.a):
                        if bin(g.adj[v] & s).count("1") % 2:
                            p_re |= 1 << v
                    assert p == p_re
                    assert code == cut.basis.a_code(s)
                    d, e = _defect(kind, cut.a, s, p)
                    assert sig == cut.coset_sig(d, e)


def test_subset_tables_hold_no_empty_group():
    """A subset table never keeps a code group without entries, so `_run`
    returns {} exactly when some node's table holds no entry (and stops at
    that node), and otherwise reaches the root with every node collected.
    odd-tds on a graph with an isolated vertex empties a table."""
    rng = random.Random(66)
    shape_rng = random.Random(660)
    graphs = [rand_graph(rng, rng.randrange(1, 10), rng.uniform(0.1, 0.7)) for _ in range(12)]
    graphs.append(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]))  # vertex 4 is isolated
    outcomes = {"empty": 0, "root": 0}
    for g in graphs:
        for t in tree_suite(g, rng, shape_rng):
            for kind in ("mos", "mes", "ds", "tds"):
                collect: dict = {}
                root = _run(g, t, kind, collect=collect)
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
                    assert root is collect[t.root][1]
                    outcomes["root"] += 1
    assert all(outcomes.values()), outcomes


def _class_state(g: Graph, cut, s: int):
    """(state, parity mask) of one class s <= A, recomputed from scratch."""
    p = sum(1 << v for v in vertices_of(cut.a) if (g.adj[v] & s).bit_count() & 1)
    return (cut.basis.a_code(s), cut.coset_sig(s, s & ~p)), p


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
            collect: dict = {}
            _run(g, t, "qcol", q=q, collect=collect)
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
                assert set(tab) == expect, (g.n, q)


def test_qcol_witnesses_realise_their_keys():
    rng = random.Random(62)
    shape_rng = random.Random(620)
    for i in range(8):
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        q = 1 + i % 4
        for t in tree_suite(g, rng, shape_rng):
            collect: dict = {}
            _run(g, t, "qcol", q=q, collect=collect)
            for cut, tab in collect.values():
                for key, val in tab.items():
                    assert len(key) == len(val) == q
                    assert list(key) == sorted(key)
                    union = 0
                    for st, (s, p) in zip(key, val):
                        assert s & union == 0 and s & ~cut.a == 0
                        union |= s
                        assert _class_state(g, cut, s) == (st, p)
                    assert union == cut.a


# The q-coloring join as it was written before the memo: one `coset_sig`
# call per class of every x key against every arrangement of every y key.
def _reference_qcol_join(cut, get_x, get_y, tx, ty, ax, ay, q):
    table: dict = {}
    lifted_xs = [[(*get_x(c), sx, px) for (c, _), (sx, px) in zip(keyx, valx)]
                 for keyx, valx in tx.items()]
    for keyy, valy in ty.items():
        lifted = [(*get_y(c), sy, py) for (c, _), (sy, py) in zip(keyy, valy)]
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
    `tree_suite` and q = 2, 3, 4."""
    rng = random.Random(seed)
    shape_rng = random.Random(seed * 10)
    for _ in range(graphs):
        g = rand_graph(rng, rng.randrange(2, 11), rng.uniform(0.2, 0.8))
        for t in tree_suite(g, rng, shape_rng):
            for q in (2, 3, 4):
                collect: dict = {}
                _run(g, t, "qcol", q=q, collect=collect)
                for node, (cut, tab) in collect.items():
                    if not t.is_leaf(node):
                        x, y = t.children[node]
                        yield g, q, cut, tab, collect[x], collect[y]


def test_qcol_join_matches_the_reference_loop():
    """Every node's q-coloring table, joined again from its children's
    tables through the reference loop above, equals the DP's table entry by
    entry and in the same order.  Each of the three signature functions
    runs at some joined node."""
    factories = {f"{f.__name__}.<locals>.coset_sig": f.__name__
                 for f in (dp._mask_sig_twin_free, dp._mask_sig_with_twins, dp._rows_sig)}
    ran: set[str] = set()
    joins = 0
    for g, q, cut, tab, (cx, tx), (cy, ty) in _qcol_joins(71, 16):
        ref = _reference_qcol_join(cut, _child_map(g, cut, cx, cy.a),
                                   _child_map(g, cut, cy, cx.a), tx, ty, cx.a, cy.a, q)
        assert list(tab.items()) == list(ref.items()), (g.n, q)
        ran.add(factories[cut.coset_sig.__qualname__])
        joins += 1
    assert joins and ran == set(factories.values()), ran


def test_qcol_parent_class_state_is_a_function_of_the_child_states():
    """What the join's table of state pairs relies on: at every join, every
    pair of class witnesses with the same (x state, y state) gives the same
    parent class state, computed directly, and a completable one is the
    state of the union recomputed from scratch."""
    shared = 0
    for g, _, cut, _, (cx, tx), (cy, ty) in _qcol_joins(72, 10):
        get_x = _child_map(g, cut, cx, cy.a)
        get_y = _child_map(g, cut, cy, cx.a)
        xs = {(st, w) for key, val in tx.items() for st, w in zip(key, val)}
        ys = {(st, w) for key, val in ty.items() for st, w in zip(key, val)}
        parent: dict = {}
        witnesses: dict = {}
        for (stx, (sx, px)), (sty, (sy, py)) in product(xs, ys):
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
        collect: dict = {}
        _run(g, t, "qcol", q=q, collect=collect)
        assert max(len(tab) for _, tab in collect.values()) == largest
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
        for code, sig, (s, p) in _subset_entries(tab):
            # rank-0 cut at the root: no code, and the empty completion system
            assert code == 0 and sig == root_cut.coset_sig(0, 0)
            assert check_odd_set(g, s)
    # so every root table holds at most one entry, which `_extract_subset`
    # returns without comparing witnesses
    for _ in range(10):
        g = rand_graph(rng, rng.randrange(1, 10), rng.uniform(0.2, 0.8))
        order = list(range(g.n))
        rng.shuffle(order)
        for t in (bfs_tree(g), elimination_tree(g), caterpillar(g, order)):
            for kind in ("mos", "mes", "ds", "tds"):
                entries = list(_subset_entries(_run(g, t, kind)))
                assert len(entries) <= 1, kind
                for code, sig, _ in entries:
                    assert code == 0 and sig == 0
            for q in (2, 3):
                assert len(_run(g, t, "qcol", q=q)) <= 1, q


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
            collect: dict = {}
            _run(g, t, "mos", collect=collect)
            assert len(collect) == len(t.postorder())
            for cut, _ in collect.values():
                a, b = cut.a, g.full_mask & ~cut.a
                scratch = cut_rank(g, a)
                a_rows = [g.adj[v] & b for v in vertices_of(a)]
                b_rows = [g.adj[w] & a for w in vertices_of(b)]
                # boundaries by definition, and the earliest bases over all rows
                assert cut.basis.a_boundary == scratch.a_boundary == sum(
                    1 << v for v, row in zip(vertices_of(a), a_rows) if row)
                assert cut.basis.b_boundary == scratch.b_boundary == sum(
                    1 << w for w, row in zip(vertices_of(b), b_rows) if row)
                a_full = row_basis(a_rows)
                b_full = row_basis(b_rows)
                assert cut.basis.a_basis_vertices == scratch.a_basis_vertices == tuple(
                    vertices_of(a)[i] for i in a_full.basis_row_indices)
                assert cut.basis.b_basis_vertices == scratch.b_basis_vertices == tuple(
                    vertices_of(b)[i] for i in b_full.basis_row_indices)
                assert cut.basis.rank == scratch.rank == a_full.rank == b_full.rank
                # patterns over all of A against the from-scratch B basis
                profiles = [g.adj[w] & a for w in scratch.b_basis_vertices]
                patterns: dict[int, int] = {}
                zero = 0
                for v in vertices_of(a):
                    pat = sum(1 << i for i, prof in enumerate(profiles) if prof >> v & 1)
                    if pat:
                        patterns[pat] = patterns.get(pat, 0) | 1 << v
                    else:
                        zero |= 1 << v
                assert cut.patterns == patterns
                assert cut.zero_mask == zero
                # _NodeCut takes the patterns' rank to be the cut rank
                # rather than eliminating them
                assert row_basis(cut.patterns).rank == cut.basis.rank
                assert cut.units == (len(cut.patterns) == cut.basis.rank)
                s = a & rng.randrange(1 << g.n)
                assert cut.basis.a_code(s) == scratch.a_code(s)
