"""Exact parity-subgraph solvers running over a rank decomposition tree.

Dynamic programming over the binary decomposition tree.  At a node whose
leaves span the vertex set A, a partial solution S <= A is summarized by two
things that together decide how it can be completed across the cut (A, B):

  * the code of N2(S) & B over the cut's row basis (how S toggles outside
    degree parities), and
  * the set of completion codes that fix S's remaining parity defects,
    stored as the canonical reduced form of a small affine GF(2) system
    (one equation per realized neighborhood pattern inside A, right-hand
    side in the highest bit), i.e. `gf2.row_basis(rows).reduced_rows()`.

The equations are written over the pattern basis, the earliest independent
patterns, rather than over the completion code itself.  The change of
variables is onto, so equal reduced forms still mean equal completion sets;
and a system that selects only basis patterns is a set of unit rows, already
in reduced form, so `row_basis` runs only when another pattern is selected.

At a node whose distinct patterns are all independent, every system is such
a set of unit rows, named by which patterns it selects and the right-hand
side of each.  There the signature is one int over a representative vertex
per pattern: selected representatives in the low n bits, those asking for
odd outside degree above them.  Keys are only compared within one node, so
the two encodings never meet.

Each cut builds its signature function once, from its own constants: a
loop-free one when every pattern has a single vertex, one that also checks
the twin classes, or the reduced-rows one.  A partial solution's defect
(which vertices constrain the completion, and which need odd outside
degree) is two masks formed from three constants per problem and node, so
the join makes one call per pair of entries, to the cut's signature
function.

Two partial solutions with equal keys are interchangeable in every
completion, so each key retains one extremal witness; keys whose completion
system is unsatisfiable are dropped immediately.  At the root the cut is
(V, {}), both key parts collapse, and the surviving witness is the answer.

A subset table (mos, mes, ds, tds) is grouped by the first key part:
``{code: {sig: (S, parities)}}``.  Every entry of a group shares its code,
so a join lifts each child code to the parent basis once per group, not
once per entry, and keys the inner dict on the signature alone.  A group is
never left empty, so a table is empty exactly when it holds no entry.

An odd q-coloring is q odd subsets, one per class, so each class has a
state (code, signature) as above with the mos defect.  The classes are
interchangeable, so a q-coloring key is the sorted tuple of its q class
states, and the witness stores each class's (S, parities) in the same
order.  A join tries every distinct arrangement of the y key's multiset
against the x key; there are at most q!/(m_1!···m_k!) of them when the y
states occur m_1, ..., m_k times, and q for a leaf.  Each join groups the
distinct class states of its two child tables by code, as a subset table
is grouped, and fills a table with the parent state of every pair of them,
so one pair costs one `coset_sig` call however many keys and arrangements
it occurs in.  That is sound because the parent state depends only on the
two child states (see `_join_table_qcol`).

Both joins lift child code groups with the one function `_lift` and run
the same group-pair loop, but each keeps its own copy of that loop: the
subset loop folds pairs into the best witness per key, while the
q-coloring loop records each pair's parent state.  One shared loop would
have to branch on which join called it.
"""
from __future__ import annotations

from itertools import count
from operator import add
from typing import Iterator

from .gf2 import row_basis
from .graph import Graph, vertices_of
from .rankdec import CutBasis, DecompositionTree, cut_walk

__all__ = [
    "chi_odd",
    "solve_mes",
    "solve_mos",
    "solve_odd_ds",
    "solve_odd_qcol",
    "solve_odd_tds",
]

# (D, E) of a partial solution S with parity mask P at a node over A:
# vertices of D still constrain the completion, those in E need odd outside
# degree, the rest of D need even outside degree.  Every kind is
#     D = (S & keep) ^ set,  E = D & (P ^ flip)
# with each of keep, set, flip one of -1 (every vertex), 0 or A:
#     mos  (-1, 0, -1)  D = S         E = S & ~P
#     mes  (-1, 0,  0)  D = S         E = S & P
#     ds   ( A, A, -1)  D = A & ~S    E = A & ~S & ~P
#     tds  ( 0, A, -1)  D = A         E = A & ~P
# (S lies inside A).  The entry maps A to (keep, set, flip).
_SUBSET_KINDS = {
    "mos": lambda a: (-1, 0, -1),
    "mes": lambda a: (-1, 0, 0),
    "ds": lambda a: (a, a, -1),
    "tds": lambda a: (0, a, -1),
}
_MAXIMIZING = {"mos": True, "mes": True, "ds": False, "tds": False}

# A completion signature: an int at a node whose outside patterns are
# independent, reduced rows otherwise (see `_NodeCut`).
_Sig = int | tuple[int, ...]


class _NodeCut:
    """Per-node cut data: basis, and A-vertices grouped by outside pattern.

    Only boundary vertices of A can see a B-basis vertex, so every other
    vertex of A has the zero pattern.

    Completion equations are written over the pattern basis: with the
    earliest independent patterns p_1..p_r, put y_i = <p_i, x> for the
    completion code x.  An independent pattern is then the unit row
    ``1 << i`` and a dependent one is its coordinates over p_1..p_r.  The
    map x -> y is onto, so two systems over y have equal solution sets
    exactly when their completion sets over x are equal, and the reduced
    form over y is still a canonical signature.

    When every pattern is independent (`units`), each pattern has its own
    coordinate y_i and y ranges over all of GF(2)^r.  A system that passes
    the parity checks is then satisfiable, its completion set is fixed by
    which patterns it selects and the right-hand side of each, and distinct
    choices give distinct sets.  So the signature is ``sel | odd << n``:
    sel holds one representative vertex per selected pattern, odd the
    representatives of those asking for odd outside degree.  A vertex alone
    in its pattern (a single) represents itself; a pattern shared by
    several vertices (a twin class) is represented by its lowest vertex.

    `coset_sig(d, e)` is the signature of {completion codes fixing (d, e)},
    or None if that set is empty.  It is one function per cut, built once
    from the cut's constants by one of `_mask_sig_twin_free`,
    `_mask_sig_with_twins` (the two `units` cases) or `_rows_sig`, so a
    join pays one call per pair of entries and no attribute lookups.  The
    function holds copies of the constants, not the cut, so a cut is not
    part of a reference cycle.

    The patterns have rank r = `basis.rank` (the cut rank), so the
    right-hand-side bit ``1 << r`` and `units` need no elimination of their
    own.  The patterns are the distinct nonzero rows of M = M[A, B-basis
    vertices].  The r columns of M are the rows of M[B, A] that `CutBasis`
    chose as a basis, so they are independent; M therefore has row rank r,
    and its distinct nonzero rows span its row space.  The patterns are
    eliminated only at a node that is not `units`, where `coordinates` is
    needed.
    """

    __slots__ = ("a", "b", "basis", "patterns", "zero_mask", "units", "coset_sig")

    def __init__(self, g: Graph, a_mask: int, boundary: tuple[int, int]) -> None:
        self.a = a_mask
        self.basis = basis = CutBasis(g, a_mask, boundary)
        self.b = basis.b_mask
        profiles = [g.adj[w] & a_mask for w in basis.b_basis_vertices]
        patterns: dict[int, int] = {}
        seen = 0
        for v in vertices_of(basis.a_boundary):
            bit = 1 << v
            pat = 0
            for i, prof in enumerate(profiles):
                if prof & bit:
                    pat |= 1 << i
            if pat:
                patterns[pat] = patterns.get(pat, 0) | bit
                seen |= bit
        self.patterns = patterns
        self.zero_mask = zero_mask = a_mask & ~seen
        self.units = len(patterns) == basis.rank
        if self.units:
            singles = 0
            twins: list[tuple[int, int]] = []  # (vertices with the pattern, lowest one)
            for pmask in patterns.values():
                if pmask & (pmask - 1):
                    twins.append((pmask, pmask & -pmask))
                else:
                    singles |= pmask
            if twins:
                self.coset_sig = _mask_sig_with_twins(zero_mask, singles, tuple(twins), g.n)
            else:
                self.coset_sig = _mask_sig_twin_free(zero_mask, singles, g.n)
        else:
            pbasis = row_basis(patterns)
            independent = set(pbasis.basis_row_indices)
            # (vertices with this pattern, equation row over y, row is a unit)
            pattern_rows = tuple(
                (pmask, pbasis.coordinates(pat), i in independent)
                for i, (pat, pmask) in enumerate(patterns.items())
            )
            self.coset_sig = _rows_sig(zero_mask, pattern_rows, 1 << basis.rank)


# The three signature functions of `_NodeCut`.  Each takes (d, e) with e
# inside d and d inside A.  A vertex in e with no outside basis neighborhood
# (in `zero_mask`) can never be fixed, and vertices sharing a pattern must
# agree on the required parity; either failure gives None.

def _mask_sig_twin_free(zero_mask: int, singles: int, n: int):
    """Every pattern has one vertex, so sel = d & singles, and odd = e once
    e has passed the zero check (A is `zero_mask` plus `singles`)."""

    def coset_sig(d: int, e: int) -> _Sig | None:
        if e & zero_mask:
            return None
        return d & singles | e << n

    return coset_sig


def _mask_sig_with_twins(zero_mask: int, singles: int, twins: tuple[tuple[int, int], ...],
                         n: int):
    """Some pattern has several vertices: each selected twin class must be
    all odd or all even, and enters through its lowest vertex."""

    def coset_sig(d: int, e: int) -> _Sig | None:
        if e & zero_mask:
            return None
        sel = d & singles
        odd = e & singles
        for pmask, low in twins:
            dm = d & pmask
            if dm:
                em = e & dm
                if em:
                    if em != dm:
                        return None
                    odd |= low
                sel |= low
        return sel | odd << n

    return coset_sig


def _rows_sig(zero_mask: int, pattern_rows: tuple[tuple[int, int, bool], ...], rhs_bit: int):
    """Some pattern is dependent: the reduced rows of the system over y.

    Unit rows arrive in increasing pivot order and are already reduced, so
    elimination runs only when a dependent pattern is selected.
    """

    def coset_sig(d: int, e: int) -> _Sig | None:
        if e & zero_mask:
            return None
        rows: list[int] = []
        units_only = True
        for pmask, yrow, is_unit in pattern_rows:
            dm = d & pmask
            if not dm:
                continue
            em = e & dm
            if em == 0:
                rows.append(yrow)
            elif em == dm:
                rows.append(yrow | rhs_bit)
            else:
                return None
            if not is_unit:
                units_only = False
        if units_only:
            return tuple(rows)
        sig = row_basis(rows).reduced_rows()
        # rhs_bit is the highest bit, so 0 = 1 is always the last reduced row
        if sig and sig[-1] == rhs_bit:
            return None
        return sig

    return coset_sig


def _lift(g: Graph, parent: _NodeCut, child: _NodeCut, sibling: int, groups) -> list:
    """``(up, cross & sibling, entries)`` per ``(code, entries)`` group of a
    child table: the code over the parent basis, and the parities that the
    group's crossing vector toggles on the sibling child.

    Both depend only on the child code: subsets with equal crossing
    behavior at the child cut agree on every vertex outside the child.
    """
    rows = [g.adj[v] for v in child.basis.a_basis_vertices]
    dec = parent.basis.a_dec
    b = parent.b
    lifted = []
    for code, entries in groups:
        vec = 0
        while code:
            vec ^= rows[(code & -code).bit_length() - 1]
            code &= code - 1
        up = dec.coordinates(vec & b)
        assert up is not None, "crossing vector must stay in the parent span"
        lifted.append((up, vec & sibling, entries))
    return lifted


def _leaf_table(cut: _NodeCut, u: int, kind: str):
    keep, set_, flip = _SUBSET_KINDS[kind](cut.a)
    table: dict[int, dict[_Sig, tuple[int, int]]] = {}
    for s in (0, 1 << u):
        d = (s & keep) ^ set_
        sig = cut.coset_sig(d, d & flip)  # parities P = 0
        if sig is None:
            continue
        table.setdefault(cut.basis.a_code(s), {})[sig] = (s, 0)
    return table


def _join_table(g: Graph, cut: _NodeCut, cx: _NodeCut, cy: _NodeCut, tx, ty, kind: str):
    """Join two subset tables one pair of code groups at a time.

    What depends on codes alone is hoisted out of the pair loop: `_lift`
    gives each group its parent code and its crossing vector masked to the
    sibling once, the parent code ``up_x ^ up_y`` is formed once per pair
    of groups, and each y entry's parities are fixed by the x crossing
    vector once.  The y entries run outside the x entries.  The pair loop
    fixes the x parities, forms (D, E) from the kind's (keep, set, flip)
    constants, makes its one call, to the cut's `coset_sig`, and keeps the
    better witness under the plain signature in the ``up`` group: more
    vertices when maximizing, fewer when not, then the lexicographically
    least.  A group that gets no entry is deleted, so a table with no entry
    is still empty.
    """
    keep, set_, flip = _SUBSET_KINDS[kind](cut.a)
    maximize = _MAXIMIZING[kind]
    coset_sig = cut.coset_sig
    table: dict[int, dict[_Sig, tuple[int, int]]] = {}
    lifted_y = _lift(g, cut, cy, cx.a, ((c, gy.values()) for c, gy in ty.items()))
    for up_x, cross_xy, xs in _lift(g, cut, cx, cy.a, ((c, gx.values()) for c, gx in tx.items())):
        for up_y, cross_yx, ys in lifted_y:
            up = up_x ^ up_y
            group = table.get(up)
            if group is None:
                group = table[up] = {}
            for sy, py in ys:
                py ^= cross_xy
                for sx, px in xs:
                    s = sx | sy
                    p = (px ^ cross_yx) | py
                    d = (s & keep) ^ set_
                    sig = coset_sig(d, d & (p ^ flip))
                    if sig is None:
                        continue
                    cur = group.get(sig)
                    if cur is not None:
                        old = cur[0]
                        nc, oc = s.bit_count(), old.bit_count()
                        if nc == oc:
                            diff = s ^ old
                            if not s & diff & -diff:  # old holds the lowest differing vertex
                                continue
                        elif (nc > oc) != maximize:
                            continue
                    group[sig] = (s, p)
            if not group:
                del table[up]
    return table


def _distinct_orders(states: tuple) -> Iterator[list[int]]:
    """Index orders that rearrange the sorted `states` into each of their
    distinct sequences exactly once.

    Lexicographic next-permutation over the states' group ids visits every
    multiset permutation once, q!/(m_1!···m_k!) in all, never the q! orders
    of the indices.  Equal states take their indices in increasing order,
    so every result is a permutation of range(q).
    """
    q = len(states)
    start: list[int] = []  # first index of each run of equal states
    seq: list[int] = []  # group id per position
    for i, st in enumerate(states):
        if not i or st != states[i - 1]:
            start.append(i)
        seq.append(len(start) - 1)
    while True:
        taken = start[:]
        order = []
        for gid in seq:
            order.append(taken[gid])
            taken[gid] += 1
        yield order
        i = q - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = q - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _leaf_table_qcol(cut: _NodeCut, u: int, q: int):
    """One orbit: u's own class state beside q - 1 empty classes."""
    leaf = [((code, sig), w) for code, group in _leaf_table(cut, u, "mos").items()
            for sig, w in group.items()]
    if len(leaf) < 2:  # u cannot lie in an odd class
        return {}
    (empty, empty_w), (own, own_w) = leaf
    classes = sorted([(own, own_w)] + [(empty, empty_w)] * (q - 1))
    return {tuple(st for st, _ in classes): tuple(w for _, w in classes)}


def _class_states(table, scale: int):
    """The distinct class states of a q-coloring table, grouped by code as a
    subset table is: per code the entries ``(number * scale, s, p)``, with
    one witness (s, p) per state, and per key its states' numbers times
    `scale`.  States are numbered group by group, so a list built from the
    lifted groups in order is indexed by state number."""
    groups: dict[int, dict[_Sig, tuple[int, int]]] = {}
    for key, val in table.items():
        for (code, sig), w in zip(key, val):
            groups.setdefault(code, {}).setdefault(sig, w)
    number = count(0, scale)
    ids = {(code, sig): next(number) for code, group in groups.items() for sig in group}
    states = [(code, [(ids[code, sig], s, p) for sig, (s, p) in group.items()])
              for code, group in groups.items()]
    return states, [[ids[st] for st in key] for key in table]


def _join_table_qcol(g: Graph, cut: _NodeCut, cx: _NodeCut, cy: _NodeCut, tx, ty):
    """Every x key in its sorted order against every distinct arrangement of
    each y key's multiset: equal y states give equal results, so this
    covers every matching of x classes to y classes.  The arrangements are
    generated one at a time, so a join holds no more than its two tables
    and the table of state pairs, even when a y key has q!/(m_1!···m_k!)
    of them.

    First the parent state of every pair of distinct child class states is
    put in the flat list ``parent[i_x * n_y + i_y]`` (None if the class
    cannot be completed), by the subset join's group-pair loop with the mos
    defect: each child's states are grouped by code (`_class_states`) and
    lifted by `_lift`, and each pair costs one `coset_sig` call, on one
    witness of each state.  The arrangement loop then reads that list.
    This is sound because the parent state is a function of the two child
    states.  A child state (code, sig) fixes the child's completion set,
    since sig is canonical for it, and the code fixes the class's crossing
    vector: its parent code, and which parities it toggles on the other
    child.  The parent class S_x | S_y is completed by T <= B exactly when
    S_y plus T completes S_x at the x cut and S_x plus T completes S_y at
    the y cut, so its completion set depends only on the two codes and the
    two completion sets.  `coset_sig` is canonical for that set, and the
    parent code is ``up_x ^ up_y``.

    The loop order, the early break and first-wins are those of the direct
    loop, and a new key's witness is built from its own classes, through
    per-state flip lists, so the table is the same entry by entry.
    """
    coset_sig = cut.coset_sig
    states_y, rows_y = _class_states(ty, 1)
    lifted_y = _lift(g, cut, cy, cx.a, states_y)
    flips_y = [cross for _, cross, ys in lifted_y for _ in ys]
    n_y = len(flips_y)
    states_x, rows_x = _class_states(tx, n_y)
    lifted_x = _lift(g, cut, cx, cy.a, states_x)
    flips_x = [cross for _, cross, xs in lifted_x for _ in xs]
    parent: list[tuple[int, _Sig] | None] = [None] * (len(flips_x) * n_y)
    for up_x, cross_xy, xs in lifted_x:
        for up_y, cross_yx, ys in lifted_y:
            up = up_x ^ up_y
            for i_y, sy, py in ys:
                py ^= cross_xy
                for i_x, sx, px in xs:
                    s = sx | sy
                    sig = coset_sig(s, s & ~((px ^ cross_yx) | py))
                    if sig is not None:
                        parent[i_x + i_y] = (up, sig)
    keys_x = list(zip(tx.values(), rows_x))
    table: dict[tuple, tuple] = {}
    for (keyy, valy), row_y in zip(ty.items(), rows_y):
        for order in _distinct_orders(keyy):
            arranged = [row_y[j] for j in order]
            for valx, row_x in keys_x:
                states: list[tuple[int, _Sig]] = []
                for pair in map(add, row_x, arranged):
                    st = parent[pair]
                    if st is None:
                        break
                    states.append(st)
                else:
                    key = tuple(sorted(states))
                    if key not in table:
                        val = []
                        for (sx, px), j, x_id in zip(valx, order, row_x):
                            sy, py = valy[j]
                            val.append((sx | sy, (px ^ flips_y[row_y[j]])
                                        | (py ^ flips_x[x_id // n_y])))
                        table[key] = tuple(w for _, w in sorted(zip(states, val)))
    return table


def _run(g: Graph, t: DecompositionTree, kind: str, q: int = 0, collect=None):
    """Bottom-up sweep; returns the root table (possibly empty).

    `collect`, if a dict, receives {node: (cut, table)} for inspection.
    """
    t.validate_for(g)
    cuts: dict[int, _NodeCut] = {}
    tables: dict[int, dict] = {}
    for node, a_mask, a_bd, b_bd in cut_walk(g, t):
        cut = _NodeCut(g, a_mask, (a_bd, b_bd))
        if t.is_leaf(node):
            u = t.leaf_vertex[node]
            tab = _leaf_table_qcol(cut, u, q) if kind == "qcol" else _leaf_table(cut, u, kind)
        else:
            x, y = t.children[node]
            if kind == "qcol":
                tab = _join_table_qcol(g, cut, cuts[x], cuts[y], tables[x], tables[y])
            else:
                tab = _join_table(g, cut, cuts[x], cuts[y], tables[x], tables[y], kind)
            if collect is None:
                del tables[x], tables[y], cuts[x], cuts[y]
        cuts[node] = cut
        tables[node] = tab
        if collect is not None:
            collect[node] = (cut, tab)
        if not tab:
            return {}
    return tables[t.root]


def _extract_subset(root_table) -> tuple[int, int] | None:
    """The root table's entry, or None.  At the root the cut is (V, {}): the
    code is 0 and the signature is 0 or None, so the table holds at most
    one entry."""
    for group in root_table.values():
        for s, _ in group.values():
            return s.bit_count(), s
    return None


def solve_mos(g: Graph, t: DecompositionTree) -> tuple[int, int]:
    """Maximum induced subgraph with all degrees odd: (order, vertex mask)."""
    out = _extract_subset(_run(g, t, "mos"))
    assert out is not None, "the empty set is always a valid odd subgraph"
    return out


def solve_mes(g: Graph, t: DecompositionTree) -> tuple[int, int]:
    """Maximum induced subgraph with all degrees even: (order, vertex mask)."""
    out = _extract_subset(_run(g, t, "mes"))
    assert out is not None
    return out


def solve_odd_ds(g: Graph, t: DecompositionTree) -> tuple[int, int]:
    """Minimum set S with |N(v) & S| odd for every v outside S."""
    out = _extract_subset(_run(g, t, "ds"))
    assert out is not None, "the full vertex set always dominates"
    return out


def solve_odd_tds(g: Graph, t: DecompositionTree) -> tuple[int, int] | None:
    """Minimum S with |N(v) & S| odd for every vertex, or None."""
    return _extract_subset(_run(g, t, "tds"))


def solve_odd_qcol(g: Graph, t: DecompositionTree, q: int) -> tuple[int, ...] | None:
    """Partition into <= q classes, each inducing an odd subgraph.

    Returns the per-vertex class tuple (values 0..q-1) or None if infeasible.
    A partition of n vertices has at most n nonempty classes, so the DP
    runs with min(q, n) classes: a larger q asks the same question, and
    would only make every key longer.
    """
    if q < 1:
        raise ValueError("q must be positive")
    root_table = _run(g, t, "qcol", q=min(q, g.n))
    if not root_table:
        return None
    val = next(iter(root_table.values()))
    # number the nonempty classes by first use: the table's class order is
    # the order of class states, which says nothing at the root
    classes = sorted((s for s, _ in val if s), key=lambda s: s & -s)
    colors = [0] * g.n
    for i, s in enumerate(classes):
        for v in vertices_of(s):
            colors[v] = i
    return tuple(colors)


def chi_odd(g: Graph, t: DecompositionTree) -> tuple[int, tuple[int, ...]] | None:
    """Minimum q admitting an odd q-coloring, with a witness coloring.

    Returns None when undefined, i.e. some component has odd order (odd
    subgraphs have even order, so no partition can exist).  Otherwise the
    graph has an odd coloring, whose nonempty classes number at most n, so
    the search over q = 1..n always ends with one.
    """
    if g.n == 0:
        return 0, ()
    for comp in g.components():
        if comp.bit_count() & 1:
            return None
    for q in range(1, g.n + 1):
        colors = solve_odd_qcol(g, t, q)
        if colors is not None:
            return q, colors
    raise RuntimeError("internal error: no odd coloring with at most n classes")
