"""Exact parity-subgraph solvers running over a rank decomposition tree.

Dynamic programming over the binary decomposition tree.  At a node whose
leaves span the vertex set A, a partial solution S <= A is summarized by two
things that together decide how it can be completed across the cut (A, B):

  * the code of N2(S) & B over the cut's row basis (how S toggles outside
    degree parities), and
  * the set of completions T <= B that fix S's remaining parity defects,
    stored as the canonical reduced form of a small affine GF(2) system
    (one equation per class of A-vertices with equal code, right-hand side
    in the highest bit), i.e. `gf2.row_basis(rows).reduced_rows()`.

A node's cut is a `rankdec.CutBasis` (see `_NodeCut`): one basis, A's.
The equations are written over y_i = |N(a_i) & T| mod 2 for its basis
vertices a_i, so a vertex's equation row is its code.  A basis vertex's
code is a unit row, so a system that selects only classes of basis vertices
is already in reduced form, and `row_basis` runs only when another class
is selected.

At a node where every vertex of ∂A is a basis vertex (a mask cut), each
class is one vertex with its own unit row, and a system is named by which
vertices it selects and the right-hand side of each.  The selected
vertices, D & ∂A, are fixed by the code that groups the key (see
`_NodeCut`), so a mask key is one int, E: the vertices asking for odd
outside degree.  Keys are only compared within one node, so the two
encodings never meet.

Each cut builds its signature function once, from its own constants: the
loop-free mask one at such a node, the reduced-rows one at every other.  A
partial solution's defect (which vertices constrain the completion, and
which need odd outside degree) is two masks, D from two constants per
problem and node and E from the children's E and crossing vectors, so the
join makes one call per pair of entries, to the cut's signature function.
Where the parent and both children are mask cuts (a leaf's cut is one), it
makes none: the parent's key is the XOR of the children's keys and a
constant per pair of code groups, so a pair costs an XOR and a mask test
(see `_join_masks`).

Two partial solutions with equal keys are interchangeable in every
completion, so each key retains one extremal witness S and nothing more;
keys whose completion system is unsatisfiable are dropped immediately.  At
the root the cut is (V, {}), both key parts collapse, and the surviving
witness is the answer.

A subset table (mos, mes, ds, tds) is grouped by the first key part as
``{code: {sig: S}}`` at every cut.  The parities P, P_v = |N(v) & S| mod
2, matter to a join only through the defect's odd part E = D & (P ^ flip),
and E lies in ∂A once the zero check has passed.  A join reads E off a
mask child's key, which is E, and has `_odd_part` work it out from S at
any other child, one parity per vertex of D & ∂A.
Every entry of a group shares its code, so a join lifts each child code
to the parent basis once per group, not once per entry, and keys the inner
dict on the signature alone.  A group is never left empty, so a table is
empty exactly when it holds no entry.

An odd q-coloring is q odd subsets, one per class, so each class has a
state (code, signature) as above with the mos defect.  A q-coloring table
is ``(states, table)``: the node's class states in sorted order, each with
one witness S, and ``{key: witness}``.  The classes are interchangeable,
so a key is the sorted tuple of its q classes' state ids, and the witness
is the tuple of the classes' sets S in the same order.  A join tries
every distinct arrangement of the y key's multiset against the x key;
there are at most q!/(m_1!···m_k!) of them when the y states occur m_1,
..., m_k times, and q for a leaf.  Each join first fills a table with the
parent state of every pair of child states, so a pair costs one
`coset_sig` call however many keys and arrangements it occurs in.  That
is sound because the parent state depends only on the two child states
(see `_join_table_qcol`).

Leaves are not nodes of the sweep, and they are half of a tree's nodes.
A leaf's cut ({u}, V \\ {u}) is a mask cut with basis (u,), or none for
an isolated u, and its table holds at most S = {} and S = {u}.  So
`rankdec.cut_walk` yields joins only, and no leaf builds a cut or a
table: a join with a leaf child takes that leaf's side straight from u's
row at the join's cut, as `_lift` would give it over the leaf's table.
`_leaf_side` builds it, and `_qcol_side` reads a leaf's two class states
off the same side under the mos defect.  Every joined node's table is the
one it would be with the leaf tables built.  An isolated vertex empties
every tds and q-coloring table (no set covers it oddly, no odd class
holds it), so those runs return an empty table before the sweep and
build no cut.

Both joins lift child code groups with the one function `_lift`, read a
child's E off its key or from `_odd_part`, and run the same group-pair
loop on (S, D, E), but each keeps its own copy of that loop: the
subset loop folds pairs into the best witness per key, while the
q-coloring loop records each pair's parent state.  One shared loop would
have to branch on which join called it, and for the same reason the
subset join's mask-cut loop is a copy of its own.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby
from operator import itemgetter, or_

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

# A completion signature: an int at a node whose ∂A vertices are all basis
# vertices, reduced rows otherwise (see `_NodeCut`).
_Sig = int | tuple[int, ...]


def _odd_part(adj, s: int, keep: int, set_: int, flip: int, a_boundary: int) -> int:
    """E = D & (P ^ flip) of a table entry S at its cut, from S alone.

    P_v = |N(v) & S| mod 2 is a function of S, so no table stores it.  An
    entry in a table passed its cut's zero check, so its E lies in ∂A:
    only the vertices of D & ∂A are read, one parity each.
    """
    d = ((s & keep) ^ set_) & a_boundary
    e = d & flip
    while d:
        low = d & -d
        if (adj[low.bit_length() - 1] & s).bit_count() & 1:
            e ^= low
        d ^= low
    return e


class _NodeCut(CutBasis):
    """A node's cut: it inherits its basis, codes and rank from `CutBasis`
    and adds its A-vertices grouped by code.

    Completion equations are written over y_i = |N(a_i) & T| mod 2 for the
    basis vertices a_1..a_r and a completion T <= B.  A vertex of A with
    code c has the row across the cut that is c's combination of the basis
    rows, so it sees T with parity <c, y>: its equation row is its code, and
    a basis vertex's is the unit row ``1 << i``.  The basis rows
    are independent, so T -> y is onto GF(2)^r: two systems over y have
    equal solution sets exactly when their completion sets are equal, and
    the reduced form over y is a canonical signature.

    `classes` maps each code to the vertices of ∂A with that code (equal
    codes, equal outside neighborhoods), in order of first vertex.  A ∂A
    row is never zero, so no class has code 0, and the rest of A, with no
    neighbor across the cut, is `zero_mask`.  A class has a unit code
    exactly when it holds a basis vertex.

    When every ∂A vertex is a basis vertex (rank = |∂A|), each vertex of ∂A
    is a class of its own with its own coordinate y_i, and y ranges over
    all of GF(2)^r.  A system that passes the zero check is then
    satisfiable, its completion set is fixed by which vertices it selects
    (sel = D & ∂A) and the right-hand side of each (E), and distinct
    choices give distinct sets.  Such a cut sets `masks`, and its
    `classes` need no coordinates: ∂A's i-th vertex is the i-th basis
    vertex, with code ``1 << i``, and the rest of A has code 0.  So S's
    code is S & ∂A, and sel = ((S & keep) ^ set) & ∂A is a function of
    it: every entry of one code group has the same sel.  The signature is
    therefore E alone.  Within a code group it names the completion set,
    and as sel is one value there, E orders the group's keys as the pair
    (sel, E) does.

    `coset_sig(d, e)` is the signature of {completions fixing (d, e)}, or
    None if that set is empty: canonical for that set at a rows cut, and
    canonical within a code group, which fixes d & ∂A, at a mask cut.  It
    is one function per cut, built once from the cut's constants by
    `_mask_sig_twin_free` (rank = |∂A|) or `_rows_sig` (every other cut),
    so `_join_table` pays one call per pair of entries and no attribute
    lookups.  The function holds copies of the constants, not the cut, so
    a cut is not part of a reference cycle.
    """

    __slots__ = ("classes", "zero_mask", "masks", "coset_sig")

    def __init__(self, g: Graph, a: int, a_boundary: int, b: int) -> None:
        CutBasis.__init__(self, g, a, a_boundary, b)
        self.zero_mask = zero_mask = a & ~a_boundary
        # Masks exactly when every ∂A vertex is a basis vertex.  A cut
        # where every class holds a basis vertex but some class holds
        # several vertices (a twin class) goes to `_rows_sig`: there every
        # class code is a unit row, and a class's basis vertex is its first
        # vertex, so the rows arrive in increasing pivot order and
        # `_rows_sig` returns ``tuple(rows)`` with no elimination, after its
        # zero-mask and mixed-parity exits.
        self.masks = self.rank == a_boundary.bit_count()
        if self.masks:
            self.classes = {1 << i: 1 << v for i, v in enumerate(self.a_basis_vertices)}
            self.coset_sig = _mask_sig_twin_free(zero_mask)
        else:
            adj = g.adj
            coordinates = self.a_dec.coordinates
            classes: dict[int, int] = {}
            for v in vertices_of(a_boundary):
                code = coordinates(adj[v] & b)
                classes[code] = classes.get(code, 0) | 1 << v
            self.classes = classes
            # (vertices of the class, equation row over y, row is a unit)
            class_rows = tuple((pmask, code, not code & (code - 1))
                               for code, pmask in classes.items())
            self.coset_sig = _rows_sig(zero_mask, class_rows, 1 << self.rank)


# The two signature functions of `_NodeCut`.  Each takes (d, e) with e
# inside d and d inside A.  A vertex in e with no neighbor across the cut
# (in `zero_mask`) can never be fixed, and vertices sharing a code must
# agree on the required parity; either failure gives None.

def _mask_sig_twin_free(zero_mask: int):
    """Every class is one basis vertex: the signature is e once e has
    passed the zero check.  d is not read, as its ∂A part is fixed by the
    code (see `_NodeCut`)."""

    def coset_sig(d: int, e: int) -> _Sig | None:
        return None if e & zero_mask else e

    return coset_sig


def _rows_sig(zero_mask: int, class_rows: tuple[tuple[int, int, bool], ...], rhs_bit: int):
    """Some ∂A vertex is not a basis vertex: the reduced rows of the
    system over y.

    Unit rows arrive in increasing pivot order (classes are in order of
    first vertex, and the basis vertices in vertex order) and are already
    reduced, so elimination runs only when a class with another code is
    selected.
    """

    def coset_sig(d: int, e: int) -> _Sig | None:
        if e & zero_mask:
            return None
        rows: list[int] = []
        units_only = True
        for pmask, yrow, is_unit in class_rows:
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
    behavior at the child cut agree on every vertex outside the child.  And
    both are linear in the code, so each child basis vertex v is lifted
    once, to ``(coordinates(adj[v] & B), adj[v] & sibling)``, and a group
    XORs the images of its code's bits.  v lies in the parent's A, so its
    row across the parent cut is a row of that side and lies in the span of
    the parent basis.
    """
    adj = g.adj
    coordinates = parent.a_dec.coordinates
    b = parent.b
    images = []
    for v in child.a_basis_vertices:
        up = coordinates(adj[v] & b)
        assert up is not None, "crossing vector must stay in the parent span"
        images.append((up, adj[v] & sibling))
    lifted = []
    for code, entries in groups:
        up = cross = 0
        while code:
            up_v, cross_v = images[(code & -code).bit_length() - 1]
            up ^= up_v
            cross ^= cross_v
            code &= code - 1
        lifted.append((up, cross, entries))
    return lifted


def _leaf_side(g: Graph, cut: _NodeCut | None, u: int, kind: str):
    """Leaf u as a subset join's side ``(A, masks, ∂A, lifted)`` at `cut`,
    taken from u's row alone: `lifted` is what `_lift` gives over the table
    of S = {} and S = {u} at the cut ({u}, V \\ {u}), which no sweep builds.

    That cut is a mask cut, and A = {u} holds both D's.  When u has a
    neighbor, ∂A = A, the basis is (u,), S's code is 1 exactly when S =
    {u}, and the zero mask is empty: S = {} is the code-0 group, lifted to
    (0, 0), and S = {u} the code-1 group, lifted to u's own image
    ``(coordinates(adj[u] & B), adj[u] & sibling)``, each keyed on its E =
    D & flip, as P = 0 on A = {u}.  When u is isolated, the basis is empty
    and the zero mask is A: an entry survives exactly when E = 0, with code
    0 and signature 0, so one group (0, 0) holds the later survivor (S = {u}
    replaces S = {} where both survive, as for mes).  One of them survives
    for mos, mes and ds; for tds neither does, and `_run` answers such a
    graph before any side is built.  `cut` is read only when u has a
    neighbor, so a one-vertex tree's root table is this side's groups over
    ``cut=None``.
    """
    bit, row = 1 << u, g.adj[u]
    keep, set_, flip = _SUBSET_KINDS[kind](bit)
    d_empty, d_u = set_, (bit & keep) ^ set_  # D of S = {} and of S = {u}
    if row:
        up = cut.a_dec.coordinates(row & cut.b)
        return bit, True, bit, [(0, 0, {d_empty & flip: 0}),
                                (up, row & cut.a & ~bit, {d_u & flip: bit})]
    return bit, True, 0, [(0, 0, {0: 0 if d_u & flip else bit})]


def _subset_side(g: Graph, cut: _NodeCut, child, kind: str):
    """A subset join's side ``(A, masks, ∂A, lifted)`` for `child`: a joined
    node's (cut, table), lifted by `_lift`, or a leaf's vertex."""
    if isinstance(child, int):
        return _leaf_side(g, cut, child, kind)
    c, tab = child
    return c.a, c.masks, c.a_boundary, _lift(g, cut, c, cut.a & ~c.a, tab.items())


def _join_table(g: Graph, cut: _NodeCut, x, y, kind: str):
    """Join two subset tables one pair of code groups at a time.  Each of
    `x`, `y` is a joined node's (cut, table) or a leaf's vertex, whose side
    `_leaf_side` builds without a table.

    What depends on codes alone is hoisted out of the pair loop: `_lift`
    (or `_leaf_side`) gives each group its parent code and its crossing
    vector masked to the sibling once, the parent code ``up_x ^ up_y`` is
    formed once per pair of groups, and each y entry's odd part is fixed by
    the x crossing vector once.  The y entries run outside the x entries.
    The pair loop forms the parent's (D, E), makes its one call, to the
    cut's `coset_sig`, and keeps the better witness under the plain
    signature in the ``up`` group: more vertices when maximizing, fewer when not, then
    the lexicographically least.  A group that gets no entry is deleted, so
    a table with no entry is still empty.

    The parities P enter only through E = D & (P ^ flip), so the pair loop
    works on each child entry's (S, D_x, E_x).  D_x = (S & keep) ^ (set & A_x)
    is the parent's D on A_x, since keep and set are -1, 0 or A.  E_x is the
    child's own E: its key at a mask child, `_odd_part` of S at every
    other child (a child's flip on A_x is the parent's).  On A_x the
    parent's parities are P_x ^ c_yx, c_yx the y group's crossing vector on
    A_x, so the parent's E there is E_x ^ (D_x & c_yx), and the parent's
    (D, E) is the OR of the two sides'.  The stored value is S alone, the
    witness a join on (S, P) would keep, under the same keys in the same
    order: P is a function of S.

    Where the parent and both children are mask cuts, `_join_masks` runs
    the same loop on the children's signatures instead, with no call.
    """
    maximize = _MAXIMIZING[kind]
    keep, set_, flip = _SUBSET_KINDS[kind](cut.a)
    side_x, side_y = _subset_side(g, cut, x, kind), _subset_side(g, cut, y, kind)
    if cut.masks and side_x[1] and side_y[1]:
        return _join_masks(cut, side_x, side_y, keep, set_, maximize)
    adj = g.adj
    sides = []
    for a_c, masks, bd, lifted in (side_x, side_y):
        set_c = set_ & a_c
        sides.append([(up, cross, [(s, (s & keep) ^ set_c, sig if masks else
                                    _odd_part(adj, s, keep, set_c, flip, bd))
                                   for sig, s in entries.items()])
                      for up, cross, entries in lifted])
    coset_sig = cut.coset_sig
    table: dict[int, dict[_Sig, int]] = {}
    for up_x, cross_xy, xs in sides[0]:
        for up_y, cross_yx, ys in sides[1]:
            up = up_x ^ up_y
            group = table.get(up)
            if group is None:
                group = table[up] = {}
            for sy, dy, ey in ys:
                ey ^= dy & cross_xy
                for sx, dx, ex in xs:
                    sig = coset_sig(dx | dy, ex ^ dx & cross_yx | ey)
                    if sig is None:
                        continue
                    s = sx | sy
                    old = group.get(sig)
                    if old is not None:
                        nc, oc = s.bit_count(), old.bit_count()
                        if nc == oc:
                            diff = s ^ old
                            if not s & diff & -diff:  # old holds the lowest differing vertex
                                continue
                        elif (nc > oc) != maximize:
                            continue
                    group[sig] = s
            if not group:
                del table[up]
    return table


def _join_masks(cut: _NodeCut, side_x, side_y, keep: int, set_: int, maximize: bool):
    """`_join_table` where the parent and both children are mask cuts: a
    pair costs an XOR and a mask test on the children's keys.

    A mask child's key is its E, and sel = D & ∂A is one value per code
    group (see `_NodeCut`), so each group's sel is read once, off any of
    its witnesses.  On A_x the parent's D is D_x and its E is E_x ^ (D_x &
    c_yx), c_yx the y group's crossing vector on A_x.  c_yx lies in ∂A_x,
    so D_x & c_yx = sel_x & c_yx, and likewise on A_y.  The parent's key
    is its E, the XOR of its two sides, so a pair's key is ``E_x ^ E_y ^
    (sel_x & c_yx) ^ (sel_y & c_xy)``, or None when that meets
    `zero_mask`.  The last two terms are fixed per pair of groups and XORed
    into each y key once, so a pair costs one XOR and one mask test.  The
    keys carry every parity the parent needs, so no `_odd_part` call is
    made and a pair stores ``S_x | S_y``.  Loop order, first-wins and the
    tie-break are `_join_table`'s, so the table is the same entry by entry.
    """
    zero = cut.zero_mask
    # (up, cross, sel, entries) per group, sel off the group's first witness
    sides = [[(up, cross, ((next(iter(entries.values())) & keep) ^ set_) & bd, entries.items())
              for up, cross, entries in lifted]
             for _, _, bd, lifted in (side_x, side_y)]
    table: dict[int, dict[_Sig, int]] = {}
    for up_x, cross_xy, sel_x, xs in sides[0]:
        for up_y, cross_yx, sel_y, ys in sides[1]:
            fix = sel_x & cross_yx ^ sel_y & cross_xy
            up = up_x ^ up_y
            group = table.get(up)
            if group is None:
                group = table[up] = {}
            for ey, sy in ys:
                ey ^= fix
                for sig, sx in xs:
                    sig ^= ey
                    if sig & zero:
                        continue
                    s = sx | sy
                    old = group.get(sig)
                    if old is not None:
                        nc, oc = s.bit_count(), old.bit_count()
                        if nc == oc:
                            diff = s ^ old
                            if not s & diff & -diff:  # old holds the lowest differing vertex
                                continue
                        elif (nc > oc) != maximize:
                            continue
                    group[sig] = s
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


def _qcol_side(g: Graph, cut: _NodeCut, child, q: int):
    """A q-coloring join's side ``(lifted, state count, table)`` for
    `child`: a joined node's (cut, (states, table)), or a leaf's vertex.
    `lifted` holds each run of one code in the state list, as ``(up, cross,
    [(state id, S, E), ...])``.

    A leaf u's two states are the two groups of `_leaf_side` under the mos
    defect: state 0 is the empty class, S = {} with E = 0, and state 1 is
    {u}, keyed on its E = {u}, lifted to u's own image.  Its one
    key is u's class beside q - 1 empty classes, ``(0, ..., 0, 1)``.  u
    has a neighbor, since `_run` answers a graph with an isolated vertex,
    which no odd class can hold, before any join.
    """
    if isinstance(child, int):
        zeros = (0,) * (q - 1)
        lifted = [(up, cross, [(i, s, sig) for sig, s in group.items()])
                  for i, (up, cross, group) in enumerate(_leaf_side(g, cut, child, "mos")[3])]
        return lifted, 2, {zeros + (1,): zeros + (1 << child,)}
    c, (states, table) = child
    adj, masks, bd = g.adj, c.masks, c.a_boundary
    groups = [(code, [(i, s, sig if masks else _odd_part(adj, s, -1, 0, -1, bd))
                      for i, ((_, sig), s) in run])
              for code, run in groupby(enumerate(states), lambda e: e[1][0][0])]
    return _lift(g, cut, c, cut.a & ~c.a, groups), len(states), table


def _join_table_qcol(g: Graph, cut: _NodeCut, x, y, q: int):
    """Every x key in its sorted order against every distinct arrangement of
    each y key's multiset: equal y states give equal results, so this
    covers every matching of x classes to y classes.  The arrangements are
    generated one at a time, so a join holds no more than its two tables
    and the table of state pairs, even when a y key has q!/(m_1!···m_k!)
    of them.

    First the parent state of every pair of child states is put in
    ``pairs[i_y][i_x]`` (None if the class cannot be completed), by the
    subset join's group-pair loop with the mos defect: each state list's
    runs of one code are lifted by `_lift` (a leaf child's two states by
    `_leaf_side`), and a pair costs one `coset_sig` call, on the
    states' witnesses and their E as in `_join_table`.  The distinct parent states are then sorted, each
    keeping as witness ``S_x | S_y`` of the first pair that reaches it,
    and the rows are mapped to their ids.  A state no key uses stays listed.
    An arrangement picks its y states' rows, and each class position's
    column of x ids is looked up in its row at once.
    This is sound because the parent state is a function of the two child
    states.  A child state (code, sig) fixes the child's completion set,
    since sig is canonical for it, and the code fixes the class's crossing
    vector: its parent code, and which parities it toggles on the other
    child.  The parent class S_x | S_y is completed by T <= B exactly when
    S_y plus T completes S_x at the x cut and S_x plus T completes S_y at
    the y cut, so its completion set depends only on the two codes and the
    two completion sets.  `coset_sig` is canonical for that set, and the
    parent code is ``up_x ^ up_y``.  So any witness of a child state
    serves.

    Ids are in (code, sig) order, so a key's sorted ids are its sorted
    states, and sorting (id, witness) pairs orders a value as (state,
    witness) pairs would.  The loop order and first-wins are those of the
    direct loop, which drops an arrangement with a None pair, and a new
    key's witness is the union of its matched classes' sets, so every key
    decodes to the direct loop's key and the table is the same entry by
    entry.
    """
    lifted_x, count_x, tx = _qcol_side(g, cut, x, q)
    lifted_y, count_y, ty = _qcol_side(g, cut, y, q)
    coset_sig = cut.coset_sig
    pairs = [[None] * count_x for _ in range(count_y)]
    witness: dict[tuple[int, _Sig], int] = {}
    for up_x, cross_xy, xs in lifted_x:
        for up_y, cross_yx, ys in lifted_y:
            up = up_x ^ up_y
            for i_y, sy, ey in ys:
                ey ^= sy & cross_xy
                row = pairs[i_y]
                for i_x, sx, ex in xs:
                    sig = coset_sig(sx | sy, ex ^ sx & cross_yx | ey)
                    if sig is not None:
                        st = row[i_x] = (up, sig)
                        witness.setdefault(st, sx | sy)
    states = sorted(witness.items())
    ids = {st: i for i, (st, _) in enumerate(states)}
    pairs = [list(map(ids.get, row)) for row in pairs]
    second = itemgetter(1)
    vals_x = list(tx.values())
    columns = list(zip(*tx))  # the x keys' ids at each position
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for keyy, valy in ty.items():
        for order in _distinct_orders(keyy):
            ids_at = [map(pairs[keyy[j]].__getitem__, col) for j, col in zip(order, columns)]
            for key_ids, valx in zip(zip(*ids_at), vals_x):
                if None in key_ids:
                    continue
                key = tuple(sorted(key_ids))
                if key not in table:
                    val = map(or_, valx, map(valy.__getitem__, order))
                    table[key] = tuple(map(second, sorted(zip(key_ids, val))))
    return states, table


def _run(g: Graph, t: DecompositionTree, kind: str, q: int = 0, collect=None):
    """Bottom-up sweep over the joins; returns the root table, or the first
    table that holds no entry.  A q-coloring table is ``(states, table)``.

    A leaf is not a node of the sweep, and `cut_walk` yields none: it gets
    no cut and no table, and a join takes a leaf child's side straight
    from u's row at the join's cut (`_leaf_side`, read by `_subset_side`
    and `_qcol_side`).  A one-vertex tree has no join, and its root table
    is its leaf's side over no cut.

    An isolated vertex empties every tds and q-coloring table at once: no
    set covers it oddly, and no odd class holds it.  So such a run returns
    its empty table before the sweep and builds no cut: it runs no join
    that could not change the answer, and no leaf side has to stand for an
    empty table.

    `collect`, if a dict, receives {node: (cut, table)} for each join.
    """
    t.validate_for(g)
    qcol = kind == "qcol"
    if kind in ("tds", "qcol") and not all(g.adj):
        return ([], {}) if qcol else {}
    leaf_vertex = t.leaf_vertex
    if t.root in leaf_vertex:
        return {up: group for up, _, group in _leaf_side(g, None, leaf_vertex[t.root], kind)[3]}
    full = g.full_mask
    joined: dict[int, tuple] = {}  # node -> (cut, table) until its parent joins
    for node, a_mask, a_bd, _ in cut_walk(g, t):
        cut = _NodeCut(g, a_mask, a_bd, full & ~a_mask)
        x, y = t.children[node]
        x = leaf_vertex[x] if x in leaf_vertex else joined.pop(x)
        y = leaf_vertex[y] if y in leaf_vertex else joined.pop(y)
        if qcol:
            tab = _join_table_qcol(g, cut, x, y, q)
        else:
            tab = _join_table(g, cut, x, y, kind)
        joined[node] = cut, tab
        if collect is not None:
            collect[node] = (cut, tab)
        if not (tab[1] if qcol else tab):
            return tab
    return joined[t.root][1]


def _extract_subset(root_table) -> tuple[int, int] | None:
    """The root table's entry, or None.  At the root the cut is (V, {}): the
    code is 0 and the signature is 0 or None, so the table holds at most
    one entry."""
    for group in root_table.values():
        for s in group.values():
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
    _, root_table = _run(g, t, "qcol", q=min(q, g.n))
    if not root_table:
        return None
    val = next(iter(root_table.values()))
    # number the nonempty classes by first use: the table's class order is
    # the order of class states, which says nothing at the root
    classes = sorted((s for s in val if s), key=lambda s: s & -s)
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
