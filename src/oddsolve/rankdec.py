"""Rank decompositions: rooted binary decomposition trees and cut bases.

A decomposition tree is a full binary tree whose leaves are the graph
vertices.  Every node w induces the cut (V_w, V \\ V_w) where V_w is the set
of leaf vertices below w; the width of the tree is the maximum GF(2) rank of
the bipartite adjacency matrix across any of these cuts.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterator

from ._frozen import Frozen
from .gf2 import row_basis, single_row_basis
from .graph import Graph, GraphError, vertices_of

__all__ = [
    "AUTO_METHODS",
    "CutBasis",
    "DecompositionTree",
    "METHODS",
    "TreeFormatError",
    "auto_tree",
    "caterpillar",
    "cut_rank",
    "cut_walk",
    "elimination_tree",
    "heuristic_order",
    "optimal_linear",
    "parse_tree",
    "width",
    "write_tree",
]


class TreeFormatError(ValueError):
    """Malformed decomposition-tree document or invalid tree structure."""


class DecompositionTree(Frozen):
    """Rooted full binary tree; leaves carry graph vertices."""

    __slots__ = ("children", "leaf_vertex", "root")
    children: dict[int, tuple[int, int]]
    leaf_vertex: dict[int, int]
    root: int

    def __init__(self, children: dict[int, tuple[int, int]] | None = None,
                 leaf_vertex: dict[int, int] | None = None, root: int = 0) -> None:
        Frozen.__init__(self, {} if children is None else children,
                        {} if leaf_vertex is None else leaf_vertex, root)
        dup = self.children.keys() & self.leaf_vertex.keys()
        if dup:
            raise TreeFormatError(f"node ids both internal and leaf: {sorted(dup)}")
        ids = self.children.keys() | self.leaf_vertex.keys()
        if self.root not in ids:
            raise TreeFormatError(f"root id {self.root} is not a node")
        if len(set(self.leaf_vertex.values())) != len(self.leaf_vertex):
            raise TreeFormatError("duplicate leaf vertices")
        # walk from the root: every node reached exactly once, no danglers
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node in seen:
                raise TreeFormatError(f"node {node} reached twice (shared or cyclic)")
            seen.add(node)
            if node in self.children:
                left, right = self.children[node]
                for child in (left, right):
                    if child not in ids:
                        raise TreeFormatError(f"node {node} references unknown child {child}")
                stack.append(right)
                stack.append(left)
        if seen != ids:
            raise TreeFormatError(f"unreachable nodes: {sorted(ids - seen)}")

    def postorder(self) -> list[int]:
        """Node ids with children before parents, left subtree first."""
        out: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node in self.leaf_vertex:
                out.append(node)
                continue
            left, right = self.children[node]
            stack.append((node, True))
            stack.append((right, False))
            stack.append((left, False))
        return out

    def leaf_masks(self) -> dict[int, int]:
        """Vertex bitmask below each node."""
        masks: dict[int, int] = {}
        for node in self.postorder():
            if node in self.leaf_vertex:
                masks[node] = 1 << self.leaf_vertex[node]
            else:
                left, right = self.children[node]
                masks[node] = masks[left] | masks[right]
        return masks

    def validate_for(self, g: Graph) -> None:
        """Check that leaves biject onto the graph's vertices.  The error
        names the two counts and one vertex, 1-indexed as in a tree file."""
        got = sorted(self.leaf_vertex.values())
        if got == list(range(g.n)):
            return
        out = next((v for v in got if not 0 <= v < g.n), None)
        if out is not None:
            why = f"vertex {out + 1} is out of range 1..{g.n}"
        else:  # distinct and in range, so some vertex has no leaf
            missing = next((i for i, v in enumerate(got) if v != i), len(got))
            why = f"vertex {missing + 1} has no leaf"
        raise TreeFormatError(f"tree has {len(got)} leaves for {g.n} vertices; {why}")


class CutBasis:
    """Deterministic row basis for one cut (A, B) of a graph.

    Rows of side A are the neighborhoods of A-vertices restricted to B (ints
    over the full vertex range; B-columns only can be set).  The basis picks
    the earliest independent vertices, so codes are canonical.  Every row of
    M[A, B] is a combination of the basis rows, and that combination is its
    code, so this one basis also classifies what B sees of A.

    Only a boundary vertex (one with a neighbor across the cut) has a nonzero
    row, and a zero row never enters an earliest basis, so the basis is built
    from ∂A alone, in vertex order.  The one constructor takes A, ∂A and B
    from its caller.  It has two builders: `cut_rank`, which works out ∂A
    and B for one cut, and the DP sweep, whose cut at each join
    (`dp._NodeCut`) is a `CutBasis` over the ∂A and A that `cut_walk`
    yields for that join; no leaf gets one.

    With at most one boundary vertex no elimination is needed: an empty ∂A
    gives rank 0 and the empty basis, and ∂A = {v} gives the basis (v,),
    since v's row is nonzero.  `single_row_basis` gives the basis that
    `row_basis` would, so codes are the same on either path.
    """

    __slots__ = ("a", "b", "a_boundary", "_adj", "a_dec", "a_basis_vertices", "rank")

    def __init__(self, g: Graph, a: int, a_boundary: int, b: int) -> None:
        self.a = a
        self.b = b
        self.a_boundary = a_boundary
        self._adj = adj = g.adj
        if a_boundary & (a_boundary - 1):
            a_vertices = vertices_of(a_boundary)
            self.a_dec = row_basis([adj[v] & b for v in a_vertices])
            self.a_basis_vertices = tuple(a_vertices[i] for i in self.a_dec.basis_row_indices)
        elif a_boundary:
            v = a_boundary.bit_length() - 1
            self.a_dec = single_row_basis(adj[v] & b)
            self.a_basis_vertices = (v,)
        else:
            self.a_dec = single_row_basis(0)
            self.a_basis_vertices = ()
        self.rank = len(self.a_basis_vertices)

    def a_code(self, mask: int) -> int:
        """Representative code of a subset of A (bits over a_basis_vertices)."""
        acc = 0
        for v in vertices_of(mask & self.a_boundary):
            acc ^= self._adj[v]
        code = self.a_dec.coordinates(acc & self.b)
        assert code is not None, "subset row must lie in the side's row space"
        return code


def _a_boundary(g: Graph, a: int, b: int) -> int:
    """∂A of the cut (A, B), scanning only the smaller side."""
    near = 0
    if a.bit_count() <= b.bit_count():
        for v in vertices_of(a):
            if g.adj[v] & b:
                near |= 1 << v
    else:
        for w in vertices_of(b):
            near |= g.adj[w] & a
    return near


def cut_rank(g: Graph, a_mask: int) -> CutBasis:
    """Cut basis (with .rank) for the cut (a_mask, complement)."""
    if a_mask < 0 or a_mask & ~g.full_mask:
        raise GraphError("cut side contains vertices outside the graph")
    b = g.full_mask & ~a_mask
    return CutBasis(g, a_mask, _a_boundary(g, a_mask, b), b)


def cut_walk(g: Graph, t: DecompositionTree) -> Iterator[tuple[int, int, int, int]]:
    """(node, A, ∂A, ∂B) for every join of `t`, children before parents.

    A is the vertex set below the join and ∂A, ∂B the vertices on each side
    with a neighbor across the cut (A, V \\ A).  The walk carries N(A), the
    union of the children's neighborhoods, so ∂B = N(A) \\ A; and ∂A is the
    part of ∂A_x ∪ ∂A_y that still sees outside A.  A join costs time in its
    children's boundaries, never in |V|.  A leaf is never yielded: its cut
    ({u}, V \\ {u}) is fixed by u's row, so it only puts ({u}, N(u), ∂A) in
    the walk's pending map, with ∂A = {u} if u has a neighbor and {} if not,
    for its parent's step to pop.  A one-vertex tree yields nothing.  The
    caller validates `t`.
    """
    adj = g.adj
    full = g.full_mask
    leaf_vertex = t.leaf_vertex
    pending: dict[int, tuple[int, int, int]] = {}  # node -> (A, N(A), ∂A)
    for node in t.postorder():
        if node in leaf_vertex:
            v = leaf_vertex[node]
            pending[node] = (1 << v, adj[v], 1 << v if adj[v] else 0)
            continue
        x, y = t.children[node]
        ax, nx, bdx = pending.pop(x)
        ay, ny, bdy = pending.pop(y)
        a = ax | ay
        nbhd = nx | ny
        b = full & ~a
        a_bd = 0
        for v in vertices_of(bdx | bdy):
            if adj[v] & b:
                a_bd |= 1 << v
        pending[node] = (a, nbhd, a_bd)
        yield node, a, a_bd, nbhd & ~a


def width(g: Graph, t: DecompositionTree, stop_at: int | None = None) -> int:
    """Maximum cut rank over the tree, each rank from the smaller boundary.

    A leaf's cut ({u}, V \\ {u}) has rank 1 if u has a neighbor and 0 if
    not, so the leaves' rank is 1 exactly when the graph has an edge, and
    only the joins that `cut_walk` yields are ranked.  A cut with at most
    one vertex on either boundary needs no elimination: its rank is 1 if an
    edge crosses it (∂A nonempty) and 0 otherwise, as a single vertex's row
    across the cut is nonzero.

    With `stop_at`, the walk ends once the rank so far reaches it: the
    result is exact when below `stop_at`, else some rank >= `stop_at`.
    """
    t.validate_for(g)
    adj = g.adj
    best = 1 if g.m else 0
    for _, a, a_bd, b_bd in cut_walk(g, t):
        if stop_at is not None and best >= stop_at:
            break
        if not (a_bd & (a_bd - 1) and b_bd & (b_bd - 1)):
            rank = 1 if a_bd else 0
        elif a_bd.bit_count() <= b_bd.bit_count():
            rank = row_basis(adj[v] & ~a for v in vertices_of(a_bd)).rank
        else:
            rank = row_basis(adj[w] & a for w in vertices_of(b_bd)).rank
        best = max(best, rank)
    return best


def caterpillar(g: Graph, order: list[int]) -> DecompositionTree:
    """Left-comb tree whose leaves follow `order` (a permutation of V)."""
    if sorted(order) != list(range(g.n)):
        raise GraphError("order must be a permutation of the vertices")
    if g.n == 0:
        raise GraphError("empty graph has no decomposition tree")
    leaf_vertex = {i: order[i] for i in range(g.n)}
    if g.n == 1:
        return DecompositionTree({}, leaf_vertex, 0)
    children: dict[int, tuple[int, int]] = {}
    spine = 0
    nxt = g.n
    for i in range(1, g.n):
        children[nxt] = (spine, i)
        spine = nxt
        nxt += 1
    return DecompositionTree(children, leaf_vertex, spine)


def elimination_tree(g: Graph) -> DecompositionTree:
    """Binary tree from a greedy min-degree elimination order.

    Vertices are eliminated by least degree in the fill graph, ties toward
    the smaller vertex.  A vertex's parent is the earliest eliminated member
    of its higher neighbourhood (its fill-graph neighbours when eliminated),
    and each finished subtree is joined onto its parent's cluster; the roots
    of this elimination forest are chained last.  A cut is then a vertex
    with some of its child subtrees, or whole components, so the width is
    at most 1 + the largest higher neighbourhood.  A forest gets no fill,
    so its width is 1 (0 without edges).
    """
    n = g.n
    if n == 0:
        raise GraphError("empty graph has no decomposition tree")
    fill = list(g.adj)
    heap = [(row.bit_count(), v) for v, row in enumerate(fill)]
    heapq.heapify(heap)
    alive = g.full_mask
    order: list[int] = []
    higher = [0] * n
    while heap:
        deg, v = heapq.heappop(heap)
        if not alive >> v & 1 or deg != fill[v].bit_count():
            continue  # eliminated already, or a stale degree
        alive ^= 1 << v
        order.append(v)
        higher[v] = nbhd = fill[v]
        for u in vertices_of(nbhd):
            old = fill[u]
            fill[u] = row = (old | nbhd) & ~(1 << u | 1 << v)
            if row.bit_count() != old.bit_count():
                heapq.heappush(heap, (row.bit_count(), u))
    pos = {v: i for i, v in enumerate(order)}
    cluster = list(range(n))  # leaf id v carries vertex v
    children: dict[int, tuple[int, int]] = {}
    roots: list[int] = []
    for v in order:
        if not higher[v]:
            roots.append(cluster[v])
            continue
        parent = min(vertices_of(higher[v]), key=pos.__getitem__)
        node = n + len(children)
        children[node] = (cluster[parent], cluster[v])
        cluster[parent] = node
    spine = roots[0]
    for r in roots[1:]:
        node = n + len(children)
        children[node] = (spine, r)
        spine = node
    return DecompositionTree(children, {v: v for v in range(n)}, spine)


def auto_tree(g: Graph) -> tuple[DecompositionTree, str, int]:
    """(tree, METHODS name, width): the AUTO_METHODS caterpillar, or the
    candidate when that is strictly narrower.

    A width-1 caterpillar cannot be beaten, so the candidate is not built.
    Ties keep the caterpillar, whose joins examine about 2·|Tₓ| pairs, not
    |Tₓ|·|T_y|.  The caterpillar is ranked only as far as it can still win:
    first up to 2, then, if the candidate has width cw > 1, up to cw + 1.
    The reported width is exact either way.
    """
    cat_name, cand_name = AUTO_METHODS
    t = METHODS[cat_name](g)
    w = width(g, t, stop_at=2)
    if w <= 1:
        return t, cat_name, w
    candidate = METHODS[cand_name](g)
    cw = width(g, candidate)
    if cw > 1:
        w = width(g, t, stop_at=cw + 1)
    if cw < w:
        return candidate, cand_name, cw
    return t, cat_name, w


def heuristic_order(g: Graph, method: str = "bfs") -> list[int]:
    """Leaf order heuristic: 'bfs' from a max-degree root, or 'degree'.

    Components are handled separately, ordered by their smallest vertex, and
    concatenated.  All ties break toward the smaller vertex index.
    """
    if method not in ("bfs", "degree"):
        raise GraphError(f"unknown order heuristic {method!r}")
    order: list[int] = []
    for comp in g.components():
        verts = vertices_of(comp)
        if method == "degree":
            order.extend(sorted(verts, key=lambda v: (-g.degree(v), v)))
            continue
        root = min(verts, key=lambda v: (-g.degree(v), v))
        seen = 1 << root
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in vertices_of(g.adj[u] & comp & ~seen):
                seen |= 1 << v
                queue.append(v)
        order.extend(queue)
    return order


def optimal_linear(g: Graph) -> DecompositionTree:
    """Caterpillar of minimum width (exact linear rank-width), n <= 20.

    Subset DP over prefix sets; exponential, intended for small instances.
    """
    if g.n > 20:
        raise GraphError(f"optimal_linear is capped at n <= 20, got {g.n}")
    if g.n == 0:
        raise GraphError("empty graph has no decomposition tree")
    n = g.n
    full = (1 << n) - 1
    f = [0] * (full + 1)
    choice = [0] * (full + 1)
    adj = g.adj
    for s in range(1, full + 1):
        best_v = -1
        best = None
        rest = s
        while rest:
            low = rest & -rest
            sub = f[s ^ low]
            if best is None or sub < best:
                best = sub
                best_v = low.bit_length() - 1
            rest ^= low
        cr = row_basis(adj[v] & ~s for v in vertices_of(s)).rank
        f[s] = max(cr, best)
        choice[s] = best_v
    seq = [0] * n
    s = full
    for pos in range(n - 1, -1, -1):
        v = choice[s]
        seq[pos] = v
        s ^= 1 << v
    return caterpillar(g, seq)


def parse_tree(text: str) -> DecompositionTree:
    """Parse the line format ``leaf <id> <vertex>`` / ``node <id> <l> <r>`` /
    ``root <id>`` (vertices 1-indexed)."""
    children: dict[int, tuple[int, int]] = {}
    leaf_vertex: dict[int, int] = {}
    root: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            raise TreeFormatError(f"line {lineno}: non-integer field") from None
        if parts[0] == "leaf":
            if len(args) != 2:
                raise TreeFormatError(f"line {lineno}: expected 'leaf <id> <vertex>'")
            node, vertex = args
            if node in children or node in leaf_vertex:
                raise TreeFormatError(f"line {lineno}: duplicate node id {node}")
            if vertex < 1:
                raise TreeFormatError(f"line {lineno}: vertices are 1-indexed")
            leaf_vertex[node] = vertex - 1
        elif parts[0] == "node":
            if len(args) != 3:
                raise TreeFormatError(
                    f"line {lineno}: expected 'node <id> <left> <right>' (binary nodes only)")
            node, left, right = args
            if node in children or node in leaf_vertex:
                raise TreeFormatError(f"line {lineno}: duplicate node id {node}")
            children[node] = (left, right)
        elif parts[0] == "root":
            if len(args) != 1:
                raise TreeFormatError(f"line {lineno}: expected 'root <id>'")
            if root is not None:
                raise TreeFormatError(f"line {lineno}: duplicate root line")
            root = args[0]
        else:
            raise TreeFormatError(f"line {lineno}: unknown line type {parts[0]!r}")
    if root is None:
        raise TreeFormatError("missing root line")
    return DecompositionTree(children, leaf_vertex, root)


def write_tree(t: DecompositionTree) -> str:
    lines = []
    for node in sorted(t.children.keys() | t.leaf_vertex.keys()):
        if node in t.leaf_vertex:
            lines.append(f"leaf {node} {t.leaf_vertex[node] + 1}")
        else:
            left, right = t.children[node]
            lines.append(f"node {node} {left} {right}")
    lines.append(f"root {t.root}")
    return "\n".join(lines) + "\n"


# name -> tree builder, in `decompose --method` order; each builder looks up
# its function when called, so that a monkeypatched module function is seen.
METHODS = {
    "caterpillar-bfs": lambda g: caterpillar(g, heuristic_order(g, "bfs")),
    "caterpillar-degree": lambda g: caterpillar(g, heuristic_order(g, "degree")),
    "min-degree": lambda g: elimination_tree(g),
    "optimal-linear": lambda g: optimal_linear(g),
}
# auto_tree's candidates, in the order it ranks them
AUTO_METHODS = ("caterpillar-bfs", "min-degree")
