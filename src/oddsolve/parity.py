"""Polynomial-time parity partition and orientation routines.

Everything reduces to small GF(2) linear systems (one variable per vertex)
or to a single spanning-tree sweep; free variables are fixed to 0, so all
outputs are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gf2 import solve
from .graph import Graph, GraphError, vertices_of

__all__ = [
    "CographFailure",
    "JoinBoundResult",
    "Orientation",
    "TwoColoring",
    "cograph_odd_3_coloring",
    "even_two_coloring",
    "gallai_even_even",
    "gallai_odd_even",
    "join_bound_floor",
    "join_bound_subgraph",
    "odd_orientation",
    "odd_two_coloring",
    "orientation_obstruction",
]


@dataclass(frozen=True)
class TwoColoring:
    """2-class vertex coloring."""

    colors: tuple[int, ...]                      # class 0 or 1 per vertex

    def class_mask(self, cls: int) -> int:
        m = 0
        for v, c in enumerate(self.colors):
            if c == cls:
                m |= 1 << v
        return m


def _vertex_system(g: Graph, self_extra: int, rhs_extra: int) -> int | None:
    """Solve the n x n parity system behind every 2-part routine, or None.

    x_v is v's class (1 puts v in part A).  v's degree inside its own class
    is deg(v) + sum of x_u over N(v) + deg(v) * x_v  (mod 2): with x_v = 0
    it counts the neighbours with x_u = 0, with x_v = 1 those with x_u = 1.
    Row v is therefore N(v), plus bit v when deg(v) + self_extra is odd, and
    its right side is deg(v) + rhs_extra.  With self_extra 0 the row asks
    v's own-class degree to have parity rhs_extra; with self_extra 1 it asks
    A-degree 1 for v in A and B-degree 0 for v in B (Gallai's odd/even).
    The matrix is symmetric, so its rows are also the columns `solve` takes.
    """
    rows = []
    rhs = 0
    for v in range(g.n):
        row = g.adj[v]
        if (g.degree(v) + self_extra) & 1:
            row |= 1 << v
        rows.append(row)
        if (g.degree(v) + rhs_extra) & 1:
            rhs |= 1 << v
    return solve(rows, rhs)


def odd_two_coloring(g: Graph) -> TwoColoring | None:
    """Partition into <= 2 classes, each inducing an odd subgraph, or None."""
    x = _vertex_system(g, self_extra=0, rhs_extra=1)
    return None if x is None else TwoColoring(tuple(x >> v & 1 for v in range(g.n)))


def even_two_coloring(g: Graph) -> TwoColoring:
    """Partition into <= 2 classes, each inducing an even subgraph.

    Its system is `gallai_even_even`'s, so class 1 is that partition's A.
    """
    a, _ = gallai_even_even(g)
    return TwoColoring(tuple(a >> v & 1 for v in range(g.n)))


def _gallai(g: Graph, self_extra: int) -> tuple[int, int]:
    x = _vertex_system(g, self_extra, rhs_extra=0)
    if x is None:
        raise RuntimeError("internal error: Gallai partition system infeasible")
    return x, g.full_mask & ~x


def gallai_odd_even(g: Graph) -> tuple[int, int]:
    """(A, B) with G[A] odd and G[B] even; always exists."""
    return _gallai(g, self_extra=1)


def gallai_even_even(g: Graph) -> tuple[int, int]:
    """(A, B) with both induced parts even; always exists."""
    return _gallai(g, self_extra=0)


@dataclass(frozen=True)
class Orientation:
    """Edge orientations as (tail, head) arcs, one per edge in edge order."""

    arcs: tuple[tuple[int, int], ...]


def orientation_obstruction(g: Graph) -> int | None:
    """Mask of the first component with odd |V_c| + |E_c|, or None."""
    for comp in g.components():
        edges_inside = sum((g.adj[v] & comp).bit_count() for v in vertices_of(comp)) // 2
        if (comp.bit_count() + edges_inside) & 1:
            return comp
    return None


def odd_orientation(g: Graph) -> Orientation | None:
    """Orientation with every in-degree odd, or None if any component forbids.

    Exists iff |V_c| + |E_c| is even for every component.  Non-tree edges are
    oriented low->high; a leaves-to-root sweep of a BFS tree fixes parities.
    """
    if orientation_obstruction(g) is not None:
        return None
    head: dict[tuple[int, int], int] = {}
    indeg = [0] * g.n
    for comp in g.components():
        root = (comp & -comp).bit_length() - 1
        parent: dict[int, int] = {root: -1}
        order = [root]
        seen = 1 << root
        i = 0
        while i < len(order):
            u = order[i]
            i += 1
            for v in vertices_of(g.adj[u] & comp & ~seen):
                seen |= 1 << v
                parent[v] = u
                order.append(v)
        tree = {(min(v, p), max(v, p)) for v, p in parent.items() if p >= 0}
        for u in order:
            for v in vertices_of(g.adj[u] & comp):
                if u < v and (u, v) not in tree:
                    head[(u, v)] = v
                    indeg[v] += 1
        for v in reversed(order):
            p = parent[v]
            if p < 0:
                continue
            e = (min(v, p), max(v, p))
            if indeg[v] & 1:
                head[e] = p
                indeg[p] += 1
            else:
                head[e] = v
                indeg[v] += 1
        assert indeg[root] & 1, "component parity must leave the root odd"
    arcs = []
    for u, v in g.edges():
        h = head[(u, v)]
        arcs.append((u if h == v else v, h))
    return Orientation(tuple(arcs))


@dataclass(frozen=True)
class JoinBoundResult:
    subgraph: int                        # vertex mask inducing an odd subgraph
    coloring: tuple[int, ...] | None     # classes 0..2 over all of V when n is even


def join_bound_floor(n: int) -> int:
    """Guaranteed odd-subgraph order for an n-vertex graph with a join."""
    return 2 * ((n - 2 + 3) // 4) if n >= 2 else 0


def _check_join(g: Graph, v1: int, v2: int) -> None:
    if not v1 or not v2:
        raise GraphError("join sides must be nonempty")
    if v1 & v2:
        raise GraphError("join sides overlap")
    if (v1 | v2) != g.full_mask:
        raise GraphError("join sides must cover every vertex")
    for u in vertices_of(v1):
        if g.adj[u] & v2 != v2:
            missing = (v2 & ~g.adj[u]).bit_length() - 1
            raise GraphError(f"not a join: missing edge ({u}, {missing})")


def _case_odd_odd(g: Graph, v1: int, v2: int) -> tuple[int, int]:
    """Both sides odd order: two classes from the odd/even Gallai partitions.

    Class 0 unions the even-inducing parts (odd sizes, so the join makes the
    cross degrees odd); class 1 unions the odd-inducing parts.  The classes
    cover v1 | v2, which need not be all of g.
    """
    class0 = 0
    class1 = 0
    for side in (v1, v2):
        sub, verts = g.induced(side)
        odd_local, even_local = gallai_odd_even(sub)
        for i, v in enumerate(verts):
            if odd_local >> i & 1:
                class1 |= 1 << v
            else:
                class0 |= 1 << v
    return class0, class1


def join_bound_subgraph(g: Graph, v1: int, v2: int) -> JoinBoundResult:
    """Odd induced subgraph of order >= 2*ceil((n-2)/4) from a join (v1, v2).

    For even n also returns a full <=3-class odd coloring; for odd n the odd
    chromatic number is undefined, so only the subgraph is produced.
    """
    _check_join(g, v1, v2)
    # drop vertices until both sides have odd order: for odd n the lowest
    # vertex of the even-order side, for even n with even sides the lowest
    # vertex of each, which then form class 2
    if g.n % 2:
        even_side = v2 if v1.bit_count() % 2 else v1
        drop = even_side & -even_side
    elif v1.bit_count() % 2:
        drop = 0
    else:
        drop = (v1 & -v1) | (v2 & -v2)
    class0, class1 = _case_odd_odd(g, v1 & ~drop, v2 & ~drop)
    best = class0 if class0.bit_count() >= class1.bit_count() else class1
    if g.n % 2:
        return JoinBoundResult(best, None)
    colors = [0] * g.n
    for v in vertices_of(class1):
        colors[v] = 1
    for v in vertices_of(drop):
        colors[v] = 2
    return JoinBoundResult(best, tuple(colors))


@dataclass(frozen=True)
class CographFailure:
    reason: str     # "not-cograph" | "odd-component"
    detail: int     # vertex mask of the offending induced subgraph


def _is_cograph(g: Graph, co: Graph, mask: int) -> bool:
    """Cograph test by alternating complement-connectivity, no P4 search.

    `co` is the complement of `g`.  A cograph on two or more vertices is
    disconnected in `g` or in `co`, and its parts are cographs."""
    if mask.bit_count() <= 1:
        return True
    for h in (g, co):
        parts = h.components(mask)
        if len(parts) > 1:
            return all(_is_cograph(g, co, p) for p in parts)
    return False


def cograph_odd_3_coloring(g: Graph) -> tuple[int, ...] | CographFailure:
    """Odd coloring of a cograph with <= 3 classes (classes 0..2).

    Fails as a value when the input is not a cograph or some component has
    odd order (the odd chromatic number is undefined there).
    """
    co = g.complement()
    if not _is_cograph(g, co, g.full_mask):
        for comp in g.components():
            if not _is_cograph(g, co, comp):
                return CographFailure("not-cograph", comp)
        return CographFailure("not-cograph", g.full_mask)
    colors = [0] * g.n
    for comp in g.components():
        if comp.bit_count() & 1:
            return CographFailure("odd-component", comp)
        sub, verts = g.induced(comp)
        cocomps = sub.complement().components()
        v1 = cocomps[0]
        v2 = sub.full_mask & ~v1
        result = join_bound_subgraph(sub, v1, v2)
        assert result.coloring is not None
        for i, v in enumerate(verts):
            colors[v] = result.coloring[i]
    return tuple(colors)
