"""Undirected simple graphs over vertices 0..n-1 with bitmask adjacency rows.

Vertex sets are plain ints used as bitmasks (bit v set <=> vertex v in the
set), which keeps the GF(2) arithmetic in the rest of the package down to
xor/and on ints.  Files use the 1-indexed DIMACS edge format; everything in
memory is 0-indexed.
"""
from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator

from ._frozen import Frozen

__all__ = [
    "Graph",
    "GraphError",
    "gen_family",
    "mask_lex_less",
    "mask_of",
    "parse_graph",
    "vertices_of",
    "write_graph",
]

# The largest vertex count a graph document may declare or `gen` may build.
# A row is an int as wide as its highest neighbor, so a path holds about
# n^2/2 bits of rows and a star centred on its last vertex n^2 bits: memory
# grows fourfold per doubling of n.  At 2^16 vertices `gen family path`
# peaked at 301 MB RSS and a parsed star at 576 MB (Python 3.11, x86-64),
# so 2^20 would need about 70 GB.  The bound also keeps a hostile `p edge`
# line from allocating its count before an edge.
MAX_VERTICES = 1 << 16
# The most vertex pairs `gen` builds or walks for a clique or a random graph;
# quadratic in n, so far below what MAX_VERTICES alone would let through.
MAX_EDGES = 1 << 22

FAMILIES = (
    "k222",
    "c5plus",
    "kn-subdivided",
    "hn-split",
    "path",
    "cycle",
    "clique",
    "star",
)


class GraphError(ValueError):
    """Malformed graph document or invalid graph operation."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_lex_less(a: int, b: int) -> bool:
    """Order vertex sets by their sorted vertex lists ({0,3} < {1,2}).

    The set owning the smallest vertex in the symmetric difference is the
    smaller one; on equality a shorter prefix wins, which coincides with
    "subset of the other containing the low vertices".
    """
    if a == b:
        return False
    d = a ^ b
    low = d & -d
    return bool(a & low)


class Graph(Frozen):
    """Immutable simple graph: vertex count, adjacency bitmask per vertex."""

    __slots__ = ("n", "adj", "m")
    n: int
    adj: tuple[int, ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, collapsing duplicate edges and rejecting loops."""
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        adj = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if adj[u] >> v & 1:
                warnings.warn(f"duplicate edge ({u}, {v}) collapsed", stacklevel=2)
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            m += 1
        return cls(n, tuple(adj), m)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            base = u + 1
            for v in vertices_of(self.adj[u] >> base):
                yield (u, base + v)

    def components(self, within: int | None = None) -> list[int]:
        """Connected component vertex masks, ordered by smallest vertex: of
        the whole graph, or of the subgraph induced on the mask `within`."""
        if within is None:
            within = self.full_mask
        adj = self.adj
        seen = bytearray(self.n)
        out = []
        # `within`'s binary digits, low vertex first, give each vertex's
        # membership in one pass, with no n-bit shift per vertex
        for v, bit in enumerate(bin(within)[:1:-1]):
            if bit == "0" or seen[v]:
                continue
            seen[v] = 1
            comp = 1 << v
            frontier = adj[v] & within  # v has no loop, so it is not in its row
            while frontier:
                comp |= frontier
                nxt = 0
                for u in vertices_of(frontier):
                    seen[u] = 1
                    nxt |= adj[u]
                frontier = nxt & within & ~comp
            out.append(comp)
        return out

    def induced(self, mask: int) -> tuple["Graph", list[int]]:
        """Induced subgraph on `mask` plus the new->old vertex map."""
        verts = vertices_of(mask)
        index = {v: i for i, v in enumerate(verts)}
        edges = []
        for i, v in enumerate(verts):
            for u in vertices_of(self.adj[v] & mask):
                if u > v:
                    edges.append((i, index[u]))
        return Graph.from_edges(len(verts), edges), verts

    def complement(self) -> "Graph":
        full = self.full_mask
        adj = tuple(full & ~self.adj[v] & ~(1 << v) for v in range(self.n))
        m = sum(a.bit_count() for a in adj) // 2
        return Graph(self.n, adj, m)


def parse_graph(text: str) -> Graph:
    """Parse a DIMACS edge document (``p edge n m``, ``e u v``, 1-indexed)."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer problem line") from None
            if n < 0 or declared_m < 0:
                raise GraphError(f"line {lineno}: negative counts")
            if n > MAX_VERTICES:
                raise GraphError(f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer endpoints") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise GraphError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphError(f"line {lineno}: unknown line type {parts[0]!r}")
    if n is None:
        raise GraphError("missing problem line")
    g = Graph.from_edges(n, edges)
    if declared_m != g.m:
        warnings.warn(f"declared m={declared_m} but document has {g.m} distinct edges",
                      stacklevel=2)
    return g


def write_graph(g: Graph) -> str:
    """Serialize to DIMACS edge format; edges 1-indexed, u < v, ascending.

    One walk per adjacency row: the row is shifted below u + 1 away and its
    bits are peeled lowest first, each straight into an ``e u v`` line.  The
    walk stays here rather than going through `Graph.edges()`: on a
    relabeled P2000 the writer took 1.3 ms through `edges()`, 1.0 ms through
    an `edges()` generator doing this same walk, and 0.75 ms inline (in
    process, Python 3.11, 2-core x86 VM), so a generator's per-edge tuple
    and resume give back most of the gain.
    """
    lines = [f"p edge {g.n} {g.m}"]
    append = lines.append
    for u, row in enumerate(g.adj, 1):
        row >>= u  # bit b is now 1-indexed vertex u + 1 + b
        while row:
            low = row & -row
            append(f"e {u} {u + low.bit_length()}")
            row ^= low
    return "\n".join(lines) + "\n"


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _clique(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def _k222() -> Graph:
    parts = [(0, 1), (2, 3), (4, 5)]
    edges = []
    for i in range(3):
        for j in range(i + 1, 3):
            edges.extend((a, b) for a in parts[i] for b in parts[j])
    return Graph.from_edges(6, edges)


def _c5plus() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)]
    return Graph.from_edges(5, edges)


def subdivided_clique_edges(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """Edge list of the once-subdivided K_n plus the pair -> new-vertex map."""
    sub = {}
    edges = []
    nxt = n
    for i in range(n):
        for j in range(i + 1, n):
            sub[(i, j)] = nxt
            edges.append((i, nxt))
            edges.append((j, nxt))
            nxt += 1
    return edges, sub


def _check_order(n: int) -> None:
    """Refuse a generated vertex count that parse_graph would refuse."""
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def _check_pairs(n: int) -> None:
    """Refuse a vertex count whose n(n - 1)/2 vertex pairs exceed MAX_EDGES,
    before a clique, or a loop over every pair, is started."""
    pairs = n * (n - 1) // 2
    if pairs > MAX_EDGES:
        raise GraphError(f"{n} vertices give {pairs} vertex pairs, over the limit of {MAX_EDGES}")


def gen_family(name: str, n: int | None = None) -> Graph:
    """Construct a named graph family member.

    ``k222`` and ``c5plus`` are fixed graphs (n ignored); ``kn-subdivided``
    and ``hn-split`` require even n >= 2; the rest take the vertex count.
    """
    if name == "k222":
        return _k222()
    if name == "c5plus":
        return _c5plus()
    if name in ("kn-subdivided", "hn-split"):
        if n is None or n < 2:
            raise GraphError(f"{name} needs n >= 2")
        if n % 2:
            raise GraphError(f"{name} needs even n, got {n}")
        order = n + n * (n - 1) // 2
        _check_order(order)
        edges, _ = subdivided_clique_edges(n)
        if name == "hn-split":
            edges += [(i, j) for i in range(n) for j in range(i + 1, n)]
        return Graph.from_edges(order, edges)
    if name in ("path", "cycle", "clique", "star"):
        if n is None or n < 1:
            raise GraphError(f"{name} needs n >= 1")
        _check_order(n)
        if name == "clique":
            _check_pairs(n)
        return {"path": _path, "cycle": _cycle, "clique": _clique, "star": _star}[name](n)
    raise GraphError(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
