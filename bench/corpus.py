"""Benchmark corpus: graph families, decomposition orders and pinned answers.

Every graph is generated from a formula, never downloaded.  Vertex labels are
canonical (row/column or heap order); a workload that relabels maps them
through a permutation drawn from the seed, and maps its `--dec` tree file the
same way, so the tree still follows the intended order.  Every pinned value
below is invariant under relabeling.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

Edges = list[tuple[int, int]]


def path(n: int) -> tuple[int, Edges]:
    return n, [(i, i + 1) for i in range(n - 1)]


def grid(rows: int, cols: int) -> tuple[int, Edges]:
    """rows x cols grid, vertex (i, j) labelled j*rows + i (column-major)."""
    edges = []
    for j in range(cols):
        for i in range(rows):
            v = j * rows + i
            if i + 1 < rows:
                edges.append((v, v + 1))
            if j + 1 < cols:
                edges.append((v, v + rows))
    return rows * cols, edges


def binary_forest(trees: int, depth: int) -> tuple[int, Edges]:
    """Disjoint complete binary trees of the given depth, heap-labelled."""
    size = 2 ** (depth + 1) - 1
    edges = [(base + (v - 1) // 2, base + v)
             for base in range(0, trees * size, size) for v in range(1, size)]
    return trees * size, edges


def subdivided_k4_union(copies: int) -> tuple[int, Edges]:
    """Disjoint once-subdivided K4s: 4 branch vertices + 6 subdivision ones."""
    edges = []
    for base in range(0, 10 * copies, 10):
        mid = base + 4
        for i in range(4):
            for j in range(i + 1, 4):
                edges += [(base + i, mid), (base + j, mid)]
                mid += 1
    return 10 * copies, edges


def bfs_order(n: int, edges: Edges) -> list[int]:
    """BFS caterpillar order, frozen here so the tree file never changes.

    Per component (by smallest vertex): start at the highest-degree vertex,
    visit neighbours in label order; ties go to the smaller label.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    order: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        comp, stack = [], [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        for v in comp:
            seen[v] = False
        root = min(comp, key=lambda v: (-len(adj[v]), v))
        seen[root] = True
        queue = [root]
        for u in queue:
            for v in sorted(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        order += queue
    return order


@dataclass(frozen=True)
class GraphSpec:
    """One input graph.  `order` None means the CLI builds its own tree."""

    name: str
    n: int
    edges: Edges
    order: list[int] | None
    relabel: bool


@dataclass(frozen=True)
class Solve:
    """One CLI solve and its pinned answer.

    `expect` is the exact first-line value; None means "feasible with at
    most q classes" (odd-qcol prints the number of classes it used).
    """

    graph: str
    problem: str
    expect: int | None
    q: int | None = None

    @property
    def label(self) -> str:
        return f"{self.graph}/{self.problem}" + (f"-q{self.q}" if self.q else "")


@dataclass(frozen=True)
class Workload:
    graphs: tuple[GraphSpec, ...]
    solves: tuple[Solve, ...]


def grid_spec(rows: int, cols: int) -> GraphSpec:
    n, edges = grid(rows, cols)
    return GraphSpec(f"grid{rows}x{cols}", n, edges, list(range(n)), relabel=True)


def k4_spec(copies: int) -> GraphSpec:
    n, edges = subdivided_k4_union(copies)
    return GraphSpec(f"k4sub{copies}", n, edges, bfs_order(n, edges), relabel=True)


def path_spec(n: int) -> GraphSpec:
    return GraphSpec(f"path{n}", *path(n), order=None, relabel=False)


def forest_spec(trees: int, depth: int) -> GraphSpec:
    return GraphSpec(f"forest{trees}d{depth}", *binary_forest(trees, depth),
                     order=None, relabel=False)


# Pinned (mos, odd-ds) per grid; odd-ds on a grid is the Lights Out /
# sigma-game.  A depth-4 binary tree has mos 24 and odd-ds 11, so a forest of
# k of them has 24k and 11k.
_GRID_PINS = {(5, 20): (80, 27), (6, 15): (66, 24), (7, 12): (62, 23)}
FOREST_TREES = 16

WORKLOADS: dict[str, Workload] = {
    # Width 1, so the joins are trivial: nearly all time is cut setup and
    # the CLI's second pass over every cut rank.
    "path-setup": Workload(
        (path_spec(2000),),
        (Solve("path2000", "mos", 1334),)),
    # Caterpillars of width 5..7 passed via --dec: tables of 3^w keys, time
    # in the subset joins; decomposition building is bypassed.
    "grid-join": Workload(
        tuple(grid_spec(r, c) for r, c in _GRID_PINS),
        tuple(Solve(f"grid{r}x{c}", p, pins[i])
              for (r, c), pins in _GRID_PINS.items()
              for i, p in enumerate(("mos", "odd-ds")))),
    # The q-coloring join, whose keys are q-tuples; chi-odd runs the DP
    # once per q = 1..4.
    "qcol-join": Workload(
        (grid_spec(4, 20), k4_spec(20)),
        (Solve("grid4x20", "odd-qcol", None, q=3),
         Solve("k4sub20", "chi-odd", 4))),
    # Rank-width 1, but the default BFS caterpillar has width 6: the one
    # workload where a better automatic decomposition shows.
    "tree-auto": Workload(
        (forest_spec(FOREST_TREES, 4),),
        (Solve(f"forest{FOREST_TREES}d4", "mos", 24 * FOREST_TREES),
         Solve(f"forest{FOREST_TREES}d4", "odd-ds", 11 * FOREST_TREES))),
}


def relabeled(spec: GraphSpec, seed: int) -> tuple[Edges, list[int] | None]:
    """Edges and tree order after the seed's relabeling (if the spec asks)."""
    if not spec.relabel:
        return spec.edges, spec.order
    perm = list(range(spec.n))
    random.Random(f"{seed}/{spec.name}").shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in spec.edges]
    order = None if spec.order is None else [perm[v] for v in spec.order]
    return edges, order
