"""Shared test helpers.

The check_* functions recount degrees from the edge list on purpose: they
must stay independent of the bitset shortcuts inside the package so that a
bug there cannot hide itself.

With `CI` set in the environment (GitHub Actions sets it), Hypothesis runs
derandomized and without a deadline: a fuzz failure then reproduces on the
next run, and a slow `-X dev` runner cannot fail a test on time alone.
"""
from __future__ import annotations

import os
import random
from itertools import combinations, permutations

from hypothesis import settings

from oddsolve.graph import Graph
from oddsolve.rankdec import DecompositionTree

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def rand_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth, heap-labelled."""
    n = (1 << depth + 1) - 1
    return Graph.from_edges(n, [(v, (v - 1) // 2) for v in range(1, n)])


def random_tree(g: Graph, rng: random.Random) -> DecompositionTree:
    """Random bracketing of a shuffled vertex order: split every block at a
    uniformly random point, so internal nodes often have two internal
    children (a caterpillar never does)."""
    order = list(range(g.n))
    rng.shuffle(order)
    leaf_vertex = dict(enumerate(order))
    children: dict[int, tuple[int, int]] = {}

    def build(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return lo
        mid = rng.randrange(lo + 1, hi)
        pair = (build(lo, mid), build(mid, hi))
        node = g.n + len(children)
        children[node] = pair
        return node

    root = build(0, g.n)
    return DecompositionTree(children, leaf_vertex, root)


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def _canon(g: Graph) -> tuple:
    """Lexicographically smallest adjacency encoding over all relabelings."""
    pairs = list(combinations(range(g.n), 2))
    best = None
    for perm in permutations(range(g.n)):
        code = tuple(1 if g.adj[perm[u]] >> perm[v] & 1 else 0 for u, v in pairs)
        if best is None or code < best:
            best = code
    return best


def nonisomorphic_graphs(n: int, connected_only: bool = False) -> list[Graph]:
    seen = {}
    for g in all_labeled_graphs(n):
        if connected_only and not _is_connected(g):
            continue
        seen.setdefault(_canon(g), g)
    return list(seen.values())


def _is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    reach = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(g.n):
            if g.adj[u] >> v & 1 and v not in reach:
                reach.add(v)
                frontier.append(v)
    return len(reach) == g.n


def degrees_within(g: Graph, mask: int) -> dict[int, int]:
    """Degree of each mask vertex in the induced subgraph, from the edge list."""
    inside = [v for v in range(g.n) if mask >> v & 1]
    deg = {v: 0 for v in inside}
    for u, v in g.edges():
        if mask >> u & 1 and mask >> v & 1:
            deg[u] += 1
            deg[v] += 1
    return deg


def check_odd_set(g: Graph, mask: int) -> bool:
    return all(d % 2 == 1 for d in degrees_within(g, mask).values())


def check_even_set(g: Graph, mask: int) -> bool:
    return all(d % 2 == 0 for d in degrees_within(g, mask).values())


def check_odd_coloring(g: Graph, colors, budget: int) -> bool:
    if colors is None or len(colors) != g.n:
        return False
    if any(not 0 <= c < budget for c in colors):
        return False
    for cls in set(colors):
        mask = sum(1 << v for v in range(g.n) if colors[v] == cls)
        if not check_odd_set(g, mask):
            return False
    return True


def coverage(g: Graph, v: int, mask: int) -> int:
    """|N(v) ∩ mask| recounted from the edge list."""
    count = 0
    for a, b in g.edges():
        if a == v and mask >> b & 1:
            count += 1
        elif b == v and mask >> a & 1:
            count += 1
    return count


def check_odd_ds(g: Graph, mask: int) -> bool:
    return all(mask >> v & 1 or coverage(g, v, mask) % 2 == 1 for v in range(g.n))


def check_odd_tds(g: Graph, mask: int) -> bool:
    return all(coverage(g, v, mask) % 2 == 1 for v in range(g.n))
