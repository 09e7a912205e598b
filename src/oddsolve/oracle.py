"""Brute-force reference solvers, used as ground truth in tests.

The subset routines enumerate candidate solutions outright, stopping only at
the first violated vertex of a candidate; the coloring routine prunes a
prefix as soon as an assigned vertex is violated.  Hard vertex-count caps keep
accidental misuse from hanging a test run.  Subset enumeration order is
increasing cardinality, then lexicographic on the sorted vertex list, and
colorings come in lexicographic order, so the returned witnesses are
canonical.
"""
from __future__ import annotations

import math
from itertools import combinations

from .graph import Graph, mask_lex_less, mask_of

__all__ = [
    "OracleCapError",
    "oracle_chi_odd",
    "oracle_mes",
    "oracle_mos",
    "oracle_odd_ds",
    "oracle_odd_qcol",
    "oracle_odd_tds",
    "treewidth_exact",
]

CAP_SUBSET = 24
CAP_COLOR = 12
CAP_DOMINATION = 20
CAP_TREEWIDTH = 16


class OracleCapError(ValueError):
    """Instance exceeds the hard size cap of a brute-force routine."""


def _check_cap(g: Graph, cap: int, name: str) -> None:
    if g.n > cap:
        raise OracleCapError(f"{name} is capped at n <= {cap}, got n = {g.n}")


def _best_subset(g: Graph, want_odd: bool) -> tuple[int, int]:
    best_size = 0
    best_mask = 0
    adj = g.adj
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size < best_size:
            continue
        ok = True
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if ((adj[v] & mask).bit_count() & 1) != want_odd:
                ok = False
                break
            rest ^= low
        if ok and (size > best_size or (size == best_size and mask_lex_less(mask, best_mask))):
            best_size, best_mask = size, mask
    return best_size, best_mask


def oracle_mos(g: Graph) -> tuple[int, int]:
    """Maximum odd induced subgraph by full subset enumeration."""
    _check_cap(g, CAP_SUBSET, "oracle_mos")
    return _best_subset(g, want_odd=True)


def oracle_mes(g: Graph) -> tuple[int, int]:
    """Maximum even induced subgraph by full subset enumeration."""
    _check_cap(g, CAP_SUBSET, "oracle_mes")
    return _best_subset(g, want_odd=False)


def oracle_odd_qcol(g: Graph, q: int) -> tuple[int, ...] | None:
    """Lexicographically first coloring of V by q classes all inducing odd
    subgraphs, or None.

    Only first-use colorings are enumerated, in lexicographic order: vertex v
    takes a class already used by 0..v-1 or the next new one.  That loses
    nothing, because renumbering a coloring's classes by first use never
    makes it lexicographically larger: at the first position where the two
    differ, the renumbered one opens its next new class m, and the original
    uses a class unused so far, whose number is at least m.  So the first
    valid first-use coloring is the first valid coloring.  An odd class has
    at least two vertices, so at most min(q, n // 2) classes are opened, and
    a prefix is dropped once a vertex whose neighbors are all assigned has
    even degree in its class.
    """
    _check_cap(g, CAP_COLOR, "oracle_odd_qcol")
    if q < 1:
        raise ValueError("q must be >= 1")
    n = g.n
    adj = g.adj
    # settled[v]: the vertices whose neighbors (and themselves) all lie in 0..v
    settled: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        settled[(adj[u] | 1 << u).bit_length() - 1].append(u)
    max_classes = min(q, n // 2)
    colors = [0] * n
    classes = [0] * max_classes

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        bit = 1 << v
        for c in range(min(used + 1, max_classes)):
            colors[v] = c
            classes[c] |= bit
            ok = all((adj[u] & classes[colors[u]]).bit_count() & 1 for u in settled[v])
            if ok and extend(v + 1, max(used, c + 1)):
                return True
            classes[c] ^= bit
        return False

    return tuple(colors) if extend(0, 0) else None


def oracle_chi_odd(g: Graph, q_max: int | None = None) -> int | float | None:
    """Odd chromatic number; None when a component has odd order.

    Searches odd q-colorings for q = 1..q_max (default n; a defined value
    never exceeds n, so the default never exhausts).  Returns math.inf when
    the value is defined but exceeds an explicit q_max.
    """
    _check_cap(g, CAP_COLOR, "oracle_chi_odd")
    if any(comp.bit_count() & 1 for comp in g.components()):
        return None
    if g.n == 0:
        return 0
    q_max = g.n if q_max is None else q_max
    for q in range(1, q_max + 1):
        if oracle_odd_qcol(g, q) is not None:
            return q
    return math.inf


def _first_dominating(g: Graph, total: bool) -> tuple[int, int] | None:
    adj = g.adj
    full = g.full_mask
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            mask = mask_of(combo)
            targets = full if total else full & ~mask
            ok = True
            rest = targets
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                if not (adj[v] & mask).bit_count() & 1:
                    ok = False
                    break
                rest ^= low
            if ok:
                return k, mask
    return None


def oracle_odd_ds(g: Graph) -> tuple[int, int]:
    """Minimum odd dominating set (every outside vertex has odd coverage).

    Always feasible: S = V has no outside vertex.
    """
    _check_cap(g, CAP_DOMINATION, "oracle_odd_ds")
    result = _first_dominating(g, total=False)
    assert result is not None
    return result


def oracle_odd_tds(g: Graph) -> tuple[int, int] | None:
    """Minimum odd total dominating set (every vertex has odd coverage)."""
    _check_cap(g, CAP_DOMINATION, "oracle_odd_tds")
    return _first_dominating(g, total=True)


def treewidth_exact(g: Graph) -> int:
    """Exact treewidth by the elimination-ordering DP over vertex subsets."""
    _check_cap(g, CAP_TREEWIDTH, "treewidth_exact")
    n = g.n
    if n == 0:
        return -1
    adj = g.adj
    full = (1 << n) - 1
    f = [0] * (full + 1)
    f[0] = -1
    for s in range(1, full + 1):
        best = None
        rest = s
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            s_prime = s ^ low
            # vertices reachable from v through s_prime, then their outside fringe
            comp = low
            frontier = low
            while frontier:
                nbrs = 0
                fr = frontier
                while fr:
                    ul = fr & -fr
                    nbrs |= adj[ul.bit_length() - 1]
                    fr ^= ul
                frontier = nbrs & s_prime & ~comp
                comp |= frontier
            fringe = 0
            cm = comp
            while cm:
                ul = cm & -cm
                fringe |= adj[ul.bit_length() - 1]
                cm ^= ul
            q = (fringe & ~s_prime & ~low).bit_count()
            cand = max(f[s_prime], q)
            if best is None or cand < best:
                best = cand
        f[s] = best
    return f[full]
