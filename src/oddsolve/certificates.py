"""Certificates: line-based serialization and independent re-checking.

A certificate names its problem, a claimed value, and a payload (vertex set,
coloring, or orientation).  Checkers re-derive feasibility by direct degree
counting only — none of the solver machinery is reused — and report the
first violated vertex, so a corrupted certificate pinpoints its own flaw.

File format (vertices and classes 1-indexed, `c` lines are comments):

    problem mos
    value 4
    set 1 2 5 6

    problem odd-qcol
    value 3
    color 1 2
    ...

    problem odd-orient
    value 6
    orient 1 2
"""
from __future__ import annotations

from ._frozen import Frozen
from .graph import Graph, vertices_of

__all__ = [
    "Certificate",
    "CertificateError",
    "PROBLEMS",
    "parse_certificate",
    "verify",
    "write_certificate",
]

# problem tag -> payload shape
_SET_PROBLEMS = ("mos", "mes", "odd-ds", "odd-tds", "join-bound")
_COLOR_PROBLEMS = ("odd-qcol", "chi-odd", "odd2col", "even2col",
                   "gallai-oe", "gallai-ee", "cograph-3col")
_ARC_PROBLEMS = ("odd-orient",)
PROBLEMS = _SET_PROBLEMS + _COLOR_PROBLEMS + _ARC_PROBLEMS


class CertificateError(ValueError):
    pass


class Certificate(Frozen):
    """One checkable claim: problem tag, claimed value, payload."""

    __slots__ = ("problem", "value", "vertex_set", "coloring", "arcs")
    problem: str
    value: int
    vertex_set: int | None
    coloring: tuple[int, ...] | None
    arcs: tuple[tuple[int, int], ...] | None

    def __init__(self, problem: str, value: int, vertex_set: int | None = None,
                 coloring: tuple[int, ...] | None = None,
                 arcs: tuple[tuple[int, int], ...] | None = None) -> None:
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "vertex_set", vertex_set)
        object.__setattr__(self, "coloring", coloring)
        object.__setattr__(self, "arcs", arcs)
        if self.problem not in PROBLEMS:
            raise CertificateError(f"unknown problem tag {self.problem!r}")
        want_set = self.problem in _SET_PROBLEMS
        want_color = self.problem in _COLOR_PROBLEMS
        want_arcs = self.problem in _ARC_PROBLEMS
        if want_set != (self.vertex_set is not None) \
                or want_color != (self.coloring is not None) \
                or want_arcs != (self.arcs is not None):
            raise CertificateError(f"payload does not match problem {self.problem!r}")


def write_certificate(cert: Certificate) -> str:
    lines = [f"problem {cert.problem}", f"value {cert.value}"]
    if cert.vertex_set is not None:
        lines.append("set " + " ".join(str(v + 1) for v in vertices_of(cert.vertex_set)))
    if cert.coloring is not None:
        lines.extend(f"color {v + 1} {c + 1}" for v, c in enumerate(cert.coloring))
    if cert.arcs is not None:
        lines.extend(f"orient {u + 1} {v + 1}" for u, v in cert.arcs)
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, n: int | None = None) -> Certificate:
    """Parse a certificate.

    With `n`, the order of the graph it is for, a vertex id above n is an
    error naming its line, so no id costs more than the graph's size.
    Without it a `set` id is shifted as given, which suits only a trusted
    certificate, such as one the solver just wrote."""

    def vertex(tok: str, lineno: int) -> int:
        u = int(tok)
        if n is not None and u > n:
            raise CertificateError(
                f"line {lineno}: vertex {tok} is outside the graph ({n} vertices)")
        return u

    problem = None
    value = None
    vertex_set = None
    colors: dict[int, int] = {}
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c ") or line == "c":
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        try:
            if kind == "problem":
                if problem is not None:
                    raise CertificateError(f"line {lineno}: duplicate problem line")
                (problem,) = args
            elif kind == "value":
                if value is not None:
                    raise CertificateError(f"line {lineno}: duplicate value line")
                (v,) = args
                value = int(v)
            elif kind == "set":
                if vertex_set is not None:
                    raise CertificateError(f"line {lineno}: duplicate set line")
                vertex_set = 0
                for tok in args:
                    u = vertex(tok, lineno) - 1
                    if u < 0:
                        raise CertificateError(f"line {lineno}: bad vertex {tok}")
                    vertex_set |= 1 << u
            elif kind == "color":
                u_tok, c_tok = args
                u, c = vertex(u_tok, lineno), int(c_tok)
                if u - 1 in colors:
                    raise CertificateError(f"line {lineno}: vertex {u} colored twice")
                if u < 1 or c < 1:
                    raise CertificateError(f"line {lineno}: bad color line")
                colors[u - 1] = c - 1
            elif kind == "orient":
                u_tok, v_tok = args
                u, v = vertex(u_tok, lineno), vertex(v_tok, lineno)
                if u < 1 or v < 1:
                    raise CertificateError(f"line {lineno}: bad orient line")
                arcs.append((u - 1, v - 1))
            else:
                raise CertificateError(f"line {lineno}: unknown directive {kind!r}")
        except (ValueError, TypeError) as exc:
            if isinstance(exc, CertificateError):
                raise
            raise CertificateError(f"line {lineno}: malformed {kind!r} line") from None
    if problem is None or value is None:
        raise CertificateError("certificate needs problem and value lines")
    # a coloring or orientation of the empty graph has no lines at all
    coloring = None
    if colors or problem in _COLOR_PROBLEMS:
        # the first uncolored vertex is at most len(colors), whatever the ids
        first_gap = next(v for v in range(len(colors) + 1) if v not in colors)
        if colors and first_gap < max(colors):
            raise CertificateError(f"vertex {first_gap + 1} has no color line")
        coloring = tuple(colors[v] for v in range(first_gap))
    return Certificate(problem, value,
                       vertex_set=vertex_set,
                       coloring=coloring,
                       arcs=tuple(arcs) if arcs or problem in _ARC_PROBLEMS else None)


def _degree_in(g: Graph, v: int, mask: int) -> int:
    return (g.adj[v] & mask).bit_count()


def _check_parity_set(g: Graph, mask: int, want_odd: bool) -> str | None:
    for v in vertices_of(mask):
        d = _degree_in(g, v, mask)
        if d % 2 != (1 if want_odd else 0):
            return (f"vertex {v + 1} has {'even' if want_odd else 'odd'} "
                    f"degree {d} inside the set")
    return None


def _class_masks(coloring: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for v, c in enumerate(coloring):
        out[c] = out.get(c, 0) | 1 << v
    return out


def verify(g: Graph, cert: Certificate) -> tuple[bool, str]:
    """Re-check a certificate against a graph: (ok, human-readable detail)."""
    p = cert.problem
    if cert.vertex_set is not None and cert.vertex_set & ~g.full_mask:
        bad = vertices_of(cert.vertex_set & ~g.full_mask)[0]
        return False, f"vertex {bad + 1} is outside the graph"

    if p in ("mos", "mes", "join-bound"):
        mask = cert.vertex_set
        if mask.bit_count() != cert.value:
            return False, (f"claimed value {cert.value} but the set has "
                           f"{mask.bit_count()} vertices")
        why = _check_parity_set(g, mask, want_odd=p != "mes")
        return (False, why) if why else (True, f"{p} witness of order {cert.value} checks")

    if p in ("odd-ds", "odd-tds"):
        mask = cert.vertex_set
        if mask.bit_count() != cert.value:
            return False, (f"claimed value {cert.value} but the set has "
                           f"{mask.bit_count()} vertices")
        for v in range(g.n):
            if p == "odd-ds" and mask >> v & 1:
                continue
            d = _degree_in(g, v, mask)
            if d % 2 == 0:
                return False, f"vertex {v + 1} has {d} neighbors in the set, want odd"
        return True, f"{p} witness of size {cert.value} checks"

    if p in _COLOR_PROBLEMS:
        coloring = cert.coloring
        if coloring is None or len(coloring) != g.n:
            got = 0 if coloring is None else len(coloring)
            return False, f"coloring covers {got} vertices, graph has {g.n}"
        classes = _class_masks(coloring)
        budget = {"odd2col": 2, "even2col": 2, "gallai-oe": 2, "gallai-ee": 2,
                  "cograph-3col": 3}.get(p, cert.value)
        if classes and (len(classes) > budget or max(classes) + 1 > budget):
            return False, f"uses class {max(classes) + 1}, budget is {budget}"
        for cls, mask in sorted(classes.items()):
            if p == "gallai-oe":
                want_odd = cls == 0
            elif p in ("even2col", "gallai-ee"):
                want_odd = False
            else:
                want_odd = True
            why = _check_parity_set(g, mask, want_odd)
            if why:
                return False, f"class {cls + 1}: {why}"
        return True, f"{p} coloring with {len(classes)} classes checks"

    # odd-orient
    arcs = cert.arcs or ()
    edges = set(g.edges())
    seen = set()
    indeg = [0] * g.n
    for tail, head in arcs:
        e = (min(tail, head), max(tail, head))
        if e not in edges:
            return False, f"arc {tail + 1}->{head + 1} is not a graph edge"
        if e in seen:
            return False, f"edge {e[0] + 1}-{e[1] + 1} oriented twice"
        seen.add(e)
        indeg[head] += 1
    if len(seen) != len(edges):
        missing = sorted(edges - seen)[0]
        return False, f"edge {missing[0] + 1}-{missing[1] + 1} is not oriented"
    for v in range(g.n):
        if indeg[v] % 2 == 0:
            return False, f"vertex {v + 1} has even in-degree {indeg[v]}"
    return True, "odd orientation checks"
