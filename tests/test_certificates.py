from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, strategies as st

from conftest import rand_graph
from oddsolve import dp
from oddsolve.certificates import (
    _ARC_PROBLEMS,
    _SET_PROBLEMS,
    PROBLEMS,
    Certificate,
    CertificateError,
    parse_certificate,
    verify,
    write_certificate,
)
from oddsolve.graph import Graph, gen_family
from oddsolve.oracle import oracle_odd_ds
from oddsolve.parity import even_two_coloring, gallai_odd_even, odd_orientation
from oddsolve.rankdec import caterpillar, heuristic_order


def tree(g: Graph):
    return caterpillar(g, heuristic_order(g))


def test_payload_shape_validation():
    with pytest.raises(CertificateError):
        Certificate("mos", 2, coloring=(0, 1))  # set problems carry a set
    with pytest.raises(CertificateError):
        Certificate("chi-odd", 2, vertex_set=0b11)
    with pytest.raises(CertificateError):
        Certificate("odd-orient", 1, vertex_set=1)
    with pytest.raises(CertificateError):
        Certificate("nosuch", 1, vertex_set=1)


def test_roundtrip_all_payload_kinds():
    g = gen_family("cycle", 6)
    t = tree(g)
    val, mask = dp.solve_mos(g, t)
    certs = [Certificate("mos", val, vertex_set=mask)]
    q, colors = dp.chi_odd(g, t)
    certs.append(Certificate("chi-odd", q, coloring=colors))
    certs.append(Certificate("odd-orient", g.m, arcs=odd_orientation(g).arcs))
    # on the empty graph every payload is empty, so no payload line is written
    empty = Graph.from_edges(0, [])
    empty_certs = [Certificate("mos", 0, vertex_set=0),
                   Certificate("chi-odd", 0, coloring=()),
                   Certificate("odd-orient", 0, arcs=())]
    for graph, cert in [(g, c) for c in certs] + [(empty, c) for c in empty_certs]:
        text = write_certificate(cert)
        assert parse_certificate(text) == cert
        ok, detail = verify(graph, cert)
        assert ok, detail


def test_certificates_are_one_indexed_on_disk():
    cert = Certificate("mos", 2, vertex_set=0b101)
    text = write_certificate(cert)
    assert "set 1 3" in text
    cert2 = Certificate("odd2col", 2, coloring=(0, 1))
    assert "color 1 1" in write_certificate(cert2)
    assert "color 2 2" in write_certificate(cert2)


def test_parse_errors():
    with pytest.raises(CertificateError):
        parse_certificate("value 2\nset 1 2\n")  # missing problem
    with pytest.raises(CertificateError):
        parse_certificate("problem mos\nset 1 2\n")  # missing value
    with pytest.raises(CertificateError):
        parse_certificate("problem mos\nvalue 2\nset 1\nset 2\n")
    with pytest.raises(CertificateError):
        parse_certificate("problem odd2col\nvalue 2\ncolor 1 1\ncolor 1 2\n")
    with pytest.raises(CertificateError):
        parse_certificate("problem mos\nvalue 2\nfoo 1\n")
    with pytest.raises(CertificateError):
        parse_certificate("problem chi-odd\nvalue 1\ncolor 1 1\ncolor 3 1\n")


def test_duplicate_problem_or_value_lines_are_rejected_by_line():
    """A second problem or value line is an error, as a second set line is,
    rather than silently replacing the first."""
    with pytest.raises(CertificateError, match="line 2: duplicate problem line"):
        parse_certificate("problem mes\nproblem mos\nvalue 2\nset 1 2\n")
    with pytest.raises(CertificateError, match="line 3: duplicate value line"):
        parse_certificate("problem mos\nvalue 2\nvalue 3\nset 1 2\n")
    # a repeated line is a duplicate even when it says the same thing
    with pytest.raises(CertificateError, match="line 3: duplicate problem line"):
        parse_certificate("problem mos\nvalue 2\nproblem mos\nset 1 2\n")


def test_verify_set_problems():
    g = gen_family("cycle", 6)
    ok, _ = verify(g, Certificate("mos", 2, vertex_set=0b011))
    assert ok
    # wrong order claimed
    ok, detail = verify(g, Certificate("mos", 3, vertex_set=0b011))
    assert not ok and "claimed value 3" in detail
    # even-degree vertex inside
    ok, detail = verify(g, Certificate("mos", 2, vertex_set=0b101))
    assert not ok and "vertex 1" in detail
    # vertices beyond the graph
    ok, detail = verify(g, Certificate("mos", 1, vertex_set=1 << 9))
    assert not ok


def test_verify_domination():
    g = gen_family("cycle", 4)
    val, mask = oracle_odd_ds(g)
    ok, _ = verify(g, Certificate("odd-ds", val, vertex_set=mask))
    assert ok
    ok, detail = verify(g, Certificate("odd-ds", 1, vertex_set=0b0001))
    assert not ok and "vertex" in detail


def test_verify_coloring_budgets():
    g = gen_family("cycle", 6)
    colors = dp.chi_odd(g, tree(g))[1]
    ok, _ = verify(g, Certificate("chi-odd", 3, coloring=colors))
    assert ok
    # odd2col certificates may never use three classes
    ok, detail = verify(g, Certificate("odd2col", 2, coloring=colors))
    assert not ok and "class" in detail
    # length mismatch
    ok, detail = verify(g, Certificate("chi-odd", 3, coloring=colors[:-1]))
    assert not ok


def test_verify_gallai_and_even_colorings():
    rng = random.Random(81)
    for _ in range(15):
        g = rand_graph(rng, 7)
        a, b = gallai_odd_even(g)
        coloring = tuple(0 if a >> v & 1 else 1 for v in range(g.n))
        ok, detail = verify(g, Certificate("gallai-oe", a.bit_count(), coloring=coloring))
        assert ok, detail
        # swapping the parts must fail unless both happen to qualify
        swapped = tuple(1 - c for c in coloring)
        ok_sw, _ = verify(g, Certificate("gallai-oe", b.bit_count(), coloring=swapped))
        tc = even_two_coloring(g)
        ok, detail = verify(g, Certificate("even2col", 2, coloring=tc.colors))
        assert ok, detail


def test_verify_orientation():
    g = gen_family("cycle", 4)
    arcs = odd_orientation(g).arcs
    ok, _ = verify(g, Certificate("odd-orient", 4, arcs=arcs))
    assert ok
    flipped = ((arcs[0][1], arcs[0][0]),) + arcs[1:]
    ok, detail = verify(g, Certificate("odd-orient", 4, arcs=flipped))
    assert not ok and "in-degree" in detail
    # arcs must biject onto the edge set
    ok, detail = verify(g, Certificate("odd-orient", 4, arcs=arcs[:-1] + ((0, 2),)))
    assert not ok


def test_verify_reports_first_offending_vertex():
    g = gen_family("path", 6)  # 0-1-2-3-4-5
    # vertices {0,1,2} induce a path: vertex 2 (1-indexed) has degree 2
    ok, detail = verify(g, Certificate("mos", 3, vertex_set=0b111))
    assert not ok
    assert "order" in detail or "vertex 2" in detail
    ok, detail = verify(g, Certificate("mes", 3, vertex_set=0b111))
    assert not ok and "vertex 1" in detail


# A vertex id far beyond any graph: a parser that works in proportion to the
# largest id (a range over it, or a bitmask with that bit) cannot finish.
_HUGE = 10**12


def test_vertex_ids_above_the_graph_order_are_rejected_by_line():
    start = time.perf_counter()
    for text, line in ((f"problem mos\nvalue 1\nset 2 {_HUGE}\n", 3),
                       (f"problem chi-odd\nvalue 1\ncolor 1 1\ncolor {_HUGE} 1\n", 4),
                       (f"problem odd-orient\nvalue 1\norient {_HUGE} 1\n", 3),
                       (f"problem odd-orient\nvalue 1\norient 1 {_HUGE}\n", 3),
                       ("problem mos\nvalue 1\nset 7\n", 3)):
        with pytest.raises(CertificateError, match=f"line {line}: vertex .* outside the graph"):
            parse_certificate(text, n=6)
    assert time.perf_counter() - start < 1
    # ids up to n still parse, and without n nothing is checked against it
    assert parse_certificate("problem mos\nvalue 1\nset 6\n", n=6).vertex_set == 1 << 5
    assert parse_certificate("problem mos\nvalue 1\nset 7\n").vertex_set == 1 << 6


def test_first_uncolored_vertex_is_found_without_scanning_to_the_largest_id():
    start = time.perf_counter()
    with pytest.raises(CertificateError, match="vertex 1 has no color line"):
        parse_certificate(f"problem chi-odd\nvalue 1\ncolor {_HUGE} 1\n")
    with pytest.raises(CertificateError, match="vertex 3 has no color line"):
        parse_certificate(f"problem chi-odd\nvalue 1\ncolor 2 1\ncolor 1 1\ncolor {_HUGE} 1\n")
    assert time.perf_counter() - start < 1
    cert = parse_certificate("problem chi-odd\nvalue 2\ncolor 3 2\ncolor 1 1\ncolor 2 1\n")
    assert cert.coloring == (0, 0, 1)


# Lines built from the format's own words and small numbers reach the
# payload checks far more often than arbitrary text does.
_CERT_WORDS = st.one_of(st.sampled_from(["problem", "value", "set", "color", "orient", "c"]),
                        st.sampled_from(PROBLEMS), st.integers(-2, 8).map(str),
                        st.text(max_size=3))
_CERT_LINES = st.lists(st.lists(_CERT_WORDS, max_size=5).map(" ".join),
                       max_size=8).map("\n".join)


def _parses_or_raises(text: str, n: int | None) -> None:
    try:
        cert = parse_certificate(text, n)
    except CertificateError:
        return
    assert parse_certificate(write_certificate(cert)) == cert


@given(st.one_of(st.text(), _CERT_LINES), st.one_of(st.none(), st.integers(0, 10)))
def test_parse_certificate_accepts_or_raises_certificate_error(text, n):
    _parses_or_raises(text, n)


# Ids of any size, against a graph order: `oddsolve verify` passes the order,
# so an id above it is refused before it is used.  Without the order a `set`
# id is shifted as given, which is the trusted reading of a solver's own
# certificate.
_HOSTILE_LINES = st.lists(
    st.lists(st.one_of(st.sampled_from(["problem", "value", "set", "color", "orient"]),
                       st.sampled_from(PROBLEMS), st.integers().map(str)),
             max_size=5).map(" ".join),
    max_size=8).map("\n".join)


@given(_HOSTILE_LINES, st.integers(0, 10))
def test_parse_certificate_bounds_hostile_ids_by_the_graph_order(text, n):
    _parses_or_raises(text, n)


@st.composite
def certificates(draw) -> Certificate:
    problem = draw(st.sampled_from(PROBLEMS))
    value = draw(st.integers())
    if problem in _ARC_PROBLEMS:
        arcs = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=8))
        return Certificate(problem, value, arcs=tuple(arcs))
    if problem in _SET_PROBLEMS:
        vertices = draw(st.frozensets(st.integers(0, 200), max_size=12))
        return Certificate(problem, value, vertex_set=sum(1 << v for v in vertices))
    coloring = draw(st.lists(st.integers(0, 2**40), max_size=12))
    return Certificate(problem, value, coloring=tuple(coloring))


@given(certificates())
def test_write_certificate_roundtrips_through_parse_certificate(cert):
    assert parse_certificate(write_certificate(cert)) == cert
