from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import binary_tree
from oddsolve import dp, rankdec
from oddsolve.cli import DECOMPOSE_METHODS, SOLVE_PROBLEMS, main
from oddsolve.graph import Graph, parse_graph, write_graph, gen_family

FIRST_LINE = re.compile(r"^value=(\d+|none) feasible=(true|false)$")


def run(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k222_file(tmp_path):
    path = tmp_path / "k222.col"
    path.write_text(write_graph(gen_family("k222")))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.col"
    path.write_text(write_graph(gen_family("path", 4)))
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.col"
    path.write_text(write_graph(gen_family("cycle", 6)))
    return str(path)


def test_solve_mos_example(capsys, k222_file):
    code, out, _ = run(capsys, "solve", "mos", "--graph", k222_file)
    assert code == 0
    first = out.splitlines()[0]
    assert FIRST_LINE.match(first)
    assert first == "value=2 feasible=true"


def test_solve_chi_odd_example(capsys, p4_file):
    code, out, _ = run(capsys, "solve", "chi-odd", "--graph", p4_file)
    assert code == 0
    assert out.splitlines()[0] == "value=2 feasible=true"


def test_every_solve_problem_has_wellformed_output(capsys, c6_file):
    for problem in ("mos", "mes", "odd-qcol", "chi-odd", "odd-ds", "odd-tds"):
        args = ["solve", problem, "--graph", c6_file]
        if problem == "odd-qcol":
            args += ["--q", "3"]
        code = main(args)
        out = capsys.readouterr().out
        assert FIRST_LINE.match(out.splitlines()[0]), problem
        assert code in (0, 2)


def test_infeasible_exits_with_2(capsys, c6_file, tmp_path):
    code, out, _ = run(capsys, "solve", "odd-tds", "--graph", c6_file)
    assert code == 2
    assert out.startswith("value=none feasible=false")
    k3 = tmp_path / "k3.col"
    k3.write_text(write_graph(gen_family("clique", 3)))
    code, out, _ = run(capsys, "solve", "chi-odd", "--graph", str(k3))
    assert code == 2
    assert "undefined" in out


def test_errors_exit_with_1(capsys, c6_file):
    code, _, err = run(capsys, "solve", "mos", "--graph", "missing.col")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "solve", "odd-qcol", "--graph", c6_file)
    assert code == 1 and "--q" in err
    code, _, err = run(capsys, "solve", "nosuch", "--graph", c6_file)
    assert code == 1  # argparse failures use the error exit, not 2
    code, _, err = run(capsys, "solve", "mos", "--graph", c6_file, "--threads", "0")
    assert code == 1


TOY_CNF = "p cnf 3 3\n1 2 -3 0\n2 3 -1 0\n3 1 -2 0\n"


@pytest.mark.parametrize("command, text, needle", [
    (("oracle", "mos", "--graph"), write_graph(gen_family("path", 25)),
     "capped at n <= 24"),                                       # OracleCapError
    (("gen", "reduce", "mes", "--cnf"), "p cnf x\n",
     "malformed problem line"),                                  # CnfFormatError
    (("gen", "reduce", "mes", "--cnf"), "p cnf 3 1\n1 2 3 0\n",
     "not 2in3-SAT_3 shaped"),                                   # ReductionError
    (("gen", "reduce", "mes", "--cnf"), "p cnf 100000000 1\n1 2 3 0\n",
     "99999997 declared variables never occur"),                 # ReductionError
    (("gen", "reduce", "mes", "--cnf"), "p cnf -3 0\n",
     "negative count"),                                          # CnfFormatError
], ids=["oracle-cap", "cnf-format", "cnf-shape", "cnf-declared-count", "cnf-negative"])
def test_package_errors_exit_1_with_one_line(capsys, tmp_path, command, text, needle):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and needle in err


# Runs the CLI in a fresh interpreter and reports, after each command, which
# of the modules that only oracle, poly and gen reduce need are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from oddsolve.cli import SOLVE_PROBLEMS, main

graph, cert, cnf, out = sys.argv[1:]
lazy = ("oddsolve.oracle", "oddsolve.parity", "oddsolve.reductions", "dataclasses", "inspect")


def loaded(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, [m for m in lazy if m in sys.modules]


report = [loaded("solve", p, "--graph", graph, "--q", "3", "--emit-certificate", cert)
          for p in SOLVE_PROBLEMS]
report.append(loaded("poly", "odd2col", "--graph", graph))
report.append(loaded("oracle", "mos", "--graph", graph))
report.append(loaded("gen", "reduce", "mes", "--cnf", cnf, "--p", "4", "--allow-small-p",
                     "--out", out))
print(json.dumps(report))
"""


def test_solve_imports_only_the_solve_path(p4_file, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(TOY_CNF)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, p4_file, str(tmp_path / "cert.txt"),
         str(cnf), str(tmp_path / "mes.col")],
        capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    solves, (poly, orc, gen) = report[:len(SOLVE_PROBLEMS)], report[len(SOLVE_PROBLEMS):]
    assert solves == [[0, []]] * len(SOLVE_PROBLEMS)
    # `dataclasses` (and `inspect`, which it imports) arrive with `parity`
    assert poly == [0, ["oddsolve.parity", "dataclasses", "inspect"]]
    assert orc == [0, ["oddsolve.oracle", "oddsolve.parity", "dataclasses", "inspect"]]
    assert gen == [0, ["oddsolve.oracle", "oddsolve.parity", "oddsolve.reductions",
                       "dataclasses", "inspect"]]


def test_threads_env_fallback(capsys, c6_file, monkeypatch):
    monkeypatch.setenv("ODDSOLVE_THREADS", "3")
    code, out, _ = run(capsys, "solve", "mos", "--graph", c6_file)
    assert code == 0
    monkeypatch.setenv("ODDSOLVE_THREADS", "zero")
    code, _, err = run(capsys, "solve", "mos", "--graph", c6_file)
    assert code == 1 and "ODDSOLVE_THREADS" in err


def test_solve_with_explicit_decomposition(capsys, c6_file, tmp_path):
    dec = tmp_path / "c6.tree"
    code, out, _ = run(capsys, "decompose", "--graph", c6_file,
                       "--method", "optimal-linear", "--out", str(dec))
    assert code == 0 and dec.exists()
    code, out, _ = run(capsys, "solve", "mes", "--graph", c6_file, "--dec", str(dec))
    assert code == 0
    assert "decomposition=file" in out


def test_decompose_methods_report_width(capsys, c6_file, tmp_path):
    assert "min-degree" in DECOMPOSE_METHODS
    for method in DECOMPOSE_METHODS:
        code, out, _ = run(capsys, "decompose", "--graph", c6_file, "--method", method)
        assert code == 0
        value = int(out.splitlines()[0].split()[0].split("=")[1])
        assert value >= 1
    # the elimination tree written to a file solves like any other
    dec = tmp_path / "c6-min-degree.tree"
    code, out, _ = run(capsys, "decompose", "--graph", c6_file,
                       "--method", "min-degree", "--out", str(dec))
    assert code == 0 and out.splitlines()[1] == "method=min-degree"
    code, out, _ = run(capsys, "solve", "mos", "--graph", c6_file, "--dec", str(dec))
    assert code == 0 and out.splitlines()[1].startswith("decomposition=file width=")


def test_default_decomposition_names_its_choice(capsys, k222_file, p4_file, tmp_path,
                                                 monkeypatch):
    # depth-4 complete binary tree: BFS caterpillar width 6, elimination tree 1
    forest = tmp_path / "bintree.col"
    forest.write_text(write_graph(binary_tree(4)))
    width_passes: list[int | None] = []  # the bound of each pass
    real_width = rankdec.width

    def counting_width(g, t, stop_at=None):
        width_passes.append(stop_at)
        return real_width(g, t, stop_at)

    monkeypatch.setattr(rankdec, "width", counting_width)
    # the caterpillar is ranked up to 2, the candidate fully, and the
    # caterpillar again up to the candidate's width + 1 when that is > 1
    for graph, second, passes in (
            (str(forest), "decomposition=auto min-degree width=1", [2, None]),
            (k222_file, "decomposition=auto caterpillar-bfs width=2", [2, None, 3]),
            (p4_file, "decomposition=auto caterpillar-bfs width=1", [2])):
        width_passes.clear()
        code, out, _ = run(capsys, "solve", "mos", "--graph", graph)
        assert code == 0 and out.splitlines()[1] == second
        assert width_passes == passes, graph
    # a --dec file gets exactly one width pass
    dec = tmp_path / "bintree.tree"
    run(capsys, "decompose", "--graph", str(forest), "--method", "min-degree", "--out", str(dec))
    width_passes.clear()
    code, out, _ = run(capsys, "solve", "odd-ds", "--graph", str(forest), "--dec", str(dec))
    assert code == 0 and out.splitlines()[1] == "decomposition=file width=1"
    assert width_passes == [None]


def test_empty_graph(capsys, tmp_path):
    graph = tmp_path / "empty.col"
    graph.write_text("p edge 0 0\n")
    for problem in SOLVE_PROBLEMS:
        cert = tmp_path / f"{problem}.cert"
        args = ["solve", problem, "--graph", str(graph), "--emit-certificate", str(cert)]
        if problem == "odd-qcol":
            args += ["--q", "2"]
        code, out, _ = run(capsys, *args)
        assert code == 0, problem
        assert out.splitlines()[:2] == ["value=0 feasible=true",
                                        "decomposition=none width=0"], problem
        code, out, _ = run(capsys, "verify", "--graph", str(graph),
                           "--certificate", str(cert), "--problem", problem)
        assert code == 0, (problem, out)
    for method in DECOMPOSE_METHODS:
        code, out, err = run(capsys, "decompose", "--graph", str(graph), "--method", method)
        assert code == 1 and out == ""
        assert "empty graph has no decomposition tree" in err


def test_certificate_emission_and_verification(capsys, c6_file, tmp_path):
    cert = tmp_path / "c6-mos.cert"
    code, _, _ = run(capsys, "solve", "mos", "--graph", c6_file,
                     "--emit-certificate", str(cert))
    assert code == 0 and cert.exists()
    code, out, _ = run(capsys, "verify", "--graph", c6_file,
                       "--certificate", str(cert), "--problem", "mos")
    assert code == 0

    # corrupt the witness, keeping the size: {1,2,3,4} induces a path in C6,
    # so its two interior vertices have even degree
    cert.write_text(cert.read_text().replace(
        [l for l in cert.read_text().splitlines() if l.startswith("set")][0],
        "set 1 2 3 4"))
    code, out, _ = run(capsys, "verify", "--graph", c6_file,
                       "--certificate", str(cert))
    assert code == 1
    assert "rejected" in out and "vertex" in out


def test_oversized_q_solves_and_verifies(capsys, tmp_path):
    """--q far beyond the vertex count answers at once, and its certificate
    verifies."""
    graph = tmp_path / "two-edges.col"
    graph.write_text(write_graph(Graph.from_edges(4, [(0, 1), (2, 3)])))
    cert = tmp_path / "two-edges.cert"
    code, out, _ = run(capsys, "solve", "odd-qcol", "--graph", str(graph),
                       "--q", "1000000000000", "--emit-certificate", str(cert))
    assert code == 0 and out.splitlines()[0] == "value=1 feasible=true"
    code, out, _ = run(capsys, "verify", "--graph", str(graph), "--certificate", str(cert))
    assert code == 0, out


def test_verify_problem_mismatch(capsys, c6_file, tmp_path):
    cert = tmp_path / "x.cert"
    run(capsys, "solve", "mos", "--graph", c6_file, "--emit-certificate", str(cert))
    code, _, err = run(capsys, "verify", "--graph", c6_file,
                       "--certificate", str(cert), "--problem", "mes")
    assert code == 1 and "mes" in err


def test_verify_refuses_vertex_ids_beyond_the_graph(capsys, c6_file, tmp_path):
    """A certificate naming vertex 10^12 fails at once with the line, not
    after building a 10^12-bit set or scanning 10^12 ids."""
    cert = tmp_path / "hostile.cert"
    for body, line in (("problem mos\nvalue 1\nset 1 1000000000000\n", 3),
                       ("problem chi-odd\nvalue 1\ncolor 1000000000000 1\n", 3),
                       ("problem mos\nvalue 1\nset 7\n", 3)):
        cert.write_text(body)
        code, out, err = run(capsys, "verify", "--graph", c6_file, "--certificate", str(cert))
        assert code == 1 and out == ""
        assert f"error: line {line}: vertex" in err and "outside the graph (6 vertices)" in err


def test_oracle_subcommand_agrees_with_solve(capsys, c6_file):
    _, solve_out, _ = run(capsys, "solve", "mes", "--graph", c6_file)
    _, oracle_out, _ = run(capsys, "oracle", "mes", "--graph", c6_file)
    assert solve_out.splitlines()[0] == oracle_out.splitlines()[0]


def test_poly_subcommands(capsys, p4_file, k222_file, tmp_path):
    code, out, _ = run(capsys, "poly", "odd2col", "--graph", p4_file)
    assert code == 0 and out.startswith("value=2")
    code, out, _ = run(capsys, "poly", "even2col", "--graph", p4_file)
    assert code == 0
    code, out, _ = run(capsys, "poly", "gallai-oe", "--graph", k222_file)
    assert code == 0
    code, out, _ = run(capsys, "poly", "cograph-3col", "--graph", p4_file)
    assert code == 2  # P4 is the forbidden subgraph itself
    code, out, _ = run(capsys, "poly", "cograph-3col", "--graph", k222_file)
    assert code == 0
    code, out, _ = run(capsys, "poly", "join-bound", "--graph", k222_file,
                       "--side", "1,2")
    assert code == 0
    code, _, err = run(capsys, "poly", "join-bound", "--graph", k222_file)
    assert code == 1  # --side is required
    star = tmp_path / "s5.col"
    star.write_text(write_graph(gen_family("star", 5)))
    code, out, _ = run(capsys, "poly", "odd-orient", "--graph", str(star))
    assert code == 2 and "component" in out


def test_gen_family_and_random_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.col"
    code, _, _ = run(capsys, "gen", "family", "cycle", "--n", "8",
                     "--out", str(out_path))
    assert code == 0
    g = parse_graph(out_path.read_text())
    assert g.n == 8 and g.m == 8
    code, _, _ = run(capsys, "gen", "random", "--n", "9", "--prob", "0.3",
                     "--seed", "5", "--out", str(out_path))
    assert code == 0
    assert parse_graph(out_path.read_text()).n == 9


def test_gen_reduce_pipeline(capsys, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(TOY_CNF)
    out_path = tmp_path / "mes.col"
    code, out, _ = run(capsys, "gen", "reduce", "mes", "--cnf", str(cnf),
                       "--p", "4", "--allow-small-p", "--out", str(out_path))
    assert code == 0
    assert "k=51" in out and "warning" in out
    assert parse_graph(out_path.read_text()).n == 60

    # without --p the smallest p the equivalence proof covers
    code, out, _ = run(capsys, "gen", "reduce", "mes", "--cnf", str(cnf),
                       "--out", str(out_path))
    assert code == 0
    assert "k=303 p=88 n=3" in out and "warning" not in out
    assert parse_graph(out_path.read_text()).n == 312

    base = tmp_path / "p4.col"
    base.write_text(write_graph(gen_family("path", 4)))
    code, out, _ = run(capsys, "gen", "reduce", "mos", "--graph", str(base),
                       "--k", "4", "--out", str(out_path))
    assert code == 0
    assert parse_graph(out_path.read_text()).n == 10

    code, out, _ = run(capsys, "gen", "reduce", "qcol", "--graph", str(base),
                       "--out", str(out_path))
    assert code == 0
    assert "orient" in out


def test_output_is_byte_identical_across_thread_counts(tmp_path):
    graph = tmp_path / "g.col"
    graph.write_text(write_graph(gen_family("cycle", 10)))
    cmd = [sys.executable, "-m", "oddsolve.cli", "solve", "chi-odd",
           "--graph", str(graph)]
    runs = []
    for threads in ("1", "4"):
        proc = subprocess.run(cmd + ["--threads", threads],
                              capture_output=True, check=True)
        runs.append(proc.stdout)
    assert runs[0] == runs[1]


def test_out_of_memory_exits_with_1_and_one_line(capsys, c6_file, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(dp, "solve_mos", exhausted)
    code, out, err = run(capsys, "solve", "mos", "--graph", c6_file)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")
    # only `solve` has --dec to suggest
    monkeypatch.setattr(rankdec, "optimal_linear", exhausted)
    code, out, err = run(capsys, "decompose", "--method", "optimal-linear", "--graph", c6_file)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: out of memory"]


def test_closed_stdout_exits_with_1_and_one_line(c6_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oddsolve.cli", "solve", "odd-qcol",
             "--graph", c6_file, "--q", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: standard output was closed"]


def test_gen_random_is_seed_deterministic(tmp_path):
    cmd = [sys.executable, "-m", "oddsolve.cli", "gen", "random",
           "--n", "12", "--prob", "0.5", "--seed", "123"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b
