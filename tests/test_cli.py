from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import binary_tree
from oddsolve import dp, rankdec
from oddsolve.cli import POLY_OPS, SOLVE_PROBLEMS, main
from oddsolve.graph import MAX_VERTICES, Graph, parse_graph, write_graph, gen_family
from oddsolve.rankdec import METHODS

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
    (("solve", "mos", "--graph"), "p edge 1000000000000 0\n",
     "line 1: 1000000000000 vertices exceed the limit"),         # GraphError
    (("gen", "reduce", "mes", "--cnf"), "p cnf 3 1\n1 2 0\n",
     "clauses do not have 3 literals"),                          # CnfFormatError
    (("gen", "family", "star", "--n", "65537", "--out"), "",
     "65537 vertices exceed the limit of 65536"),                # GraphError
    (("gen", "random", "--n", "65537", "--prob", "0", "--out"), "",
     "65537 vertices exceed the limit of 65536"),                # before the pair loop
    (("gen", "random", "--n", "65536", "--prob", "0", "--out"), "",
     "65536 vertices give 2147450880 vertex pairs, over the limit of 4194304"),
    (("gen", "family", "clique", "--n", "3000", "--out"), "",
     "3000 vertices give 4498500 vertex pairs, over the limit of 4194304"),
    # each reduction counts its instance's vertices before it builds an edge:
    # 3 (p + 16) for the toy formula, K2 plus the hub and k + 1 rim vertices,
    # and P32768 with its odd |V| + |E| fixed by one triangle, then subdivided
    (("gen", "reduce", "mes", "--p", "21846", "--cnf"), TOY_CNF,
     "65586 vertices exceed the limit of 65536"),
    (("gen", "reduce", "mos", "--k", "65534", "--graph"), write_graph(gen_family("path", 2)),
     "65538 vertices exceed the limit of 65536"),
    (("gen", "reduce", "qcol", "--graph"), write_graph(gen_family("path", 32768)),
     "65542 vertices exceed the limit of 65536"),
], ids=["oracle-cap", "cnf-format", "cnf-shape", "cnf-declared-count", "cnf-negative",
        "graph-vertex-count", "cnf-two-literals", "gen-family-vertex-count",
        "gen-random-vertex-count", "gen-random-pair-count", "gen-clique-edge-count",
        "reduce-mes-vertex-count", "reduce-mos-vertex-count", "reduce-qcol-vertex-count"])
def test_package_errors_exit_1_with_one_line(capsys, tmp_path, command, text, needle):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and needle in err


@pytest.mark.parametrize("graph_n, tree_n, needle", [
    (3000, 2999, "tree has 2999 leaves for 3000 vertices; vertex 3000 has no leaf"),
    (2999, 3000, "tree has 3000 leaves for 2999 vertices; vertex 3000 is out of range 1..2999"),
])
def test_tree_for_another_graph_exits_1_with_one_short_line(capsys, tmp_path, graph_n, tree_n,
                                                            needle):
    """A --dec tree built for another graph is named by its leaf count, the
    vertex count and one vertex, not by its whole leaf list."""
    graph, tree = tmp_path / "g.col", tmp_path / "t.tree"
    graph.write_text(write_graph(gen_family("path", graph_n)))
    p = gen_family("path", tree_n)
    tree.write_text(rankdec.write_tree(rankdec.caterpillar(p, list(range(tree_n)))))
    code, out, err = run(capsys, "solve", "mos", "--graph", str(graph), "--dec", str(tree))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {needle}"] and len(err) < 200


def test_gen_path_at_the_vertex_bound_fits_in_1_gib(tmp_path):
    """The longest path `gen` builds fits a 1 GiB address space.  A path's
    rows hold about n^2/2 bits, so the vertex bound sets this memory."""
    resource = pytest.importorskip("resource")

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "oddsolve.cli", "gen", "family", "path",
         "--n", str(MAX_VERTICES), "--out", str(tmp_path / "path.col")],
        capture_output=True, text=True, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == f"value={MAX_VERTICES} feasible=true"


# Runs CLI commands, given as a JSON list of argument lists, in one fresh
# interpreter and reports, after each command, which of the modules that
# only oracle, poly and gen reduce need are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from oddsolve.cli import main

lazy = ("oddsolve.oracle", "oddsolve.parity", "oddsolve.reductions", "dataclasses", "inspect")
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append([code, [m for m in lazy if m in sys.modules]])
print(json.dumps(report))
"""


def _loaded(*commands: list[str]) -> list:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_solve_imports_only_the_solve_path(p4_file, tmp_path):
    cnf = tmp_path / "toy.cnf"
    cnf.write_text(TOY_CNF)
    cert = str(tmp_path / "cert.txt")
    solves = _loaded(*[["solve", p, "--graph", p4_file, "--q", "3", "--emit-certificate", cert]
                       for p in SOLVE_PROBLEMS])
    assert solves == [[0, []]] * len(SOLVE_PROBLEMS)
    # each other command in its own interpreter, so a list names what that
    # command loads, not what an earlier one left behind
    [poly] = _loaded(["poly", "odd2col", "--graph", p4_file])
    [orc] = _loaded(["oracle", "mos", "--graph", p4_file])
    [gen] = _loaded(["gen", "reduce", "mes", "--cnf", str(cnf), "--p", "4",
                     "--allow-small-p", "--out", str(tmp_path / "mes.col")])
    assert poly == [0, ["oddsolve.parity"]]
    assert orc == [0, ["oddsolve.oracle"]]
    assert gen == [0, ["oddsolve.parity", "oddsolve.reductions"]]
    # every record is a `Frozen`, so no command loads `dataclasses` or `inspect`
    assert not {"dataclasses", "inspect"} & {m for _, mods in [poly, orc, gen] for m in mods}


def test_cli_import_leaves_out_typing_and_random():
    """Importing the CLI loads neither `typing` nor `random`: no annotation
    is evaluated, and only `gen random` draws random numbers.  `-S` keeps
    `site`, which may import both, out of the child."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, oddsolve.cli; print(sorted({'typing', 'random'} & set(sys.modules)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


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
    assert "min-degree" in METHODS
    with pytest.raises(SystemExit):
        main(["decompose", "--help"])
    assert "--method {" + ",".join(METHODS) + "}" in capsys.readouterr().out
    for method in METHODS:
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
    for method in METHODS:
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


def test_oracle_subcommand_agrees_with_solve(capsys, tmp_path):
    """`oracle` prints `solve`'s lines less the decomposition line.  Witnesses
    and values are canonical on both sides, except the classes an odd
    q-coloring uses, which depend on the tree: there only the exit code and
    the q line are compared."""
    graphs = {"p4": gen_family("path", 4), "c6": gen_family("cycle", 6),
              "k222": gen_family("k222"),
              "edgeless": Graph.from_edges(4, []),  # no odd total dominating set
              "p5": gen_family("path", 5),  # odd order: chi-odd undefined
              "empty": Graph.from_edges(0, [])}
    for name, g in graphs.items():
        path = tmp_path / f"{name}.col"
        path.write_text(write_graph(g))
        for problem in SOLVE_PROBLEMS:
            for q in ("1", "2", "3"):
                args = (problem, "--graph", str(path), "--q", q)
                code, solve_out, _ = run(capsys, "solve", *args)
                solved = [line for line in solve_out.splitlines()
                          if not line.startswith("decomposition=")]
                oracle_code, oracle_out, _ = run(capsys, "oracle", *args)
                reported = oracle_out.splitlines()
                if problem == "odd-qcol":
                    solved, reported = solved[1:2], reported[1:2]
                assert (oracle_code, reported) == (code, solved), (problem, name, q)


# Every poly op run with `--side 1,2 --emit-certificate`, as (exit code,
# stdout lines without the "certificate written to" line, or the stderr
# lines on exit 1, certificate lines or None).  On K4 all seven ops succeed;
# C6 has no odd 2-coloring, P4 is not a cograph, and the 5-vertex star's
# one component has odd |V|+|E|.
POLY_PINS = {
    "k4": {
        "odd2col": (0,
            ["value=1 feasible=true", "classes: 1 2 3 4 | "],
            ["problem odd2col", "value 1", "color 1 1", "color 2 1", "color 3 1", "color 4 1"]),
        "even2col": (0,
            ["value=2 feasible=true", "classes: 2 3 4 | 1"],
            ["problem even2col", "value 2", "color 1 2", "color 2 1", "color 3 1", "color 4 1"]),
        "gallai-ee": (0,
            ["value=1 feasible=true", "part a: 1", "part b: 2 3 4"],
            ["problem gallai-ee", "value 1", "color 1 1", "color 2 2", "color 3 2",
             "color 4 2"]),
        "gallai-oe": (0,
            ["value=4 feasible=true", "part a: 1 2 3 4", "part b: "],
            ["problem gallai-oe", "value 4", "color 1 1", "color 2 1", "color 3 1",
             "color 4 1"]),
        "odd-orient": (0,
            ["value=6 feasible=true", "orient 1 2", "orient 3 1", "orient 1 4", "orient 2 3",
             "orient 2 4", "orient 3 4"],
            ["problem odd-orient", "value 6", "orient 1 2", "orient 3 1", "orient 1 4",
             "orient 2 3", "orient 2 4", "orient 3 4"]),
        "join-bound": (0,
            ["value=2 feasible=true", "guarantee: 2", "subgraph: 2 4", "coloring: 3 1 3 1"],
            ["problem join-bound", "value 2", "set 2 4"]),
        "cograph-3col": (0,
            ["value=1 feasible=true"],
            ["problem cograph-3col", "value 1", "color 1 1", "color 2 1", "color 3 1",
             "color 4 1"]),
    },
    "c6": {
        "odd2col": (2,
            ["value=none feasible=false", "the per-vertex parity system is unsatisfiable"],
            None),
        "even2col": (0,
            ["value=1 feasible=true", "classes: 1 2 3 4 5 6 | "],
            ["problem even2col", "value 1", "color 1 1", "color 2 1", "color 3 1", "color 4 1",
             "color 5 1", "color 6 1"]),
        "gallai-ee": (0,
            ["value=0 feasible=true", "part a: ", "part b: 1 2 3 4 5 6"],
            ["problem gallai-ee", "value 0", "color 1 2", "color 2 2", "color 3 2",
             "color 4 2", "color 5 2", "color 6 2"]),
        "gallai-oe": (0,
            ["value=0 feasible=true", "part a: ", "part b: 1 2 3 4 5 6"],
            ["problem gallai-oe", "value 0", "color 1 2", "color 2 2", "color 3 2",
             "color 4 2", "color 5 2", "color 6 2"]),
        "odd-orient": (0,
            ["value=6 feasible=true", "orient 1 2", "orient 6 1", "orient 2 3", "orient 3 4",
             "orient 4 5", "orient 5 6"],
            ["problem odd-orient", "value 6", "orient 1 2", "orient 6 1", "orient 2 3",
             "orient 3 4", "orient 4 5", "orient 5 6"]),
        "join-bound": (1,
            ["error: not a join: missing edge (0, 4)"],
            None),
        "cograph-3col": (2,
            ["value=none feasible=false", "not-cograph: {1 2 3 4 5 6}"],
            None),
    },
    "p4": {
        "odd2col": (0,
            ["value=2 feasible=true", "classes: 3 4 | 1 2"],
            ["problem odd2col", "value 2", "color 1 2", "color 2 2", "color 3 1", "color 4 1"]),
        "even2col": (0,
            ["value=2 feasible=true", "classes: 2 4 | 1 3"],
            ["problem even2col", "value 2", "color 1 2", "color 2 1", "color 3 2", "color 4 1"]),
        "gallai-ee": (0,
            ["value=2 feasible=true", "part a: 1 3", "part b: 2 4"],
            ["problem gallai-ee", "value 2", "color 1 1", "color 2 2", "color 3 1",
             "color 4 2"]),
        "gallai-oe": (0,
            ["value=2 feasible=true", "part a: 2 3", "part b: 1 4"],
            ["problem gallai-oe", "value 2", "color 1 2", "color 2 1", "color 3 1",
             "color 4 2"]),
        "odd-orient": (2,
            ["value=none feasible=false", "component {1 2 3 4} has odd |V|+|E|"],
            None),
        "join-bound": (1,
            ["error: not a join: missing edge (0, 3)"],
            None),
        "cograph-3col": (2,
            ["value=none feasible=false", "not-cograph: {1 2 3 4}"],
            None),
    },
    "s5": {
        "odd2col": (2,
            ["value=none feasible=false", "the per-vertex parity system is unsatisfiable"],
            None),
        "even2col": (0,
            ["value=2 feasible=true", "classes: 2 3 4 5 | 1"],
            ["problem even2col", "value 2", "color 1 2", "color 2 1", "color 3 1", "color 4 1",
             "color 5 1"]),
        "gallai-ee": (0,
            ["value=1 feasible=true", "part a: 1", "part b: 2 3 4 5"],
            ["problem gallai-ee", "value 1", "color 1 1", "color 2 2", "color 3 2",
             "color 4 2", "color 5 2"]),
        "gallai-oe": (0,
            ["value=2 feasible=true", "part a: 1 2", "part b: 3 4 5"],
            ["problem gallai-oe", "value 2", "color 1 1", "color 2 1", "color 3 2",
             "color 4 2", "color 5 2"]),
        "odd-orient": (2,
            ["value=none feasible=false", "component {1 2 3 4 5} has odd |V|+|E|"],
            None),
        "join-bound": (1,
            ["error: not a join: missing edge (1, 4)"],
            None),
        "cograph-3col": (2,
            ["value=none feasible=false", "odd-component: {1 2 3 4 5}"],
            None),
    },
}

POLY_GRAPHS = {"k4": ("clique", 4), "c6": ("cycle", 6), "p4": ("path", 4), "s5": ("star", 5)}


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def test_poly_subcommands(capsys, k222_file, tmp_path):
    cert = tmp_path / "poly.cert"
    for name, (family, n) in POLY_GRAPHS.items():
        graph = tmp_path / f"{name}.col"
        graph.write_text(write_graph(gen_family(family, n)))
        assert sorted(POLY_PINS[name]) == sorted(POLY_OPS)
        for op, (want_code, lines, want_cert) in POLY_PINS[name].items():
            cert.unlink(missing_ok=True)
            code, out, err = run(capsys, "poly", op, "--graph", str(graph), "--side", "1,2",
                                 "--emit-certificate", str(cert))
            if want_code == 1:
                want = ("", _text(lines))
            else:
                shown = lines + [f"certificate written to {cert}"] * (want_cert is not None)
                want = (_text(shown), "")
            assert (code, out, err) == (want_code, *want), (name, op)
            got_cert = cert.read_text() if cert.exists() else None
            assert got_cert == (None if want_cert is None else _text(want_cert)), (name, op)
    code, out, _ = run(capsys, "poly", "gallai-oe", "--graph", k222_file)
    assert code == 0
    code, out, _ = run(capsys, "poly", "cograph-3col", "--graph", k222_file)
    assert code == 0
    code, out, _ = run(capsys, "poly", "join-bound", "--graph", k222_file,
                       "--side", "1,2")
    assert code == 0
    code, _, err = run(capsys, "poly", "join-bound", "--graph", k222_file)
    assert code == 1  # --side is required


def test_poly_odd2col_names_the_per_vertex_system(capsys, c6_file, tmp_path):
    # C6 has no odd 2-coloring (pinned in test_parity), so the system fails
    code, out, _ = run(capsys, "poly", "odd2col", "--graph", c6_file)
    assert code == 2
    assert out.splitlines() == ["value=none feasible=false",
                                "the per-vertex parity system is unsatisfiable"]
    # K4 is itself odd, so its witness is one class
    k4 = tmp_path / "k4.col"
    k4.write_text(write_graph(gen_family("clique", 4)))
    code, out, _ = run(capsys, "poly", "odd2col", "--graph", str(k4))
    assert code == 0 and out.splitlines()[0] == "value=1 feasible=true"


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
