"""Command-line interface.

Subcommands: solve, oracle, poly, decompose, gen, verify.  Every run prints
a machine-readable first line `value=<int|none> feasible=<true|false>`
followed by human detail lines.  Exit codes: 0 feasible/defined, 2
infeasible/undefined, 1 error (bad arguments, unreadable files, failed
certificate checks, out of memory, a closed stdout), reported as one
`error: ...` line on stderr.

The oracle, poly and gen reduce subcommands import their modules (`oracle`,
`parity`, `reductions`) on first use, so that `solve`, run once per process,
loads only the decomposition and DP path.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import certificates as ct
from . import dp, rankdec
from .graph import (FAMILIES, Graph, _check_order, _check_pairs, gen_family, parse_graph,
                    vertices_of, write_graph)

__all__ = ["main"]

POLY_OPS = ("odd2col", "even2col", "gallai-ee", "gallai-oe", "odd-orient",
            "join-bound", "cograph-3col")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; 2 means infeasible here."""

    def error(self, message):  # noqa: A003 - argparse API
        raise _CliError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror}") from None


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def _check_threads(value: int | None) -> None:
    """Validate --threads, else the ODDSOLVE_THREADS environment variable, as
    a positive integer.

    The solver is serial: nothing reads the count, and results and output
    bytes never depend on it.  The flag stays so that scripts which pass it
    keep running, and a bad value still fails the run with exit code 1.
    """
    if value is None:
        env = os.environ.get("ODDSOLVE_THREADS")
        if env is None:
            return
        try:
            value = int(env)
        except ValueError:
            raise _CliError(f"ODDSOLVE_THREADS={env!r} is not an integer") from None
    if value < 1:
        raise _CliError(f"thread count must be >= 1, got {value}")


def _result_line(value, feasible: bool) -> str:
    shown = "none" if value is None else value
    return f"value={shown} feasible={'true' if feasible else 'false'}"


def _vertex_list(mask: int) -> str:
    return " ".join(str(v + 1) for v in vertices_of(mask))


def _decomposition_for(g: Graph, args) -> tuple[rankdec.DecompositionTree, str, int]:
    """(tree, source, width): the --dec file, else the narrower automatic tree."""
    if getattr(args, "dec", None):
        t = rankdec.parse_tree(_read(args.dec))
        return t, "file", rankdec.width(g, t)
    t, name, w = rankdec.auto_tree(g)
    return t, f"auto {name}", w


def _emit_certificate(args, out: list[str], problem: str, value: int, **payload) -> None:
    """Write the certificate to the file --emit-certificate names, if any."""
    path = getattr(args, "emit_certificate", None)
    if path:
        _write(path, ct.write_certificate(ct.Certificate(problem, value, **payload)))
        out.append(f"certificate written to {path}")


def _coloring_classes(coloring) -> int:
    return len(set(coloring)) if coloring else 0


# The answer on the empty graph, one per answer shape: (value, vertex set);
# a coloring into at most --q classes, the one shape that takes --q; and
# (value, coloring).  None stands for no answer.
_EMPTY_SUBSET = (0, 0)
_EMPTY_COLORING = ()
_EMPTY_CHI = (0, ())

# problem -> (DP solve, name of its function in `oracle`, answer on the empty
# graph, which no tree can carry).  Each solve looks its dp function up when
# called, so that a wrapped or patched function still sees every call.
_PROBLEMS = {
    "mos": (lambda g, t, q: dp.solve_mos(g, t), "oracle_mos", _EMPTY_SUBSET),
    "mes": (lambda g, t, q: dp.solve_mes(g, t), "oracle_mes", _EMPTY_SUBSET),
    "odd-qcol": (lambda g, t, q: dp.solve_odd_qcol(g, t, q), "oracle_odd_qcol",
                 _EMPTY_COLORING),
    "chi-odd": (lambda g, t, q: dp.chi_odd(g, t), "oracle_chi_odd", _EMPTY_CHI),
    "odd-ds": (lambda g, t, q: dp.solve_odd_ds(g, t), "oracle_odd_ds", _EMPTY_SUBSET),
    "odd-tds": (lambda g, t, q: dp.solve_odd_tds(g, t), "oracle_odd_tds", _EMPTY_SUBSET),
}
SOLVE_PROBLEMS = tuple(_PROBLEMS)


def _problem(args) -> tuple:
    """args.problem's row of _PROBLEMS, once --q is checked where it is used."""
    row = _PROBLEMS[args.problem]
    if row[2] == _EMPTY_COLORING:
        if args.q is None:
            raise _CliError(f"{args.problem} requires --q")
        if args.q < 1:
            raise _CliError("q must be positive")
    return row


def _report(args, answer, out: list[str]) -> tuple[int, list[str]]:
    """Exit code and lines of `solve` or `oracle` for args.problem's answer,
    after the lines already in out."""
    problem = args.problem
    empty = _PROBLEMS[problem][2]
    if empty == _EMPTY_COLORING:
        out.append(f"q={args.q}")
    if answer is None:
        if empty == _EMPTY_SUBSET:
            out.append("no feasible set exists")
        elif empty == _EMPTY_CHI:
            out.append("undefined: some component has odd order")
        return EXIT_INFEASIBLE, [_result_line(None, False)] + out
    if empty == _EMPTY_SUBSET:
        value, mask = answer
        out.append(f"witness: {_vertex_list(mask)}")
        _emit_certificate(args, out, problem, value, vertex_set=mask)
    elif empty == _EMPTY_COLORING:
        value = _coloring_classes(answer)
        _emit_certificate(args, out, problem, args.q, coloring=answer)
    else:
        value, coloring = answer
        _emit_certificate(args, out, problem, value, coloring=coloring)
    return EXIT_OK, [_result_line(value, True)] + out


def _cmd_solve(args) -> tuple[int, list[str]]:
    g = _load_graph(args.graph)
    _check_threads(args.threads)
    if g.n == 0 and not args.dec:
        t = None
        out = ["decomposition=none width=0"]
    else:
        t, source, w = _decomposition_for(g, args)
        out = [f"decomposition={source} width={w}"]
    solve, _, empty = _problem(args)
    return _report(args, empty if t is None else solve(g, t, args.q), out)


def _cmd_oracle(args) -> tuple[int, list[str]]:
    from . import oracle

    g = _load_graph(args.graph)
    _, name, empty = _problem(args)
    fn = getattr(oracle, name)
    answer = fn(g, args.q) if empty == _EMPTY_COLORING else fn(g)
    if empty == _EMPTY_CHI and answer is not None:
        answer = (answer, None)  # the oracle finds the number, not a coloring
    return _report(args, answer, [])


def _parse_side(text: str, g: Graph) -> int:
    mask = 0
    for tok in text.replace(",", " ").split():
        try:
            v = int(tok) - 1
        except ValueError:
            raise _CliError(f"bad vertex {tok!r} in --side") from None
        if not 0 <= v < g.n:
            raise _CliError(f"--side vertex {tok} out of range 1..{g.n}")
        mask |= 1 << v
    if not mask:
        raise _CliError("--side needs at least one vertex")
    return mask


def _cmd_poly(args) -> tuple[int, list[str]]:
    from . import parity

    g = _load_graph(args.graph)
    op = args.op
    out: list[str] = []

    if op in ("odd2col", "even2col"):
        # even2col is gallai-ee's partition with A as class 1, not class 0
        parts = parity.odd_two_coloring(g) if op == "odd2col" else parity.gallai_even_even(g)
        if parts is None:
            out.append("the per-vertex parity system is unsatisfiable")
            return EXIT_INFEASIBLE, [_result_line(None, False)] + out
        a, b = parts
        coloring = tuple(a >> v & 1 for v in range(g.n))
        used = _coloring_classes(coloring)
        out.append(f"classes: {_vertex_list(b)} | {_vertex_list(a)}")
        _emit_certificate(args, out, op, used, coloring=coloring)
        return EXIT_OK, [_result_line(used, True)] + out

    if op in ("gallai-oe", "gallai-ee"):
        fn = parity.gallai_odd_even if op == "gallai-oe" else parity.gallai_even_even
        a, b = fn(g)
        coloring = tuple(0 if a >> v & 1 else 1 for v in range(g.n))
        out.append(f"part a: {_vertex_list(a)}")
        out.append(f"part b: {_vertex_list(b)}")
        _emit_certificate(args, out, op, a.bit_count(), coloring=coloring)
        return EXIT_OK, [_result_line(a.bit_count(), True)] + out

    if op == "odd-orient":
        arcs = parity.odd_orientation(g)
        if arcs is None:
            comp = parity.orientation_obstruction(g)
            out.append(f"component {{{_vertex_list(comp)}}} has odd |V|+|E|")
            return EXIT_INFEASIBLE, [_result_line(None, False)] + out
        out.extend(f"orient {u + 1} {v + 1}" for u, v in arcs)
        _emit_certificate(args, out, "odd-orient", len(arcs), arcs=arcs)
        return EXIT_OK, [_result_line(len(arcs), True)] + out

    if op == "join-bound":
        if not args.side:
            raise _CliError("join-bound requires --side with the first join side")
        v1 = _parse_side(args.side, g)
        v2 = g.full_mask & ~v1
        res = parity.join_bound_subgraph(g, v1, v2)
        size = res.subgraph.bit_count()
        out.append(f"guarantee: {parity.join_bound_floor(g.n)}")
        out.append(f"subgraph: {_vertex_list(res.subgraph)}")
        if res.coloring is not None:
            out.append("coloring: " + " ".join(str(c + 1) for c in res.coloring))
        _emit_certificate(args, out, "join-bound", size, vertex_set=res.subgraph)
        return EXIT_OK, [_result_line(size, True)] + out

    # cograph-3col
    res = parity.cograph_odd_3_coloring(g)
    if isinstance(res, parity.CographFailure):
        out.append(f"{res.reason}: {{{_vertex_list(res.detail)}}}")
        return EXIT_INFEASIBLE, [_result_line(None, False)] + out
    used = _coloring_classes(res)
    _emit_certificate(args, out, "cograph-3col", used, coloring=res)
    return EXIT_OK, [_result_line(used, True)] + out


def _cmd_decompose(args) -> tuple[int, list[str]]:
    g = _load_graph(args.graph)
    t = rankdec.METHODS[args.method](g)
    w = rankdec.width(g, t)
    text = rankdec.write_tree(t)
    out = [f"method={args.method}"]
    if args.out:
        _write(args.out, text)
        out.append(f"tree written to {args.out}")
    else:
        out.extend(text.splitlines())
    return EXIT_OK, [_result_line(w, True)] + out


def _cmd_gen(args) -> tuple[int, list[str]]:
    out: list[str] = []
    if args.what == "family":
        g = gen_family(args.name, args.n)
    elif args.what == "random":
        n = args.n
        if n < 1:
            raise _CliError("--n must be >= 1")
        # before the pair loop, which walks every pair whatever --prob is
        _check_order(n)
        _check_pairs(n)
        if not 0 <= args.prob <= 1:
            raise _CliError("--prob must be in [0, 1]")
        import random

        rng = random.Random(args.seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < args.prob]
        g = Graph.from_edges(n, edges)
        out.append(f"seed={args.seed} prob={args.prob}")
    else:  # reduce
        from . import reductions

        if args.kind == "mes":
            p = reductions.MIN_PROOF_P if args.p is None else args.p
            cnf = reductions.parse_cnf(_read(args.cnf))
            g, gm, k = reductions.gen_mes_instance(cnf, p, allow_small_p=args.allow_small_p)
            out.append(f"k={k} p={p} n={cnf.n_vars}")
            if not gm.equivalence_guaranteed:
                out.append(f"warning: p < {reductions.MIN_PROOF_P}, "
                           "equivalence proof does not apply")
        elif args.kind == "mos":
            base = _load_graph(args.base_graph)
            g = reductions.gen_mos_instance(base, args.k)
            out.append(f"k={args.k} hub={base.n + 1} target={2 * args.k + 1}")
        else:  # qcol
            base = _load_graph(args.base_graph)
            inst = reductions.gen_qcol_instance(base)
            g = inst.graph
            out.append(f"fixed |V|={inst.fixed.n} |E|={inst.fixed.m}")
            out.extend(f"orient {u + 1} {v + 1}" for u, v in inst.orientation)
    text = write_graph(g)
    if args.out:
        _write(args.out, text)
        out.append(f"graph written to {args.out}")
    else:
        out.extend(text.splitlines())
    return EXIT_OK, [_result_line(g.n, True)] + out


def _cmd_verify(args) -> tuple[int, list[str]]:
    g = _load_graph(args.graph)
    cert = ct.parse_certificate(_read(args.certificate), n=g.n)
    if args.problem and args.problem != cert.problem:
        raise _CliError(f"certificate is for {cert.problem!r}, "
                        f"--problem says {args.problem!r}")
    ok, detail = ct.verify(g, cert)
    if not ok:
        return EXIT_ERROR, [_result_line(None, False), f"rejected: {detail}"]
    return EXIT_OK, [_result_line(cert.value, True), detail]


def _build_parser() -> _Parser:
    parser = _Parser(prog="oddsolve",
                     description="Exact solvers for parity-constrained "
                                 "induced subgraph problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve exactly over a rank decomposition")
    p_solve.add_argument("problem", choices=SOLVE_PROBLEMS)
    p_solve.add_argument("--graph", required=True)
    p_solve.add_argument("--dec", help="decomposition tree file (default: the narrower of "
                                       + " and ".join(rankdec.AUTO_METHODS) + ")")
    p_solve.add_argument("--q", type=int, help="class budget for odd-qcol")
    p_solve.add_argument("--emit-certificate", metavar="PATH")
    p_solve.add_argument("--threads", type=int,
                         help="worker budget (default: ODDSOLVE_THREADS); "
                              "results never depend on it")
    p_solve.set_defaults(fn=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force reference solver (small n)")
    p_oracle.add_argument("problem", choices=SOLVE_PROBLEMS)
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--q", type=int)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_poly = sub.add_parser("poly", help="polynomial-time parity routines")
    p_poly.add_argument("op", choices=POLY_OPS)
    p_poly.add_argument("--graph", required=True)
    p_poly.add_argument("--side", help="join-bound: first join side, e.g. '1,2,3'")
    p_poly.add_argument("--emit-certificate", metavar="PATH")
    p_poly.set_defaults(fn=_cmd_poly)

    p_dec = sub.add_parser("decompose", help="build a decomposition tree")
    p_dec.add_argument("--graph", required=True)
    p_dec.add_argument("--method", choices=rankdec.METHODS, default=next(iter(rankdec.METHODS)))
    p_dec.add_argument("--out", metavar="PATH")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_gen = sub.add_parser("gen", help="generate graphs and hardness instances")
    gen_sub = p_gen.add_subparsers(dest="what", required=True)
    g_family = gen_sub.add_parser("family")
    g_family.add_argument("name", choices=FAMILIES)
    g_family.add_argument("--n", type=int)
    g_family.add_argument("--out", metavar="PATH")
    g_random = gen_sub.add_parser("random")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--prob", type=float, default=0.5)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--out", metavar="PATH")
    g_reduce = gen_sub.add_parser("reduce")
    reduce_sub = g_reduce.add_subparsers(dest="kind", required=True)
    r_mes = reduce_sub.add_parser("mes")
    r_mes.add_argument("--cnf", required=True)
    r_mes.add_argument("--p", type=int)  # default reductions.MIN_PROOF_P, set in _cmd_gen
    r_mes.add_argument("--allow-small-p", action="store_true")
    r_mes.add_argument("--out", metavar="PATH")
    r_mos = reduce_sub.add_parser("mos")
    r_mos.add_argument("--graph", dest="base_graph", required=True)
    r_mos.add_argument("--k", type=int, required=True)
    r_mos.add_argument("--out", metavar="PATH")
    r_qcol = reduce_sub.add_parser("qcol")
    r_qcol.add_argument("--graph", dest="base_graph", required=True)
    r_qcol.add_argument("--out", metavar="PATH")
    for sp in (g_family, g_random, g_reduce):
        sp.set_defaults(fn=_cmd_gen)

    p_verify = sub.add_parser("verify", help="re-check a certificate")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--certificate", required=True)
    p_verify.add_argument("--problem", choices=ct.PROBLEMS)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        code, lines = args.fn(args)
    except (_CliError, ValueError) as exc:
        # every error class of the package subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        lines = None  # report below, once the traceback has released the tables
    if lines is None:
        message = "error: out of memory"
        if args is not None and args.command == "solve":  # the one subcommand with --dec
            message += "; a narrower decomposition (--dec) may fit"
        print(message, file=sys.stderr)
        return EXIT_ERROR
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter shutdown does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
