"""Exact solvers for parity-constrained induced subgraph problems.

Solves maximum odd/even induced subgraph, odd q-coloring and the odd
chromatic number, and minimum odd (total) dominating set, exactly, by
dynamic programming over rank decompositions; ships the matching
polynomial-time partition routines, brute-force reference oracles, and
hardness-instance generators.
"""
from __future__ import annotations

from .dp import chi_odd, solve_mes, solve_mos, solve_odd_ds, solve_odd_qcol, solve_odd_tds
from .graph import Graph, GraphError, gen_family, parse_graph, write_graph
from .rankdec import (
    DecompositionTree,
    TreeFormatError,
    auto_tree,
    caterpillar,
    cut_rank,
    elimination_tree,
    heuristic_order,
    optimal_linear,
    parse_tree,
    width,
    write_tree,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionTree",
    "Graph",
    "GraphError",
    "TreeFormatError",
    "auto_tree",
    "caterpillar",
    "chi_odd",
    "cut_rank",
    "elimination_tree",
    "gen_family",
    "heuristic_order",
    "optimal_linear",
    "parse_graph",
    "parse_tree",
    "solve_mes",
    "solve_mos",
    "solve_odd_ds",
    "solve_odd_qcol",
    "solve_odd_tds",
    "width",
    "write_graph",
    "write_tree",
]
