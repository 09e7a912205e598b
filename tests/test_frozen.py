from __future__ import annotations

import copy
import pickle

import pytest

from oddsolve.certificates import Certificate
from oddsolve.gf2 import RowBasis, row_basis
from oddsolve.graph import Graph, gen_family
from oddsolve.parity import cograph_odd_3_coloring, join_bound_subgraph
from oddsolve.rankdec import DecompositionTree, caterpillar
from oddsolve.reductions import (
    Cnf23,
    Refutation,
    gen_mes_instance,
    gen_qcol_instance,
    mes_witness,
    parse_cnf,
)

TOY_CNF = "p cnf 3 3\n1 2 -3 0\n2 3 -1 0\n3 1 -2 0\n"


def _values():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    cnf = parse_cnf(TOY_CNF)
    gm = gen_mes_instance(cnf, 4, allow_small_p=True)[1]
    k4 = gen_family("clique", 4)
    return [
        (g, Graph.from_edges(3, [(1, 2), (0, 1)]), "Graph(n=3, adj=(2, 5, 2), m=2)", True),
        (row_basis([3, 1, 2]), row_basis([3, 1, 2]),
         "RowBasis(basis_row_indices=(0, 1))", False),
        (caterpillar(g, [0, 1, 2]), caterpillar(g, [0, 1, 2]),
         "DecompositionTree(children={3: (0, 1), 4: (3, 2)}, "
         "leaf_vertex={0: 0, 1: 1, 2: 2}, root=4)", False),
        (Certificate("mos", 2, vertex_set=0b11), Certificate("mos", 2, vertex_set=0b11),
         "Certificate(problem='mos', value=2, vertex_set=3, coloring=None, arcs=None)", True),
        (cnf, parse_cnf(TOY_CNF),
         "Cnf23(n_vars=3, clauses=((1, 2, -3), (2, 3, -1), (3, 1, -2)))", True),
        (gm, gen_mes_instance(cnf, 4, allow_small_p=True)[1],
         "GadgetMap(n=3, p=4, clause_literals=((1, 2, -3), (2, 3, -1), (3, 1, -2)), "
         "equivalence_guaranteed=False)", True),
        (mes_witness(cnf, [True, True, False], gm), Refutation(0, 3),
         "Refutation(clause_index=0, true_count=3)", True),
        (gen_qcol_instance(gen_family("cycle", 3)), gen_qcol_instance(gen_family("cycle", 3)),
         "QcolInstance(graph=Graph(n=6, adj=(24, 40, 48, 3, 5, 6), m=6), "
         "fixed=Graph(n=3, adj=(6, 5, 3), m=3), orientation=((0, 1), (2, 0), (1, 2)), "
         "subdivision_vertex={(0, 1): 3, (0, 2): 4, (1, 2): 5}, original_n=3)", False),
        (join_bound_subgraph(k4, 0b0011, 0b1100), join_bound_subgraph(k4, 0b0011, 0b1100),
         "JoinBoundResult(subgraph=10, coloring=(2, 0, 2, 0))", True),
        (cograph_odd_3_coloring(gen_family("path", 4)),
         cograph_odd_3_coloring(gen_family("path", 4)),
         "CographFailure(reason='not-cograph', detail=15)", True),
    ]


def test_value_classes_behave_as_frozen_dataclasses_did():
    """Field-wise equality and repr, hashing where every field is hashable,
    no assignment or deletion, and copies and pickles that compare equal."""
    for value, twin, text, hashable in _values():
        assert value == twin and value is not twin
        assert repr(value) == text
        if hashable:
            assert hash(value) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(value)
        field = text[text.index("(") + 1:text.index("=")]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and clone == value
    assert Graph(1, (0,), 0) != Graph(1, (0,), 1)
    assert Graph(1, (0,), 0) != (1, (0,), 0)
    assert RowBasis((0,), ([1, 1, 1],)) != RowBasis((0,), ([2, 2, 1],))
    assert DecompositionTree({}, {0: 0}) == DecompositionTree({}, {0: 0}, 0)
    assert Refutation(0, 3) != Refutation(0, 1)
    assert Cnf23(1, ((1,),)) != Cnf23(2, ((1,),))


def test_generic_init_takes_one_value_per_field():
    for wrong in ((0,), (0, 1, 2)):
        with pytest.raises(ValueError):
            Refutation(*wrong)
