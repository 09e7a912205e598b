from __future__ import annotations

import copy
import pickle

import pytest

from oddsolve.certificates import Certificate
from oddsolve.gf2 import RowBasis, row_basis
from oddsolve.graph import Graph
from oddsolve.rankdec import DecompositionTree, caterpillar


def _values():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    return [
        (g, Graph.from_edges(3, [(1, 2), (0, 1)]), "Graph(n=3, adj=(2, 5, 2), m=2)", True),
        (row_basis([3, 1, 2]), row_basis([3, 1, 2]),
         "RowBasis(basis_row_indices=(0, 1))", False),
        (caterpillar(g, [0, 1, 2]), caterpillar(g, [0, 1, 2]),
         "DecompositionTree(children={3: (0, 1), 4: (3, 2)}, "
         "leaf_vertex={0: 0, 1: 1, 2: 2}, root=4)", False),
        (Certificate("mos", 2, vertex_set=0b11), Certificate("mos", 2, vertex_set=0b11),
         "Certificate(problem='mos', value=2, vertex_set=3, coloring=None, arcs=None)", True),
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
