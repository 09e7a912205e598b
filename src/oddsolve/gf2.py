"""Dense GF(2) linear algebra on int-bitmask rows.

A vector over GF(2)^w is an int whose bit j is coordinate j.  `row_basis` is
the one elimination routine: it pivots on the lowest set bit, i.e. the
smallest column index, prefers earlier rows, and keeps its rows fully
reduced, so the basis is the lexicographically earliest one and its reduced
rows are the canonical form of the row space.  `solve` runs it over the
columns of a system.  `rank_of` is a rank-only loop kept for speed, and
`single_row_basis` is `row_basis` of one row, which needs no elimination.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from ._frozen import Frozen

__all__ = [
    "RowBasis",
    "rank_of",
    "row_basis",
    "single_row_basis",
    "solve",
]


class RowBasis(Frozen):
    """Earliest row basis of a row sequence, with coordinates over it.

    ``basis_row_indices`` are the earliest input rows forming a row basis;
    ``coordinates`` expresses any row-space vector over exactly those rows.
    The reduced rows are fully reduced: each pivot bit is set in its own row
    only, so they are the unique reduced echelon form of the row space.
    """

    __slots__ = ("basis_row_indices", "_elems")
    basis_row_indices: tuple[int, ...]
    # (pivot bit, reduced row, combination over basis positions), in insertion order
    _elems: tuple[list[int], ...]

    def __init__(self, basis_row_indices: tuple[int, ...], _elems: tuple[list[int], ...]) -> None:
        object.__setattr__(self, "basis_row_indices", basis_row_indices)
        object.__setattr__(self, "_elems", _elems)

    @property
    def rank(self) -> int:
        return len(self.basis_row_indices)

    def coordinates(self, vec: int) -> int | None:
        """Combination of basis rows equal to `vec`, or None if outside the span.

        The result is a bitmask over positions in ``basis_row_indices``.
        """
        cur = vec
        combo = 0
        for pivot, row, cmb in self._elems:
            if cur & pivot:
                cur ^= row
                combo ^= cmb
        return None if cur else combo

    def reduced_rows(self) -> tuple[int, ...]:
        """The reduced rows sorted by pivot: equal exactly for equal row spaces."""
        return tuple(row for _, row, _ in sorted(self._elems))


def row_basis(rows: Iterable[int]) -> RowBasis:
    """Eliminate `rows` in order; zero and dependent rows leave no trace."""
    elems: list[list[int]] = []
    basis_idx: list[int] = []
    for i, row in enumerate(rows):
        cur = row
        combo = 0
        for pivot, red, cmb in elems:
            if cur & pivot:
                cur ^= red
                combo ^= cmb
        if cur:
            combo ^= 1 << len(elems)
            pivot = cur & -cur
            for e in elems:
                if e[1] & pivot:
                    e[1] ^= cur
                    e[2] ^= combo
            elems.append([pivot, cur, combo])
            basis_idx.append(i)
    return RowBasis(tuple(basis_idx), tuple(elems))


def single_row_basis(row: int) -> RowBasis:
    """``row_basis([row])`` without its loops: the empty basis for 0, else
    `row` alone, pivoting on its lowest bit."""
    if not row:
        return RowBasis((), ())
    return RowBasis((0,), ([row & -row, row, 1],))


def rank_of(rows: Iterable[int]) -> int:
    """Rank of a set of bitmask rows (column count implicit).

    Kept beside `row_basis` for `width()` and `optimal_linear`, which need the
    rank alone: `row_basis(...).rank`, which also reduces fully and tracks
    coordinates, made them about 1.5x slower.
    """
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            low = b & -b
            if cur & low:
                cur ^= b
        if cur:
            basis.append(cur)
    return len(basis)


def solve(cols: Sequence[int], rhs: int) -> int | None:
    """One solution x of sum of cols[j] over j in x = rhs, or None.

    `cols[j]` is column j of the system as a bitmask over its equations.
    Free variables are 0: the solution uses only the earliest independent
    columns.
    """
    basis = row_basis(cols)
    coords = basis.coordinates(rhs)
    if coords is None:
        return None
    x = 0
    for pos, j in enumerate(basis.basis_row_indices):
        if coords >> pos & 1:
            x |= 1 << j
    return x
