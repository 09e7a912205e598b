"""Dense GF(2) linear algebra on int-bitmask rows.

A vector over GF(2)^w is an int whose bit j is coordinate j.  `row_basis` is
the package's one elimination loop.  It pivots on the lowest set bit, i.e.
the smallest column index, and prefers earlier rows, so its basis is the
lexicographically earliest one.  It keeps an echelon form keyed by pivot: a
new row is reduced only at the pivots it meets, so the cost follows the bits
it touches, not the rank.  `RowBasis.reduced_rows` back-reduces on demand to
the canonical form of the row space.  `solve` runs `row_basis` over the
columns of a system, and `single_row_basis` is `row_basis` of one row, which
needs no loop.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._frozen import Frozen

__all__ = [
    "RowBasis",
    "row_basis",
    "single_row_basis",
    "solve",
]


class RowBasis(Frozen):
    """Earliest row basis of a row sequence, with coordinates over it.

    ``basis_row_indices`` are the earliest input rows forming a row basis;
    ``coordinates`` expresses any row-space vector over exactly those rows.
    The elements are in echelon form: each one's lowest set bit is its
    pivot, no two share a pivot, and they are kept in ascending pivot order.
    """

    __slots__ = ("basis_row_indices", "_elems")
    basis_row_indices: tuple[int, ...]
    # (pivot bit, row, combination over basis positions), by ascending pivot
    _elems: list[tuple[int, int, int]]

    def __init__(self, basis_row_indices: tuple[int, ...],
                 _elems: list[tuple[int, int, int]]) -> None:
        object.__setattr__(self, "basis_row_indices", basis_row_indices)
        object.__setattr__(self, "_elems", _elems)

    @property
    def rank(self) -> int:
        return len(self.basis_row_indices)

    def coordinates(self, vec: int) -> int | None:
        """Combination of basis rows equal to `vec`, or None if outside the span.

        The result is a bitmask over positions in ``basis_row_indices``.  An
        element's row has no bit below its pivot, so one pass in ascending
        pivot order clears every pivot bit of `vec`; walking `vec` by its own
        lowest bit instead would negate a w-bit int at every step.
        """
        cur = vec
        combo = 0
        for pivot, row, cmb in self._elems:
            if cur & pivot:
                cur ^= row
                combo ^= cmb
        return None if cur else combo

    def reduced_rows(self) -> tuple[int, ...]:
        """The fully reduced rows sorted by pivot: each pivot bit is set in
        its own row only, so they are equal exactly for equal row spaces.

        Rows are reduced from the highest pivot down.  A reduced row holds no
        pivot bit but its own, so reducing against it clears that bit and
        sets no other pivot bit.
        """
        done: list[tuple[int, int]] = []
        for pivot, row, _ in reversed(self._elems):
            for other, red in done:
                if row & other:
                    row ^= red
            done.append((pivot, row))
        return tuple(row for _, row in reversed(done))


def row_basis(rows: Iterable[int]) -> RowBasis:
    """Eliminate `rows` in order; zero and dependent rows leave no trace."""
    by_pivot: dict[int, tuple[int, int, int]] = {}
    basis_idx: list[int] = []
    for i, row in enumerate(rows):
        cur = row
        combo = 0
        while cur:
            pivot = cur & -cur
            elem = by_pivot.get(pivot)
            if elem is None:
                by_pivot[pivot] = (pivot, cur, combo ^ 1 << len(basis_idx))
                basis_idx.append(i)
                break
            cur ^= elem[1]
            combo ^= elem[2]
    return RowBasis(tuple(basis_idx), sorted(by_pivot.values()))


def single_row_basis(row: int) -> RowBasis:
    """``row_basis([row])`` without its loop: the empty basis for 0, else
    `row` alone, pivoting on its lowest bit."""
    if not row:
        return RowBasis((), [])
    return RowBasis((0,), [(row & -row, row, 1)])


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
