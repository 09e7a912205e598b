"""Dense GF(2) linear algebra on int-bitmask rows.

A vector over GF(2)^w is an int whose bit j is coordinate j; a matrix is a
tuple of such row ints.  Elimination pivots on the lowest set bit, i.e. the
smallest column index, and prefers earlier rows, so decompositions are
deterministic and the row basis is the lexicographically earliest one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "Gf2Error",
    "Gf2Matrix",
    "RowBasis",
    "rank_of",
    "row_basis",
    "solve",
]


class Gf2Error(ValueError):
    """Dimension mismatch or malformed matrix input."""


@dataclass(frozen=True)
class Gf2Matrix:
    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if self.ncols < 0:
            raise Gf2Error("ncols must be nonnegative")
        mask = (1 << self.ncols) - 1
        for i, r in enumerate(self.rows):
            if r < 0 or r & ~mask:
                raise Gf2Error(f"row {i} has bits outside 0..{self.ncols - 1}")

    @classmethod
    def from_bits(cls, bits: Sequence[Sequence[int]], ncols: int | None = None) -> "Gf2Matrix":
        if ncols is None:
            ncols = len(bits[0]) if bits else 0
        rows = []
        for row in bits:
            if len(row) != ncols:
                raise Gf2Error("ragged bit rows")
            rows.append(sum(1 << j for j, b in enumerate(row) if b & 1))
        return cls(tuple(rows), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Gf2Matrix":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return Gf2Matrix(tuple(cols), len(self.rows))


@dataclass(frozen=True)
class RowBasis:
    """Earliest row basis of a row sequence, with coordinates over it.

    ``basis_row_indices`` are the earliest input rows forming a row basis;
    ``coordinates`` expresses any row-space vector over exactly those rows.
    """

    basis_row_indices: tuple[int, ...]
    # (pivot bit, reduced row, combination over basis positions), in insertion order
    _elems: tuple[tuple[int, int, int], ...] = field(repr=False)

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

    def in_span(self, vec: int) -> bool:
        return self.coordinates(vec) is not None


def row_basis(rows: Iterable[int]) -> RowBasis:
    """Eliminate `rows` in order; zero and dependent rows leave no trace.

    Takes bare ints, so no `Gf2Matrix` is validated.
    """
    elems: list[tuple[int, int, int]] = []
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
            elems.append((cur & -cur, cur, combo))
            basis_idx.append(i)
    return RowBasis(tuple(basis_idx), tuple(elems))


def rank_of(rows: Iterable[int]) -> int:
    """Rank of a set of bitmask rows (column count implicit)."""
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


def solve(m: Gf2Matrix, rhs: int) -> int | None:
    """One solution of m @ x = rhs over GF(2), free variables fixed to 0.

    `rhs` is a bitmask with bit i the right-hand side of row i.  Returns the
    solution bitmask over the ncols variables, or None if inconsistent.
    """
    if rhs < 0 or rhs >> len(m.rows):
        raise Gf2Error("rhs has more bits than matrix rows")
    vars_mask = (1 << m.ncols) - 1
    rhs_bit = 1 << m.ncols
    elems: list[int] = []
    for i, row in enumerate(m.rows):
        cur = row | (rhs_bit if rhs >> i & 1 else 0)
        for e in elems:
            low = e & -e
            if cur & low:
                cur ^= e
        if cur & vars_mask:
            # mutual reduction keeps every pivot isolated
            p = cur & -cur
            for k, e in enumerate(elems):
                if e & p:
                    elems[k] = e ^ cur
            elems.append(cur)
        elif cur:
            return None  # 0 = 1
    x = 0
    for e in elems:
        if e & rhs_bit:
            x |= e & -e
    return x
