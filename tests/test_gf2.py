from __future__ import annotations

import random
from itertools import product

from oddsolve.gf2 import row_basis, single_row_basis, solve


def apply(cols: list[int], x: int) -> int:
    """The right-hand side that x gives: the XOR of the columns it selects."""
    out = 0
    for j, col in enumerate(cols):
        if x >> j & 1:
            out ^= col
    return out


def rand_cols(rng: random.Random, nrows: int, ncols: int) -> list[int]:
    return [rng.randrange(1 << nrows) for _ in range(ncols)]


def independent_mask(cols: list[int]) -> int:
    """Bitmask of the earliest independent columns."""
    return sum(1 << j for j in row_basis(cols).basis_row_indices)


def span_of(rows: list[int]) -> set[int]:
    """Every XOR of a subset of `rows`, by enumeration."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def test_rank_small_cases():
    assert row_basis([]).rank == 0
    assert row_basis([0, 0]).rank == 0
    assert row_basis([0b1, 0b10, 0b11]).rank == 2
    assert row_basis([0b111, 0b110, 0b001]).rank == 2


def test_single_row_basis_is_row_basis_of_one_row():
    rng = random.Random(4)
    rows = [0, 1, 1 << 70, (1 << 130) - 1] + [rng.randrange(1 << 80) for _ in range(30)]
    for row in rows:
        assert single_row_basis(row) == row_basis([row])


def test_rank_matches_span_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        rows = [rng.randrange(1 << 6) for _ in range(rng.randrange(6))]
        assert 1 << row_basis(rows).rank == len(span_of(rows))


def combine(rows: list[int], basis_idx: tuple[int, ...], coords: int) -> int:
    """The vector that `coords` names over the basis rows of `rows`."""
    acc = 0
    for pos, i in enumerate(basis_idx):
        if coords >> pos & 1:
            acc ^= rows[i]
    return acc


def test_row_basis_rows_are_earliest():
    b = row_basis([0b011, 0b011, 0b101, 0b110])
    assert b.rank == 2
    assert b.basis_row_indices == (0, 2)  # row 1 duplicates row 0, row 3 = 0^2
    assert row_basis([0, 0b10, 0, 0b10, 0b01]).basis_row_indices == (1, 4)
    rng = random.Random(4)
    for _ in range(60):
        rows = [rng.randrange(1 << 5) for _ in range(rng.randrange(8))]
        # a row enters the basis exactly when the rows before it do not span it
        earliest = tuple(i for i, r in enumerate(rows) if r not in span_of(rows[:i]))
        b = row_basis(rows)
        assert b.basis_row_indices == earliest
        assert 1 << b.rank == len(span_of(rows))


def test_row_basis_is_invariant_when_in_span_rows_are_appended():
    rng = random.Random(8)
    for _ in range(40):
        rows = [rng.randrange(1 << 6) for _ in range(rng.randrange(1, 6))]
        extra = [0]
        for _ in range(3):
            extra.append(combine(rows, tuple(range(len(rows))),
                                 rng.randrange(1 << len(rows))))
        b1 = row_basis(rows)
        b2 = row_basis(rows + extra)
        assert b2.basis_row_indices == b1.basis_row_indices
        for vec in range(1 << 6):
            assert b2.coordinates(vec) == b1.coordinates(vec)


def test_coordinates_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        rows = [rng.randrange(1 << 7) for _ in range(5)]
        b = row_basis(rows)
        span = set()
        # every combination of basis rows must roundtrip exactly
        for coords in range(1 << b.rank):
            vec = combine(rows, b.basis_row_indices, coords)
            assert b.coordinates(vec) == coords
            span.add(vec)
        assert len(span) == 1 << b.rank
        # every input row, dependent ones included, is rebuilt from its coordinates
        for row in rows:
            assert combine(rows, b.basis_row_indices, b.coordinates(row)) == row
        # vectors outside the span are reported as such
        for vec in range(1 << 7):
            if vec not in span:
                assert b.coordinates(vec) is None


def test_reduced_rows_are_canonical_for_the_row_space():
    rng = random.Random(9)
    for _ in range(60):
        rows = [rng.randrange(1 << 6) for _ in range(rng.randrange(1, 7))]
        red = row_basis(rows).reduced_rows()
        shuffled = rows[:]
        rng.shuffle(shuffled)
        extra = [0] + [combine(rows, tuple(range(len(rows))), rng.randrange(1 << len(rows)))
                       for _ in range(3)]
        assert row_basis(shuffled).reduced_rows() == red
        assert row_basis(rows + extra).reduced_rows() == red
        span = span_of(rows)
        assert 1 << len(red) == len(span)
        pivots = [r & -r for r in red]
        assert pivots == sorted(pivots)
        for piv in pivots:
            assert sum(1 for r in red if r & piv) == 1
        # the reduced rows span the same space as the input rows
        assert span_of(list(red)) == span


def banded_system(rng: random.Random, k: int, band: int) -> tuple[list[int], tuple[int, ...]]:
    """Rows over k + band columns with zero rows and XORs of earlier rows
    interleaved, and the indices of the k band rows among them.

    Band row i has top bit i + band and random bits in [i - band, i + band),
    so no earlier row reaches its top bit and the band rows are exactly the
    earliest basis.  With band 1 the rows are tridiagonal, like the vertex
    system of a path.
    """
    rows: list[int] = []
    fresh: list[int] = []
    for i in range(k):
        low = max(0, i - band)
        fresh.append(len(rows))
        rows.append(1 << (i + band) | rng.randrange(1 << (i + band - low)) << low)
        roll = rng.random()
        if roll < 0.1:
            rows.append(0)
        elif roll < 0.3:
            rows.append(combine(rows, tuple(range(len(rows))), rng.randrange(1 << len(rows))))
    return rows, tuple(fresh)


def test_wide_banded_systems():
    """Rows of 300 bits and more: the echelon form spans many int digits, and
    a row is reduced at pivots far from its own lowest bit."""
    rng = random.Random(11)
    for k, band in ((300, 1), (320, 2), (400, 3)):
        rows, fresh = banded_system(rng, k, band)
        b = row_basis(rows)
        assert b.basis_row_indices == fresh
        # every input row, and every combination of basis rows, round trips
        for row in rows:
            assert combine(rows, fresh, b.coordinates(row)) == row
        for _ in range(20):
            coords = rng.randrange(1 << k)
            assert b.coordinates(combine(rows, fresh, coords)) == coords
        # rank k over k + band columns: some vectors lie outside the span
        outside = 0
        for _ in range(40):
            vec = rng.randrange(1 << (k + band))
            coords = b.coordinates(vec)
            if coords is None:
                outside += 1
            else:
                assert combine(rows, fresh, coords) == vec
        assert outside
        # the rows as the columns of a system
        rhs = apply(rows, rng.randrange(1 << len(rows)))
        x = solve(rows, rhs)
        assert apply(rows, x) == rhs
        assert x & ~sum(1 << i for i in fresh) == 0
        assert solve(rows, rhs ^ 1 << (k + band)) is None
        # the reduced form is canonical: shuffling the rows keeps it
        red = b.reduced_rows()
        assert len(red) == k
        pivots = [r & -r for r in red]
        assert pivots == sorted(pivots)
        for piv in pivots:
            assert sum(1 for r in red if r & piv) == 1
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert row_basis(shuffled).reduced_rows() == red


def test_solve_agrees_with_enumeration_on_small_systems():
    rng = random.Random(6)
    for _ in range(80):
        ncols = rng.randrange(1, 5)
        nrows = rng.randrange(1, 5)
        cols = rand_cols(rng, nrows, ncols)
        rhs = rng.randrange(1 << nrows)
        solutions = [x for x in range(1 << ncols) if apply(cols, x) == rhs]
        got = solve(cols, rhs)
        if solutions:
            assert got in solutions
        else:
            assert got is None


def test_solve_fixes_free_variables_to_zero():
    # single equation x0 + x1 + x2 = 1 -> x0 set, free x1 x2 zero
    assert solve([0b1, 0b1, 0b1], 0b1) == 0b001
    # x1 duplicates x0, so x0 and x2 are the earliest independent columns
    assert solve([0b01, 0b01, 0b10], 0b11) == 0b101
    rng = random.Random(10)
    for _ in range(80):
        cols = rand_cols(rng, rng.randrange(1, 6), rng.randrange(1, 7))
        rhs = apply(cols, rng.randrange(1 << len(cols)))
        got = solve(cols, rhs)
        # the solution that is zero off the earliest independent columns is unique
        assert apply(cols, got) == rhs
        assert got & ~independent_mask(cols) == 0


def test_solve_random_larger_systems():
    rng = random.Random(7)
    for _ in range(40):
        cols = rand_cols(rng, 12, 16)
        x0 = rng.randrange(1 << 16)
        rhs = apply(cols, x0)  # consistent by construction
        got = solve(cols, rhs)
        assert got is not None
        assert apply(cols, got) == rhs
        assert got & ~independent_mask(cols) == 0


def test_bits_exhaustive_tiny():
    # all 2x2 systems, all rhs: agreement with enumeration
    for cols in product(range(4), repeat=2):
        for rhs in range(4):
            sols = [x for x in range(4) if apply(list(cols), x) == rhs]
            got = solve(list(cols), rhs)
            assert (got in sols) if sols else (got is None)
