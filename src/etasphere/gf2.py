"""GF(2) linear algebra on int bitmasks.

Rows are Python ints; bit j of a row is the coefficient of basis vector j.
"""

from __future__ import annotations


def bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def rank(rows: list[int]) -> int:
    work = [r for r in rows if r]
    rk = 0
    pivots: list[int] = []
    for row in work:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
            rk += 1
    return rk


def row_reduce(rows: list[int]) -> list[int]:
    """Reduced basis of the row space (each pivot bit unique to its row)."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            # back-substitute into earlier rows
            low = row & -row
            basis = [b ^ row if b & low else b for b in basis]
            basis.append(row)
    return sorted(basis, key=lambda r: r & -r)


def transpose(columns: list[int], nrows: int) -> list[int]:
    """Rows of the matrix whose j-th column is the bitmask `columns[j]`.

    Bit j of row i is bit i of `columns[j]`; every column must fit in
    `nrows` bits.
    """
    rows = [0] * nrows
    for j, col in enumerate(columns):
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return rows


def nullspace(columns: int, rows: list[int]) -> list[int]:
    """Kernel basis of the linear map with the given matrix rows.

    `rows[i]` holds the i-th equation: bit j is the coefficient of unknown j.
    Returned vectors are bitmasks over the `columns` unknowns.
    """
    work = [r for r in rows if r]
    pivot_col_of_row: list[int] = []
    reduced: list[int] = []
    for row in work:
        for b, pc in zip(reduced, pivot_col_of_row):
            if (row >> pc) & 1:
                row ^= b
        if row:
            pc = (row & -row).bit_length() - 1
            reduced = [b ^ row if (b >> pc) & 1 else b for b in reduced]
            reduced.append(row)
            pivot_col_of_row.append(pc)
    pivot_cols = set(pivot_col_of_row)
    free_cols = [j for j in range(columns) if j not in pivot_cols]
    kernel = []
    for j in free_cols:
        vec = 1 << j
        for b, pc in zip(reduced, pivot_col_of_row):
            if (b >> j) & 1:
                vec |= 1 << pc
        kernel.append(vec)
    return kernel


def solve(columns: list[int], targets: list[int]) -> list[int | None]:
    """Per target, a bitmask S with xor of columns[j] over j in S equal to it, or None.

    The columns are eliminated once and every target is reduced against them.
    """
    basis: list[tuple[int, int]] = []  # (reduced column, combination mask)
    for j, col in enumerate(columns):
        comb = 1 << j
        for b, bc in basis:
            low = b & -b
            if col & low:
                col ^= b
                comb ^= bc
        if col:
            basis.append((col, comb))
    out: list[int | None] = []
    for target in targets:
        comb = 0
        for b, bc in basis:
            low = b & -b
            if target & low:
                target ^= b
                comb ^= bc
        out.append(comb if target == 0 else None)
    return out


def span_intersection(a_rows: list[int], b_rows: list[int]) -> list[int]:
    """Basis of span(a_rows) intersect span(b_rows)."""
    if not a_rows or not b_rows:
        return []
    vecs = a_rows + b_rows
    eqs = transpose(vecs, max(v.bit_length() for v in vecs))
    out = []
    for sol in nullspace(len(vecs), eqs):
        v = 0
        for i, a in enumerate(a_rows):
            if (sol >> i) & 1:
                v ^= a
        if v:
            out.append(v)
    return row_reduce(out)


def quotient_basis(space: list[int], subspace: list[int]) -> list[int]:
    """Vectors of `space` forming a basis of span(space)/span(subspace)."""
    sub = row_reduce(subspace)
    out = []
    acc = list(sub)
    for v in space:
        w = v
        for b in acc:
            low = b & -b
            if w & low:
                w ^= b
        if w:
            acc.append(w)
            out.append(v)
    return out
